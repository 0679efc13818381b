"""simulate_tour and a mission's artifacts against the slow oracles on random small missions."""

import dataclasses
import math
import time
from collections import Counter

import numpy as np
import pytest

from reference import (
    link_geometry,
    mission_geometry,
    reference_pair_bytes,
    reference_sensor_bytes,
    reference_stop_bytes,
    reference_summary_text,
    reference_tour,
)
from wpcnsim import mission
from wpcnsim.config_io import write_mission_summary
from wpcnsim.mission import (
    MissionLedger,
    ScenarioConfig,
    _flight_path,
    run_mission,
    simulate_tour,
    validate_config,
)
from wpcnsim.rf_link import EnergyCosts, LinkParams, max_boresight_harvest_range

N_CONFIGS = 300


def _rho_min(aspect_ratio, perimeter):
    """Least radius of curvature of the path, the bound on the standoff."""
    path = _flight_path(aspect_ratio, perimeter)
    return path.semi_minor**2 / path.semi_major


def _random_config(rng):
    """A small mission that validate_config may still reject."""
    aspect_ratio = float(rng.choice([1.0, rng.uniform(1.0, 6.0)]))
    perimeter = float(rng.uniform(30.0, 200.0))
    rho_min = _rho_min(aspect_ratio, perimeter)
    layout = str(rng.choice(["s1", "s2"]))
    n_sensors = int(rng.integers(1, 7)) * (2 if layout == "s2" else 1)
    if rng.random() < 0.3:
        standoff = rho_min * float(rng.uniform(0.98, 1.0))  # near the curvature limit
    else:
        standoff = float(rng.uniform(0.2, 1.5))
    link = LinkParams(
        frequency=float(rng.uniform(1e9, 3e9)),
        tx_power=float(rng.uniform(1.0, 5.0)),
        tx_gain_dbi=float(rng.uniform(3.0, 12.0)),
        rx_gain_dbi=float(rng.uniform(3.0, 12.0)),
        rf_dc_efficiency=float(rng.uniform(0.3, 0.95)),
        harvest_threshold=float(rng.choice([0.0, rng.uniform(1e-4, 1e-3)], p=[0.1, 0.9])),
        angle_exponent=float(rng.choice([0.0, 1.0, rng.uniform(0.0, 4.0)])),
    )
    costs = EnergyCosts(
        e_measurement=float(rng.uniform(0.001, 0.02)),
        e_tx_packet=float(rng.uniform(0.0, 0.02)),
        e_rx_packet=float(rng.uniform(0.0, 0.05)),
    )
    return dataclasses.replace(
        ScenarioConfig(),
        link=link,
        costs=costs,
        n_sensors=n_sensors,
        layout=layout,
        placement=str(rng.choice(["p1", "p2"])),
        n_stops=int(rng.choice([0, rng.integers(1, 25)], p=[0.1, 0.9])),
        dwell_time=float(rng.uniform(1.0, 60.0)),
        phase_split=float(rng.uniform(0.05, 0.95)),
        path_perimeter=perimeter,
        aspect_ratio=aspect_ratio,
        standoff=standoff,
        cluster_spacing=float(rng.uniform(0.05, 2.0)),
        p2_phase=float(rng.uniform(0.0, 0.99 * perimeter)),
    )


def _accepted_configs(seed, count):
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        config = _random_config(rng)
        if not validate_config(config):
            configs.append(config)
    return configs


def _assert_matches_reference(config):
    """simulate_tour's ledger for config, checked against the reference tour."""
    path, field, plan = mission_geometry(config)
    ledger = simulate_tour(config, path, field, plan)
    stops, sensors = reference_tour(config, field, plan)
    assert [(rec.charged, rec.packets) for rec in ledger.per_stop] == stops
    assert [rec.packets for rec in ledger.per_sensor] == [s["packets"] for s in sensors]
    for rec, want in zip(ledger.per_sensor, sensors):
        # spent and residual are measured on the scale of the account
        scale = 1e-12 * want["harvested"]
        assert math.isclose(rec.harvested, want["harvested"], rel_tol=1e-12)
        assert abs(rec.spent - want["spent"]) <= scale
        assert abs(rec.residual - want["residual"]) <= scale
    return ledger


def test_simulate_tour_matches_reference():
    start = time.perf_counter()
    configs = _accepted_configs(4242, N_CONFIGS)
    delivering = 0
    for config in configs:
        ledger = _assert_matches_reference(config)
        delivering += ledger.total_packets > 0
    elapsed = time.perf_counter() - start
    print(f"{delivering}/{len(configs)} configs deliver packets, {elapsed:.2f} s")
    # the draws reach both layouts and placements, empty tours, a flat
    # pattern, a zero threshold and standoffs at the curvature limit
    assert {c.layout for c in configs} == {"s1", "s2"}
    assert {c.placement for c in configs} == {"p1", "p2"}
    assert any(c.n_stops == 0 for c in configs)
    assert any(c.link.angle_exponent == 0.0 for c in configs)
    assert any(c.link.harvest_threshold == 0.0 for c in configs)
    assert any(c.standoff > 0.98 * _rho_min(c.aspect_ratio, c.path_perimeter) for c in configs)
    assert delivering >= len(configs) / 4
    assert elapsed < 5.0


SENSOR_DTYPE = np.dtype(
    [("sensor_id", "<i8"), ("harvested_j", "<f8"), ("spent_j", "<f8"),
     ("residual_j", "<f8"), ("packets", "<i8")]
)
STOP_DTYPE = np.dtype([("stop_id", "<i8"), ("n_charged", "<i8"), ("packets", "<i8")])
PAIR_DTYPE = np.dtype([("stop_id", "<i8"), ("sensor_id", "<i8"), ("delivered_j", "<f8")])


def _load_table(path, dtype):
    table = np.load(path, allow_pickle=False)
    assert table.dtype == dtype and table.ndim == 1
    return table


def _assert_summary_matches_reference(ledger, out_dir):
    path = write_mission_summary(ledger, out_dir)
    assert path.read_bytes() == reference_summary_text(ledger).encode("utf-8")
    # every sensor, stop and charging pair, bit for bit
    sensors = _load_table(path.with_name("sensors.npy"), SENSOR_DTYPE)
    assert sensors.tobytes() == reference_sensor_bytes(ledger)
    stops = _load_table(path.with_name("stops.npy"), STOP_DTYPE)
    assert stops.tobytes() == reference_stop_bytes(ledger)
    pairs = _load_table(path.with_name("pairs.npy"), PAIR_DTYPE)
    assert pairs.tobytes() == reference_pair_bytes(ledger)
    # the stops' counts slice the pairs by stop
    ends = np.cumsum([0, *stops["n_charged"].tolist()])
    assert ends[-1] == pairs.size
    for stop_id, rec, a, b in zip(stops["stop_id"].tolist(), ledger.per_stop, ends, ends[1:]):
        assert set(pairs["stop_id"][a:b].tolist()) <= {stop_id}
        assert tuple(pairs["sensor_id"][a:b].tolist()) == rec.charged


def test_mission_summary_matches_json_reference(tmp_path):
    configs = _accepted_configs(77, 120)
    multi_visit = 0
    for config in configs:
        ledger = run_mission(config)
        _assert_summary_matches_reference(ledger, tmp_path)
        visits = Counter(i for rec in ledger.per_stop for i in rec.charged)
        multi_visit += max(visits.values(), default=0) > 1
    assert {c.layout for c in configs} == {"s1", "s2"}
    assert {c.placement for c in configs} == {"p1", "p2"}
    assert multi_visit >= 10


_LEDGER = dict(
    total_uav_energy=2.5,
    flight_energy=2.5,
    hover_energy=0.0,
    wpt_energy=0.0,
    rx_energy=0.0,
    sensors=[],
    stops=[],
    pairs=[],
    total_packets=0,
    feasible=True,
    mission_time=80.0,
)
_REFERENCE = ScenarioConfig()
# ledgers whose artifacts hold empty tables or non-finite numbers
SUMMARY_EDGES = {
    "no-stops": lambda: run_mission(dataclasses.replace(_REFERENCE, n_stops=0)),
    "stops-charge-nobody": lambda: run_mission(
        dataclasses.replace(
            _REFERENCE, link=dataclasses.replace(_REFERENCE.link, harvest_threshold=10.0)
        )
    ),
    "one-sensor": lambda: run_mission(dataclasses.replace(_REFERENCE, n_sensors=1)),
    "inf-energies": lambda: run_mission(dataclasses.replace(_REFERENCE, cruise_speed=1e-305)),
    "no-records": lambda: MissionLedger(**_LEDGER),
    # sensors.npy keeps inf, -inf and NaN bit for bit
    "non-finite-records": lambda: MissionLedger(
        **dict(
            _LEDGER,
            sensors=[(0, math.inf, -math.inf, math.nan, 0)],
            stops=[(0, 0, 0), (1, 1, 0)],
            pairs=[(1, 0, math.inf)],
        )
    ),
    "negative-zero-sensor": lambda: MissionLedger(
        **dict(_LEDGER, sensors=[(0, -0.0, 0.0, -0.0, 0)])
    ),
    # pairs.npy keeps each float's bits, a NaN's and a -0.0's among them
    "nan-and-negative-zero-pairs": lambda: MissionLedger(
        **dict(_LEDGER, stops=[(3, 2, 0)], pairs=[(3, 1, math.nan), (3, 0, -0.0)])
    ),
    # numpy scalars are taken as Python's: summary.json is the same bytes
    "numpy-scalars": lambda: MissionLedger(
        **dict(
            _LEDGER,
            total_packets=np.int64(0),
            feasible=np.float64(2.5) <= 3.0,
            **{
                key: np.float64(_LEDGER[key])
                for key in ("total_uav_energy", "flight_energy", "hover_energy",
                            "wpt_energy", "rx_energy", "mission_time")
            },
        )
    ),
}


@pytest.mark.parametrize("build", SUMMARY_EDGES.values(), ids=SUMMARY_EDGES.keys())
def test_mission_summary_edges_match_json_reference(build, tmp_path):
    _assert_summary_matches_reference(build(), tmp_path)


SMALL = dataclasses.replace(ScenarioConfig(), n_sensors=40, n_stops=60)
NARROW = dataclasses.replace(SMALL, path_perimeter=60.0, aspect_ratio=10.0, standoff=0.1)
# the tour evaluates only the pairs within harvest reach of a stop
WINDOWS = {
    # the path is narrower than the reach: each stop's window holds the far
    # side, and stops near a tip reach round it
    "narrow-path": NARROW,
    "narrow-path-p2-s2": dataclasses.replace(NARROW, placement="p2", layout="s2"),
    # an infinite reach: the window spans every pair
    "zero-threshold": dataclasses.replace(
        SMALL, link=dataclasses.replace(SMALL.link, harvest_threshold=0.0)
    ),
    # a zero reach: no pair charges
    "dark": dataclasses.replace(SMALL, link=dataclasses.replace(SMALL.link, tx_power=0.0)),
}


def _assert_window_matches_reference(config):
    assert validate_config(config) == []
    path = _flight_path(config.aspect_ratio, config.path_perimeter)
    reach = max_boresight_harvest_range(config.link)
    if config is NARROW:
        assert 2.0 * path.semi_minor < reach and path.semi_major > reach
    ledger = _assert_matches_reference(config)
    if math.isinf(reach):
        # with no threshold, pairs charge far beyond the default reach
        _, field, plan = mission_geometry(config)
        farthest = max(
            math.dist(plan.positions[rec.stop_id], field.positions[i])
            for rec in ledger.per_stop
            for i in rec.charged
        )
        assert farthest > 5.0 * max_boresight_harvest_range(SMALL.link)
    if reach == 0.0:
        assert ledger.total_packets == 0
    else:
        assert ledger.total_packets > 0


@pytest.mark.parametrize("config", WINDOWS.values(), ids=WINDOWS.keys())
def test_harvest_window_matches_reference(config):
    _assert_window_matches_reference(config)


# blocks of 1 and 7 candidates split every stop list of the kernel, and
# every zero-threshold window (40 sensors) exceeds either block
@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("config", WINDOWS.values(), ids=WINDOWS.keys())
def test_harvest_window_matches_reference_in_small_blocks(config, block, monkeypatch):
    monkeypatch.setattr(mission, "_BLOCK", block)
    _assert_window_matches_reference(config)


@pytest.mark.parametrize("block", [1, 7])
def test_simulate_tour_matches_reference_in_small_blocks(block, monkeypatch):
    monkeypatch.setattr(mission, "_BLOCK", block)
    for config in _accepted_configs(4242, 30):
        _assert_matches_reference(config)


def test_link_geometry_344_triangle():
    dist, incidence = link_geometry([0.0, 0.0], [1.0, 0.0], [3.0, 4.0])
    assert dist == pytest.approx(5.0, abs=1e-12)
    assert incidence == pytest.approx(math.atan2(4.0, 3.0), abs=1e-12)


def test_link_geometry_rejects_co_located_points():
    with pytest.raises(ValueError):
        link_geometry([1.0, 2.0], [1.0, 0.0], [1.0, 2.0])
