"""simulate_tour and summary.json against the slow oracles on random small missions."""

import dataclasses
import math
import time
from collections import Counter

import numpy as np
import pytest

from reference import link_geometry, reference_summary_text, reference_tour
from wpcnsim.config_io import write_mission_summary
from wpcnsim.mission import (
    MissionLedger,
    ScenarioConfig,
    SensorRecord,
    StopRecord,
    _flight_path,
    _geometry,
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
    path, field, plan = _geometry(config)
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


def _assert_summary_matches_reference(ledger, out_dir):
    written = write_mission_summary(ledger, out_dir).read_bytes()
    assert written == reference_summary_text(ledger).encode("utf-8")


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
    per_stop=(),
    per_sensor=(),
    total_packets=0,
    feasible=True,
    mission_time=80.0,
)
_REFERENCE = ScenarioConfig()
# ledgers whose summaries hold empty arrays or non-finite numbers
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
    "non-finite-records": lambda: MissionLedger(
        **dict(
            _LEDGER,
            per_stop=(StopRecord(0, (), (), 0), StopRecord(1, (0,), (math.inf,), 0)),
            per_sensor=(SensorRecord(0, math.inf, -math.inf, math.nan, 0),),
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


@pytest.mark.parametrize("config", WINDOWS.values(), ids=WINDOWS.keys())
def test_harvest_window_matches_reference(config):
    assert validate_config(config) == []
    path = _flight_path(config.aspect_ratio, config.path_perimeter)
    reach = max_boresight_harvest_range(config.link)
    if config is NARROW:
        assert 2.0 * path.semi_minor < reach and path.semi_major > reach
    ledger = _assert_matches_reference(config)
    if math.isinf(reach):
        # with no threshold, pairs charge far beyond the default reach
        _, field, plan = _geometry(config)
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


def test_link_geometry_344_triangle():
    dist, incidence = link_geometry([0.0, 0.0], [1.0, 0.0], [3.0, 4.0])
    assert dist == pytest.approx(5.0, abs=1e-12)
    assert incidence == pytest.approx(math.atan2(4.0, 3.0), abs=1e-12)


def test_link_geometry_rejects_co_located_points():
    with pytest.raises(ValueError):
        link_geometry([1.0, 2.0], [1.0, 0.0], [1.0, 2.0])
