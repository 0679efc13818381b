"""Mission engine checks: ledgers, feasibility, carry-over, determinism."""

import dataclasses
import gc
import pickle
import sys
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from reference import mission_geometry
from test_reference import SUMMARY_EDGES
from wpcnsim import mission, received_power
from wpcnsim.config_io import (
    _MISSION_ARTIFACTS,
    parse_config_text,
    render_config,
    write_mission_summary,
)
from wpcnsim.geometry import ellipse_from_perimeter, poses_at_arcs
from wpcnsim.layout import StopPlan, place_sensors_even, place_sensors_paired, place_stops_facing
from wpcnsim.mission import (
    ConfigError,
    MissionLedger,
    ScenarioConfig,
    endurance,
    max_stops,
    run_mission,
    simulate_tour,
    validate_config,
)
from wpcnsim.rf_link import EnergyCosts
from wpcnsim.sweep import sweep

DEFAULTS = ScenarioConfig()
REFERENCE = dataclasses.replace(DEFAULTS, n_stops=80, dwell_time=20.0)


def test_defaults_are_valid():
    assert validate_config(DEFAULTS) == []


def test_endurance_reference_value():
    assert endurance(DEFAULTS) == pytest.approx(1680.56, abs=0.01)
    assert endurance(dataclasses.replace(DEFAULTS, uav_battery=0.0)) == 0.0
    double = dataclasses.replace(DEFAULTS, uav_battery=2 * DEFAULTS.uav_battery)
    assert endurance(double) == 2.0 * endurance(DEFAULTS)
    with pytest.raises(ValueError):
        endurance(dataclasses.replace(DEFAULTS, uav_flight_power=0.0))


def test_max_stops_reference_values():
    assert max_stops(DEFAULTS, 70.0) == 22
    assert max_stops(DEFAULTS, 20.0) == 80
    # dwell as long as the whole endurance leaves no time for the loop
    assert max_stops(DEFAULTS, endurance(DEFAULTS)) == 0
    broke = dataclasses.replace(DEFAULTS, uav_battery=10000.0)
    assert max_stops(broke, 20.0) == 0
    with pytest.raises(ValueError, match=r"^dwell must be > 0, got 0\.0$"):
        max_stops(DEFAULTS, 0.0)
    with pytest.raises(ValueError, match=r"^cruise_speed must be > 0, got -1\.0$"):
        max_stops(dataclasses.replace(DEFAULTS, cruise_speed=-1.0), 20.0)


def test_max_stops_with_separate_transmitter_draw():
    separate = dataclasses.replace(DEFAULTS, wpt_draw_mode="additional")
    assert max_stops(separate, 20.0) == 79


def test_reference_mission_ledger():
    ledger = run_mission(REFERENCE)
    assert ledger.total_packets == 400
    assert ledger.flight_energy == pytest.approx(13624.0, rel=1e-12)
    assert ledger.hover_energy == pytest.approx(272480.0, rel=1e-12)
    assert ledger.wpt_energy == 0.0
    assert ledger.rx_energy == 4.0
    assert ledger.total_uav_energy == pytest.approx(286108.0, rel=1e-12)
    assert ledger.feasible
    assert ledger.mission_time == pytest.approx(1680.0, rel=1e-12)


def test_reference_packets_per_sensor():
    ledger = run_mission(REFERENCE)
    counts = [rec.packets for rec in ledger.per_sensor]
    assert counts.count(5) == 80
    assert counts.count(0) == 20
    # each stop charges exactly the sensor it faces
    for j, rec in enumerate(ledger.per_stop):
        assert rec.charged == ((j * 100) // 80,)
        assert rec.packets == 5


def test_energy_identity_exact():
    cases = [
        REFERENCE,
        dataclasses.replace(REFERENCE, wpt_draw_mode="additional"),
        dataclasses.replace(DEFAULTS, layout="s2", placement="p2", n_stops=37),
        dataclasses.replace(DEFAULTS, n_stops=0),
    ]
    for config in cases:
        ledger = run_mission(config)
        parts = (
            ledger.flight_energy
            + ledger.hover_energy
            + ledger.wpt_energy
            + ledger.rx_energy
        )
        assert ledger.total_uav_energy == parts


def test_sensor_accounts_balance_exactly():
    ledger = run_mission(dataclasses.replace(DEFAULTS, layout="s2", n_stops=50))
    for rec in ledger.per_sensor:
        assert rec.residual == rec.harvested - rec.spent
        assert rec.residual >= 0.0
        assert rec.spent >= 0.0


def test_packet_totals_consistent():
    for config in (REFERENCE, dataclasses.replace(DEFAULTS, placement="p2")):
        ledger = run_mission(config)
        assert ledger.total_packets == sum(r.packets for r in ledger.per_sensor)
        assert ledger.total_packets == sum(r.packets for r in ledger.per_stop)


def test_carry_over_between_visits():
    # one sensor, two symmetric stops, per-visit harvest tuned to 0.031 J:
    # first visit pays out 1 packet, the carried 0.011 J makes the second
    # visit worth 2, totaling 3
    path = ellipse_from_perimeter(5.0, 500.0)
    field = place_sensors_even(path, 1)
    arcs = np.array([1.0, path.perimeter - 1.0])
    positions, _ = poses_at_arcs(path, arcs)
    plan = StopPlan(arcs, positions)

    offset = positions[0] - field.positions[0]
    dist = float(np.linalg.norm(offset))
    inc = float(np.arccos(np.dot(offset / dist, field.normals[0])))
    unit_rx = received_power(
        dataclasses.replace(DEFAULTS.link, tx_power=1.0), dist, inc
    )
    tx = 0.031 / (DEFAULTS.link.rf_dc_efficiency * unit_rx * 10.0)
    config = dataclasses.replace(
        DEFAULTS, link=dataclasses.replace(DEFAULTS.link, tx_power=tx), n_sensors=1
    )

    ledger = simulate_tour(config, path, field, plan)
    assert [rec.packets for rec in ledger.per_stop] == [1, 2]
    assert ledger.total_packets == 3
    assert ledger.per_sensor[0].residual == pytest.approx(0.002, abs=1e-9)


def test_one_plan_hovers_for_each_config_dwell():
    path = ellipse_from_perimeter(5.0, 500.0)
    field = place_sensors_even(path, 100)
    plan = place_stops_facing(path, field, 80)
    for dwell in (20.0, 70.0):
        config = dataclasses.replace(DEFAULTS, n_stops=80, dwell_time=dwell)
        ledger = simulate_tour(config, path, field, plan)
        assert ledger.hover_energy == (80 * dwell) * DEFAULTS.uav_flight_power
        assert ledger.mission_time == 80.0 + 80 * dwell
        assert ledger == run_mission(config)


def test_a_mission_builds_its_geometry_once(monkeypatch):
    stages, calls = mission._stages, []

    def counted(config):
        calls.append(config)
        return stages(config)

    monkeypatch.setattr(mission, "_stages", counted)
    run_mission(ScenarioConfig())
    assert len(calls) == 1


def test_a_parsed_mission_is_checked_once(monkeypatch):
    case, calls = mission._case, []

    def counted(*args):
        calls.append(args)
        return case(*args)

    monkeypatch.setattr(mission, "_case", counted)
    parsed = parse_config_text(render_config(dataclasses.replace(DEFAULTS, layout="s2")))
    run_mission(parsed)
    assert len(calls) == 1
    # an equal copy is the same check
    run_mission(dataclasses.replace(parsed))
    assert len(calls) == 1


def test_configs_equal_but_printed_apart_keep_their_own_messages():
    zero, negative = (dataclasses.replace(DEFAULTS, standoff=s) for s in (0.0, -0.0))
    assert zero == negative
    assert validate_config(zero)[0].endswith("got 0.0")
    assert validate_config(negative)[0].endswith("got -0.0")


def test_concurrent_checks_each_get_their_own_config():
    # the slot is read and replaced as one tuple, so a thread never pairs
    # another config's result with its own
    configs = [
        dataclasses.replace(DEFAULTS, path_perimeter=p, n_sensors=10, n_stops=4)
        for p in (301.0, 302.0, 303.0, 304.0, 305.0)
    ]

    def check(offset):
        for i in range(40):
            config = configs[(i + offset) % len(configs)]
            _, path, _, _ = mission._checked(config)
            assert abs(path.perimeter - config.path_perimeter) <= 1e-9 * config.path_perimeter

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            for future in [pool.submit(check, offset) for offset in range(6)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)


def test_a_mission_keeps_no_earlier_geometry(monkeypatch):
    stages, refs = mission._stages, []

    def watched(config):
        errors, path, field, rule = stages(config)
        refs.append((weakref.ref(path), weakref.ref(field)))
        return errors, path, field, rule

    monkeypatch.setattr(mission, "_stages", watched)
    for perimeter in (431.5, 432.5, 433.5):
        config = dataclasses.replace(DEFAULTS, path_perimeter=perimeter)
        run_mission(parse_config_text(render_config(config)))
    gc.collect()
    assert [[ref() is None for ref in pair] for pair in refs] == [
        [True, True],
        [True, True],
        [False, False],
    ]
    # each placer holds at most the last field it built
    assert place_sensors_even.cache_info().currsize <= 1
    assert place_sensors_paired.cache_info().currsize <= 1


def test_validation_inverts_no_stop_arc_and_a_mission_inverts_its_own_once(monkeypatch):
    invert, inverted = mission._stop_positions, []

    def spy(path, arc_sets):
        inverted.append(sum(arcs.size for arcs in arc_sets))
        return invert(path, arc_sets)

    monkeypatch.setattr(mission, "_stop_positions", spy)
    for placement in ("p1", "p2"):
        config = dataclasses.replace(DEFAULTS, placement=placement, n_stops=37)
        assert validate_config(config) == [] and inverted == []
        run_mission(config)
        assert inverted == [37]
        inverted.clear()


def test_stop_on_a_sensor_raises():
    path = ellipse_from_perimeter(5.0, 500.0)
    field = place_sensors_even(path, 10)
    plan = StopPlan(field.arc_coords[3:4].copy(), field.positions[3:4].copy())
    dark = dataclasses.replace(DEFAULTS.link, tx_power=0.0)
    # with no power the harvest reach is 0, and the pair is still evaluated
    for link in (DEFAULTS.link, dark):
        config = dataclasses.replace(DEFAULTS, link=link, n_sensors=10, n_stops=1)
        with pytest.raises(ValueError, match="distance"):
            simulate_tour(config, path, field, plan)


def test_large_tour_memory_stays_with_the_pairs_in_reach():
    # a dense 5000 x 1000 tour held about 380 MiB of pair arrays
    path = ellipse_from_perimeter(5.0, 500.0)
    field = place_sensors_even(path, 5000)
    plan = place_stops_facing(path, field, 1000)
    config = dataclasses.replace(DEFAULTS, n_sensors=5000, n_stops=1000)
    tracemalloc.start()
    try:
        ledger = simulate_tour(config, path, field, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ledger.total_packets > 0
    assert peak < 64 * 2**20


def test_pair_kernel_memory_is_its_pairs_and_a_block():
    # evaluated at once, this field's 620k x-window candidates peaked at 61.8 MiB
    config = dataclasses.replace(DEFAULTS, n_sensors=20000, n_stops=1000)
    _, field, plan = mission_geometry(config)
    tracemalloc.start()
    try:
        pairs = mission._charging_pairs(config.link, field, plan.positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(column.nbytes for column in pairs) + 8 * 2**20


def _greedy_runs(sizes, cap):
    # the rule spelled out: close a nonempty run before an item it cannot take
    bounds, total = [0], 0
    for i, size in enumerate(sizes):
        if i > bounds[-1] and total + size > cap:
            bounds.append(i)
            total = 0
        total += size
    return bounds + [len(sizes)] if sizes else bounds


def test_runs_match_a_greedy_reference():
    edges = [
        ([], 5),
        ([0, 0, 0], 0),
        ([0, 0, 0], 5),
        ([3, 2, 5], 5),  # each run exactly at cap
        ([0, 5, 0, 0, 5, 0], 5),
        ([9, 1, 1], 5),  # an oversize item first
        ([1, 1, 9], 5),  # and last
        ([9, 9], 5),
    ]
    rng = np.random.default_rng(7)
    drawn = [(rng.integers(0, 12, rng.integers(0, 30)).tolist(), int(rng.integers(0, 25)))
             for _ in range(500)]
    for sizes, cap in edges + drawn:
        assert mission._runs(sizes, cap) == _greedy_runs(sizes, cap), (sizes, cap)


def test_settle_never_spends_past_the_harvest_beyond_2_53_packets():
    # 2**53 + 6 J harvested less 3 J spent rounds up to 2**53 + 4 packets,
    # whose spend would round to 2**53 + 8 J; the guard steps down to 2**53 + 2
    harvested, spent, packets, pair_packets = mission._settle(
        np.array([0, 0]), np.array([3.5, 2.0**53 + 2]), 1, EnergyCosts(0.5, 0.5, 0.0)
    )
    assert pair_packets.tolist() == [3, 2**53 + 2] and packets.tolist() == [2**53 + 5]
    assert harvested.tolist() == [2.0**53 + 6] and spent.tolist() == [2.0**53 + 4]


def test_non_positive_dwell_is_a_config_error():
    for dwell in (-1.0, 0.0):
        config = dataclasses.replace(DEFAULTS, dwell_time=dwell)
        assert validate_config(config) == [f"dwell_time must be > 0, got {dwell}"]
        with pytest.raises(ConfigError):
            run_mission(config)


def test_reruns_are_bit_identical():
    first = run_mission(REFERENCE)
    second = run_mission(REFERENCE)
    assert first is not second
    assert first == second
    assert first.total_uav_energy == second.total_uav_energy


# tours whose ledgers must compare, pickle and write alike whether their
# records were read or not
TOURS = {
    "reference": lambda: run_mission(REFERENCE),
    "no-stops": lambda: run_mission(dataclasses.replace(REFERENCE, n_stops=0)),
    "inf-energies": SUMMARY_EDGES["inf-energies"],
}


def _unread_read_rebuilt(build):
    """A tour's ledger with its records unread, one whose records were read,
    and the public constructor's ledger from the read one's fields."""
    unread, read = build(), build()
    read.per_stop
    rebuilt = MissionLedger(**{f.name: getattr(read, f.name) for f in dataclasses.fields(read)})
    return unread, read, rebuilt


@pytest.mark.parametrize("build", TOURS.values(), ids=TOURS.keys())
def test_a_ledger_hashes_and_equals_its_unpickled_and_rebuilt_copies(build):
    ledger = build()
    copies = (
        build(),
        pickle.loads(pickle.dumps(ledger)),
        MissionLedger(**dataclasses.asdict(ledger)),
        dataclasses.replace(ledger),
    )
    for copy in copies:
        assert copy == ledger
        assert hash(copy) == hash(ledger)
        assert repr(copy) == repr(ledger)
        assert not any(getattr(copy, name).flags.writeable for name in mission._TABLES)
    flipped = dataclasses.replace(ledger, feasible=not ledger.feasible)
    assert flipped != ledger
    assert flipped.per_sensor == ledger.per_sensor
    # the tables compare by their bits: a 0.0 made -0.0 differs
    negated = ledger.sensors.copy()
    negated["harvested_j"] *= -1.0
    assert dataclasses.replace(ledger, sensors=negated) != ledger


@pytest.mark.parametrize("build", TOURS.values(), ids=TOURS.keys())
def test_a_ledger_writes_the_same_bytes_whether_its_records_were_read(build, tmp_path):
    written = []
    for index, ledger in enumerate(_unread_read_rebuilt(build)):
        out = tmp_path / str(index)
        out.mkdir()
        write_mission_summary(ledger, out)
        written.append([(out / name).read_bytes() for name in _MISSION_ARTIFACTS])
    assert written[0] == written[1] == written[2]


def test_a_tour_builds_no_record_until_one_is_read(monkeypatch, tmp_path):
    built = Counter()
    for record in (mission.StopRecord, mission.SensorRecord):

        def counted(*args, record=record):
            built[record.__name__] += 1
            return record(*args)

        monkeypatch.setattr(mission, record.__name__, counted)
    ledger = run_mission(REFERENCE)
    write_mission_summary(ledger, tmp_path)
    assert not built
    # each read builds its own records afresh, and only its own
    ledger.per_stop
    assert built == {"StopRecord": REFERENCE.n_stops}
    ledger.per_stop
    assert built == {"StopRecord": 2 * REFERENCE.n_stops}
    ledger.per_sensor
    assert built == {"StopRecord": 2 * REFERENCE.n_stops, "SensorRecord": REFERENCE.n_sensors}


def test_longer_dwell_never_loses_packets():
    totals = []
    for dwell in (10.0, 20.0, 40.0, 70.0):
        config = dataclasses.replace(DEFAULTS, n_stops=50, dwell_time=dwell)
        totals.append(run_mission(config).total_packets)
    assert totals == sorted(totals)


def test_more_facing_stops_never_lose_packets():
    totals = []
    for k in (10, 25, 50, 100):
        config = dataclasses.replace(DEFAULTS, n_stops=k)
        totals.append(run_mission(config).total_packets)
    assert totals == sorted(totals)


def test_zero_stop_mission_is_flight_only():
    ledger = run_mission(dataclasses.replace(DEFAULTS, n_stops=0))
    assert ledger.total_packets == 0
    assert ledger.hover_energy == 0.0
    assert ledger.total_uav_energy == ledger.flight_energy
    assert ledger.feasible
    assert ledger.mission_time == pytest.approx(80.0, rel=1e-12)


def test_separate_transmitter_draw_is_billed():
    ledger = run_mission(dataclasses.replace(REFERENCE, wpt_draw_mode="additional"))
    assert ledger.wpt_energy == pytest.approx(80 * 10.0 * 2.404, rel=1e-12)
    folded = run_mission(REFERENCE)
    assert ledger.total_packets == folded.total_packets
    assert ledger.total_uav_energy > folded.total_uav_energy


def test_sector_stops_match_facing_when_aligned():
    facing = run_mission(dataclasses.replace(DEFAULTS, n_stops=100))
    sectors = run_mission(dataclasses.replace(DEFAULTS, placement="p2", n_stops=100))
    assert sectors.total_packets == facing.total_packets == 500
    assert sectors.total_uav_energy == facing.total_uav_energy


def test_sector_stops_at_worst_phase_collect_nothing():
    config = dataclasses.replace(
        DEFAULTS, placement="p2", n_stops=100, p2_phase=2.5
    )
    ledger = run_mission(config)
    assert ledger.total_packets == 0


def test_validate_config_reports_every_violation():
    broken = dataclasses.replace(
        DEFAULTS, placement="p9", phase_split=0.0, layout="s2", n_sensors=99
    )
    errors = validate_config(broken)
    assert len(errors) == 3
    with pytest.raises(ConfigError) as excinfo:
        run_mission(broken)
    assert excinfo.value.errors == tuple(errors)
    broken = dataclasses.replace(
        DEFAULTS, wpt_draw_mode="both", n_sensors=0, uav_battery=-1.0, cruise_speed=0.0
    )
    errors = [
        "wpt_draw_mode must be included or additional, got 'both'",
        "n_sensors must be >= 1, got 0",
        "uav_battery must be >= 0, got -1.0",
        "cruise_speed must be > 0, got 0.0",
    ]
    assert validate_config(broken) == errors
    table = sweep(broken, [4, 5], [20.0], [("p2", "s2")])
    assert {cell.error for cell in table.cells.values()} == {str(ConfigError(errors))}


def test_validate_config_geometry_bounds():
    assert validate_config(dataclasses.replace(DEFAULTS, standoff=5.0))
    assert validate_config(dataclasses.replace(DEFAULTS, p2_phase=500.0))
    assert validate_config(dataclasses.replace(DEFAULTS, aspect_ratio=0.5))
    assert validate_config(
        dataclasses.replace(DEFAULTS, layout="s2", cluster_spacing=11.0)
    )
