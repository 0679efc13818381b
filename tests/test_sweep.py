"""Sweep grids, gain metrics, peak detection, and calibration solvers."""

import dataclasses
import importlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcnsim import layout, mission
from wpcnsim.config_io import parse_config_text, render_config
from wpcnsim.mission import ConfigError, MissionLedger, ScenarioConfig, max_stops, run_mission
from wpcnsim.rf_link import EnergyCosts
from wpcnsim.sweep import (
    DEFAULT_CASES,
    DEFAULT_DWELLS,
    DEFAULT_STOP_COUNTS,
    SweepCell,
    calibrate_speed,
    calibrate_tx_power,
    clustering_gain,
    default_sweep,
    clustering_gain_cells,
    efficiency,
    efficiency_curve,
    equal_coverage_gain,
    find_peak,
    p1_gain_cells,
    p1_gain_over_p2,
    sweep,
)

DEFAULTS = ScenarioConfig()


def _bare_ledger(packets, energy):
    return MissionLedger(
        total_uav_energy=energy,
        flight_energy=energy,
        hover_energy=0.0,
        wpt_energy=0.0,
        rx_energy=0.0,
        sensors=[],
        stops=[],
        pairs=[],
        total_packets=packets,
        feasible=True,
        mission_time=0.0,
    )


def test_efficiency_reference_value():
    ledger = run_mission(dataclasses.replace(DEFAULTS, n_stops=80, dwell_time=20.0))
    assert efficiency(ledger) == pytest.approx(1.398, abs=1e-3)


def test_efficiency_edge_cases():
    assert efficiency(_bare_ledger(0, 500.0)) == 0.0
    assert efficiency(_bare_ledger(10, 2000.0)) == 2.0 * efficiency(
        _bare_ledger(5, 2000.0)
    )
    with pytest.raises(ValueError):
        efficiency(_bare_ledger(0, 0.0))


def test_sweep_grid_structure():
    table = sweep(DEFAULTS, [4, 10], [20.0, 70.0], [("p1", "s1"), ("p2", "s2")])
    assert len(table.cells) == 8
    cell = table.cell("p1", "s1", 4, 20.0)
    assert cell.error == ""
    for value in table.cells.values():
        assert isinstance(value.feasible, bool)
        if not value.error:
            recomputed = value.total_packets / (value.total_uav_energy / 1000.0)
            assert value.efficiency == recomputed


def test_single_cell_sweep_matches_run_mission():
    table = sweep(DEFAULTS, [80], [20.0], [("p1", "s1")])
    ledger = run_mission(dataclasses.replace(DEFAULTS, n_stops=80, dwell_time=20.0))
    cell = table.cell("p1", "s1", 80, 20.0)
    assert cell.total_packets == ledger.total_packets
    assert cell.total_uav_energy == ledger.total_uav_energy
    assert cell.feasible == ledger.feasible


def test_sweep_rejects_empty_axes():
    with pytest.raises(ValueError):
        sweep(DEFAULTS, [], [20.0])
    with pytest.raises(ValueError):
        sweep(DEFAULTS, [10], [])
    with pytest.raises(ValueError):
        sweep(DEFAULTS, [10], [20.0], [])


def test_sweep_rejects_repeated_axis_values():
    with pytest.raises(ValueError, match="stop_counts repeats"):
        sweep(DEFAULTS, [4, 5, 4], [20.0])
    with pytest.raises(ValueError, match="dwells repeats"):
        sweep(DEFAULTS, [4], [20, 20.0])
    with pytest.raises(ValueError, match="cases repeats"):
        sweep(DEFAULTS, [4], [20.0], [("p1", "s1"), ("p1", "s1")])


def test_sweep_counts_every_nan_dwell_as_one_value():
    # float("nan") makes a new object each call, and no NaN equals another
    with pytest.raises(ValueError, match="dwells repeats"):
        sweep(DEFAULTS, [4], [float("nan"), float("nan")], [("p1", "s1")])
    table = sweep(DEFAULTS, [4], [float("nan")], [("p1", "s1")])
    (cell,) = table.cells.values()
    assert "dwell_time must be finite, got nan" in cell.error


def _random_grid(rng):
    """A base config that is valid on single values, and axes to sweep it over.

    Odd sensor counts fail the paired cells, a p2 phase past the perimeter
    fails every cell of its base, a dwell of -1 fails its cells, and few
    sensors under many stops or a strong transmitter charge a sensor at
    several stops, so its account settles over more than one round.
    """
    link = dataclasses.replace(DEFAULTS.link, tx_power=float(rng.choice([2.404, 30.0])))
    perimeter = float(rng.uniform(60.0, 500.0))
    base = dataclasses.replace(
        DEFAULTS,
        link=link,
        n_sensors=2 * int(rng.integers(1, 21)) - int(rng.random() < 0.25),
        path_perimeter=perimeter,
        aspect_ratio=float(rng.uniform(1.0, 4.0)),
        standoff=float(rng.uniform(0.3, 1.2)),
        cluster_spacing=float(rng.uniform(0.05, 1.0)),
        p2_phase=float(rng.uniform(0.0, 1.15)) * perimeter,
        wpt_draw_mode=str(rng.choice(["included", "additional"])),
        uav_battery=float(rng.uniform(5e4, 3e5)),
    )
    stop_counts = sorted(rng.choice(np.arange(-1, 101), size=6, replace=False).tolist())
    dwells = [20.0, float(rng.uniform(1.0, 90.0)), float(rng.choice([-1.0, 70.0]))]
    return base, stop_counts, dwells


def _assert_cells_match_run_mission(base, stop_counts, dwells, cases):
    """Sweep the grid and check each cell against run_mission on its own config.

    A cell must equal the ConfigError run_mission raises, or its ledger.
    Returns the errors and the ledgers, one per cell.
    """
    table = sweep(base, stop_counts, dwells, cases)
    assert len(table.cells) == len(cases) * len(stop_counts) * len(dwells)
    errors, ledgers = [], []
    for (placement, layout, n_stops, dwell), cell in table.cells.items():
        config = dataclasses.replace(
            base, placement=placement, layout=layout, n_stops=n_stops, dwell_time=dwell
        )
        try:
            ledger = run_mission(config)
        except ConfigError as err:
            assert cell == SweepCell(0, 0.0, 0.0, False, error=str(err))
            errors.append(err)
            continue
        assert cell == SweepCell(
            ledger.total_packets, ledger.total_uav_energy, efficiency(ledger), ledger.feasible
        )
        ledgers.append(ledger)
    return errors, ledgers


def _assert_sweeps_match_run_mission_cell_for_cell():
    rng = np.random.default_rng(20261018)
    grids = [_random_grid(rng) for _ in range(10)]
    # packets this small pass the 2**53 bound on short tours only
    tiny_packets = dataclasses.replace(DEFAULTS, costs=EnergyCosts(1e-13, 0.0, 0.01))
    grids.append((tiny_packets, [4, 50, 100], [20.0, 70.0]))
    most_visits, errors, valid = 0, Counter(), 0
    for base, stop_counts, dwells in grids:
        failed, ledgers = _assert_cells_match_run_mission(base, stop_counts, dwells, DEFAULT_CASES)
        errors.update(err.errors[0].split(" ")[0] for err in failed)
        valid += len(ledgers)
        for ledger in ledgers:
            visits = Counter(i for stop in ledger.per_stop for i in stop.charged)
            most_visits = max(most_visits, *visits.values(), 0)
    # value, parity, geometry and packet-bound errors all occur
    assert {"dwell_time", "paired", "p2_phase:", "a"} <= set(errors) and valid
    assert most_visits > 1


def test_batched_sweep_matches_run_mission_cell_for_cell():
    _assert_sweeps_match_run_mission_cell_for_cell()


@pytest.mark.parametrize("block", [1, 7])
def test_sweep_matches_run_mission_cell_for_cell_in_small_pair_blocks(block, monkeypatch):
    # the sweep's batches and each mission split into kernel blocks differently
    monkeypatch.setattr(mission, "_BLOCK", block)
    _assert_sweeps_match_run_mission_cell_for_cell()


def test_stop_batches_stay_bounded_and_match_run_mission(monkeypatch):
    sweep_module = importlib.import_module("wpcnsim.sweep")
    kernel, batch_stops = sweep_module._charging_pairs, []

    def counted(link, field, stops):
        batch_stops.append(stops.shape[0])
        return kernel(link, field, stops)

    monkeypatch.setattr(sweep_module, "_charging_pairs", counted)
    base = dataclasses.replace(DEFAULTS, n_sensors=4)
    # 5000 + 6000 fit one batch of 2**14 stops, 7000 would overflow it, and
    # 20000 exceeds it alone, so it is a batch of its own
    stop_counts = [5000, 6000, 7000, 20000, 3]
    table = sweep(base, stop_counts, [20.0], DEFAULT_CASES)
    assert batch_stops == [11000, 7000, 20000, 3] * len(DEFAULT_CASES)
    for (placement, layout, n_stops, dwell), cell in table.cells.items():
        ledger = run_mission(
            dataclasses.replace(
                base, placement=placement, layout=layout, n_stops=n_stops, dwell_time=dwell
            )
        )
        assert cell == SweepCell(
            ledger.total_packets, ledger.total_uav_energy, efficiency(ledger), ledger.feasible
        )


def test_stop_counts_whose_cells_all_fail_the_packet_bound_are_not_paired(monkeypatch):
    sweep_module = importlib.import_module("wpcnsim.sweep")
    kernel, batch_stops = sweep_module._charging_pairs, []

    def counted(link, field, stops):
        batch_stops.append(stops.shape[0])
        return kernel(link, field, stops)

    invert, inverted = sweep_module._stop_positions, []

    def inversions(path, arc_sets):
        inverted.append(sum(arcs.size for arcs in arc_sets))
        return invert(path, arc_sets)

    # packets this small pass the 2**53 bound on short tours only: at 100
    # stops no cell passes, so that plan is never inverted or paired
    monkeypatch.setattr(sweep_module, "_charging_pairs", counted)
    monkeypatch.setattr(sweep_module, "_stop_positions", inversions)
    base = dataclasses.replace(DEFAULTS, costs=EnergyCosts(1e-13, 0.0, 0.01))
    table = sweep(base, [4, 50, 100], [20.0, 70.0], [("p1", "s1")])
    assert batch_stops == [54] and inverted == [54]
    assert all("2**53" in table.cell("p1", "s1", 100, dwell).error for dwell in (20.0, 70.0))
    for (_, _, n_stops, dwell), cell in table.cells.items():
        config = dataclasses.replace(base, n_stops=n_stops, dwell_time=dwell)
        try:
            ledger = run_mission(config)
        except ConfigError as err:
            assert cell == SweepCell(0, 0.0, 0.0, False, error=str(err))
            continue
        assert cell == SweepCell(
            ledger.total_packets, ledger.total_uav_energy, efficiency(ledger), ledger.feasible
        )


def test_a_plan_that_fails_fails_only_its_own_stop_count(monkeypatch):
    facing_arcs = importlib.import_module("wpcnsim.layout")._facing_arcs

    def repeat_an_arc_at_seven(targets, perimeter, n_stops):
        arcs = facing_arcs(targets, perimeter, n_stops)
        return arcs[np.minimum(np.arange(n_stops), n_stops - 2)] if n_stops == 7 else arcs

    for module in ("wpcnsim.layout", "wpcnsim.mission"):
        monkeypatch.setattr(importlib.import_module(module), "_facing_arcs", repeat_an_arc_at_seven)
    table = sweep(DEFAULTS, [5, 7, 9], [20.0, 70.0], [("p1", "s1")])
    for (placement, layout, n_stops, dwell), cell in table.cells.items():
        config = dataclasses.replace(DEFAULTS, n_stops=n_stops, dwell_time=dwell)
        if n_stops == 7:
            with pytest.raises(ConfigError, match="^n_stops: stop arcs must be strictly") as err:
                run_mission(config)
            assert cell == SweepCell(0, 0.0, 0.0, False, error=str(err.value))
        else:
            assert cell.error == "" and cell.total_packets == run_mission(config).total_packets


def test_sweep_flags_bad_cells_instead_of_dropping():
    table = sweep(DEFAULTS, [-5, 10], [20.0], [("p1", "s1")])
    bad = table.cell("p1", "s1", -5, 20.0)
    assert bad.error and bad.total_packets == 0 and not bad.feasible
    good = table.cell("p1", "s1", 10, 20.0)
    assert not good.error
    curve = efficiency_curve(table, "p1", "s1", 20.0)
    assert [k for k, _ in curve] == [10]


def test_parallel_sweep_is_bit_identical():
    serial = sweep(DEFAULTS, [10, 40, 80], [20.0], [("p1", "s1"), ("p2", "s2")])
    parallel = sweep(
        DEFAULTS, [10, 40, 80], [20.0], [("p1", "s1"), ("p2", "s2")], workers=2
    )
    assert serial.cells == parallel.cells


def test_infeasible_cells_flagged_not_dropped():
    table = sweep(DEFAULTS, [30], [70.0], [("p1", "s1")])
    cell = table.cell("p1", "s1", 30, 70.0)
    assert not cell.feasible
    assert cell.total_packets > 0


def test_find_peak():
    assert find_peak([(1, 1.0), (2, 3.0), (3, 2.0)]) == (1, True)
    assert find_peak([(1, 1.0), (2, 2.0), (3, 3.0)]) == (2, False)
    assert find_peak([(3, 2.0), (1, 1.0), (2, 3.0)]) == (1, True)
    # ties break toward the smaller stop count
    assert find_peak([(1, 3.0), (2, 3.0), (3, 1.0)]) == (0, False)
    with pytest.raises(ValueError):
        find_peak([(1, 1.0), (2, 2.0)])


def test_clustering_gain_levels(default_table):
    mean = clustering_gain(default_table)
    assert mean == pytest.approx(1.5677, abs=1e-3)
    cells = clustering_gain_cells(default_table)
    assert len(cells) == 96
    assert min(cells.values()) >= 1.0
    assert max(cells.values()) == pytest.approx(2.0, abs=1e-3)


def test_clustering_gain_needs_matched_cases():
    table = sweep(DEFAULTS, [10], [20.0], [("p1", "s1")])
    with pytest.raises(ValueError):
        clustering_gain(table)


def test_equal_coverage_gain(default_table):
    assert equal_coverage_gain(default_table) == pytest.approx(1.519, abs=1e-2)


def test_facing_gain_aligned_floor_is_exactly_one(default_table):
    cells = p1_gain_cells(default_table)
    assert len(cells) == 388
    assert min(cells.values()) == 1.0
    assert p1_gain_over_p2(default_table) == pytest.approx(3.731, abs=1e-2)


def test_facing_gain_never_below_one_when_aligned(default_table):
    for ratio in p1_gain_cells(default_table).values():
        assert ratio >= 1.0


def test_sector_paired_curve_peaks_at_pair_count(default_table):
    curve = efficiency_curve(default_table, "p2", "s2", 20.0)
    idx, interior = find_peak(curve)
    assert curve[idx][0] == 50
    assert interior


def test_calibrate_tx_power_reference():
    tx = calibrate_tx_power(5, DEFAULTS)
    assert tx == pytest.approx(2.404, rel=1e-2)
    assert tx == pytest.approx(2.4038175290037898, rel=1e-12)


def test_calibrate_tx_power_proportional_time():
    slow = dataclasses.replace(DEFAULTS, dwell_time=40.0)
    assert calibrate_tx_power(10, slow) == calibrate_tx_power(5, DEFAULTS)


def test_calibrate_tx_power_rejects_bad_targets():
    with pytest.raises(ValueError):
        calibrate_tx_power(0, DEFAULTS)
    # a long charge phase calibrates below the harvest threshold
    lazy = dataclasses.replace(DEFAULTS, dwell_time=200.0)
    with pytest.raises(ValueError):
        calibrate_tx_power(1, lazy)


def test_calibrate_speed_reference():
    assert calibrate_speed(80, 20.0, DEFAULTS) == 6.25
    slow = calibrate_speed(22, 70.0, DEFAULTS)
    assert slow == pytest.approx(500.0 / 140.0, rel=1e-12)
    # the calibrated speed indeed budgets exactly that many stops
    assert max_stops(dataclasses.replace(DEFAULTS, cruise_speed=slow), 70.0) == 22
    assert max_stops(dataclasses.replace(DEFAULTS, cruise_speed=6.25), 20.0) == 80


@pytest.mark.parametrize("mode", ["included", "additional"])
@pytest.mark.parametrize(
    "stops, dwell", [(10, 20.0), (40, 20.0), (79, 20.0), (5, 70.0), (21, 70.0)]
)
def test_calibrate_speed_round_trips_through_max_stops(mode, stops, dwell):
    config = dataclasses.replace(DEFAULTS, wpt_draw_mode=mode)
    speed = calibrate_speed(stops, dwell, config)
    assert max_stops(dataclasses.replace(config, cruise_speed=speed), dwell) == stops


def test_calibrate_speed_names_the_billed_wpt_that_overruns_the_endurance():
    additional = dataclasses.replace(
        DEFAULTS,
        link=dataclasses.replace(DEFAULTS.link, tx_power=20.0),
        wpt_draw_mode="additional",
    )
    # 83 x 20 s fit the 1680 s, but not with 83 x 10 s of 20 W on top
    with pytest.raises(ValueError) as err:
        calibrate_speed(83, 20.0, additional)
    assert str(err.value) == (
        "83 stops of 20.0 s and their billed WPT exceed the endurance 1680.56 s; "
        "no speed can fit them"
    )
    with pytest.raises(ValueError) as err:
        calibrate_speed(85, 20.0, DEFAULTS)
    assert str(err.value) == (
        "85 stops of 20.0 s exceed the endurance 1680.56 s; no speed can fit them"
    )


def test_calibrate_speed_rejects_impossible_targets():
    with pytest.raises(ValueError):
        calibrate_speed(1000, 20.0, DEFAULTS)
    with pytest.raises(ValueError):
        calibrate_speed(0, 20.0, DEFAULTS)
    with pytest.raises(ValueError):
        calibrate_speed(10, 0.0, DEFAULTS)


# a link key that LinkParams takes as NaN, so only the value rules refuse it
_NAN_LINK_KEYS = ("tx_power", "tx_gain_dbi", "rx_gain_dbi", "harvest_threshold", "angle_exponent")


def _broken(base, rules, link_key="tx_gain_dbi"):
    """base breaking each named rule on a single value."""
    changes = {
        "battery": {"uav_battery": -1.0},
        "layout": {"layout": "s9"},
        "phase_split": {"phase_split": 1.0},
        "link": {"link": dataclasses.replace(base.link, **{link_key: math.nan})},
    }
    return dataclasses.replace(base, **{k: v for rule in rules for k, v in changes[rule].items()})


@st.composite
def _bases(draw):
    """The defaults in any case and WPT mode, valid or breaking one or two value rules."""
    base = dataclasses.replace(
        DEFAULTS,
        placement=draw(st.sampled_from(["p1", "p2"])),
        layout=draw(st.sampled_from(["s1", "s2"])),
        wpt_draw_mode=draw(st.sampled_from(["included", "additional"])),
    )
    rules = draw(st.sets(st.sampled_from(["battery", "layout", "phase_split", "link"]), max_size=2))
    return _broken(base, rules, draw(st.sampled_from(_NAN_LINK_KEYS)))


_IN_RANGE_CELLS = st.tuples(
    st.integers(0, 10**9),
    st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_bases(), st.lists(_IN_RANGE_CELLS, min_size=2, max_size=4))
def test_value_rules_give_every_in_range_cell_the_same_violations(base, cells):
    """mission._case checks a case's cells with a count >= 0 and a dwell in
    (0, inf) once, which holds only while no value rule reads either beyond
    its own range. ROADMAP item 1's planned rule on the billed WPT at the
    largest dwell reads the dwell, so landing it means re-keying that
    shared check, by dwell at least.
    """
    (first, *others) = [
        mission._value_errors(dataclasses.replace(base, n_stops=n, dwell_time=t)) for n, t in cells
    ]
    assert all(errors == first for errors in others)


def test_sweep_cells_keep_run_mission_messages_over_failing_bases():
    # a case sets the layout, so the bad layout token comes in as a case
    breaks = ["battery", "phase_split", "link"]
    rule_sets = [()] + [rules for k in (1, 2) for rules in itertools.combinations(breaks, k)]
    cases = DEFAULT_CASES + (("p1", "s9"),)
    dwells = [math.nan, math.inf, -1.0, 0.0, 20.0]
    valid = 0
    for rules in rule_sets:
        base = _broken(DEFAULTS, rules)
        _, ledgers = _assert_cells_match_run_mission(base, [-3, 0, 4], dwells, cases)
        valid += len(ledgers)
    # the valid base flies 0 and 4 stops at 20 s in each good case
    assert valid == 2 * len(DEFAULT_CASES)


@pytest.mark.parametrize(
    "grid, checks",
    [
        ((DEFAULT_STOP_COUNTS, DEFAULT_DWELLS, DEFAULT_CASES), len(DEFAULT_CASES)),
        # four cells out of range, each on its own; the two others share one check
        (([-1, 4, 5], [math.nan, 20.0], [("p1", "s1")]), 5),
    ],
)
def test_value_rules_run_once_per_case_and_once_per_out_of_range_cell(grid, checks, monkeypatch):
    rules, checked = mission._value_errors, []

    def counted(config):
        checked.append(config)
        return rules(config)

    monkeypatch.setattr(mission, "_value_errors", counted)
    sweep(DEFAULTS, *grid)
    assert len(checked) == checks


@pytest.mark.parametrize("changes", [{}, {"n_stops": -1, "dwell_time": math.nan}])
def test_one_cell_builds_one_config(changes, monkeypatch):
    config = dataclasses.replace(DEFAULTS, **changes)
    rebuild, built = mission.replace, []

    def counted(obj, **values):
        built.append(values)
        return rebuild(obj, **values)

    monkeypatch.setattr(mission, "replace", counted)
    errors = mission.validate_config(config)
    assert len(built) == 1
    if errors:
        with pytest.raises(ConfigError):
            run_mission(config)
    else:
        run_mission(config)
    assert len(built) == 1


def test_a_sweep_sizes_its_path_once_and_builds_a_field_per_layout(monkeypatch):
    size, build = mission.ellipse_from_perimeter, layout._field_at_arcs
    sized, built = [], []

    def counted_size(*args):
        sized.append(args)
        return size(*args)

    def counted_build(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(mission, "ellipse_from_perimeter", counted_size)
    monkeypatch.setattr(layout, "_field_at_arcs", counted_build)
    # a path no other test flies, so no slot already holds its geometry
    base = parse_config_text(render_config(dataclasses.replace(DEFAULTS, path_perimeter=517.25)))
    default_sweep(base)
    assert len(sized) == 1
    assert len(built) == 2


def test_a_facing_case_works_out_its_targets_once(monkeypatch):
    # the targets depend on the field alone, not on the stop count
    target_arcs, calls = importlib.import_module("wpcnsim.layout")._target_arcs, []

    def counted(field, perimeter):
        calls.append(field)
        return target_arcs(field, perimeter)

    for module in ("wpcnsim.layout", "wpcnsim.mission"):
        monkeypatch.setattr(importlib.import_module(module), "_target_arcs", counted, raising=False)
    sweep(DEFAULTS, DEFAULT_STOP_COUNTS, DEFAULT_DWELLS, DEFAULT_CASES)
    assert len(calls) == 2
