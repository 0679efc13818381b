"""Grid sweeps over placement, layout, stop count, and dwell time,
plus the derived metrics: efficiency, gain ratios, peak detection,
and the two calibration solvers.

A sweep runs case by case. Each case takes its cells' checks and stop
plans from the pass that run_mission runs at one cell (mission._case):
the value rules once per case and once per cell whose count or dwell is
out of range, one config per dwell, and a p1 case's facing targets
once. It then inverts and pairs its plans in batches, cut by the pair
kernel's run rule, and settles all its valid cells at once. Cells are pure
functions of (base config, cell coordinates), so cases can be spread
over worker processes without changing a single output bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from wpcnsim.mission import (
    ConfigError,
    MissionLedger,
    ScenarioConfig,
    _case,
    _charging_pairs,
    _energy,
    _runs,
    _settle,
    endurance,
    run_mission,  # noqa: F401 -- wpcnbench/tracing.py wraps sweep.run_mission
)
from wpcnsim.layout import _stop_positions
from wpcnsim.rf_link import received_power

__all__ = [
    "SweepCell",
    "SweepTable",
    "DEFAULT_STOP_COUNTS",
    "DEFAULT_DWELLS",
    "DEFAULT_CASES",
    "efficiency",
    "sweep",
    "default_sweep",
    "efficiency_curve",
    "clustering_gain",
    "clustering_gain_cells",
    "equal_coverage_gain",
    "p1_gain_over_p2",
    "p1_gain_cells",
    "find_peak",
    "calibrate_tx_power",
    "calibrate_speed",
]

DEFAULT_STOP_COUNTS = tuple(range(4, 101))
DEFAULT_DWELLS = (20.0, 70.0)
DEFAULT_CASES = (("p1", "s1"), ("p1", "s2"), ("p2", "s1"), ("p2", "s2"))
# most stops inverted and paired at once: the batch's pair arrays, not the
# grid's, bound the memory a case needs beyond its settled pairs
_BATCH_STOPS = 2**14


@dataclass(frozen=True)
class SweepCell:
    """One grid point: packet total, energy bill, efficiency, feasibility.

    A nonempty error string marks a cell whose configuration was invalid;
    its numeric fields are zero and it is skipped by every metric.
    """

    total_packets: int
    total_uav_energy: float
    efficiency: float
    feasible: bool
    error: str = ""


@dataclass(eq=False)
class SweepTable:
    """Sweep results keyed by (placement, layout, n_stops, dwell)."""

    base: ScenarioConfig
    cases: tuple
    stop_counts: tuple
    dwells: tuple
    cells: dict

    def cell(self, placement: str, layout: str, n_stops: int, dwell: float) -> SweepCell:
        return self.cells[(placement, layout, n_stops, dwell)]


def efficiency(ledger: MissionLedger) -> float:
    """Packets delivered per kilojoule of drone energy."""
    return _per_kilojoule(ledger.total_packets, ledger.total_uav_energy)


def _per_kilojoule(packets: int, energy: float) -> float:
    if not energy > 0:
        raise ValueError("ledger has no positive energy spend")
    return packets / (energy / 1000.0)


def _sweep_case(case, base: ScenarioConfig, stop_counts: tuple, dwells: tuple) -> dict:
    """The cells of one case keyed (placement, layout, n_stops, dwell), in
    stop count then dwell order, checked and planned by mission._case.

    Each batch of plans, a run of at most _BATCH_STOPS stops by the pair
    kernel's rule (mission._runs), takes one inversion and one pairing.
    The invalid cells take run_mission's message and the valid ones settle
    together, sensor i of the c-th valid cell under id c * n_sensors + i,
    so no two cells share an account.
    """
    n = base.n_sensors
    placement, layout = case
    base = dataclasses.replace(base, placement=placement, layout=layout)
    cells, path, field, plans = _case(base, stop_counts, dwells)
    valid, sensors, banked = [], [], []
    runs = _runs([arcs.size for arcs, _ in plans], _BATCH_STOPS)
    for batch in (plans[a:b] for a, b in zip(runs, runs[1:])):
        arc_sets = [arcs for arcs, _ in batch]
        stop, sensor, rate = _charging_pairs(base.link, field, _stop_positions(path, arc_sets))
        bounds = np.searchsorted(stop, np.cumsum([0] + [arcs.size for arcs in arc_sets])).tolist()
        for (_, group), a, b in zip(batch, bounds, bounds[1:]):
            for key, config in group:
                sensors.append(sensor[a:b] + len(valid) * n)
                banked.append(rate[a:b] * (config.dwell_time * config.phase_split))
                valid.append((key, config))
    for key, violations in cells.items():
        if violations:
            cells[key] = SweepCell(0, 0.0, 0.0, False, error=str(ConfigError(violations)))
    if valid:
        # accounts only for the sensors that charge, so memory follows the
        # pairs and not cells x sensors
        ids, account = np.unique(np.concatenate(sensors), return_inverse=True)
        _, _, packets, _ = _settle(account, np.concatenate(banked), ids.size, base.costs)
        totals = np.zeros(len(valid), dtype=np.int64)
        np.add.at(totals, ids // n, packets)
        for (key, config), total_packets in zip(valid, totals.tolist()):
            # the key's stop count: a dwell's config is shared by its cells
            energy = _energy(config, key[0], total_packets)[-1]
            cells[key] = SweepCell(
                total_packets=total_packets,
                total_uav_energy=energy,
                efficiency=_per_kilojoule(total_packets, energy),
                feasible=energy <= config.uav_battery,
            )
    return {(placement, layout, *key): cell for key, cell in cells.items()}


def sweep(
    base: ScenarioConfig,
    stop_counts,
    dwells,
    cases=DEFAULT_CASES,
    workers: int = 1,
) -> SweepTable:
    """Evaluate the full grid, every cell as run_mission would, none dropped.

    Each axis must be non-empty and free of repeats. workers > 1 spreads
    the cases over processes; results are identical to the serial run
    because cases are independent and order is fixed.
    """
    stop_counts = tuple(int(k) for k in stop_counts)
    dwells = tuple(float(t) for t in dwells)
    cases = tuple((str(p), str(s)) for p, s in cases)
    axes = {"stop_counts": stop_counts, "dwells": dwells, "cases": cases}
    if not all(axes.values()):
        raise ValueError("stop_counts, dwells, and cases must be non-empty")
    for name, axis in axes.items():
        # no NaN equals itself, so every NaN counts as the one value None
        if len({None if t != t else t for t in axis}) < len(axis):
            raise ValueError(f"{name} repeats a value: {axis}")
    run_case = partial(_sweep_case, base=base, stop_counts=stop_counts, dwells=dwells)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_case, cases))
    else:
        results = [run_case(case) for case in cases]
    return SweepTable(
        base=base,
        cases=cases,
        stop_counts=stop_counts,
        dwells=dwells,
        cells={key: cell for cells in results for key, cell in cells.items()},
    )


def default_sweep(base: ScenarioConfig = ScenarioConfig(), workers: int = 1) -> SweepTable:
    """The standard study grid: 4..100 stops, 20 s and 70 s dwells, all cases."""
    return sweep(base, DEFAULT_STOP_COUNTS, DEFAULT_DWELLS, DEFAULT_CASES, workers)


def efficiency_curve(
    table: SweepTable, placement: str, layout: str, dwell: float
):
    """(n_stops, efficiency) points for one case and dwell, by stop count."""
    return tuple(
        (k, table.cell(placement, layout, k, dwell).efficiency)
        for k in table.stop_counts
        if not table.cell(placement, layout, k, dwell).error
    )


def _matched_ratios(table: SweepTable, top, bottom, stop_pairs, feasible: bool) -> dict:
    """(top n_stops, dwell) -> top over bottom efficiency on matched cells.

    top and bottom are cases, stop_pairs their (top, bottom) stop counts; a
    table without both cases has no pairs. A pair counts when both cells are
    error-free, the bottom efficiency is positive and, if feasible is set,
    both cells are feasible.
    """
    ratios = {}
    if not {top, bottom} <= set(table.cases):
        return ratios
    for top_stops, bottom_stops in stop_pairs:
        for dwell in table.dwells:
            upper = table.cell(*top, top_stops, dwell)
            lower = table.cell(*bottom, bottom_stops, dwell)
            usable = (
                not upper.error
                and not lower.error
                and (not feasible or upper.feasible and lower.feasible)
                and lower.efficiency > 0.0
            )
            if usable:
                ratios[(top_stops, dwell)] = upper.efficiency / lower.efficiency
    return ratios


def _mean(ratios: dict, message: str) -> float:
    if not ratios:
        raise ValueError(message)
    return sum(ratios.values()) / len(ratios)


def clustering_gain_cells(table: SweepTable) -> dict:
    """Per-cell paired-over-even efficiency ratios on matched coordinates.

    Both cells of a pair must be feasible and error-free with a positive
    even-layout efficiency; keys are ("p1", n_stops, dwell).
    """
    same = [(k, k) for k in table.stop_counts]
    ratios = _matched_ratios(table, ("p1", "s2"), ("p1", "s1"), same, feasible=True)
    return {("p1", *key): ratio for key, ratio in ratios.items()}


def clustering_gain(table: SweepTable) -> float:
    """Mean efficiency gain of the paired layout over the even layout.

    Averaged over matched feasible (n_stops, dwell) cells. It compares
    only sensor-facing placements, where the pairing is actually
    exploited by the stop plan.
    """
    return _mean(clustering_gain_cells(table), "no matched feasible layout pairs in the table")


def equal_coverage_gain(table: SweepTable) -> float:
    """Paired-over-even gain at equal coverage under p1: k pair stops vs 2k even stops."""
    if not {("p1", "s1"), ("p1", "s2")} <= set(table.cases):
        raise ValueError("table lacks both layouts under placement 'p1'")
    doubled = [(k, 2 * k) for k in table.stop_counts if 2 * k in table.stop_counts]
    return _mean(
        _matched_ratios(table, ("p1", "s2"), ("p1", "s1"), doubled, feasible=True),
        "no matched feasible equal-coverage pairs in the table",
    )


def p1_gain_cells(table: SweepTable) -> dict:
    """Per-cell facing-over-sector efficiency ratios on matched coordinates.

    Keys are (layout, n_stops, dwell); cells where the sector placement
    collected nothing are left out (the ratio is unbounded there).
    """
    same = [(k, k) for k in table.stop_counts]
    ratios = {}
    for layout in ("s1", "s2"):
        matched = _matched_ratios(table, ("p1", layout), ("p2", layout), same, feasible=False)
        ratios.update(((layout, *key), ratio) for key, ratio in matched.items())
    return ratios


def p1_gain_over_p2(table: SweepTable) -> float:
    """Mean efficiency gain of sensor-facing stops over equal-arc stops."""
    return _mean(p1_gain_cells(table), "no matched placement pairs in the table")


def find_peak(curve):
    """Locate the efficiency maximum of a (n_stops, efficiency) curve.

    Returns (index, interior); ties break toward the smaller stop count,
    and interior means the peak is not an endpoint of the curve.
    """
    points = sorted((int(k), float(e)) for k, e in curve)
    if len(points) < 3:
        raise ValueError(f"need at least 3 curve points, got {len(points)}")
    best = max(range(len(points)), key=lambda i: (points[i][1], -i))
    return best, 0 < best < len(points) - 1


def calibrate_tx_power(target_packets: int, config: ScenarioConfig) -> float:
    """Transmit power making one boresight charge worth target_packets.

    Closed form: the stored energy after dwell*phase_split seconds of
    charging at the standoff distance equals target_packets packet units.
    """
    if target_packets < 1:
        raise ValueError(f"target_packets must be >= 1, got {target_packets}")
    link = config.link
    unit_link = received_power(dataclasses.replace(link, tx_power=1.0), config.standoff, 0.0)
    charge_time = config.dwell_time * config.phase_split
    tx = (target_packets * config.costs.packet_unit) / (
        charge_time * link.rf_dc_efficiency * unit_link
    )
    calibrated = dataclasses.replace(link, tx_power=tx)
    if received_power(calibrated, config.standoff, 0.0) < link.harvest_threshold:
        raise ValueError(
            "calibrated power falls below the harvest threshold; "
            "the target is too small for this link"
        )
    return tx


def calibrate_speed(stop_target: int, dwell: float, config: ScenarioConfig) -> float:
    """Cruise speed whose battery budget fits exactly stop_target stops.

    Budgets the whole seconds of endurance: the loop gets what remains
    after stop_target dwells and their billed WPT, so flying any faster
    only adds slack.
    """
    if stop_target < 1:
        raise ValueError(f"stop_target must be >= 1, got {stop_target}")
    if not dwell > 0:
        raise ValueError(f"dwell must be > 0, got {dwell}")
    # billed WPT joules are flight-power seconds that the loop cannot have;
    # the speed is the unknown, so the config's own takes no part
    billed = dataclasses.replace(config, dwell_time=dwell, cruise_speed=math.inf)
    dwell_budget = math.floor(endurance(config)) - stop_target * dwell
    loop_budget = dwell_budget - _energy(billed, stop_target, 0)[2] / config.uav_flight_power
    if loop_budget <= 0:
        bill = "" if dwell_budget <= 0 else " and their billed WPT"
        raise ValueError(
            f"{stop_target} stops of {dwell} s{bill} exceed the endurance "
            f"{endurance(config):.2f} s; no speed can fit them"
        )
    return config.path_perimeter / loop_budget
