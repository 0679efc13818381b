"""Acceptance gate: ten headline behaviors, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict line;
without -s the lines surface only for failing criteria.
"""

import time
from dataclasses import replace

import numpy as np

from reference import reference_tour
from wpcnsim.config_io import write_sweep_csv
from wpcnsim.geometry import ellipse_from_perimeter
from wpcnsim.layout import place_sensors_even, place_stops_facing
from wpcnsim.mission import ScenarioConfig, endurance, max_stops, run_mission
from wpcnsim.rf_link import LinkParams
from wpcnsim.sweep import (
    calibrate_tx_power,
    clustering_gain,
    clustering_gain_cells,
    default_sweep,
    efficiency,
    efficiency_curve,
    find_peak,
    p1_gain_cells,
    p1_gain_over_p2,
)

DEFAULTS = ScenarioConfig()


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_endurance_value_and_speed():
    seconds = endurance(DEFAULTS)
    endurance(DEFAULTS)  # warm any lazy state before timing
    start = time.perf_counter()
    for _ in range(100):
        endurance(DEFAULTS)
    mean_runtime = (time.perf_counter() - start) / 100.0
    ok = abs(seconds - 1680.56) / 1680.56 <= 1e-3 and mean_runtime < 1e-3
    _verdict(
        1,
        ok,
        f"endurance {seconds:.4f} s (want 1680.56 +-0.1%), "
        f"mean call {mean_runtime * 1e6:.2f} us (want < 1000 us)",
    )


def test_criterion_2_stop_budgets():
    long_dwell = max_stops(DEFAULTS, 70.0)
    short_dwell = max_stops(DEFAULTS, 20.0)
    ok = long_dwell == 22 and short_dwell == 80
    _verdict(
        2,
        ok,
        f"max stops {long_dwell} at 70 s dwell (want 22), "
        f"{short_dwell} at 20 s dwell (want 80)",
    )


def test_criterion_3_tx_power_calibration():
    tx_power = calibrate_tx_power(5, DEFAULTS)
    ledger = run_mission(replace(DEFAULTS, n_stops=80))
    counts = [rec.packets for rec in ledger.per_sensor]
    ok = (
        abs(tx_power - 2.404) / 2.404 <= 1e-2
        and counts.count(5) == 80
        and counts.count(0) == 20
    )
    _verdict(
        3,
        ok,
        f"calibrated tx power {tx_power:.6f} W (want 2.404 +-1%), "
        f"{counts.count(5)} sensors at 5 packets, {counts.count(0)} at 0",
    )


def test_criterion_4_reference_efficiency(default_table):
    cell = default_table.cell("p1", "s1", 80, 20.0)
    ok = abs(cell.efficiency - 1.40) <= 0.02
    _verdict(
        4,
        ok,
        f"reference cell efficiency {cell.efficiency:.5f} pkt/kJ (want 1.40 +-0.02)",
    )


def test_criterion_5_paired_layout_gain(default_table):
    gain = clustering_gain(default_table)
    ratios = list(clustering_gain_cells(default_table).values())
    ok = 1.4 <= gain <= 2.0 and min(ratios) <= 1.7 <= max(ratios)
    _verdict(
        5,
        ok,
        f"paired-layout gain {gain:.4f} (want within [1.4, 2.0]), "
        f"cell range [{min(ratios):.4f}, {max(ratios):.4f}] spans 1.7",
    )


def test_criterion_6_facing_placement_gain(default_table):
    half_offset = default_sweep(replace(DEFAULTS, p2_phase=2.5))
    quarter_offset = default_sweep(replace(DEFAULTS, p2_phase=1.25))
    gain = p1_gain_over_p2(half_offset)
    pooled = []
    for table in (default_table, quarter_offset, half_offset):
        pooled.extend(p1_gain_cells(table).values())
    ok = gain >= 1.15 and min(pooled) <= 1.30 <= max(pooled)
    _verdict(
        6,
        ok,
        f"facing-over-sector gain {gain:.4f} with offset sector stops "
        f"(want >= 1.15), pooled cell range [{min(pooled):.4f}, {max(pooled):.4f}] "
        f"spans 1.30",
    )


def test_criterion_7_interior_efficiency_peak(default_table):
    curve = efficiency_curve(default_table, "p2", "s2", 20.0)
    index, interior = find_peak(curve)
    ok = interior
    _verdict(
        7,
        ok,
        f"sector-stop efficiency peaks at {curve[index][0]} stops "
        f"({curve[index][1]:.5f} pkt/kJ), interior {interior}",
    )


def test_criterion_8_packet_oracle_over_random_links():
    rng = np.random.default_rng(2024)
    path = ellipse_from_perimeter(DEFAULTS.aspect_ratio, DEFAULTS.path_perimeter)
    mismatches = 0
    for _ in range(1000):
        link = LinkParams(
            frequency=float(rng.uniform(1e9, 5e9)),
            tx_power=float(rng.uniform(0.5, 5.0)),
            tx_gain_dbi=float(rng.uniform(0.0, 12.0)),
            rx_gain_dbi=float(rng.uniform(0.0, 12.0)),
            rf_dc_efficiency=float(rng.uniform(0.3, 0.95)),
            harvest_threshold=float(rng.uniform(1e-4, 2e-3)),
        )
        dwell = float(rng.uniform(5.0, 100.0))
        split = float(rng.uniform(0.1, 0.9))
        standoff = float(rng.uniform(0.5, 3.0))
        config = replace(
            DEFAULTS,
            link=link,
            n_sensors=1,
            n_stops=1,
            dwell_time=dwell,
            phase_split=split,
            standoff=standoff,
        )
        field = place_sensors_even(path, 1, standoff)
        plan = place_stops_facing(path, field, 1)
        ((_, expected),), _ = reference_tour(config, field, plan)
        if run_mission(config).total_packets != expected:
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        8,
        ok,
        f"{1000 - mismatches}/1000 random links match the scalar reference "
        "tour's packet count (want 1000/1000)",
    )


def test_criterion_9_ledger_identities_across_grid(default_table):
    violations = 0
    for (placement, layout, n_stops, dwell), cell in default_table.cells.items():
        config = replace(
            DEFAULTS,
            placement=placement,
            layout=layout,
            n_stops=n_stops,
            dwell_time=dwell,
        )
        ledger = run_mission(config)
        parts = (
            ledger.flight_energy
            + ledger.hover_energy
            + ledger.wpt_energy
            + ledger.rx_energy
        )
        good = (
            ledger.total_uav_energy == parts
            and all(
                rec.residual == rec.harvested - rec.spent and rec.residual >= 0.0
                for rec in ledger.per_sensor
            )
            and sum(rec.packets for rec in ledger.per_sensor) == ledger.total_packets
            and sum(rec.packets for rec in ledger.per_stop) == ledger.total_packets
            and ledger.total_packets == cell.total_packets
            and ledger.total_uav_energy == cell.total_uav_energy
            and ledger.feasible == cell.feasible
            and efficiency(ledger) == cell.efficiency
        )
        violations += not good
    rerun_identical = default_sweep().cells == default_table.cells
    ok = violations == 0 and rerun_identical
    _verdict(
        9,
        ok,
        f"{len(default_table.cells) - violations}/{len(default_table.cells)} cells "
        f"satisfy exact ledger identities, rerun identical {rerun_identical}",
    )


def test_criterion_10_sweep_runtime_and_parallel_equivalence(tmp_path):
    start = time.perf_counter()
    serial = default_sweep()
    elapsed = time.perf_counter() - start
    parallel = default_sweep(workers=2)
    (tmp_path / "serial").mkdir()
    (tmp_path / "parallel").mkdir()
    serial_csv = write_sweep_csv(serial, tmp_path / "serial").read_bytes()
    parallel_csv = write_sweep_csv(parallel, tmp_path / "parallel").read_bytes()
    ok = elapsed < 10.0 and serial_csv == parallel_csv
    _verdict(
        10,
        ok,
        f"default sweep in {elapsed:.2f} s single-threaded (want < 10 s), "
        f"two-worker run byte-identical {serial_csv == parallel_csv}",
    )
