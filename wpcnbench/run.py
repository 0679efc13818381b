"""The wpcnsim benchmark: three closed-loop workloads, checked outputs,
end-to-end metrics untraced and per-layer metrics from traced units.

Usage, from the root of a checkout:

    python3 wpcnbench/run.py --workload study-grid --seed 0 --seconds 30 --trace 0
    python3 wpcnbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Workloads (closed loops: a single process issues one call at a time):

  study-grid       `wpcnsim sweep --config <seeded base> --out <tmp>` over
                   the default axes: 4 cases x stops 4..100 x dwells 20,
                   70 s = 776 cells, serial. The study the package exists
                   for; arc inversion and tour accounting dominate it.
                   Its traced run also times `sweep(workers=2)` with 2
                   worker processes, one per CPU of a 2-CPU machine
                   (sweep.speedup_w2), whose artifacts must be
                   byte-identical to the serial CLI's. A workload of its
                   own for the 2-worker grid was tried and dropped: on a
                   shared 2-CPU machine successive 2-worker grids vary by
                   +-25%, too much to hold a 10-run spread under the bound.
  random-missions  a seeded stream of distinct valid missions (10-400
                   sensors, 1-200 stops, any layout, placement, path
                   shape, dwell and p2_phase), each through
                   parse_config_text -> run_mission -> write_mission_summary,
                   the `simulate --out` path. No two share a flight path,
                   so every cache misses.
  large-field      5000 sensors x 1000 stops at dwell 20 s, cycling the
                   four cases; the dense link matrix and the tour dominate.

Every measured unit runs in a fresh interpreter (see child.py for why).
With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
runs the workload's first unit (the grid, or the first batch of
missions) untraced and traced by turns, at least twice each, prints the
per-layer metrics of the traced units (tracing.py) with the tracing
overhead, and writes the first traced unit's spans to
.bench_out/trace-<workload>-seed<seed>.json.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The lines before it print every metric by name with its unit,
failed_frac included; failed_frac is carried by `failed` / `attempted`
rather than as a metric because it is 0 when nothing fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


WORKLOADS = ("study-grid", "random-missions", "large-field")
MIN_UNITS = 3
MIN_TRACED_PAIRS = 2
# A traced unit's wall time below the untraced unit's by more than this
# share means the two saw different machine speed: the overhead reading
# is then flagged as unresolved.
OVERHEAD_NOISE = 0.05
# mission_tail_ms: the median over batches of each batch's p90, which
# leaves 10 of random-missions' 100 missions beyond it; a burst of load
# that slows one batch then moves the tail no more than the median. A
# grid run yields one per-cell time, too few for a tail: there it is the
# upper quartile of the run's grids.
TAIL_PERCENTILE = 90
GRID_TAIL_PERCENTILE = 75
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


class Runner:
    """Starts fresh-interpreter units and keeps the whole run in its limit."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.started = time.monotonic()
        self.units = 0
        self.setup_s = []
        self.numpy = None

    def spawn(self, spec: dict) -> dict:
        """Run one unit; its import time becomes a setup_s sample."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("run time limit reached")
        self.units += 1
        spec.setdefault("out", str(self.run_dir / f"unit-{self.units}"))
        command = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
        launched = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{spec['mode']} unit exceeded the run time limit") from None
        finally:
            # the unit's own session: also ends pool workers it left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{spec['mode']} unit exited with code {proc.returncode}")
        result = json.loads(stdout.decode("utf-8").splitlines()[-1])
        self.setup_s.append(result["imported"] - launched)
        self.numpy = result["numpy"]
        return result


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def unit_spec(workload: str, seed: int, batch: int = 0) -> dict:
    if workload == "study-grid":
        return {"mode": "grid", "workers": 1, "seed": seed}
    return {"mode": "missions", "workload": workload, "seed": seed, "batch": batch}


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> tuple:
    """Untraced run: (metrics, attempted, failed, problems, notes).

    Units (a grid, or a batch of missions) run back to back until
    `seconds` have passed, each in a fresh interpreter, with an
    import-only interpreter before each one. A shared machine's speed
    changes from second to second under its neighbours' load, so the
    setup_s samples are spread over the whole run like the units they
    sit among.
    """
    runner.spawn({"mode": "import"})  # warm the page and bytecode caches, untimed
    runner.setup_s.clear()
    deadline = time.monotonic() + seconds
    units = []
    while len(units) < MIN_UNITS or time.monotonic() < deadline:
        runner.spawn({"mode": "import"})
        units.append(runner.spawn(unit_spec(workload, seed, batch=len(units))))
    if workload == "study-grid":
        # a grid run shows only its mean time per cell: one sample per unit
        samples = [u["wall"] / u["attempted"] for u in units]
        p50, tail = statistics.median(samples), percentile(samples, GRID_TAIL_PERCENTILE)
    else:
        # a batch where nothing passed contributes its wall time; failed_frac says why
        batches = [u["latencies"] or [u["wall"]] for u in units]
        p50 = statistics.median(t for batch in batches for t in batch)
        tail = statistics.median(percentile(batch, TAIL_PERCENTILE) for batch in batches)
    rates = [(u["attempted"] - u["failed"]) / u["wall"] for u in units]
    metrics = {
        "setup_s": (statistics.median(runner.setup_s), "s"),
        "wall_s": (statistics.median(u["wall"] for u in units), "s"),
        "missions_per_s": (statistics.median(rates), "1/s"),
        "mission_p50_ms": (1000.0 * p50, "ms"),
        "mission_tail_ms": (1000.0 * tail, "ms"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units), "MB"),
    }
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    return metrics, attempted, failed, [p for u in units for p in u["problems"]], []


def trace(runner: Runner, workload: str, seed: int, seconds: float) -> tuple:
    """Traced run: (metrics, attempted, failed, problems, notes).

    The workload's first unit runs untraced and traced by turns, each
    pair in the other order from the last, so that a drift in machine
    speed falls on both sides alike; times are medians over the units.
    Every unit's outputs must equal the first untraced unit's, and every
    traced unit's counts the first traced unit's.
    """
    deadline = time.monotonic() + seconds
    untraced, traced = [], []
    while len(traced) < MIN_TRACED_PAIRS or time.monotonic() < deadline:
        spec = unit_spec(workload, seed)
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        if traced:  # only the first traced unit's spans are kept
            trace_file = runner.run_dir / f"trace-{len(traced)}.json"
        pair = [(untraced, spec), (traced, dict(spec, trace_file=str(trace_file)))]
        for units, unit in pair[:: 1 if len(traced) % 2 == 0 else -1]:
            units.append(runner.spawn(unit))
    units = untraced + traced
    parallel = None
    if workload == "study-grid":
        parallel = runner.spawn({"mode": "grid", "workers": 2, "seed": seed})
        units.append(parallel)
    problems = [p for u in units for p in u["problems"]]
    output = "shas" if workload == "study-grid" else "digest"
    for unit in units[1:]:
        # outputs may not depend on tracing, on reruns or on the worker count
        if unit.get(output) != untraced[0].get(output):
            unit["failed"] = unit["attempted"]
            problems.append(f"a unit's {output} differ from the first untraced unit's")
    for unit in traced[1:]:
        if unit["counts"] != traced[0]["counts"]:
            unit["failed"] = unit["attempted"]
            problems.append("counts differ between traced runs of the same inputs")
    counts = traced[0]["counts"]
    layers = {layer for unit in traced for layer in unit["layer_seconds"]}
    seconds = {
        layer: statistics.median(u["layer_seconds"].get(layer, 0.0) for u in traced)
        for layer in layers
    }
    workload_s = statistics.median(u["wall"] for u in traced)
    untraced_s = statistics.median(u["wall"] for u in untraced)
    overhead = workload_s / untraced_s - 1.0
    notes = []
    if overhead < -OVERHEAD_NOISE:
        notes.append(
            f"trace.overhead_frac {overhead:.4f} is below -{OVERHEAD_NOISE}: the traced and "
            "untraced units saw different machine speed, so the overhead is unresolved"
        )
    table_s = seconds.get("sweep.table", 0.0)
    # no multi-cell grid to spread over workers on the mission workloads
    speedup = table_s / parallel["sweep_s"] if parallel else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    invert_s = seconds.get("geometry.invert", 0.0)
    matrix_s = seconds.get("rf_link.matrix", 0.0)
    metrics = {
        "geometry.size_calls": (counts["geometry.size_calls"], "count"),
        "geometry.size_s": (seconds.get("geometry.size", 0.0), "s"),
        "geometry.invert_calls": (counts["geometry.invert_calls"], "count"),
        "geometry.invert_arcs": (counts["geometry.invert_arcs"], "count"),
        "geometry.invert_s": (invert_s, "s"),
        "geometry.arcs_per_s": (ratio(counts["geometry.invert_arcs"], invert_s), "1/s"),
        "layout.sensors_calls": (counts["layout.sensors_calls"], "count"),
        "layout.sensors_s": (seconds.get("layout.sensors", 0.0), "s"),
        "layout.sensors_hit_ratio": (
            ratio(counts["layout.sensors_hits"], counts["layout.sensors_calls"]),
            "ratio",
        ),
        "layout.stops_calls": (counts["layout.stops_calls"], "count"),
        "layout.stops_s": (seconds.get("layout.stops", 0.0), "s"),
        "layout.stops_hit_ratio": (
            ratio(counts["layout.stops_hits"], counts["layout.stops_calls"]),
            "ratio",
        ),
        "rf_link.pairs": (counts["rf_link.pairs"], "count"),
        "rf_link.charging_frac": (
            ratio(counts["rf_link.charging_pairs"], counts["rf_link.pairs"]),
            "ratio",
        ),
        "rf_link.matrix_s": (matrix_s, "s"),
        "rf_link.pairs_per_s": (ratio(counts["rf_link.pairs"], matrix_s), "1/s"),
        "mission.validate_s": (seconds.get("mission.validate", 0.0), "s"),
        "mission.tour_calls": (counts["mission.tour_calls"], "count"),
        "mission.tour_s": (seconds.get("mission.tour", 0.0), "s"),
        "mission.records": (counts["mission.records"], "count"),
        "mission.packets": (counts["mission.packets"], "count"),
        "sweep.table_s": (table_s, "s"),
        "sweep.cells": (counts["sweep.cells"], "count"),
        "sweep.error_cells": (counts["sweep.error_cells"], "count"),
        "sweep.infeasible_cells": (counts["sweep.infeasible_cells"], "count"),
        "sweep.metrics_s": (seconds.get("sweep.metrics", 0.0), "s"),
        "sweep.speedup_w2": (speedup, "ratio"),
        "config_io.parse_s": (seconds.get("config_io.parse", 0.0), "s"),
        "config_io.write_s": (seconds.get("config_io.write", 0.0), "s"),
        "config_io.files_written": (counts["config_io.files_written"], "count"),
        "config_io.bytes_written": (counts["config_io.bytes_written"], "count"),
        "cli.main_s": (seconds.get("cli.main", 0.0), "s"),
        "trace.workload_s": (workload_s, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    return metrics, attempted, failed, problems, notes


def run_all(args) -> int:
    """Each workload in turn, each in its own benchmark process."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve())]
        command += ["--workload", workload, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wpcnsim" / "__init__.py").is_file():
        print(f"no wpcnsim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    runner = Runner(run_dir)
    try:
        if args.trace:
            measured = trace(runner, args.workload, args.seed, args.seconds)
        else:
            measured = measure(runner, args.workload, args.seed, args.seconds)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics, attempted, failed, problems, notes = measured
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"  python {sys.version.split()[0]}  numpy {runner.numpy}  nproc {os.cpu_count()}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
