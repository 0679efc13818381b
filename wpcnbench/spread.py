"""Run the benchmark over several seeds and report medians and spreads.

    python3 wpcnbench/spread.py --workloads study-grid,large-field \\
        --seeds 1-10 --seconds 20 [--trace 0] [--out report.json]

For each workload and end-to-end metric it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread,
(q3 - q1) / median, which BENCHMARK.json's bounds are set against. The
JSON report carries an environment stamp: Python and numpy versions,
nproc, the git sha when the checkout is a git repository, and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list:
    head, _, tail = text.partition("-")
    return list(range(int(head), int(tail) + 1)) if tail else [int(s) for s in text.split(",")]


def environment(seeds: list) -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_sha": sha or None,
        "seeds": seeds,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = seeds_from(args.seeds)
    report = {"environment": environment(seeds), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
            command += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct {result['correct']}", file=sys.stderr)
        summary = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload:16s} {name:28s} median {median:12.6g}  spread {spread:.4f}")
        report["workloads"][workload] = {"metrics": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
