"""Record the output digests the benchmark checks for its shipped seeds.

    python3 wpcnbench/record_digests.py [N]

Runs seeds 0..N-1 (default 32) of every workload through the package in
this checkout, with the same code the measured units run, and rewrites
digests.json: the study-grid artifact sha256s and, per mission workload,
the batch digests (integer content and energy sum) of the first batches
of each seed's stream, as many as a 30 s run reaches on a 2-CPU machine.
Later batches are checked by the ledger identities alone. Re-record only
when a change is meant to alter outputs.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402

RECORDED_BATCHES = {"random-missions": 12, "large-field": 8}


def record_seed(seed: int, record: dict) -> None:
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        grid = child.run_grid({"seed": seed, "workers": 1, "out": f"{tmp}/grid"})
        if "shas" not in grid:
            raise SystemExit(f"seed {seed}: {grid['problems']}")
        record["study-grid"][str(seed)] = grid["shas"]
        for workload, batches in RECORDED_BATCHES.items():
            digests = []
            for batch in range(batches):
                spec = {"workload": workload, "seed": seed, "batch": batch, "out": f"{tmp}/m"}
                result = child.run_missions(spec)
                for problem in result["problems"]:
                    # recorded as it is: a mission that raises stays a failure
                    print(f"{workload} seed {seed}: {problem}", file=sys.stderr)
                digests.append(result["digest"])
            record[workload][str(seed)] = digests


def main() -> None:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    OUT.mkdir(exist_ok=True)
    record = {"study-grid": {}, "random-missions": {}, "large-field": {}}
    for seed in range(n_seeds):
        record_seed(seed, record)
        print(f"seed {seed} recorded", file=sys.stderr)
    lines = []
    for workload, seeds in sorted(record.items()):
        rows = [f'  "{seed}": {json.dumps(value, sort_keys=True)}' for seed, value in seeds.items()]
        lines.append(f' "{workload}": {{\n' + ",\n".join(rows) + "\n }")
    staged = checks.DIGESTS.with_suffix(".tmp")
    staged.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    staged.replace(checks.DIGESTS)


if __name__ == "__main__":
    main()
