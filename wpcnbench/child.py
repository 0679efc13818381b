"""One measured unit of a workload, in a fresh interpreter.

run.py starts this script once per unit with a JSON spec as its only
argument; the script prints one JSON object as its last stdout line.
Every unit gets a fresh interpreter because that is what users get:
each `wpcnsim` CLI call starts cold, and `sweep(..., workers=2)` forks
workers that inherit whatever the parent's `lru_cache`s hold. Repeating
a unit inside one process would measure warm caches instead (a warm
rerun of the study grid is about 25% faster than the first), and the
numbers would depend on which unit ran before.

Modes:
  import    import the package and report when that finished (setup_s)
  grid      the study grid, then its output checks. With "workers": 1
            it is `cli.main(["sweep", ...])`; the CLI has no worker
            option, so "workers": 2 runs `parse_config` +
            `sweep(workers=2)` + the CLI's artifact writes
  missions  batch "batch" of the seed's mission stream, one mission at a
            time: parse_config_text -> run_mission ->
            write_mission_summary, then their checks

With "trace_file" set, a grid or missions unit runs with the tracing
wrappers of tracing.py installed and writes its spans to that file.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wpcnsim  # noqa: E402
import wpcnsim.cli  # noqa: E402

IMPORTED = time.monotonic()

import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

from wpcnsim import config_io, mission  # noqa: E402
from wpcnsim.sweep import (  # noqa: E402
    DEFAULT_CASES,
    DEFAULT_DWELLS,
    DEFAULT_STOP_COUNTS,
    sweep,
)

import checks  # noqa: E402
import inputs  # noqa: E402

ARTIFACTS = ("sweep.csv", "summary.json", "manifest.json")
GRID_CELLS = len(DEFAULT_CASES) * len(DEFAULT_STOP_COUNTS) * len(DEFAULT_DWELLS)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def cli_sweep(config_path: Path, out: Path) -> None:
    with redirect_stdout(io.StringIO()):
        code = wpcnsim.cli.main(["sweep", "--config", str(config_path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"wpcnsim sweep exited {code}")


def api_sweep(config_path: Path, out: Path, workers: int) -> float:
    """parse + sweep + the CLI's artifact writes; returns the sweep() time."""
    base = config_io.parse_config(config_path)
    start = time.perf_counter()
    table = sweep(base, DEFAULT_STOP_COUNTS, DEFAULT_DWELLS, DEFAULT_CASES, workers=workers)
    sweep_s = time.perf_counter() - start
    out.mkdir(parents=True, exist_ok=True)
    csv_path = config_io.write_sweep_csv(table, out)
    summary = config_io.write_sweep_summary(table, out)
    digest = config_io.sha256_hex(config_io.render_config(base).encode("utf-8"))
    config_io.write_manifest(base, digest, [csv_path.name, summary.name], out)
    return sweep_s


def grid_artifact_problems(out: Path, seed: int) -> tuple:
    """(problems, error cells, infeasible cells, artifact digests)."""
    shas = {name: checks.file_sha256(out / name) for name in ARTIFACTS}
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    problems = checks.sweep_csv_problems((out / "sweep.csv").read_text(encoding="utf-8"), GRID_CELLS)
    if summary["n_cells"] != GRID_CELLS:
        problems.append(f"summary.json counts {summary['n_cells']} cells")
    recorded = checks.load_digests()["study-grid"].get(str(seed), {})
    for name, want in recorded.items():
        if shas[name] != want:
            problems.append(f"{name} sha256 {shas[name]} != expected {want}")
    infeasible = summary["n_cells"] - summary["n_feasible"]
    return problems, summary["n_errors"], infeasible, shas


def run_grid(spec: dict) -> dict:
    seed, out = spec["seed"], Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "base.cfg"
    config_path.write_text(inputs.render(inputs.grid_params(seed)), encoding="utf-8")
    artifacts = out / "artifacts"
    result = {"attempted": GRID_CELLS, "sweep_s": None}
    start = time.perf_counter()
    try:
        if spec["workers"] == 1:
            cli_sweep(config_path, artifacts)
        else:
            result["sweep_s"] = api_sweep(config_path, artifacts, spec["workers"])
    except Exception as err:  # a crashing grid is a measured failure, not a benchmark crash
        result.update(wall=time.perf_counter() - start, failed=GRID_CELLS, infeasible=0)
        result["problems"] = [f"grid raised {type(err).__name__}: {err}"]
        return result
    result["wall"] = time.perf_counter() - start
    problems, errors, infeasible, shas = grid_artifact_problems(artifacts, seed)
    result.update(
        failed=GRID_CELLS if problems else errors,
        infeasible=infeasible,
        problems=problems,
        shas=shas,
    )
    return result


def run_missions(spec: dict, tracer=None) -> dict:
    """Batch spec["batch"] of the seed's mission stream, one mission at a time.

    The batch's integer contents and energies are checked against the
    recorded digest when digests.json has one for this seed and batch;
    every mission is checked against the ledger identities.
    """
    workload, seed, out = spec["workload"], spec["seed"], Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    count = inputs.BATCH[workload]
    first = spec["batch"] * count
    stream = itertools.islice(inputs.mission_stream(workload, seed), first, None)
    latencies, problems, contents, energies = [], [], [], []
    failed = set()
    wall = 0.0
    for index in range(first, first + count):
        text = inputs.render(next(stream))
        if tracer is not None:
            tracer.request = f"mission-{index}"
        start = time.perf_counter()
        try:
            config = config_io.parse_config_text(text, source=f"mission-{index}")
            ledger = mission.run_mission(config)
            config_io.write_mission_summary(ledger, out)
        except Exception as err:  # one mission's failure must not end the run
            wall += time.perf_counter() - start
            failed.add(index)
            problems.append(f"mission {index} raised {type(err).__name__}: {err}")
            contents.append(["raised", type(err).__name__])
            energies.append(0.0)
            continue
        elapsed = time.perf_counter() - start
        wall += elapsed
        contents.append(checks.mission_content(ledger))
        energies.append(ledger.total_uav_energy)
        issues = checks.ledger_problems(ledger)
        if issues:
            failed.add(index)
            problems.extend(f"mission {index}: {issue}" for issue in issues)
        else:
            latencies.append(elapsed)
    digest = checks.batch_digest(contents, energies)
    recorded = checks.load_digests()[workload].get(str(seed), [])
    if spec["batch"] < len(recorded):
        issues = checks.batch_digest_problems(digest, recorded[spec["batch"]])
        if issues:
            # the digest covers the whole batch: no mission of it passes
            failed.update(range(first, first + count))
            latencies = []
            problems.extend(f"batch {spec['batch']}: {issue}" for issue in issues)
    return {
        "wall": wall,
        "latencies": latencies,
        "attempted": count,
        "failed": len(failed),
        "problems": problems[:20],
        "digest": digest,
    }


def main() -> None:
    here = Path(wpcnsim.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise SystemExit(f"imported wpcnsim from {here}, not from this checkout's src/")
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    tracer = None
    if spec.get("trace_file"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    if mode == "import":
        result = {}
    elif mode == "grid":
        result = run_grid(spec)
    elif mode == "missions":
        result = run_missions(spec, tracer)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        result.update(tracer.report(Path(spec["trace_file"])))
    result["imported"] = IMPORTED
    result["numpy"] = sys.modules["numpy"].__version__
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
