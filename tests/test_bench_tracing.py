"""The benchmark tracer still finds every package binding it wraps."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tracer patches module globals, so it runs in an interpreter of its own
SCRIPT = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from wpcnsim import cli, mission
tracer = tracing.Tracer()
tracer.install()
mission.run_mission(mission.ScenarioConfig())
out = Path(sys.argv[3])
cli.main(["sweep", "--stops-range", "4:6", "--case", "p1s1", "--out", str(out / "sweep")])
print(json.dumps(tracer.report(out / "trace.json")["counts"]))
"""


def test_tracer_installs_and_counts_a_mission_and_a_sweep(tmp_path):
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT]
        + [str(ROOT / "wpcnbench"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout.splitlines()[-1])
    assert counts["sweep.cells"] == 6
    assert counts["mission.tour_calls"] >= 1
