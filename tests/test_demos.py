"""Each demo script runs to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wpcnsim

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    src = str(Path(wpcnsim.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the children keep tier-1's warning filter, which pyproject sets for pytest only
    args = [sys.executable, "-W", "error::RuntimeWarning", str(demo)]
    result = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
