"""Each benchmark workload runs once, as ``perfbench/run.py`` starts it.

The benchmark calls chebkit by public names and keywords (``contour_sum``'s
``quad_step``, ``ContourResult.quad_step`` and others); a session that
raises or fails a check shows here as a nonzero exit or a nonempty
``failed`` tally.  One interpreter runs at a time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.mark.parametrize("workload", ["contour", "frobenius", "census"])
def test_workload_session_runs_clean(workload):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "session.py"), "--workload", workload,
         "--seed", "1", "--mode", "plain", "--src", str(SRC)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == {}, result["messages"]
