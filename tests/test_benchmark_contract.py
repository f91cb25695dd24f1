"""The library keeps every name and count the benchmark harness in perfbench/ relies on.

Each workload runs for half a second with tracing on, which exercises the
output checks, the wrappers at every patched import site and the
comparison of counted game evaluations with the summed budgets.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep-d10", "solve-d40-log", "draw-d128-k1"])
def test_traced_workload_is_correct(workload):
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "0.5", "--trace", "1",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0, proc.stdout[-2000:]
