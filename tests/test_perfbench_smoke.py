"""The benchmark harness still drives the package: every perfbench workload,
at toy size, runs to the end with every output check passing. A change to
the package API that perfbench uses fails here, not first in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_runs_correct_at_smoke_scale(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0.3", "--trace", "0", "--scale", "smoke",
         "--results-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
