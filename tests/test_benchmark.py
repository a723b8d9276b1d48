"""The benchmark's own smoke test, run against the package in this checkout.

perfbench/ calls into ringload directly (its traced search replay calls
dp_feasible, CanonicalForm.of and StructuredFamily.decode), so a change
that breaks those calls fails here and not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: all ok"
