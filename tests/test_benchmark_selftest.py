"""The benchmark's own self-test, run as part of the suite.

``perfbench/selftest.py`` drives one tiny traced round of every workload
through the package's public names and requires each output check to pass
and to fail on a perturbed output.  Running it here catches a change to a
name or an argument the benchmark calls before the benchmark itself runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
