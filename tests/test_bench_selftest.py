"""The benchmark's reference self-test, run from the repository root.

``bench/selftest.py`` checks the benchmark's yardsticks (reference
computations, calibration, metric lists) against known values; it exits
non-zero if any check fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
