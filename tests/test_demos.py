"""The demo scripts run to completion, each in a process of its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, str(demo)], text=True, capture_output=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
