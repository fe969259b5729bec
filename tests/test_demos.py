"""Demo scripts: argument checks that end before any decoding starts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, message", [
    (["--trials", "0"], "--trials must be at least 1"),
    (["--seed", "-1"], "--seed must be non-negative"),
])
def test_stretch_targets_rejects_bad_arguments(argv, message):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / "stretch_targets.py"), *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert message in run.stderr
    assert "Traceback" not in run.stderr
