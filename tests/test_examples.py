"""Every script under ``examples/`` runs to completion.

The examples call the public API the way a reader would copy it (two of
them build state mappings by hand), so an API change that breaks one
must fail here rather than silently in the docs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "examples").glob("*.py"))


def test_there_are_examples():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
