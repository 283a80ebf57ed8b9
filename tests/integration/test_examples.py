"""Every script under ``examples/`` runs to completion with its defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dram.store import CACHE_DIR_ENV

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    env[CACHE_DIR_ENV] = str(tmp_path)
    completed = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True,
        text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
