"""Smoke test of the demos: each runs to completion from a copy in a
temporary directory, and demo 03 writes the CSV committed under
``demos/out/`` byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
PROFILE_CSV = Path("out") / "per_length_profile.csv"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_from_a_copy(tmp_path, demo):
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, str(copy)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    if demo.stem == "03_per_length_profile":
        written = (tmp_path / PROFILE_CSV).read_bytes()
        assert written == (ROOT / "demos" / PROFILE_CSV).read_bytes()
