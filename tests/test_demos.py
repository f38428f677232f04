"""Smoke test of the demos and the README's library quickstart: each runs
to completion from a copy in a temporary directory, and demo 03 writes the
CSV committed under ``demos/out/`` byte for byte."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
PROFILE_CSV = Path("out") / "per_length_profile.csv"


def _run(script):
    """Run ``script`` in its own directory against the checkout's sources;
    returns its stdout."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, str(script)], cwd=script.parent, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_from_a_copy(tmp_path, demo):
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    assert _run(copy)
    if demo.stem == "03_per_length_profile":
        written = (tmp_path / PROFILE_CSV).read_bytes()
        assert written == (ROOT / "demos" / PROFILE_CSV).read_bytes()


def test_readme_quickstart_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    script = tmp_path / "quickstart.py"
    script.write_text(blocks[0])
    assert _run(script)
