"""The benchmark's own self-tests, run as one tier-1 test, and the names
its tracer wraps.

``perfbench/test_bench.py`` checks the tracer's contract with ``langcard``:
the functions it wraps by name (``assessment_csv`` among them) still exist,
and a traced run reports ``metrics.rows > 0``.  A change that renames or
reshapes those functions fails here, not first in the benchmark.  Its runs
are timed, so a name that no longer resolves is also checked on its own,
with no timing involved.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PINS = [target[:2] for target in _tracing().TARGETS]


@pytest.mark.parametrize("module_name, attr", PINS, ids=[":".join(pin) for pin in PINS])
def test_every_name_the_tracer_wraps_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_benchmark_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "test_bench.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
