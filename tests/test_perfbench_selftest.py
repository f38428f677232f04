"""The benchmark's own self-tests, run as one tier-1 test.

``perfbench/test_bench.py`` checks the tracer's contract with ``langcard``:
the functions it wraps by name (``assessment_csv`` among them) still exist,
and a traced run reports ``metrics.rows > 0``.  A change that renames or
reshapes those functions fails here, not first in the benchmark.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "test_bench.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
