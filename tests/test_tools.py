"""``tools/identity.py``, the byte-identity probe, run on a slice of each
benchmark corpus."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "identity.py")


def probe(*args):
    return subprocess.run(
        [sys.executable, TOOL, *args], capture_output=True, text=True, timeout=600
    )


def test_identity_probe_finds_the_checkout_identical_to_itself():
    proc = probe(ROOT, ROOT, "--ops", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    workloads = ["assess-random", "ktails-roundtrip", "long-horizon", "baselines"]
    assert [line.split(":")[0] for line in lines] == workloads
    assert all(line.endswith(" 0 differences") for line in lines)


def test_identity_probe_reports_a_changed_output(tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(
        os.path.join(ROOT, "src"), changed / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    metrics = changed / "src" / "langcard" / "metrics.py"
    header = 'CSV_HEADER = "n,precision_eq,'
    assert header in metrics.read_text()
    metrics.write_text(metrics.read_text().replace(header, 'CSV_HEADER = "length,precision_eq,'))
    proc = probe(ROOT, str(changed), "--workload", "long-horizon", "--ops", "1")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("long-horizon: 2 calls, ") and lines[0].endswith(" 1 differences")
    assert lines[1].startswith("  h000.csv: ")
