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


def changed_copy(tmp_path, module, old, new):
    """A copy of the sources with ``old`` replaced by ``new`` in ``module``."""
    changed = tmp_path / "changed"
    shutil.copytree(
        os.path.join(ROOT, "src"), changed / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    path = changed / "src" / "langcard" / module
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    return str(changed)


def test_identity_probe_reports_a_changed_output(tmp_path):
    header = 'CSV_HEADER = "n,precision_eq,'
    changed = changed_copy(tmp_path, "metrics.py", header, 'CSV_HEADER = "length,precision_eq,')
    proc = probe(ROOT, changed, "--workload", "long-horizon", "--ops", "1")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("long-horizon: 2 calls, ") and lines[0].endswith(" 1 differences")
    assert lines[1].startswith("  h000.csv: ")


def test_identity_probe_names_the_manifest_keys_that_differ(tmp_path):
    # the change's manifests lack config.time_limit
    config = '"config": out.config,'
    dropped = '"config": {k: v for k, v in out.config.items() if k != "time_limit"},'
    proc = probe(ROOT, changed_copy(tmp_path, "cli.py", config, dropped),
                 "--workload", "long-horizon", "--ops", "1")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("long-horizon: 2 calls, ") and lines[0].endswith(" 2 differences")
    assert lines[1:] == [
        f"  {name}.manifest.json: config.time_limit: 600.0 against missing"
        for name in ("h000.counts.csv", "h000.csv")
    ]
