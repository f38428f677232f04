"""``tools/identity.py``, the byte-identity probe, run on a slice of each
benchmark corpus."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

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


def _pairs_tool():
    spec = importlib.util.spec_from_file_location("pairs_tool", os.path.join(ROOT, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeBench:
    """A runner for ``tools/pairs.py`` that times nothing: each run of a
    side reports the metrics ``values[side](seed)``, each traced run the
    metrics ``layers[side]``."""

    def __init__(self, values, layers=None):
        self.values = values
        self.layers = layers
        self.runs = []
        self.traced = []

    def __call__(self, checkout, workload, seed, seconds, trace=0):
        side = "parent" if checkout.endswith("parent") else "change"
        (self.traced if trace else self.runs).append((side, workload, seed, seconds))
        metrics = self.layers[side] if trace else self.values[side](seed)
        return {**metrics, "attempted": 100, "failed": int(side == "change")}


def _checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    return str(tmp_path / "parent"), str(tmp_path / "change")


def _identity(parent, change, workload):
    return {"exit": 0, "output": [f"{workload}: 2 calls, 3 files, 0 differences"]}


def test_pairs_alternate_which_side_runs_first(tmp_path):
    pairs = _pairs_tool()
    fake = FakeBench({side: lambda seed: {"throughput_ops_s": seed} for side in ("parent", "change")})
    out = tmp_path / "bench.json"
    argv = [*_checkouts(tmp_path), "--workload", "baselines", "--seeds", "2-5", "--out", str(out)]
    assert pairs.main(argv, runner=fake, identity=_identity) == 0
    assert fake.runs == [
        (side, "baselines", seed, pairs.benchmark()["run_seconds"])
        for seed, sides in [(2, ("change", "parent")), (3, ("parent", "change")),
                            (4, ("change", "parent")), (5, ("parent", "change"))]
        for side in sides
    ]
    written = json.loads(out.read_text())
    entry = written["workloads"]["baselines"]
    assert [(p["seed"], p["first"]) for p in entry["pairs"]] == [
        (2, "change"), (3, "parent"), (4, "change"), (5, "parent")
    ]
    assert entry["pairs"][0]["parent"] == {"throughput_ops_s": 2, "attempted": 100, "failed": 0}
    assert entry["failed"] == {"parent": [0, 400], "change": [4, 400]}
    assert entry["identity"] == _identity(None, None, "baselines")
    assert set(written) == {"command", "python", "machine", "workloads"}


def test_pairs_summarize_each_end_to_end_metric(tmp_path):
    pairs = _pairs_tool()
    # the change is faster on 9 seeds of 10 and ties on one; its latency is
    # higher, which loses, on every seed
    fake = FakeBench({
        "parent": lambda seed: {"throughput_ops_s": 10.0 + seed, "latency_p50_ms": 5.0},
        "change": lambda seed: {"throughput_ops_s": 10.0 + seed + (seed != 7), "latency_p50_ms": 6.0},
    })
    out = tmp_path / "bench.json"
    argv = [*_checkouts(tmp_path), "--workload", "baselines", "--seeds", "1-10", "--out", str(out)]
    pairs.main(argv, runner=fake, identity=_identity)
    summary = json.loads(out.read_text())["workloads"]["baselines"]["summary"]
    assert set(summary) == {"throughput_ops_s", "latency_p50_ms"}
    throughput = summary["throughput_ops_s"]
    assert throughput == {
        "better": "higher",
        "parent_median": 15.5,
        "change_median": 16.5,
        "parent_iqr": 18.25 - 12.75,  # the quartiles of 11..20
        "wins": 9,
        "pairs": 10,
        "sign_p": 2 / 2**9,  # ties left out: 9 wins of 9
    }
    latency = summary["latency_p50_ms"]
    assert (latency["wins"], latency["pairs"], latency["sign_p"]) == (0, 10, 2 / 2**10)
    assert pairs.sign_test(5, 5) == 1.0
    assert pairs.sign_test(9, 1) == 2 * 11 / 2**10
    assert pairs.sign_test(0, 0) == 1.0


def test_pairs_merge_into_an_existing_file(tmp_path):
    pairs = _pairs_tool()
    out = tmp_path / "bench.json"
    checkouts = _checkouts(tmp_path)
    for workload, seeds, shift in [("baselines", "1-3", 0), ("long-horizon", "1", 0), ("baselines", "3-4", 1)]:
        fake = FakeBench({
            "parent": lambda seed: {"throughput_ops_s": 1.0},
            "change": lambda seed, shift=shift: {"throughput_ops_s": 2.0 + shift},
        })
        pairs.main([*checkouts, "--workload", workload, "--seeds", seeds, "--out", str(out)],
                   runner=fake, identity=_identity)
    written = json.loads(out.read_text())["workloads"]
    assert set(written) == {"baselines", "long-horizon"}
    # seed 3 was run again: its pair is replaced, not doubled
    got = [(p["seed"], p["change"]["throughput_ops_s"]) for p in written["baselines"]["pairs"]]
    assert got == [(1, 2.0), (2, 2.0), (3, 3.0), (4, 3.0)]
    assert written["baselines"]["summary"]["throughput_ops_s"]["change_median"] == 2.5
    assert written["baselines"]["summary"]["throughput_ops_s"]["wins"] == 4
    assert len(written["long-horizon"]["pairs"]) == 1
    # each run's own summary stays under its seed range
    fake = FakeBench({"parent": lambda seed: {"throughput_ops_s": 1.0},
                      "change": lambda seed: {"throughput_ops_s": 5.0}})
    pairs.main([*checkouts, "--workload", "baselines", "--seeds", "4-5", "--out", str(out)],
               runner=fake, identity=_identity)
    written = json.loads(out.read_text())["workloads"]["baselines"]
    runs = {seeds: (s["throughput_ops_s"]["pairs"], s["throughput_ops_s"]["change_median"])
            for seeds, s in written["summaries"].items()}
    assert runs == {"1-3": (3, 2.0), "3-4": (2, 3.0), "4-5": (2, 5.0)}
    assert len(written["pairs"]) == 5
    assert written["summary"]["throughput_ops_s"]["pairs"] == 5
    assert written["summary"]["throughput_ops_s"]["change_median"] == 3.0


def test_pairs_trace_one_run_per_side(tmp_path):
    pairs = _pairs_tool()
    fake = FakeBench(
        {side: lambda seed: {"throughput_ops_s": 1.0} for side in ("parent", "change")},
        {
            "parent": {"baselines.trace_sim_s": 0.011, "baselines.eval_traces": 2000.0, "extra": 1.0},
            "change": {"baselines.trace_sim_s": 0.007, "baselines.eval_traces": 2000.0, "extra": 5.0},
        },
    )
    out = tmp_path / "bench.json"
    checkouts = _checkouts(tmp_path)
    argv = [*checkouts, "--workload", "baselines", "--seeds", "2-3", "--out", str(out)]
    assert pairs.main([*argv, "--trace"], runner=fake, identity=_identity) == 0
    seconds = pairs.benchmark()["run_seconds"]
    # one traced run per side, of the same length, on the first seed and in
    # its order, after the pairs
    assert len(fake.runs) == 4
    assert fake.traced == [("change", "baselines", 2, seconds), ("parent", "baselines", 2, seconds)]
    written = json.loads(out.read_text())
    traced = written["workloads"]["baselines"]["traced"]
    assert traced["seed"] == 2 and traced["first"] == "change"
    assert traced["parent"] == {**fake.layers["parent"], "attempted": 100, "failed": 0}
    assert traced["change"] == {**fake.layers["change"], "attempted": 100, "failed": 1}
    # deltas, change minus parent, of the per-layer metrics of BENCHMARK.json
    assert traced["delta"] == pytest.approx({"baselines.trace_sim_s": -0.004, "baselines.eval_traces": 0.0})
    assert "--trace 1" in written["command"]
    # a later run without --trace keeps the traced runs
    again = [*checkouts, "--workload", "baselines", "--seeds", "4", "--out", str(out)]
    assert pairs.main(again, runner=fake, identity=_identity) == 0
    assert json.loads(out.read_text())["workloads"]["baselines"]["traced"] == traced
    assert len(fake.traced) == 2
