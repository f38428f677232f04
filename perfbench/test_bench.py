"""Self-tests for the benchmark, on tiny corpora.

    python3 perfbench/test_bench.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import unittest
from unittest import mock

import corpus
import oracle
import run
import tracing
import workloads

sys.path.insert(0, run.SRC)

TINY = {
    "assess-random": {"rounds": 1, "max_length": 30},
    "ktails-roundtrip": {"ops": 3},
    "long-horizon": {"ops": 3, "horizon": [40, 40]},
    "baselines": {"ops": 3, "target_traces": 50, "samples": 200, "wmethod_middle": 20},
}


def tiny(workload):
    return mock.patch.dict(workloads.PARAMS[workload], TINY[workload])


def flip_byte(op):
    path = op.outputs[-1]
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    i = len(data) // 2
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    with open(path, "wb") as fh:
        fh.write(bytes(data))


class BenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.cli = run.import_cli()

    def build(self, workload, seed, sub="c"):
        with tiny(workload):
            return workloads.build(workload, seed, os.path.join(self.tmp.name, sub))

    def test_every_workload_passes_its_oracle(self):
        for workload in workloads.BUILDERS:
            with self.subTest(workload):
                ops, _ = self.build(workload, 1, workload)
                harness = run.Harness(self.cli)
                for op in ops:
                    harness.execute(op)
                harness.execute(ops[0])
                self.assertEqual(harness.errors, [])
                self.assertEqual((harness.attempted, harness.failed), (len(ops) + 1, 0))

    def test_one_corrupted_byte_fails_the_operation(self):
        for workload in workloads.BUILDERS:
            with self.subTest(workload):
                ops, _ = self.build(workload, 2, workload)
                harness = run.Harness(self.cli)
                harness.execute(ops[0], run=lambda call: (ops[0].run(call), flip_byte(ops[0])))
                self.assertEqual(harness.failed, 1)
                # a verified output that later changes also fails
                harness.execute(ops[1])
                harness.execute(ops[1], run=lambda call: (ops[1].run(call), flip_byte(ops[1])))
                self.assertEqual((harness.attempted, harness.failed), (3, 2))

    def test_nonzero_exit_fails_the_operation(self):
        op = workloads.Op("bad", lambda call: call(["count", "missing.dfa", "--out", "x"]),
                          lambda: None, [])
        harness = run.Harness(self.cli)
        harness.execute(op)
        self.assertEqual(harness.failed, 1)
        self.assertIn("exit 2", harness.errors[0])

    def test_times_scale_with_the_reference(self):
        op = workloads.Op("spin", lambda call: run.reference(), lambda: None, [])
        harness = run.Harness(self.cli, ref=2 * run.REF_S)
        with mock.patch.object(run, "reference", return_value=2 * run.REF_S), \
                mock.patch.object(run.time, "process_time", side_effect=[10.0, 10.4]):
            wall, scaled = harness.execute(op)
        # 0.4 CPU seconds on a machine at half the nominal speed
        self.assertAlmostEqual(scaled, 0.2)
        self.assertGreater(wall, 0)

    def test_corpus_digest_follows_the_seed(self):
        for workload in workloads.BUILDERS:
            with self.subTest(workload):
                _, a = self.build(workload, 5, "a")
                _, b = self.build(workload, 5, "b")
                _, c = self.build(workload, 6, "c")
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_traced_run_removes_every_wrapper(self):
        ops, _ = self.build("long-horizon", 3)
        harness = run.Harness(self.cli)
        tracer = tracing.Tracer()
        tracer.install()
        patched = tracing.installed_wrappers()
        tracer.uninstall()
        # compute_ogf is imported by name into counting, metrics, cli and the package
        for module in ("langcard.counting", "langcard.metrics", "langcard.cli", "langcard"):
            self.assertIn((module, "compute_ogf"), patched)
        self.assertIn(("langcard.automata.Dfa", "minimize"), patched)
        self.assertEqual(tracing.installed_wrappers(), [])
        spans = os.path.join(self.tmp.name, "spans.csv")
        # long enough that a context switch cannot reach 1% of the traced time
        metrics, info = run.measure_traced(harness, ops, 0.5, spans)
        self.assertEqual(tracing.installed_wrappers(), [])
        self.assertEqual(harness.failed, 0, harness.errors)
        self.assertLess(abs(info["unattributed_s"]), 5e-3)
        self.assertGreater(metrics["metrics.rows"][0], 0)
        self.assertTrue(os.path.getsize(spans) > 0)

    def test_self_times_telescope(self):
        spans = [(0, -1, "op", 0.0, 10.0, None), (0, 0, "a", 1.0, 6.0, None),
                 (0, 1, "b", 2.0, 3.0, None), (0, 0, "c", 7.0, 9.0, None)]
        self.assertEqual(tracing.self_times(spans), [3.0, 4.0, 1.0, 2.0])

    def test_oracle_rounds_half_to_even(self):
        self.assertEqual(oracle.decimal(1, 8, 2), "0.12")
        self.assertEqual(oracle.decimal(3, 8, 2), "0.38")
        self.assertEqual(oracle.decimal(1, 1, 6), "1.000000")
        self.assertEqual(oracle.decimal(0, 0, 6), oracle.UNDEFINED)

    def test_oracle_counts_match_enumeration(self):
        rng = random.Random(7)
        r, h = corpus.draw_pair(rng, 2, 4, 1, 1, 2, 50)
        tp, fp, fn = oracle.confusion_counts(r, h, 8)
        for n in range(9):
            words = [tuple((i >> j) & 1 for j in range(n)) for i in range(2**n)]
            self.assertEqual(tp[n], sum(r.accepts(w) and h.accepts(w) for w in words))
            self.assertEqual(fp[n], sum(h.accepts(w) and not r.accepts(w) for w in words))
            self.assertEqual(fn[n], sum(r.accepts(w) and not h.accepts(w) for w in words))

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        names = {m["name"] for m in bench["per_layer"]}
        self.assertEqual(names, set(run.PER_LAYER) | {"trace.overhead_ratio"})
        names = {m["name"] for m in bench["end_to_end"]}
        self.assertEqual(names, {"throughput_ops_s", "latency_p50_ms", "latency_p90_ms",
                                 "peak_rss_mb", "setup_s"})
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.BUILDERS))

    def test_missing_sources_exit_nonzero(self):
        with mock.patch.object(run, "SRC", os.path.join(self.tmp.name, "nowhere")):
            code = run.main(["--workload", "baselines", "--seed", "1", "--seconds", "1"])
        self.assertNotEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
