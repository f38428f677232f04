"""Benchmark runner for the ``langcard`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``langcard`` is imported from its
``src`` directory.  One client runs operations one after another in this
process (a closed loop, no threads): each operation is a sequence of
in-process ``langcard.cli.main(argv)`` calls writing real CSVs and manifests
under ``.perfbench_run/`` in the checkout.  Every output is checked against
the benchmark's own oracle the first time an operation runs and must be
byte-identical on every later run of it.

Times are CPU seconds of this process scaled to a nominal machine speed.
The CPU time leaves out the time the machine gave to other work; the
scaling removes changes in the machine's own speed, which on shared hosts
swings by half within minutes.  After each operation (and each set-up) the
benchmark times ``reference()``, a fixed slice of pure-Python work that
never touches ``langcard``, and multiplies the operation's CPU time by
``REF_S`` over the mean of the reference times taken just before and just
after it.  A reported millisecond is thus a millisecond at the speed where
``reference()`` takes ``REF_S`` seconds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation twice, untraced and traced in alternating order, wrapping the
layer boundaries listed in ``tracing.TARGETS``, and reports per-layer self
times and sizes per operation.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import oracle
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUPS = 3
REF_ITERATIONS = 20_000
REF_S = 0.0025  # nominal CPU seconds of one reference()
LAYERS = ("cli", "automata", "polynomials", "counting", "metrics", "inference", "baselines")


def _per_op(name, key):
    return lambda agg, ops: agg.get(name, {}).get(key, 0) / ops


# name -> (unit, value from (aggregate per span name, traced operations))
PER_LAYER = {
    "cli.self_s": ("s/op", _per_op("cli.main", "self_s")),
    "automata.parse_s": ("s/op", _per_op("automata.parse", "self_s")),
    "automata.serialize_s": ("s/op", _per_op("automata.serialize", "self_s")),
    "automata.product_s": ("s/op", _per_op("automata.product", "self_s")),
    "automata.product_states": ("count/op", _per_op("automata.product", "size")),
    "automata.minimize_s": ("s/op", _per_op("automata.minimize", "self_s")),
    "automata.minimize_in_states": ("count/op", _per_op("automata.minimize", "size")),
    "automata.minimize_out_states": ("count/op", _per_op("automata.minimize", "size2")),
    "polynomials.gcd_s": ("s/op", _per_op("polynomials.gcd", "self_s")),
    "polynomials.gcd_calls": ("count/op", _per_op("polynomials.gcd", "calls")),
    "counting.ogf_s": ("s/op", _per_op("counting.ogf", "self_s")),
    "counting.ogf_calls": ("count/op", _per_op("counting.ogf", "calls")),
    "counting.ogf_states": ("count/op", _per_op("counting.ogf", "size")),
    "counting.ogf_max_degree": ("count", lambda agg, ops: agg.get("counting.ogf", {}).get("max2", 0)),
    "counting.coefficients_s": ("s/op", _per_op("counting.coefficients", "self_s")),
    "counting.coefficient_terms": ("count/op", _per_op("counting.coefficients", "size")),
    "counting.dp_s": ("s/op", _per_op("counting.dp", "self_s")),
    "counting.dp_terms": ("count/op", _per_op("counting.dp", "size")),
    "metrics.assess_s": ("s/op", _per_op("metrics.assess", "self_s")),
    "metrics.rows": ("count/op", _per_op("metrics.assess", "size")),
    "metrics.csv_s": ("s/op", _per_op("metrics.csv", "self_s")),
    "inference.ktails_s": ("s/op", _per_op("inference.ktails", "self_s")),
    "inference.inferred_states": ("count/op", _per_op("inference.ktails", "size")),
    "inference.gen_traces_s": ("s/op", _per_op("inference.gen_traces", "self_s")),
    "inference.training_traces": ("count/op", _per_op("inference.gen_traces", "size")),
    "baselines.trace_sim_s": ("s/op", _per_op("baselines.trace_sim", "self_s")),
    "baselines.eval_traces": ("count/op", _per_op("baselines.trace_sim", "size")),
    "baselines.wmethod_s": ("s/op", _per_op("baselines.wmethod", "self_s")),
    "baselines.wmethod_tests": ("count/op", _per_op("baselines.wmethod", "size")),
    "baselines.mbt_s": ("s/op", _per_op("baselines.mbt", "self_s")),
    "baselines.sigma_sample_s": ("s/op", _per_op("baselines.sigma_sample", "self_s")),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.share"] = (
        "ratio",
        lambda agg, ops, layer=_layer: sum(
            v["self_s"] for k, v in agg.items() if k.split(".")[0] == layer
        ) / agg[tracing.ROOT]["wall_s"],
    )


def reference():
    """CPU seconds taken by a fixed slice of pure-Python work: small- and
    big-integer arithmetic and dict stores, as in the program's hot loops."""
    start = time.process_time()
    acc, big, table = 0, 1, {}
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        table[acc & 1023] = i
        if not i & 63:
            big = big * 3 + acc
    return time.process_time() - start


class Harness:
    """Runs operations, times them and checks what they wrote."""

    def __init__(self, cli, ref=None):
        self.cli = cli
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.ref = ref or reference()  # the last reference() time

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        if code != 0:
            raise workloads.OpFailed(f"exit {code}: {' '.join(argv[:2])}: {err.getvalue().strip()}")

    def execute(self, op, run=None):
        """Run ``op`` (through ``run`` if given) and verify it.

        Returns the wall time and the scaled CPU time of the run.
        """
        self.attempted += 1
        run = run or op.run
        # each operation starts from a collected heap, like a fresh CLI process
        gc.collect()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            run(self.call)
            error = None
        except Exception:  # any escape from the program is a failed operation
            error = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        before, self.ref = self.ref, reference()
        if error:
            self._fail(op, error)
        else:
            self.verify(op)
        return wall, cpu * REF_S / ((before + self.ref) / 2)

    def verify(self, op):
        """Oracle check on the first run of ``op``; byte equality after."""
        try:
            digest = hashlib.sha256()
            for path in op.outputs:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            known = self.fingerprints.get(op.label)
            if known is None:
                op.check()
                self.fingerprints[op.label] = digest.digest()
            elif known != digest.digest():
                raise oracle.OracleError("output differs from an earlier run of the same operation")
        except (oracle.OracleError, OSError, ValueError, KeyError) as exc:
            self._fail(op, f"{type(exc).__name__}: {exc}")

    def _fail(self, op, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.label}: {message}")


def import_cli():
    """A fresh import of ``langcard.cli`` from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "langcard" or m.startswith("langcard.")]:
        del sys.modules[name]
    return importlib.import_module("langcard.cli")


def setup(workload, seed, workdir):
    """Set up ``SETUPS`` times; returns (median scaled CPU seconds, ops,
    harness, digest).

    Each set-up imports ``langcard`` afresh, writes the corpus and runs the
    first operation once as a warm-up; the last warm-up is verified after
    the clock stops.
    """
    times = []
    digests = set()
    ref = reference()
    for i in range(SETUPS):
        cpu = time.process_time()
        cli = import_cli()
        ops, digest = workloads.build(workload, seed, os.path.join(workdir, f"setup{i}"))
        harness = Harness(cli, ref)
        try:
            ops[0].run(harness.call)
            warm_error = None
        except Exception:  # reported through the harness below
            warm_error = traceback.format_exc(limit=3)
        cpu = time.process_time() - cpu
        before, ref = ref, reference()
        harness.ref = ref
        times.append(cpu * REF_S / ((before + ref) / 2))
        digests.add(digest)
    if len(digests) != 1:
        raise SystemExit("corpus generation is not deterministic")
    harness.attempted += 1
    if warm_error:
        harness._fail(ops[0], warm_error)
    else:
        harness.verify(ops[0])
    return statistics.median(times), ops, harness, digest


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(harness, ops, seconds):
    """Closed loop over ``ops`` for ``seconds``; returns end-to-end metrics."""
    latencies = []
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        latencies.append(harness.execute(ops[i % len(ops)])[1])
        i += 1
    # the first operation once more, after the clock: same seed, same bytes
    harness.execute(ops[0])
    p90 = percentile(latencies, 90)
    return {
        "throughput_ops_s": (len(latencies) / sum(latencies), "ops/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "samples": len(latencies),
        "above_p90": sum(1 for x in latencies if x > p90),
    }


def measure_traced(harness, ops, seconds, spans_path):
    """Alternately untraced and traced runs of each operation.

    Spans are wall times; per-layer times are scaled by the traced runs'
    scaled CPU time over their wall time, to match the end-to-end metrics.
    """
    tracer = tracing.Tracer()
    untraced = traced = traced_wall = 0.0
    n = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = ops[n % len(ops)]
        for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
            if not with_trace:
                untraced += harness.execute(op)[1]
                continue
            tracer.install()
            tracer.op = n
            try:
                wall, scaled = harness.execute(op, run=tracer.span(tracing.ROOT, op.run))
                traced_wall += wall
                traced += scaled
            finally:
                tracer.uninstall()
        n += 1
    leftover = tracing.installed_wrappers()
    if leftover:
        harness._fail(ops[0], f"wrappers left installed: {leftover}")
    agg = aggregate(tracer.spans)
    # self times telescope to the operation spans; they must cover the
    # wall time measured around them, up to the cost of the root wrapper
    unattributed = traced_wall - sum(v["self_s"] for v in agg.values())
    if abs(unattributed) > 0.01 * traced_wall:
        harness._fail(ops[0], f"self times miss {unattributed:.6f} s of {traced_wall:.6f} s")
    tracer.write(spans_path)
    for a in agg.values():
        a["self_s"] *= traced / traced_wall
    agg[tracing.ROOT]["wall_s"] = traced
    metrics = {name: (fn(agg, n), unit) for name, (unit, fn) in PER_LAYER.items()}
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics, {"traced_ops": n, "unattributed_s": unattributed}


def aggregate(spans):
    """Per span name: summed self time, calls, summed sizes, max second size."""
    agg = {}
    for span, self_s in zip(spans, tracing.self_times(spans)):
        name, size = span[2], span[5]
        a = agg.setdefault(name, {"self_s": 0.0, "calls": 0, "size": 0, "size2": 0, "max2": 0})
        a["self_s"] += self_s
        a["calls"] += 1
        if isinstance(size, tuple):
            a["size"] += size[0]
            a["size2"] += size[1]
            if size[1] > a["max2"]:
                a["max2"] = size[1]
        elif size is not None:
            a["size"] += size
    return agg


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "langcard", "cli.py")):
        print(f"no langcard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RUN_DIR)
    try:
        setup_s, ops, harness, digest = setup(args.workload, args.seed, workdir)
        # the corpus lives as long as the run: keep it out of the collections
        # made between and during operations, as in a fresh CLI process
        gc.collect()
        gc.freeze()
        if args.trace:
            spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}.csv")
            metrics, info = measure_traced(harness, ops, args.seconds, spans_path)
            info["spans"] = os.path.relpath(spans_path, ROOT)
        else:
            metrics, info = measure(harness, ops, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    error_rate = harness.failed / harness.attempted
    print(f"workload {args.workload} seed {args.seed} corpus sha256 {digest}")
    print(f"operations {harness.attempted} failed {harness.failed} error_rate {error_rate}")
    for key, value in info.items():
        print(f"{key} {value}")
    for message in harness.errors:
        print(f"failure: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
