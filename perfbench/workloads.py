"""The benchmark's workloads: seeded corpora and the operations run on them.

An operation is one or more ``langcard`` CLI calls.  ``Op.run`` makes the
calls; ``Op.check`` compares what they wrote against the oracle.  Every
workload's parameters sit in ``PARAMS``; ``predictions.json`` records them
with the reason each workload was chosen.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import corpus
import oracle

DIGITS = 6

PARAMS = {
    "assess-random": {
        # (sigma, states drawn for R, min and max reachable pairs of R x H);
        # the ranges give the three bins about the same mean cost
        "bins": [[2, 10, 30, 34], [3, 6, 20, 23], [4, 5, 16, 18]],
        "edits": 2,
        "flips": 1,
        "min_confusion_share": 0.75,
        "rounds": 200,
        "max_length": 200,
    },
    "ktails-roundtrip": {
        "sigma": 2,
        "ref_states": [3, 6],
        "pa": 0.2,
        "walk_length": [20, 30],
        "min_traces": 12,
        # few long words: prefix trees of about 250 states whose
        # minimization outweighs counting, at nearly the same cost every time
        "training_traces": 4,
        "training_length": [60, 70],
        "k_generalizing": 2,
        "max_length": 60,
        "ops": 300,
    },
    "long-horizon": {
        "sigma": [2, 3, 4],
        "ref_states": 6,
        "edits": 1,
        "flips": 1,
        "max_confusion_states": 12,
        "horizon": [1400, 1600],
        "ops": 400,
    },
    "baselines": {
        "sigma": [2, 3, 4],
        "ref_states": [5, 8],
        "edits": 2,
        "flips": 1,
        "target_traces": 1000,
        "min_coverage": 10,
        "wmethod_middle": 1000,
        "sample_lengths": [40, 30, 20, 12, 8],
        "min_live_fraction": 0.25,
        "samples": 2000,
        "ops": 400,
    },
}


class OpFailed(Exception):
    """A CLI call exited non-zero."""


@dataclass
class Op:
    label: str
    run: Callable[[Callable[[list[str]], None]], None]
    check: Callable[[], None]
    outputs: list[str]


def _read(path):
    with open(path) as fh:
        return fh.read()


class _Corpus:
    """Writes model files under ``root`` and remembers their contents."""

    def __init__(self, root):
        self.root = root
        self.files = {}
        os.makedirs(root, exist_ok=True)

    def path(self, name):
        return os.path.join(self.root, name)

    def write(self, name, text):
        with open(self.path(name), "w") as fh:
            fh.write(text)
        self.files[name] = text
        return self.path(name)


def _assess_argv(ref, inf, max_length, out):
    return ["assess", ref, inf, "--max-length", str(max_length), "--mode", "both",
            "--digits", str(DIGITS), "--out", out]


def _assess_check(out, r, h, max_length):
    oracle.expect_equal(out, _read(out), oracle.assess_csv(r, h, max_length, DIGITS))
    oracle.check_manifest(out + ".manifest.json", "assess")


def _assess_op(c, label, r, h, max_length):
    ref = c.write(f"{label}.ref.dfa", r.text())
    inf = c.write(f"{label}.inf.dfa", h.text())
    out = c.path(f"{label}.csv")
    argv = _assess_argv(ref, inf, max_length, out)
    return Op(label, lambda call: call(argv),
              lambda: _assess_check(out, r, h, max_length), [out])


def build_assess_random(rng, c):
    p = PARAMS["assess-random"]
    pools = []
    for sigma, n_ref, lo, hi in p["bins"]:
        pool = []
        while len(pool) < p["rounds"]:
            r, h = corpus.draw_pair(rng, sigma, n_ref, p["edits"], p["flips"], lo, hi)
            if min(corpus.confusion_sizes(r, h)) >= p["min_confusion_share"] * lo:
                pool.append((r, h))
        pools.append(pool)
    # round-robin over the bins, so any prefix of the list is size-balanced
    ops = []
    for i in range(p["rounds"]):
        for b, pool in enumerate(pools):
            r, h = pool[i]
            ops.append(_assess_op(c, f"p{i:03d}b{b}", r, h, p["max_length"]))
    return ops


def _ktails_op(c, label, r, words, seed, p):
    """gen-traces; then, on a training set of fixed size, infer with k past
    the longest trace (the prefix tree, minimized) and with a generalizing
    k, each followed by assess."""
    sigma = r.sigma
    ref = c.write(f"{label}.ref.dfa", r.text())
    train = c.write(f"{label}.train", "".join(
        " ".join(corpus.SYMBOLS[s] for s in w) + "\n" for w in words))
    traces = c.path(f"{label}.traces")
    models = {kind: (c.path(f"{label}.{kind}.dfa"), c.path(f"{label}.{kind}.csv"))
              for kind in ("exact", "general")}
    alphabet = " ".join(corpus.SYMBOLS[:sigma])
    exact_k = 1 + max(len(w) for w in words)

    def run(call):
        call(["gen-traces", ref, "--pa", str(p["pa"]), "--seed", str(seed),
              "--min-traces", str(p["min_traces"]), "--out", traces])
        for k, (model, out) in zip((exact_k, p["k_generalizing"]), models.values()):
            call(["infer", train, "--k", str(k), "--alphabet", alphabet, "--out-model", model])
            call(_assess_argv(ref, model, p["max_length"], out))

    def check():
        generated = oracle.parse_words(_read(traces), sigma)
        if len(generated) < p["min_traces"]:
            raise oracle.OracleError(f"{len(generated)} generated traces")
        for w in generated:
            if not r.accepts(w):
                raise oracle.OracleError(f"reference rejects generated trace {w}")
        oracle.check_manifest(traces + ".manifest.json", "gen-traces")
        for kind, (model, out) in models.items():
            h = oracle.parse_model(_read(model), sigma)
            if kind == "exact":
                oracle.check_exact_language(h, words)
            else:
                oracle.check_superset(h, words)
            oracle.check_manifest(model + ".manifest.json", "infer")
            _assess_check(out, r, h, p["max_length"])

    return Op(label, run, check, [traces] + [f for pair in models.values() for f in pair])


def build_ktails_roundtrip(rng, c):
    p = PARAMS["ktails-roundtrip"]
    ops = []
    for i in range(p["ops"]):
        while True:
            r = corpus.random_model(rng, rng.randint(*p["ref_states"]), p["sigma"])
            lo, hi = p["walk_length"]
            if r.states < 2 or not lo <= corpus.expected_walk_length(r, p["pa"]) <= hi:
                continue
            words = corpus.training_words(rng, r, p["training_traces"], *p["training_length"])
            if words:
                break
        ops.append(_ktails_op(c, f"t{i:03d}", r, words, rng.randrange(2**31), p))
    return ops


def build_long_horizon(rng, c):
    p = PARAMS["long-horizon"]
    ops = []
    for i in range(p["ops"]):
        sigma = p["sigma"][i % len(p["sigma"])]
        n = rng.randint(*p["horizon"])
        while True:
            r, h = corpus.draw_pair(rng, sigma, p["ref_states"], p["edits"], p["flips"], 2, 10**9)
            if max(corpus.confusion_sizes(r, h)) <= p["max_confusion_states"]:
                break
        label = f"h{i:03d}"
        op = _assess_op(c, label, r, h, n)
        counts = c.path(f"{label}.counts.csv")
        inf = c.path(f"{label}.inf.dfa")
        assess = op.run
        count_argv = ["count", inf, "--max-length", str(n), "--out", counts]

        def run(call, assess=assess, argv=count_argv):
            assess(call)
            call(argv)

        def check(check_assess=op.check, counts=counts, h=h, n=n):
            check_assess()
            oracle.expect_equal(counts, _read(counts), oracle.counts_csv(h, n))
            oracle.check_manifest(counts + ".manifest.json", "count")

        ops.append(Op(label, run, check, op.outputs + [counts]))
    return ops


def _baselines_op(c, label, r, h, seed, length, metric, p):
    ref = c.write(f"{label}.ref.dfa", r.text())
    inf = c.write(f"{label}.inf.dfa", h.text())
    outs = {m: c.path(f"{label}.{m}.csv") for m in ("trace-sim", "mbt", "sigma-sample")}
    k = 0
    while sum(r.sigma**i for i in range(k + 3)) <= p["wmethod_middle"]:
        k += 1
    calls = [
        ["baseline", "trace-sim", ref, inf, "--seed", str(seed),
         "--target-traces", str(p["target_traces"]),
         "--min-coverage", str(p["min_coverage"]), "--out", outs["trace-sim"]],
        ["baseline", "mbt", ref, inf, "--m-bound", str(r.states + k), "--out", outs["mbt"]],
        ["baseline", "sigma-sample", ref, inf, "--seed", str(seed), "--length", str(length),
         "--samples", str(p["samples"]), "--metric", metric, "--out", outs["sigma-sample"]],
    ]

    def run(call):
        for argv in calls:
            call(argv)

    def check():
        oracle.check_trace_sim(_read(outs["trace-sim"]))
        oracle.check_mbt(_read(outs["mbt"]))
        oracle.check_sigma_sample(_read(outs["sigma-sample"]), r, h, length, p["samples"], metric)
        for method, out in outs.items():
            oracle.check_manifest(out + ".manifest.json", f"baseline:{method}")

    return Op(label, run, check, list(outs.values()))


def build_baselines(rng, c):
    p = PARAMS["baselines"]
    ops = []
    for i in range(p["ops"]):
        sigma = p["sigma"][i % len(p["sigma"])]
        metric = ("precision", "recall")[i // len(p["sigma"]) % 2]
        while True:
            r, h = corpus.draw_pair(rng, sigma, rng.randint(*p["ref_states"]),
                                   p["edits"], p["flips"], 2, 10**9)
            if r.states < p["ref_states"][0]:
                continue
            conditioning = h if metric == "precision" else r
            length = next((n for n in p["sample_lengths"]
                           if corpus.live_fraction(conditioning, n) >= p["min_live_fraction"]), None)
            if length is not None:
                break
        ops.append(_baselines_op(c, f"b{i:03d}", r, h, rng.randrange(2**31), length, metric, p))
    return ops


BUILDERS = {
    "assess-random": build_assess_random,
    "ktails-roundtrip": build_ktails_roundtrip,
    "long-horizon": build_long_horizon,
    "baselines": build_baselines,
}


def build(workload, seed, root):
    """Write the corpus of ``workload`` for ``seed`` under ``root``.

    Returns the operations and a SHA-256 digest of every file written.
    """
    c = _Corpus(root)
    ops = BUILDERS[workload](random.Random(f"{workload}/{seed}"), c)
    return ops, corpus.digest(c.files)
