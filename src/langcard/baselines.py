"""Statistical and model-based baseline assessment methods.

These are the methods the exact counting approach is compared against:
random-walk trace similarity (plain and conditioned on trace length), the
W-method test set from model-based testing, and uniform per-length sampling
of the symbol space.

All randomness flows from explicit seeds through ``random.Random`` (Mersenne
Twister), so identical configurations reproduce identical evaluation sets
bit for bit.  Walk streams for different purposes derive independent
generators from (seed, stream id).
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import count_dp
from .errors import (
    IndistinguishableStatesError,
    ResourceLimitError,
    SizeGuardError,
    UnsuitableModelError,
)

DEFAULT_SEED = 52_4287


@dataclass
class RandomWalkConfig:
    """Knobs of the random-walk trace generator.

    ``termination_probability`` applies only at accepting states; transitions
    are chosen uniformly.  By default transitions into error states are
    pruned from the choice (set ``exclude_error_transitions=False`` for the
    literal walk that enters them and restarts).
    """

    termination_probability: float = 0.1
    target_trace_count: int = 100_000
    min_transition_coverage: int = 10
    time_limit_s: float = 1800.0
    seed: int = DEFAULT_SEED
    exclude_error_transitions: bool = True
    max_steps_per_trace: int = 1_000_000
    max_restarts_per_trace: int = 1_000_000

    def __post_init__(self):
        if not 0 < self.termination_probability <= 1:
            raise ValueError("termination probability must be in (0, 1]")


@dataclass
class EvaluationMultiset:
    """Multiset of traces with a per-length histogram."""

    traces: Counter = field(default_factory=Counter)

    def add(self, trace):
        self.traces[trace] += 1

    @property
    def total(self):
        return sum(self.traces.values())

    @property
    def per_length_histogram(self):
        hist = Counter()
        for trace, count in self.traces.items():
            hist[len(trace)] += count
        return dict(hist)

    def counted(self):
        return sorted(self.traces.items())


@dataclass
class WMethodConfig:
    m: int  # upper bound on the inferred model's state count
    max_test_set_size: int = 5_000_000


def derive_rng(seed, stream) -> random.Random:
    return random.Random((seed ^ (stream * 0x9E3779B97F4A7C15)) & (2**64 - 1))


class _WalkTables:
    """Per-state successor lists with error-state pruning applied once."""

    def __init__(self, d, exclude_error):
        errors = d.error_states
        if d.initial in errors:
            raise UnsuitableModelError("random walk needs a model with a nonempty language")
        self.accepting = d.accepting
        self.initial = d.initial
        self.choices = []
        for q, row in enumerate(d.transitions):
            options = [(s, t) for s, t in enumerate(row)]
            if exclude_error:
                live = [(s, t) for s, t in options if t not in errors]
                self.choices.append(live)
            else:
                self.choices.append(options)
        self.errors = errors


def _walk(tables, cfg, rng, track_steps=True):
    """One accepted trace; returns (trace, visited transition list).

    ``track_steps`` can be dropped by callers that do not need transition
    coverage; the walk itself is identical either way.
    """
    pa = cfg.termination_probability
    accepting = tables.accepting
    errors = tables.errors
    choices = tables.choices
    rand = rng.random
    max_steps = cfg.max_steps_per_trace
    restarts = 0
    while True:
        if restarts > cfg.max_restarts_per_trace:
            raise ResourceLimitError("random walk exceeded the restart limit")
        state = tables.initial
        trace = []
        steps = [] if track_steps else None
        ok = True
        while True:
            if len(trace) > max_steps:
                raise ResourceLimitError("random walk exceeded the step limit")
            if state in accepting and rand() < pa:
                return tuple(trace), steps
            options = choices[state]
            if not options:
                ok = False  # nothing live to follow: discard and restart
                break
            s, nxt = options[int(rand() * len(options))]
            if nxt in errors:
                ok = False  # literal mode stepped into an error state
                break
            trace.append(s)
            if track_steps:
                steps.append((state, s))
            state = nxt
        if not ok:
            restarts += 1
            continue


def random_walk_trace(d, cfg: RandomWalkConfig, rng: random.Random):
    """A single random-walk trace; always accepted by ``d``."""
    tables = _WalkTables(d, cfg.exclude_error_transitions)
    trace, _ = _walk(tables, cfg, rng)
    return trace


def _coverable_transitions(d):
    """Transitions that accepted walks can traverse: live source, live target."""
    errors = d.error_states
    reachable = set(d.reachable_states())
    out = set()
    for q in reachable - errors:
        for s, t in enumerate(d.transitions[q]):
            if t not in errors:
                out.add((q, s))
    return out


def _generate_multiset(d, cfg, rng):
    tables = _WalkTables(d, cfg.exclude_error_transitions)
    need_coverage = cfg.min_transition_coverage > 0
    targets = _coverable_transitions(d) if need_coverage else set()
    coverage = Counter()
    multiset = EvaluationMultiset()
    deadline = time.monotonic() + cfg.time_limit_s

    def covered():
        if not need_coverage:
            return True
        return all(coverage[t] >= cfg.min_transition_coverage for t in targets)

    generated = 0
    while True:
        trace, steps = _walk(tables, cfg, rng, track_steps=need_coverage)
        multiset.add(trace)
        generated += 1
        if need_coverage:
            for step in steps:
                coverage[step] += 1
        if generated >= cfg.target_trace_count and covered():
            break
        if generated % 256 == 0 and time.monotonic() > deadline:
            break
    return multiset


@dataclass
class TraceSimilarityResult:
    precision: Fraction
    recall: Fraction
    e_precision: EvaluationMultiset
    e_recall: EvaluationMultiset


def trace_similarity(reference, inferred, cfg: RandomWalkConfig) -> TraceSimilarityResult:
    """Classic statistical assessment: precision is the fraction of traces
    walked on the inferred model that the reference accepts; recall swaps the
    roles."""
    e_prec = _generate_multiset(inferred, cfg, derive_rng(cfg.seed, 0))
    e_rec = _generate_multiset(reference, cfg, derive_rng(cfg.seed, 1))
    hits = sum(c for t, c in e_prec.traces.items() if reference.accepts(t))
    precision = Fraction(hits, e_prec.total)
    hits = sum(c for t, c in e_rec.traces.items() if inferred.accepts(t))
    recall = Fraction(hits, e_rec.total)
    return TraceSimilarityResult(precision, recall, e_prec, e_rec)


@dataclass(frozen=True)
class ConditionedRow:
    n: int
    precision: Fraction | None
    precision_samples: int
    recall: Fraction | None
    recall_samples: int


def trace_similarity_conditioned(reference, inferred, cfg) -> list[ConditionedRow]:
    """Trace similarity partitioned by trace length.

    Lengths never sampled get the undefined marker, mirroring the gaps such
    plots show in practice.
    """
    result = trace_similarity(reference, inferred, cfg)

    def partition(multiset, judge):
        per_len = {}
        for t, c in multiset.traces.items():
            hits, total = per_len.get(len(t), (0, 0))
            per_len[len(t)] = (hits + (c if judge.accepts(t) else 0), total + c)
        return per_len

    p_part = partition(result.e_precision, reference)
    r_part = partition(result.e_recall, inferred)
    rows = []
    for n in range(max(itertools.chain(p_part, r_part), default=-1) + 1):
        p_hits, p_total = p_part.get(n, (0, 0))
        r_hits, r_total = r_part.get(n, (0, 0))
        rows.append(
            ConditionedRow(
                n,
                Fraction(p_hits, p_total) if p_total else None,
                p_total,
                Fraction(r_hits, r_total) if r_total else None,
                r_total,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# W-method


def state_cover(d) -> list[tuple[int, ...]]:
    """Prefix-closed set of shortest traces reaching every state (BFS)."""
    paths = {d.initial: ()}
    todo = [d.initial]
    while todo:
        nxt = []
        for q in todo:
            for s, t in enumerate(d.transitions[q]):
                if t not in paths:
                    paths[t] = paths[q] + (s,)
                    nxt.append(t)
        todo = nxt
    if len(paths) != d.state_count:
        # unreachable states cannot be covered; minimize() removes them
        raise UnsuitableModelError("state cover requires every state to be reachable")
    return sorted(paths.values(), key=lambda t: (len(t), t))


def characterization_set(d) -> list[tuple[int, ...]]:
    """Traces separating every pair of states by acceptance.

    Requires a minimized automaton; raises if some pair cannot be told
    apart.  A single-state automaton gets the conventional {epsilon}.
    """
    n = d.state_count
    if n == 1:
        return [()]
    witness = {}
    for p in range(n):
        for q in range(p + 1, n):
            if (p in d.accepting) != (q in d.accepting):
                witness[(p, q)] = ()
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(p + 1, n):
                if (p, q) in witness:
                    continue
                for s in range(len(d.alphabet)):
                    a, b = d.transitions[p][s], d.transitions[q][s]
                    key = (a, b) if a < b else (b, a)
                    if a != b and key in witness:
                        witness[(p, q)] = (s,) + witness[key]
                        changed = True
                        break
    if len(witness) != n * (n - 1) // 2:
        raise IndistinguishableStatesError(
            "some states are language-equivalent; minimize the model first"
        )
    return sorted(set(witness.values()), key=lambda t: (len(t), t))


def w_method_test_set(d, cfg: WMethodConfig) -> EvaluationMultiset:
    """The conformance test set C (eps|Sigma|...|Sigma^{k+1}) D with
    k = m - |Q|, duplicates removed."""
    if cfg.m < d.state_count:
        raise ValueError("state bound m must be at least the reference size")
    k = cfg.m - d.state_count
    cover = state_cover(d)
    dist = characterization_set(d)
    sigma = len(d.alphabet)
    middle_size = sum(sigma**i for i in range(k + 2))
    estimate = len(cover) * middle_size * len(dist)
    if estimate > cfg.max_test_set_size:
        raise SizeGuardError(
            f"W-method test set would hold up to {estimate} traces "
            f"(cap {cfg.max_test_set_size})",
            estimate=estimate,
        )
    middles = [
        m
        for i in range(k + 2)
        for m in itertools.product(range(sigma), repeat=i)
    ]
    result = EvaluationMultiset()
    seen = set()
    for c in cover:
        for mid in middles:
            prefix = c + mid
            for w in dist:
                t = prefix + w
                if t not in seen:
                    seen.add(t)
                    result.add(t)
    return result


def mbt_assessment(reference, inferred, cfg: WMethodConfig):
    """Precision and recall over the W-method test set of the reference."""
    tests = w_method_test_set(reference, cfg)
    tp = fp = fn = 0
    for t, c in tests.traces.items():
        in_r = reference.accepts(t)
        in_h = inferred.accepts(t)
        if in_r and in_h:
            tp += c
        elif in_h:
            fp += c
        elif in_r:
            fn += c
    precision = Fraction(tp, tp + fp) if tp + fp else None
    recall = Fraction(tp, tp + fn) if tp + fn else None
    return precision, recall


# ---------------------------------------------------------------------------
# Model-independent sampling of the symbol space


def sigma_sampling_assessment(
    reference,
    inferred,
    length: int,
    n_target: int,
    metric: str,
    seed: int,
    time_limit_s: float = 3600.0,
) -> Fraction:
    """Estimate one accuracy value from uniform random traces of one length.

    Draws length-``length`` traces with i.i.d. uniform symbols until
    ``n_target`` of them are accepted by the conditioning model (the inferred
    one for precision, the reference for recall), then returns the fraction
    of those that the other model also accepts.
    """
    if metric not in ("precision", "recall"):
        raise ValueError("metric must be 'precision' or 'recall'")
    conditioning = inferred if metric == "precision" else reference
    if count_dp(conditioning, length)[length] == 0:
        raise UnsuitableModelError(f"conditioning language has no trace of length {length}")
    rng = random.Random(seed)
    sigma = len(reference.alphabet)
    r_rows = reference.transitions
    h_rows = inferred.transitions
    true_positives = 0
    accepted = 0
    deadline = time.monotonic() + time_limit_s
    checks = 0
    while accepted < n_target:
        checks += 1
        if checks % 4096 == 0 and time.monotonic() > deadline:
            raise ResourceLimitError("sampling hit the time limit")
        qr = reference.initial
        qh = inferred.initial
        for _ in range(length):
            s = int(rng.random() * sigma)
            qr = r_rows[qr][s]
            qh = h_rows[qh][s]
        in_r = qr in reference.accepting
        in_h = qh in inferred.accepting
        if metric == "precision":
            if in_h:
                accepted += 1
        elif in_r:
            accepted += 1
        if in_r and in_h:
            true_positives += 1
    return Fraction(true_positives, accepted)
