import inspect
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from langcard import Alphabet, Dfa, baselines, confusion_product, counting, inference
from langcard.baselines import (
    _symbol_draws,
    RandomWalkConfig,
    WalkTally,
    characterization_set,
    derive_rng,
    mbt_assessment,
    sigma_sampling_assessment,
    state_cover,
    trace_similarity,
    trace_similarity_conditioned,
    w_method_test_set,
)
from langcard.counting import WorkBudget, check_horizon, count_dp
from langcard.errors import (
    AlphabetMismatchError,
    IndistinguishableStatesError,
    ResourceLimitError,
    SizeGuardError,
)
from langcard.inference import generate_training_set
from langcard.metrics import confusion_counts, single_length_assessment
from langcard.regexes import EPSILON, alt, seq, star, sym, to_dfa

from helpers import (
    a_chain,
    all_accepting,
    b_power,
    doubled,
    empty_language,
    equivalent,
    mbt_by_enumeration,
    random_dfa,
    random_nonempty_dfa,
    random_walk_trace,
    reference_walks,
    seeded,
    sigma_sampling_by_draws,
    signature_models,
    trace_similarity_by_models,
)

AB = ("a", "b")


def cfg(**kw):
    base = dict(
        termination_probability=0.3,
        target_trace_count=200,
        min_transition_coverage=0,
        seed=7,
    )
    base.update(kw)
    return RandomWalkConfig(**base)


def test_walk_on_epsilon_only_model_returns_empty_trace():
    d = to_dfa(EPSILON, AB)
    rng = derive_rng(1, 0)
    for _ in range(20):
        assert random_walk_trace(d, cfg(), rng) == ()


def test_walk_with_pa_one_and_accepting_initial():
    d = to_dfa(star(sym("a")), AB)
    rng = derive_rng(2, 0)
    for _ in range(20):
        assert random_walk_trace(d, cfg(termination_probability=1.0), rng) == ()


def test_walk_traces_are_always_accepted():
    rng_models = seeded(50)
    rng = derive_rng(3, 0)
    for _ in range(20):
        d = random_nonempty_dfa(rng_models, rng_models.randrange(2, 7), 2)
        for _ in range(20):
            assert d.accepts(random_walk_trace(d, cfg(), rng))


def test_walk_length_is_geometric():
    # single accepting state with a self-loop: length ~ Geometric(pa)
    d = Dfa(Alphabet(("a",)), ((0,),), 0, frozenset([0]))
    pa = 0.2
    rng = derive_rng(4, 0)
    n = 100_000
    total = sum(len(random_walk_trace(d, cfg(termination_probability=pa), rng)) for _ in range(n))
    mean = total / n
    expected = (1 - pa) / pa
    stderr = math.sqrt(1 - pa) / pa / math.sqrt(n)
    assert abs(mean - expected) <= 3 * stderr


def test_trace_similarity_identical_models():
    d = to_dfa(star(alt(sym("a"), seq(sym("b"), sym("a")))), AB)
    res = trace_similarity(d, d, cfg())
    assert res.precision == 1
    assert res.recall == 1
    assert res.e_precision.total >= 200


def test_trace_similarity_signature_sensitivity():
    reference, inferred = signature_models()
    res = trace_similarity(reference, inferred, cfg(termination_probability=1.0))
    assert res.precision == 1
    res = trace_similarity(
        reference, inferred, cfg(termination_probability=0.01, target_trace_count=5000)
    )
    assert 0.15 <= res.precision <= 0.25


def test_trace_similarity_is_seed_reproducible():
    reference, inferred = signature_models()
    a = trace_similarity(reference, inferred, cfg(seed=99))
    b = trace_similarity(reference, inferred, cfg(seed=99))
    assert a == b
    c = trace_similarity(reference, inferred, cfg(seed=100))
    assert c.e_precision != a.e_precision
    # the walks behind the tallies, recorded
    walked = trace_similarity_by_models(reference, inferred, cfg(seed=99))[0]
    assert walked == trace_similarity_by_models(reference, inferred, cfg(seed=99))[0]
    assert walked != trace_similarity_by_models(reference, inferred, cfg(seed=100))[0]


def test_coverage_rule_touches_every_live_transition():
    d = to_dfa(star(alt(sym("a"), seq(sym("b"), sym("a")))), AB)
    config = cfg(target_trace_count=10, min_transition_coverage=3)
    res = trace_similarity(d, d, config)
    (walked, _), tallies, *_ = trace_similarity_by_models(d, d, config)
    # the tallied walks are the recorded ones, which walk on until coverage,
    # so they exceed the tiny target
    assert [res.e_precision, res.e_recall] == tallies
    assert res.e_precision.total >= 10
    # replay the traces: every live transition must appear >= 3 times
    errors = d.error_states
    traversed = {}
    for trace, count in walked.items():
        state = d.initial
        for s in trace:
            traversed[(state, s)] = traversed.get((state, s), 0) + count
            state = d.transitions[state][s]
    for q in set(d.reachable_states()) - errors:
        for s in d.alphabet:
            if d.transitions[q][s] not in errors:
                assert traversed.get((q, s), 0) >= 3


def test_pa_one_precision_is_one_exactly_when_reference_accepts_epsilon():
    inferred = to_dfa(star(sym("a")), AB)  # accepting initial state
    accepts_eps = to_dfa(star(sym("b")), AB)
    rejects_eps = to_dfa(sym("b"), AB)
    c = cfg(termination_probability=1.0, target_trace_count=100)
    assert trace_similarity(accepts_eps, inferred, c).precision == 1
    assert trace_similarity(rejects_eps, inferred, c).precision == 0


def test_walks_at_pa_one_cover_only_what_they_can_reach(monkeypatch):
    # at pa = 1 a walk on _PA_ONE stops on entering 1, so it never takes a
    # step out of 1 or 2 and never visits 2.  The clock passes the deadline
    # at the first check, after 64 walks: walks that waited on those units
    # would raise there.  The tallied walks are those of the reference
    # walker, whose traces are checked
    readings = []

    def monotonic():
        readings.append(None)
        return 0.0 if len(readings) == 1 else 1e9

    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    d = _PA_ONE
    c = cfg(termination_probability=1.0, target_trace_count=2, min_transition_coverage=3)
    res = trace_similarity(d, d, c, WorkBudget(time_limit_s=1.0))
    by_models = trace_similarity_by_models(d, d, c)
    assert [res.e_precision, res.e_recall] == by_models[1]
    training = generate_training_set(d, c, min_traces=2, min_state_visits=3, budget=WorkBudget(time_limit_s=1.0))
    walked = [list(traces.elements()) for traces in by_models[0]]
    for traces in [*walked, training.traces]:
        assert all(t[-1] == 0 and set(t[:-1]) <= {1} for t in traces)  # b* a
        assert len(traces) >= 3  # each walk steps on a out of 0 into 1 once
    for traces in walked:
        assert sum(t.count(1) for t in traces) >= 3  # the steps on b out of 0


def test_conditioned_partition_sizes_sum_to_total():
    reference, inferred = signature_models()
    rows = trace_similarity_conditioned(reference, inferred, cfg(target_trace_count=500))
    res = trace_similarity(reference, inferred, cfg(target_trace_count=500))
    assert sum(r.precision_samples for r in rows) == res.e_precision.total
    assert sum(r.recall_samples for r in rows) == res.e_recall.total


def test_conditioned_all_true_positive_model():
    d = to_dfa(star(sym("a")), AB)
    rows = trace_similarity_conditioned(d, d, cfg(target_trace_count=300))
    for row in rows:
        if row.precision_samples:
            assert row.precision == 1


def test_conditioned_matches_single_length_for_uniform_walks():
    # all-accepting inferred model: its walk picks both symbols uniformly,
    # so every trace of one length is equally likely and the conditioned
    # precision must approach the exact single-length value
    inferred = all_accepting(2)
    reference = to_dfa(star(alt(seq(sym("a"), sym("a")), sym("b"))), AB)
    rows = trace_similarity_conditioned(
        reference, inferred, cfg(target_trace_count=30_000, termination_probability=0.25, seed=13)
    )
    exact = single_length_assessment(confusion_counts(reference, inferred, 12))
    for row in rows:
        if row.n > 8 or row.precision_samples < 400:
            continue
        p = exact.per_length[row.n].precision
        se = math.sqrt(float(p) * (1 - float(p)) / row.precision_samples)
        assert abs(float(row.precision) - float(p)) <= 3 * se + 1e-12


@st.composite
def _walked_pairs(draw):
    """Two models over 1-4 symbols, each of 1-6 states and a rejecting
    sink that any move may enter, so that accepting states with no live
    move, where a walk that does not stop starts over, are common; and a
    walk configuration."""
    sigma = draw(st.integers(1, 4))
    alpha = Alphabet(tuple("abcd"[:sigma]))

    def model():
        n = draw(st.integers(1, 6))
        rows = tuple(tuple(draw(st.integers(0, n)) for _ in range(sigma)) for _ in range(n))
        accepting = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        return Dfa(alpha, rows + ((n,) * sigma,), 0, accepting)

    reference, inferred = model(), model()
    assume(0 not in reference.error_states and 0 not in inferred.error_states)
    config = cfg(
        termination_probability=draw(st.sampled_from((0.1, 0.5, 1.0))),
        target_trace_count=draw(st.integers(1, 60)),
        min_transition_coverage=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**32)),
    )
    return reference, inferred, config


# the accepting initial state moves on a into an accepting dead end
_DEAD_END = Dfa(Alphabet(AB), ((1, 2), (2, 2), (2, 2)), 0, frozenset([0, 1]))
# 0 -a-> 1 (accepting) and 0 -b-> 0, then 1 -a-> 2 -b-> 1
_PA_ONE = Dfa(Alphabet(AB), ((1, 0), (2, 3), (3, 1), (3, 3)), 0, frozenset([1]))


@given(_walked_pairs())
# need = 0: every walk is bare
@example((*signature_models(), cfg(termination_probability=0.1, target_trace_count=30)))
# the coverage is met long after the one walk asked for
@example((*signature_models(), cfg(termination_probability=0.1, target_trace_count=1, min_transition_coverage=2)))
# the coverage is met within a few walks, and bare walks make up the rest
@example((all_accepting(2), all_accepting(2), cfg(termination_probability=0.5, target_trace_count=60, min_transition_coverage=1)))
@example((_PA_ONE, all_accepting(2), cfg(termination_probability=1.0, target_trace_count=20, min_transition_coverage=3)))
@example((_DEAD_END, all_accepting(2), cfg(termination_probability=0.1, min_transition_coverage=2)))
@example((all_accepting(2), _DEAD_END, cfg(termination_probability=0.5, min_transition_coverage=2)))
@settings(max_examples=150, deadline=None)
def test_walks_over_the_product_equal_walks_on_each_model(case):
    reference, inferred, config = case
    # trace-sim's tallied walks over R x H, in both of their phases, and
    # gen-traces' recorded walks against walks taken on each model alone by
    # the reference walker, on the same random streams
    _, tallies, precision, recall, rows = trace_similarity_by_models(reference, inferred, config)
    res = trace_similarity(reference, inferred, config)
    assert [res.e_precision, res.e_recall] == tallies
    assert (res.precision, res.recall) == (precision, recall)
    assert trace_similarity_conditioned(reference, inferred, config) == rows
    least, need = config.target_trace_count, config.min_transition_coverage
    training = generate_training_set(reference, config, least, need)
    rng = derive_rng(config.seed, 2)
    assert list(training.traces) == reference_walks(reference, config, rng, least, need, by_state=True)


def test_each_walk_set_keeps_one_walk_when_none_is_asked_for():
    # a target of 0 traces and no coverage ask for no walk, yet each set
    # keeps its first: a bare loop that tested the target before walking
    # would take none
    config = RandomWalkConfig(target_trace_count=0, min_transition_coverage=0, seed=3)
    res = trace_similarity(*signature_models(), config)
    assert res.e_precision == WalkTally((0, 0, 0, 1), (0, 0, 0, 0))
    assert res.e_recall == WalkTally((0, 0, 1), (0, 0, 1))
    assert (res.precision, res.recall) == (0, 1)


def test_trace_similarity_runs_no_trace_through_a_model(monkeypatch):
    def refuse(self, trace):
        raise AssertionError("a trace was run through a model")

    reference, inferred = signature_models()
    monkeypatch.setattr(Dfa, "run", refuse)
    monkeypatch.setattr(Dfa, "accepts", refuse)
    res = trace_similarity(reference, inferred, cfg())
    rows = trace_similarity_conditioned(reference, inferred, cfg())
    assert res.e_precision.total == sum(row.precision_samples for row in rows)


@pytest.mark.parametrize("method", [trace_similarity, trace_similarity_conditioned])
def test_walks_on_models_over_different_alphabets_are_refused(method):
    with pytest.raises(AlphabetMismatchError):
        method(all_accepting(2), all_accepting(3), cfg())


def test_state_cover_single_state():
    assert state_cover(all_accepting(2)) == [()]


def test_characterization_single_state():
    assert characterization_set(all_accepting(2)) == [()]


def test_state_cover_reaches_every_state():
    rng = seeded(52)
    for _ in range(30):
        d = random_dfa(rng, rng.randrange(1, 8), 2).minimize()
        cover = state_cover(d)
        assert {d.run(t) for t in cover} == set(range(d.state_count))
        # prefix closure
        entries = set(cover)
        assert all(t[:i] in entries for t in cover for i in range(len(t)))


def test_characterization_separates_every_pair():
    rng = seeded(53)
    for _ in range(30):
        d = random_dfa(rng, rng.randrange(2, 8), 2).minimize()
        dist = characterization_set(d)
        starts = [replace(d, initial=q) for q in range(d.state_count)]
        for p in range(d.state_count):
            for q in range(p + 1, d.state_count):
                assert any(starts[p].accepts(w) != starts[q].accepts(w) for w in dist)


def test_characterization_rejects_redundant_states():
    # two equivalent accepting states
    d = Dfa(Alphabet(("a",)), ((1,), (2,), (1,)), 0, frozenset([1, 2]))
    with pytest.raises(IndistinguishableStatesError):
        characterization_set(d)


def test_w_method_size_bound_and_contents():
    rng = seeded(54)
    for _ in range(15):
        d = random_dfa(rng, rng.randrange(2, 6), 2).minimize()
        m = d.state_count + 1
        tests = w_method_test_set(d, m)
        k = m - d.state_count
        cover = state_cover(d)
        dist = characterization_set(d)
        bound = len(cover) * sum(2**i for i in range(k + 2)) * len(dist)
        assert tests.total <= bound
        # the k = 0 slice C . {eps} . D is always included
        for c in cover:
            for w in dist:
                assert (c + w) in tests.traces


def test_w_method_growth_rate():
    d = to_dfa(star(alt(sym("a"), seq(sym("b"), sym("a")))), AB).minimize()
    sizes = [
        w_method_test_set(d, d.state_count + k).total
        for k in (2, 3, 4)
    ]
    for small, large in zip(sizes, sizes[1:]):
        assert 1.5 <= large / small <= 2.5  # about |Sigma| = 2


def test_w_method_size_guard():
    d = random_dfa(seeded(55), 5, 2).minimize()
    with pytest.raises(SizeGuardError) as exc:
        w_method_test_set(d, d.state_count + 40)
    assert exc.value.estimate > 5_000_000


@pytest.mark.parametrize("sigma, m", [(1, 10**9), (2, 200_000)])
def test_a_huge_state_bound_is_refused_at_once(sigma, m):
    # the size bound stops summing once it passes the cap, instead of adding
    # sigma^i for every i <= k + 1
    rows = ((1, 0), (0, 1)) if sigma == 2 else ((0,),)
    d = Dfa(Alphabet(AB[:sigma]), rows, 0, frozenset([0]))
    started = time.monotonic()
    with pytest.raises(SizeGuardError) as exc:
        mbt_assessment(d, d, m)
    assert time.monotonic() - started < 1
    # sigma = 1: 1 * (k + 2) * 1 exactly; sigma = 2: 2 * (1 + ... + 2^21) * 1,
    # the first partial sum past the cap
    assert exc.value.estimate == (m + 1 if sigma == 1 else 2 * (2**22 - 1))


@pytest.mark.parametrize(
    "method", [lambda d, m: mbt_assessment(d, d, m), w_method_test_set], ids=["mbt", "w-method"]
)
def test_a_bound_past_the_cap_with_the_fewest_suffixes_is_refused_first(monkeypatch, method):
    # |C| = 2001 and |D| >= ceil(log2 2001) = 11 take the bound past the cap
    # at middles of 7 symbols: 2001 * (2^8 - 1) * 11.  The refusal comes
    # before the cover or the characterization set is built
    def unreachable(*args):
        raise AssertionError("built")

    monkeypatch.setattr(baselines, "state_cover", unreachable)
    monkeypatch.setattr(baselines, "characterization_set", unreachable)
    d = a_chain(2001)
    with pytest.raises(SizeGuardError, match=r"^W-method test set's size bound would hold at least ") as exc:
        method(d, 2030)
    assert exc.value.estimate == 2001 * (2**8 - 1) * 11


def test_the_fewest_suffixes_bound_the_test_set_below_its_own_bound():
    # every minimal model needs at least ceil(log2 |Q|) traces to tell its
    # states apart, so the bound the refusal takes first is never above the
    # bound with D's own size
    rng = seeded(62)
    for _ in range(60):
        d = random_dfa(rng, rng.randrange(1, 12), rng.randrange(1, 4)).minimize()
        n, sigma = d.state_count, len(d.alphabet)
        fewest, cover, dist = max(1, (n - 1).bit_length()), state_cover(d), characterization_set(d)
        assert fewest <= len(dist)
        for k in (0, 1, 3):
            first, _ = baselines._test_set_bound(n, sigma, k, fewest)
            assert first <= baselines._test_set_bound(len(cover), sigma, k, len(dist))[0]


def test_w_method_requires_m_at_least_reference_size():
    d = random_dfa(seeded(56), 5, 2).minimize()
    with pytest.raises(ValueError):
        w_method_test_set(d, d.state_count - 1)


def test_w_method_distinguishes_inequivalent_pairs():
    rng = seeded(57)
    done = 0
    while done < 25:
        r = random_dfa(rng, rng.randrange(2, 5), 2).minimize()
        h = random_dfa(rng, rng.randrange(2, 6), 2).minimize()
        if equivalent(r, h):
            continue
        done += 1
        tests = w_method_test_set(r, max(r.state_count, h.state_count))
        assert any(r.accepts(t) != h.accepts(t) for t in tests.traces)


def test_mbt_counts_equal_the_enumeration(monkeypatch):
    # the count over the test set's DFA against listing and running every
    # test: sigma 1-4, single-state references (D = {eps}), inferred models
    # with unreachable states or doubled (unminimized), m = |R|..|R|+3.  The
    # test DFA reads the reference's BFS tree, so mbt lists no state cover
    def listed(*args):
        raise AssertionError("listed")

    monkeypatch.setattr(baselines, "state_cover", listed)
    rng = seeded(60)
    unreachable = 0
    for i in range(320):
        sigma = 1 + i % 4
        if i % 10 == 0:
            reference = (all_accepting if i % 20 else empty_language)(sigma)
        else:
            reference = all_accepting(sigma)
            while reference.state_count == 1:
                reference = random_dfa(rng, rng.randrange(2, 7), sigma).minimize()
        inferred = random_dfa(rng, rng.randrange(1, 6), sigma)
        if i % 3 == 0:
            inferred = doubled(inferred)
        unreachable += len(inferred.reachable_states()) < inferred.state_count
        m = reference.state_count + (i // 4) % 4
        assert mbt_assessment(reference, inferred, m) == mbt_by_enumeration(reference, inferred, m)
    assert unreachable >= 50


def test_mbt_identical_models():
    d = to_dfa(star(sym("a")), AB)
    assert mbt_assessment(d, d, d.state_count) == (1, 1)


def test_mbt_strict_subset_scores_recall_below_one():
    rng = seeded(58)
    done = 0
    while done < 10:
        r = random_dfa(rng, 4, 2).minimize()
        h = r.intersect(random_dfa(rng, 3, 2)).minimize()
        if equivalent(h, r) or h.initial in h.error_states:
            continue
        done += 1
        m = max(r.state_count, h.state_count)
        _, recall = mbt_assessment(r, h, m)
        assert recall is not None and recall < 1


def test_sigma_sampling_all_accepting():
    top = all_accepting(2)
    for length in (0, 1, 5):
        assert sigma_sampling_assessment(top, top, length, 50, "precision", seed=1) == 1


def test_sigma_sampling_binomial_oracle():
    # reference accepts traces starting with 'a': exactly half of each
    # nonempty length; inferred accepts everything
    reference = to_dfa(seq(sym("a"), star(alt(sym("a"), sym("b")))), AB)
    inferred = all_accepting(2)
    n = 1000
    value = sigma_sampling_assessment(reference, inferred, 6, n, "precision", seed=21)
    se = math.sqrt(0.25 / n)
    assert abs(float(value) - 0.5) <= 3 * se
    # recall conditions on the reference, so every counted trace is a hit
    assert sigma_sampling_assessment(reference, inferred, 6, 200, "recall", seed=22) == 1


def test_sigma_sampling_requires_nonempty_conditioning_slice():
    short = to_dfa(sym("a"), AB)
    with pytest.raises(ValueError):
        sigma_sampling_assessment(short, short, 3, 10, "precision", seed=1)


def test_sigma_sampling_refuses_a_slice_too_thin_to_fill(monkeypatch):
    def no_draws(sigma):
        raise AssertionError("refused only after drawing")

    monkeypatch.setattr(baselines, "_symbol_draws", no_draws)
    with pytest.raises(SizeGuardError) as info:
        sigma_sampling_assessment(all_accepting(3), b_power(12, 3), 12, 150, "precision", seed=1)
    # 150 * 3^12 / 1 expected draws
    assert info.value.estimate == 79_716_150


def test_a_refusal_quotes_an_estimate_past_the_int_to_str_limit():
    # 1000 * 2^15000 expected draws has 4,519 digits: the message gives it
    # in scientific notation, the estimate stays exact
    with pytest.raises(SizeGuardError, match=r"about 2\.81e4518 draws") as info:
        sigma_sampling_assessment(all_accepting(2), b_power(15_000, 2), 15_000, 1000, "precision", seed=1)
    assert info.value.estimate == 1000 * 2**15_000
    nines = 10**2500 - 1
    with pytest.raises(SizeGuardError, match=r"would take about 6\.25e4998 bytes") as info:
        check_horizon(nines, 2)
    assert info.value.estimate == (nines + 1) * 64 + nines * nines // 16


def test_sigma_sampling_agrees_with_exact_single_length():
    rng = seeded(59)
    checked = 0
    while checked < 8:
        r = random_dfa(rng, 4, 2, accept_p=0.6)
        h = random_dfa(rng, 4, 2, accept_p=0.6)
        length = 5
        counts = confusion_counts(r, h, length)
        exact = single_length_assessment(counts).per_length[length].precision
        accepted = count_dp(h, length)[length]
        if exact is None or accepted < 2**length // 8:
            continue
        checked += 1
        sampled = sigma_sampling_assessment(r, h, length, 1000, "precision", seed=100 + checked)
        assert abs(float(sampled) - float(exact)) <= 0.0408


# ---------------------------------------------------------------------------
# Pinned outputs.  Every value below was computed by the per-call baseline
# code (one ``random()`` per walk choice and per sampled symbol, ``accepts``
# on each trace of a model pair).  The table-driven code must reproduce each
# one exactly, which it can only do by consuming every random stream the
# same way.


def _pinned_model(rng, n, alpha):
    """A minimal ``n``-state model whose last state is a rejecting sink,
    which walks never enter."""
    while True:
        rows = tuple(tuple(rng.randrange(n) for _ in alpha.symbols) for _ in range(n - 1))
        rows += (tuple(n - 1 for _ in alpha.symbols),)
        d = Dfa(alpha, rows, 0, frozenset(q for q in range(n - 1) if rng.random() < 0.5))
        if d.minimize().state_count == n:
            return d


def _pinned_pairs():
    rng = seeded(96)
    pairs = []
    for sigma, n_ref, n_inf in ((2, 5, 5), (3, 5, 4), (5, 4, 4)):
        alpha = Alphabet(tuple("abcde"[:sigma]))
        pairs.append((_pinned_model(rng, n_ref, alpha), _pinned_model(rng, n_inf, alpha)))
    return pairs


def _pinned_cfg(seed=7):
    return cfg(target_trace_count=40, min_transition_coverage=2, seed=seed)


def _wide_pair():
    """Over 300 symbols: a 3-state reference and the one-state model of all
    traces."""
    alpha = Alphabet(tuple(f"s{i}" for i in range(300)))
    rows = tuple(tuple((q + 1 + s % 3) % 3 for s in range(300)) for q in range(3))
    top = Dfa(alpha, (tuple(0 for _ in range(300)),), 0, frozenset([0]))
    return Dfa(alpha, rows, 0, frozenset([0])), top


F = Fraction
# per pair (precision, recall, walked traces on the inferred and on the
# reference model); (row count, the rows with samples) of the third pair;
# per pair the traces of a training set
PINNED_TRACE_SIM = [
    (F(27, 40), F(9, 20), 40, 40), (F(3, 20), F(7, 40), 40, 40),
    (F(13, 40), F(13, 63), 40, 63),
]
PINNED_CONDITIONED = (
    24,
    [
        (0, None, 0, F(0, 1), 22), (1, F(11, 16), 16, F(9, 11), 11),
        (2, None, 0, F(0, 1), 7), (3, F(1, 4), 4, F(1, 4), 4), (4, F(1, 2), 2, F(1, 8), 8),
        (5, F(0, 1), 3, F(1, 2), 2), (6, None, 0, F(0, 1), 2), (7, F(0, 1), 2, F(0, 1), 1),
        (8, F(0, 1), 1, F(1, 2), 2), (9, None, 0, F(0, 1), 2), (11, F(0, 1), 2, None, 0),
        (12, None, 0, F(0, 1), 1), (13, F(0, 1), 2, None, 0), (14, F(0, 1), 1, F(0, 1), 1),
        (15, F(0, 1), 2, None, 0), (18, F(0, 1), 1, None, 0), (20, F(0, 1), 1, None, 0),
        (22, F(0, 1), 1, None, 0), (23, F(0, 1), 2, None, 0),
    ],
)
PINNED_MBT = [(F(5, 21), F(5, 17)), (F(1, 6), F(1, 9)), (F(8, 39), F(4, 31))]
PINNED_W_METHOD = [
    (), (0,), (0, 0), (0, 0, 0), (1,), (1, 0), (1, 0, 0), (0, 0, 0, 0), (0, 1), (0, 1, 0),
    (0, 1, 0, 0), (1, 0, 0, 0), (1, 1), (1, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0, 0), (0, 0, 1),
    (0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 1, 1), (0, 1, 1, 0), (0, 1, 1, 0, 0),
]
PINNED_SIGMA = [(F(7, 150), F(7, 150)), (F(1, 75), F(7, 150)), (F(17, 150), F(13, 150))]
PINNED_SIGMA_WIDE = (F(3, 10), F(26, 75))
PINNED_TRAINING = [
    (
        (1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0), (), (1, 0, 1, 1, 1, 0, 1, 1), (0,),
        (0, 1, 1, 1, 1, 1, 1, 1, 0),
    ),
    ((1, 2, 2, 0, 1), (2, 2, 1), (2,), (1, 2, 2, 0), (2, 2)),
    (
        (4, 3, 1, 4, 4, 1, 1, 1, 2), (0, 0, 0, 0), (4, 0, 2, 4, 3, 1, 3, 1, 1, 3), (),
        (1, 1, 3, 3, 3, 1),
    ),
]


def test_trace_similarity_is_pinned():
    got = []
    for reference, inferred in _pinned_pairs():
        res = trace_similarity(reference, inferred, _pinned_cfg())
        got.append((res.precision, res.recall, res.e_precision.total, res.e_recall.total))
    assert got == PINNED_TRACE_SIM


def test_trace_similarity_conditioned_is_pinned():
    reference, inferred = _pinned_pairs()[2]
    rows = trace_similarity_conditioned(reference, inferred, _pinned_cfg())
    sampled = [
        (r.n, r.precision, r.precision_samples, r.recall, r.recall_samples)
        for r in rows
        if r.precision_samples or r.recall_samples
    ]
    assert (len(rows), sampled) == PINNED_CONDITIONED


def test_mbt_and_w_method_are_pinned():
    pairs = _pinned_pairs()
    got = [mbt_assessment(r, h, r.state_count + 1) for r, h in pairs]
    assert got == PINNED_MBT
    reference = pairs[0][0]
    tests = w_method_test_set(reference, reference.state_count)
    assert list(tests.traces.items()) == [(t, 1) for t in PINNED_W_METHOD]


def test_sigma_sampling_is_pinned():
    got = [
        tuple(sigma_sampling_assessment(r, h, 8, 150, metric, seed=5) for metric in ("precision", "recall"))
        for r, h in _pinned_pairs()
    ]
    assert got == PINNED_SIGMA
    reference, top = _wide_pair()
    wide = (
        sigma_sampling_assessment(reference, top, 9, 150, "precision", seed=5),
        sigma_sampling_assessment(top, reference, 9, 150, "recall", seed=6),
    )
    assert wide == PINNED_SIGMA_WIDE


def test_training_set_is_pinned():
    got = [
        generate_training_set(r, _pinned_cfg(seed=3), min_traces=5, min_state_visits=2).traces
        for r, _ in _pinned_pairs()
    ]
    assert got == PINNED_TRAINING


@pytest.mark.parametrize("length", [0, 1, 40])
@pytest.mark.parametrize("sigma", [*range(1, 13), 255, 256, 257, 1000])
def test_bulk_symbols_are_the_per_call_symbols(sigma, length):
    draw = _symbol_draws(sigma)
    bulk, single = random.Random(sigma), random.Random(sigma)
    # enough traces that at sigma = 3 (2 top bytes in 256 straddle a
    # boundary) some symbols come from the two-word fallback
    for _ in range(60):
        assert list(draw(bulk, length)) == [int(single.random() * sigma) for _ in range(length)]
        assert bulk.getstate() == single.getstate()


@pytest.mark.parametrize("sigma", [3, 5, 7, 200, 255])
def test_symbols_whose_top_two_bytes_straddle_are_the_per_call_symbols(sigma):
    # about one value in 2**16 lies where the top two bytes of its first
    # word straddle a symbol boundary, so 2**18 values hold some of those
    n = 2**18
    bulk, single = random.Random(sigma), random.Random(sigma)
    values = [single.random() for _ in range(n)]
    assert list(_symbol_draws(sigma)(bulk, n)) == [int(x * sigma) for x in values]
    assert bulk.getstate() == single.getstate()

    def straddles(x):
        p = int(x * 2**16)
        return int(p / 2**16 * sigma) != int(((p + 1 << 37) - 1) / 2**53 * sigma)

    assert any(map(straddles, values))


def _draw_tables(sigma):
    """The names the draw made for ``sigma`` closes over: its ``bounds``,
    its ``top`` table and ``row``, the cached next-byte rows."""
    return inspect.getclosurevars(_symbol_draws(sigma)).nonlocals


def _endpoint_table(sigma, base, shift):
    """Per byte w, the symbol of the numerators from base + (w << shift) to
    base + (w + 1 << shift) - 1 when the float expression gives both ends
    one symbol, else 255: the construction of the tables by endpoint
    evaluation, kept as their oracle."""
    table = []
    for w in range(256):
        low = int((base + (w << shift)) / 2**53 * sigma)
        high = int((base + (w + 1 << shift) - 1) / 2**53 * sigma)
        table.append(low if low == high else 255)
    return bytes(table)


def test_each_boundary_is_the_least_numerator_of_its_symbol():
    for sigma in range(2, 257):
        bounds = _draw_tables(sigma)["bounds"]
        assert len(bounds) == sigma - 1
        for k, m in enumerate(bounds, 1):
            assert int(m / 2**53 * sigma) >= k > int((m - 1) / 2**53 * sigma)


def test_the_top_table_is_the_endpoint_construction():
    for sigma in range(2, 257):
        assert _draw_tables(sigma)["top"] == _endpoint_table(sigma, 0, 45)
    # and the next-byte row of every straddling top byte, at a few sigmas
    for sigma in (3, 5, 7, 200, 255):
        tables = _draw_tables(sigma)
        straddling = [v for v, s in enumerate(tables["top"]) if s == 255]
        assert straddling
        for v in straddling:
            assert tables["row"](v) == _endpoint_table(sigma, v << 45, 37)


def test_rows_built_on_first_use_do_not_depend_on_call_order():
    def symbols(seeds):
        baselines._symbol_draws.cache_clear()
        draw = _symbol_draws(3)
        got = {seed: bytes(draw(random.Random(seed), 2**16)) for seed in seeds}
        assert _draw_tables(3)["row"].cache_info().currsize == 2  # both straddling top bytes
        return got

    assert symbols([1, 2, 3]) == symbols([3, 1, 2]) == symbols([2, 3, 1])


def test_two_assessments_at_one_sigma_build_the_tables_once():
    baselines._symbol_draws.cache_clear()
    top = all_accepting(3)
    got = [sigma_sampling_assessment(top, top, 8, 2000, "precision", seed=5) for _ in range(2)]
    assert got == [1, 1]
    info = baselines._symbol_draws.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    rows = _draw_tables(3)["row"].cache_info()
    # 16,000 symbols a call meet both straddling top bytes, the second call
    # the same ones as the first
    assert (rows.misses, rows.currsize) == (2, 2) and rows.hits > 0


@st.composite
def _sampled_pairs(draw, sigmas, states):
    """A model pair over one of ``sigmas`` symbols, each model of one of
    ``states`` states, and a metric, length, sample count and seed whose
    conditioning slice is neither empty nor so thin that the per-draw
    oracle would take long."""
    sigma = draw(st.sampled_from(sigmas))
    alpha = Alphabet(tuple(f"s{i}" for i in range(sigma)))

    def model():
        n = draw(st.sampled_from(states))
        rows = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(sigma)) for _ in range(n))
        return Dfa(alpha, rows, 0, frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1))))

    reference, inferred = model(), model()
    metric = draw(st.sampled_from(("precision", "recall")))
    length, n_target = draw(st.integers(0, 12)), draw(st.integers(1, 300))
    size = count_dp(inferred if metric == "precision" else reference, length)[length]
    assume(size and n_target * sigma**length <= 20_000 * size)
    return reference, inferred, length, n_target, metric, draw(st.integers(0, 2**32))


@pytest.mark.parametrize(
    "sigmas, states, fits",
    [((1, 2, 3, 4), range(1, 9), True), (range(9, 13), (5, 6), False)],
    ids=["k sigma <= 256", "k sigma > 256"],
)
def test_batched_sampling_equals_sampling_draw_by_draw(sigmas, states, fits):
    # with k * sigma <= 256 a batch of enough draws steps as byte lanes; a
    # wider product, or a smaller batch, steps one draw at a time
    @given(_sampled_pairs(sigmas, states))
    @settings(max_examples=80, deadline=None)
    def check(case):
        reference, inferred = case[:2]
        product, _ = confusion_product(reference, inferred)
        assume((product.state_count * len(reference.alphabet) <= 256) == fits)
        assert sigma_sampling_assessment(*case) == sigma_sampling_by_draws(*case)

    check()


def test_sampling_past_256_symbols_equals_sampling_draw_by_draw():
    rng = seeded(61)
    alpha = Alphabet(tuple(f"s{i}" for i in range(300)))
    models = [
        Dfa(alpha, tuple(tuple(rng.randrange(3) for _ in range(300)) for _ in range(3)), 0, frozenset([0, q]))
        for q in (1, 2)
    ]
    for metric in ("precision", "recall"):
        case = (*models, 3, 200, metric, 7)
        assert sigma_sampling_assessment(*case) == sigma_sampling_by_draws(*case)


@pytest.mark.parametrize("length", [1, 3, 40, 2 * baselines.MAX_BATCH_SYMBOLS + 1])
def test_sampling_asks_for_at_most_a_batch_of_symbols_per_draw(monkeypatch, length):
    asked = []
    symbol_draws = baselines._symbol_draws

    def recorded(sigma):
        draw = symbol_draws(sigma)

        def record(rng, symbols):
            asked.append(symbols)
            return draw(rng, symbols)

        return record

    monkeypatch.setattr(baselines, "_symbol_draws", recorded)
    # recall conditions on the traces that start with 'a', half of each length
    reference = to_dfa(seq(sym("a"), star(alt(sym("a"), sym("b")))), AB)
    case = (reference, all_accepting(2), length, 3 if length > 40 else 2000, "recall", 4)
    assert sigma_sampling_assessment(*case) == sigma_sampling_by_draws(*case)
    assert len(asked) > 1
    assert max(asked) <= max(baselines.MAX_BATCH_SYMBOLS, length)


# ---------------------------------------------------------------------------
# Limits


def test_sigma_sampling_past_its_deadline_raises(monkeypatch):
    # the clock reads 0 when the budget starts and at the 3 steps of the
    # slice's count, and far past the deadline afterwards, which the check
    # before each batch of draws finds before the first batch
    readings = []

    def monotonic():
        readings.append(None)
        return 0.0 if len(readings) <= 4 else 1e9

    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    top = all_accepting(2)
    budget = WorkBudget(time_limit_s=1.0)
    with pytest.raises(ResourceLimitError, match=r"^sampling: time limit exceeded 1\.0 s$"):
        sigma_sampling_assessment(top, top, 3, 10_000, "precision", seed=1, budget=budget)


@pytest.mark.parametrize("method", [trace_similarity, trace_similarity_conditioned])
def test_both_walk_sets_share_one_time_limit(monkeypatch, method):
    # the clock reads 0 when the budget starts and 1.5 s once it has passed:
    # past the 1 s limit, yet inside one started afresh.  It passes at once,
    # or only once the recall set draws its stream, after the precision set
    # has walked its 1,000 traces; either way the walks raise at their next
    # check, which shows that the recall set keeps the one deadline
    derive = baselines.derive_rng
    for late in (False, True):
        readings, passed = [], [not late]

        def derive_rng(seed, stream):
            passed[0] = passed[0] or stream == 1
            return derive(seed, stream)

        def monotonic():
            readings.append(None)
            return 1.5 if passed[0] and len(readings) > 1 else 0.0

        monkeypatch.setattr(baselines, "derive_rng", derive_rng)
        monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
        top = all_accepting(2)
        budget = WorkBudget(time_limit_s=1.0)
        with pytest.raises(ResourceLimitError, match=r"^evaluation walks: time limit exceeded 1\.0 s$"):
            method(top, top, cfg(target_trace_count=1000), budget)
        assert passed[0]


def test_one_deadline_count_runs_across_the_switch_to_bare_walks(monkeypatch):
    # on one state looping on its one symbol, each walk set records its
    # units for 20 to 64 walks, then walks bare up to 200 walks.  The clock
    # is read when the budget starts and at the checks before walks 65, 129
    # and 193 of each set; a count of walks since the last check that
    # started afresh at the switch would read it twice per set
    readings = []

    def monotonic():
        readings.append(None)
        return 0.0

    d = all_accepting(1)
    c = cfg(target_trace_count=200, min_transition_coverage=80)
    for stream in (0, 1):
        recording = reference_walks(d, c, baselines.derive_rng(c.seed, stream), 1, 80)
        assert 20 <= len(recording) <= 64
    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    res = trace_similarity(d, d, c)
    assert res.e_precision.total == res.e_recall.total == 200
    assert len(readings) == 1 + 2 * (199 // 64)


def test_restarted_walks_answer_to_the_deadline(monkeypatch):
    # state 0 loops on a and b and moves on c to state 1, which accepts and
    # has nothing live to follow, so at pa = 1e-9 almost every walk starts
    # over.  The clock passes the deadline once the budget has started: the
    # check after the first 64 walks, restarted ones included, raises long
    # before the (lowered) restart limit
    monkeypatch.setattr(baselines, "MAX_WALK_RESTARTS", 1000)
    d = Dfa(Alphabet(("a", "b", "c")), ((0, 0, 1), (2, 2, 2), (2, 2, 2)), 0, frozenset([1]))
    c = cfg(termination_probability=1e-9, target_trace_count=10)
    runs = [
        ("evaluation walks", lambda budget: trace_similarity(d, d, c, budget)),
        ("training walks", lambda budget: generate_training_set(d, c, min_traces=10, budget=budget)),
    ]
    for stage, run in runs:
        readings = []

        def monotonic():
            readings.append(None)
            return 0.0 if len(readings) == 1 else 1e9

        monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
        with pytest.raises(ResourceLimitError, match=rf"^{stage}: time limit exceeded 1\.0 s$"):
            run(WorkBudget(time_limit_s=1.0))
        assert len(readings) == 2  # the budget's start and the first check


def test_the_characterization_set_answers_to_the_deadline(monkeypatch):
    # the clock passes the deadline at the sixth reading: the budget's start,
    # then one check per row of the characterization set's first pass, so
    # mbt raises on its fifth row, before any later stage
    readings = []

    def monotonic():
        readings.append(None)
        return 0.0 if len(readings) <= 5 else 1e9

    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    monkeypatch.setattr(baselines, "_test_automaton", None)  # a later stage would fail
    d = random_dfa(seeded(56), 20, 2).minimize()
    assert d.state_count > 5
    with pytest.raises(ResourceLimitError, match=r"^characterization set: time limit exceeded 1\.0 s$"):
        mbt_assessment(d, d, d.state_count, WorkBudget(time_limit_s=1.0))
    assert len(readings) == 6


def test_training_walks_past_the_held_slots_are_refused_before_walking(monkeypatch):
    monkeypatch.setattr(baselines, "MAX_HELD_SLOTS", 20)
    monkeypatch.setattr(inference, "_walk_until_covered", None)  # a walk would fail
    with pytest.raises(SizeGuardError, match=r"^training walks: 21 traces .*\(cap 20\)$"):
        generate_training_set(all_accepting(2), cfg(), min_traces=21)


def test_a_repeated_trace_holds_no_more_slots(monkeypatch):
    # the only trace is "a": its 1,000 walks are tallied at length 1, and
    # none of them takes a slot of the cap
    only_a = Dfa(Alphabet(AB), ((1, 2), (2, 2), (2, 2)), 0, frozenset([1]))
    monkeypatch.setattr(baselines, "MAX_HELD_SLOTS", 20)
    result = trace_similarity(only_a, only_a, cfg(target_trace_count=1000))
    assert (result.e_precision.walks, result.e_precision.accepted) == ((0, 1000), (0, 1000))
    assert (result.e_recall.walks, result.e_recall.accepted) == ((0, 1000), (0, 1000))


@pytest.mark.parametrize("method", [trace_similarity, trace_similarity_conditioned])
def test_evaluation_walks_hold_no_slots(monkeypatch, method):
    # the walks are tallied, not held: 1,000 walks, whose traces would take
    # thousands of slots, complete under a cap of 20 and give what they give
    # uncapped
    top = all_accepting(2)
    config = cfg(target_trace_count=1000)
    uncapped = method(top, top, config)
    monkeypatch.setattr(baselines, "MAX_HELD_SLOTS", 20)
    got = method(top, top, config)
    assert got == uncapped
    if method is trace_similarity:
        assert (got.e_precision.total, got.e_recall.total) == (1000, 1000)
    else:
        assert sum(row.precision_samples for row in got) == 1000


def test_walk_keeps_the_restart_limit(monkeypatch):
    # the accepting initial state has every edge into the sink, so a walk
    # that draws no stop there has nothing to follow and starts over
    d = Dfa(Alphabet(AB), ((1, 1), (1, 1)), 0, frozenset([0]))
    monkeypatch.setattr(baselines, "MAX_WALK_RESTARTS", 0)
    rng = derive_rng(8, 0)
    with pytest.raises(ResourceLimitError, match="restart limit"):
        for _ in range(100):
            random_walk_trace(d, cfg(), rng)


def test_walk_keeps_the_step_limit(monkeypatch):
    d = Dfa(Alphabet(("a",)), ((0,),), 0, frozenset([0]))
    monkeypatch.setattr(baselines, "MAX_WALK_STEPS", 3)
    rng = derive_rng(9, 0)
    with pytest.raises(ResourceLimitError, match="step limit"):
        for _ in range(100):
            random_walk_trace(d, cfg(termination_probability=0.01), rng)


def _chain(k):
    """The one-symbol acceptor of a^k alone."""
    rows = tuple((i + 1,) for i in range(k + 1)) + ((k + 1,),)
    return Dfa(Alphabet(("a",)), rows, 0, frozenset([k]))


@pytest.mark.parametrize("k", [0, 1, 5])
def test_a_walk_may_take_the_step_limit_and_no_more(monkeypatch, k):
    monkeypatch.setattr(baselines, "MAX_WALK_STEPS", k)
    rng = derive_rng(10, 0)
    assert random_walk_trace(_chain(k), cfg(termination_probability=1.0), rng) == (0,) * k
    with pytest.raises(ResourceLimitError, match="step limit"):
        random_walk_trace(_chain(k + 1), cfg(termination_probability=1.0), rng)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_a_bare_walk_may_take_the_step_limit_and_no_more(monkeypatch, k):
    # with no coverage to reach, trace-sim's walks run bare from the first
    monkeypatch.setattr(baselines, "MAX_WALK_STEPS", k)
    c = cfg(termination_probability=1.0, target_trace_count=3)
    res = trace_similarity(_chain(k), _chain(k), c)
    assert res.e_precision.walks == res.e_recall.walks == (0,) * k + (3,)
    with pytest.raises(ResourceLimitError, match="step limit"):
        trace_similarity(_chain(k + 1), _chain(k + 1), c)


def test_a_bare_walk_keeps_the_restart_limit(monkeypatch):
    # as in test_walk_keeps_the_restart_limit: a walk that draws no stop at
    # the accepting initial state starts over
    d = Dfa(Alphabet(AB), ((1, 1), (1, 1)), 0, frozenset([0]))
    monkeypatch.setattr(baselines, "MAX_WALK_RESTARTS", 0)
    with pytest.raises(ResourceLimitError, match="restart limit"):
        trace_similarity(d, d, cfg(target_trace_count=100))


@pytest.mark.parametrize("stage", ["evaluation walks", "training walks"])
def test_long_walks_answer_to_the_deadline(monkeypatch, stage):
    # every walk on the chain takes 2**14 steps, so the walks pass 2**16
    # steps after the fourth: the clock, past the deadline from its second
    # reading on, raises at the check before the fifth walk, long before 64
    # walks.  A walk of k steps draws k + 1 numbers, the last its stop
    k = 2**14
    calls = []

    class Counted(random.Random):
        def random(self):
            calls.append(None)
            return super().random()

    readings = []

    def monotonic():
        readings.append(None)
        return 0.0 if len(readings) == 1 else 1e9

    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    for module in (baselines, inference):
        monkeypatch.setattr(module, "derive_rng", lambda seed, stream: Counted(seed))
    d = _chain(k)
    c = cfg(termination_probability=1.0, target_trace_count=64)
    budget = WorkBudget(time_limit_s=1.0)
    with pytest.raises(ResourceLimitError, match=rf"^{stage}: time limit exceeded 1\.0 s$"):
        if stage == "evaluation walks":
            trace_similarity(d, d, c, budget)
        else:
            generate_training_set(d, c, min_traces=64, min_state_visits=0, budget=budget)
    assert len(readings) == 2  # the budget's start and the first check
    assert len(calls) == 4 * (k + 1)


@st.composite
def _models(draw, sigma):
    n = draw(st.integers(1, 8))
    rows = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(sigma)) for _ in range(n))
    accepting = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return Dfa(Alphabet(tuple("abcd"[:sigma])), rows, 0, accepting)


@given(st.integers(1, 4).flatmap(lambda sigma: st.tuples(_models(sigma), _models(sigma))), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_mbt_classes_from_the_product_equal_per_test_acceptance(models, extra):
    reference, inferred = models[0].minimize(), models[1]
    m = reference.state_count + extra
    tp = fp = fn = 0
    for t in w_method_test_set(reference, m).traces:
        in_r, in_h = reference.accepts(t), inferred.accepts(t)
        tp += in_r and in_h
        fp += in_h and not in_r
        fn += in_r and not in_h
    expected = (F(tp, tp + fp) if tp + fp else None, F(tp, tp + fn) if tp + fn else None)
    assert mbt_assessment(reference, inferred, m) == expected
