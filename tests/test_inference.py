import pytest

from langcard import Alphabet, automata, inference, serialize_dfa
from langcard.automata import canonical_dfa
from langcard.baselines import RandomWalkConfig
from langcard.errors import SizeGuardError
from langcard.inference import TrainingSet, _Trie, generate_training_set, k_tails
from langcard.metrics import confusion_counts, single_length_assessment
from langcard.regexes import alt, seq, star, sym, to_dfa

from helpers import build_pta, enumerate_language, random_nonempty_dfa, seeded

AB = Alphabet(("a", "b"))


def training(*name_traces):
    return TrainingSet(
        tuple(AB.trace_from_names(names) for names in name_traces), AB
    )


def walk_cfg(**kw):
    base = dict(termination_probability=0.25, seed=11)
    base.update(kw)
    return RandomWalkConfig(**base)


def test_pta_of_two_chained_traces():
    ts = training(["a"], ["a", "b"])
    pta = build_pta(ts)
    # prefixes: eps, a, ab -> three tree states plus the completion sink
    assert pta.state_count == 4
    assert enumerate_language(pta, 4) == set(ts.traces)


def test_pta_accepts_exactly_the_training_set():
    rng = seeded(60)
    for _ in range(20):
        traces = tuple(
            tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
            for _ in range(rng.randrange(1, 8))
        )
        ts = TrainingSet(traces, AB)
        pta = build_pta(ts)
        max_len = max((len(t) for t in traces), default=0)
        assert enumerate_language(pta, max_len + 1) == set(traces)


def test_pta_state_count_is_number_of_prefixes_plus_sink():
    ts = training(["a", "b"], ["b", "b"])
    # prefixes: eps, a, ab, b, bb
    assert build_pta(ts).state_count == 5 + 1


def test_pta_needs_a_nonempty_training_set():
    with pytest.raises(ValueError):
        build_pta(TrainingSet((), AB))


def test_k_tails_with_large_k_returns_exactly_the_training_set():
    rng = seeded(61)
    for _ in range(15):
        traces = tuple(
            tuple(rng.randrange(2) for _ in range(rng.randrange(6)))
            for _ in range(rng.randrange(1, 10))
        )
        ts = TrainingSet(traces, AB)
        max_len = max((len(t) for t in traces), default=0)
        inferred = k_tails(ts, max_len + 1)
        assert enumerate_language(inferred, max_len + 1) == set(traces)


def test_k_tails_from_the_longest_trace_up_is_the_minimized_prefix_tree():
    rng = seeded(64)
    for case in range(300):
        n_sym = 1 + case % 3
        alpha = Alphabet(("a", "b", "c")[:n_sym])
        if case % 25 == 0:
            traces = ((),) * rng.randint(1, 3)  # only the empty trace
        else:
            traces = [
                tuple(rng.randrange(n_sym) for _ in range(rng.randrange(rng.choice((3, 9)))))
                for _ in range(rng.randint(1, 8))
            ]
            traces += [rng.choice(traces) for _ in range(rng.randrange(3))]  # duplicates
            if rng.random() < 0.3:
                traces.append(())
        ts = TrainingSet(tuple(traces), alpha)
        expected = serialize_dfa(build_pta(ts).minimize())
        longest = ts.max_trace_length
        for k in {max(longest, 1), longest + 1, longest + 40}:
            assert serialize_dfa(k_tails(ts, k)) == expected


def test_k_tails_at_the_longest_trace_builds_no_tail_sets(monkeypatch):
    ts = training(["a", "b"], ["b"], [])
    expected = serialize_dfa(build_pta(ts).minimize())

    def tails(self, k, check):
        raise AssertionError("tail sets built")

    monkeypatch.setattr(_Trie, "tails", tails)
    assert serialize_dfa(k_tails(ts, 2)) == expected


def test_the_exact_register_is_refused_once_it_passes_the_states_cap(monkeypatch):
    # a^i b for i < 12: 14 classes, the sink among them
    ts = training(*(["a"] * i + ["b"] for i in range(12)))
    numbered = []

    def spy(*args):
        numbered.append(args)
        return canonical_dfa(*args)

    monkeypatch.setattr(inference, "canonical_dfa", spy)
    monkeypatch.setattr(automata, "MAX_STATES", 14)
    assert k_tails(ts, 12).state_count == 14
    numbered.clear()
    monkeypatch.setattr(automata, "MAX_STATES", 13)
    with pytest.raises(SizeGuardError, match="^the minimal DFA has more than 13 reachable states$"):
        k_tails(ts, 12)
    assert numbered == []  # refused in the sweep, before the numbering


def test_k_tails_never_drops_training_traces():
    rng = seeded(62)
    for _ in range(15):
        traces = tuple(
            tuple(rng.randrange(2) for _ in range(rng.randrange(6)))
            for _ in range(rng.randrange(1, 10))
        )
        ts = TrainingSet(traces, AB)
        for k in (1, 2, 4):
            inferred = k_tails(ts, k)
            assert all(inferred.accepts(t) for t in traces)


def test_k_tails_output_is_minimal_and_complete():
    ts = training(["a", "b"], ["a", "b", "a", "b"], ["b"])
    inferred = k_tails(ts, 2)
    assert inferred.minimize().state_count == inferred.state_count
    assert all(len(row) == 2 for row in inferred.transitions)


def test_tails_are_the_short_accepted_suffixes_of_each_prefix():
    rng = seeded(23)
    for _ in range(100):
        ts = TrainingSet(
            tuple(
                tuple(rng.randrange(2) for _ in range(rng.randrange(12)))
                for _ in range(rng.randrange(1, 8))
            ),
            AB,
        )
        trie = _Trie(ts)
        prefixes = {0: ()}
        for node, kids in enumerate(trie.children):
            for s, nxt in kids.items():
                prefixes[nxt] = prefixes[node] + (s,)
        for k in (1, 2, 3, 12):
            tails = trie.tails(k, lambda: None)
            for node, prefix in prefixes.items():
                expected = {
                    t[len(prefix):] for t in ts.traces
                    if t[:len(prefix)] == prefix and len(t) - len(prefix) <= k
                }
                assert tails[node] == expected


def test_k_tails_merges_shared_tails():
    # both branches end in the same single tail, so k=1 collapses them
    ts = training(["a", "b"], ["b", "b"])
    inferred = k_tails(ts, 1)
    pta = build_pta(ts)
    assert inferred.state_count < pta.state_count


def test_k_tails_size_grows_with_k_on_protocol_sets():
    reference = to_dfa(
        star(alt(seq(sym("a"), sym("b")), sym("b"))), ("a", "b")
    )
    sizes = {2: [], 8: []}
    for seed in range(5):
        ts = generate_training_set(
            reference, walk_cfg(seed=seed), min_traces=30, min_state_visits=2
        )
        for k in sizes:
            sizes[k].append(k_tails(ts, k).state_count)
    mean2 = sum(sizes[2]) / len(sizes[2])
    mean8 = sum(sizes[8]) / len(sizes[8])
    assert mean2 <= mean8


def test_inference_config_validation():
    with pytest.raises(ValueError, match="k must be at least 1"):
        k_tails(training(["a"]), 0)


def test_generate_training_set_follows_the_stopping_rule():
    reference = to_dfa(
        star(alt(seq(sym("a"), sym("b")), sym("b"))), ("a", "b")
    )
    ts = generate_training_set(reference, walk_cfg())
    assert len(ts.traces) >= 100
    assert all(reference.accepts(t) for t in ts.traces)
    # replay the traces and count state visits
    visits = {q: 0 for q in range(reference.state_count)}
    for t in ts.traces:
        state = reference.initial
        visits[state] += 1
        for s in t:
            state = reference.transitions[state][s]
            visits[state] += 1
    live = set(reference.reachable_states()) - reference.error_states
    assert all(visits[q] >= 4 for q in live)


def test_full_inference_round_trip_has_no_false_positives():
    rng = seeded(63)
    reference = random_nonempty_dfa(rng, 4, 2, accept_p=0.5)
    ts = generate_training_set(
        reference, walk_cfg(seed=5), min_traces=40, min_state_visits=2
    )
    inferred = k_tails(ts, ts.max_trace_length + 1)
    n_max = ts.max_trace_length + 2
    result = single_length_assessment(confusion_counts(reference, inferred, n_max))
    for row in result.per_length:
        assert row.precision in (None, 1)
