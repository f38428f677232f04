import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langcard import (
    Alphabet,
    Dfa,
    build_dfa,
    confusion_automata,
    confusion_product,
    format_traces,
    parse_dfa,
    parse_traces,
    serialize_dfa,
)
from langcard import automata
from langcard.automata import MAX_STATES
from langcard.counting import count_dp
from langcard.errors import AlphabetMismatchError, LangcardError, ModelParseError, SizeGuardError

from helpers import (
    SYMS,
    all_accepting,
    complement,
    cycle,
    enumerate_counts,
    equivalent,
    moore_minimize,
    parse_dfa_by_lines,
    product_table_oracle,
    random_dfa,
    random_trace,
    seeded,
    signature_models,
)

A_STAR_FILE = """\
# a* over {a, b}
alphabet: a b
states: 1
initial: 0
accepting: 0
0 a 0
"""


def test_parse_adds_sink_for_omitted_transitions():
    d = parse_dfa(A_STAR_FILE)
    assert d.state_count == 2  # declared state plus the sink
    assert d.accepts(())
    assert d.accepts((0, 0, 0))
    assert not d.accepts((0, 1))


def test_parse_dangling_target():
    bad = A_STAR_FILE + "0 b 7\n"
    with pytest.raises(ModelParseError, match="dangling"):
        parse_dfa(bad)


def test_parse_duplicate_transition():
    bad = A_STAR_FILE + "0 a 0\n"
    with pytest.raises(ModelParseError, match="duplicate"):
        parse_dfa(bad)


def test_parse_duplicate_symbol():
    with pytest.raises(ModelParseError, match="duplicate symbol"):
        parse_dfa("alphabet: a a\nstates: 1\ninitial: 0\n")


def test_parse_missing_initial():
    with pytest.raises(ModelParseError, match="initial"):
        parse_dfa("alphabet: a\nstates: 1\naccepting: 0\n")


@pytest.mark.parametrize("states", [str(MAX_STATES + 1), "9" * 5000])
def test_parse_refuses_a_states_header_over_the_cap_before_building(states):
    # a row per state would take tens of bytes each; the refusal comes first
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=f"line 2: more than {MAX_STATES} states"):
            parse_dfa(f"alphabet: a\nstates: {states}\ninitial: 0\n0 a 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_STATES  # under a byte per state
    d = parse_dfa(f"alphabet: a\nstates: {MAX_STATES}\ninitial: 0\n")
    assert d.state_count == MAX_STATES + 1  # the states and the sink


def test_parse_states_header_takes_decimal_digits_only():
    # "²" is a digit to str.isdigit, but int() refuses it
    with pytest.raises(ModelParseError, match="states header takes one number"):
        parse_dfa("alphabet: a\nstates: ²\ninitial: 0\n")


def test_parse_unknown_symbol_with_line_number():
    bad = A_STAR_FILE + "0 q 0\n"
    with pytest.raises(ModelParseError, match="line 7"):
        parse_dfa(bad)


def test_roundtrip_preserves_language():
    rng = seeded(101)
    for _ in range(100):
        d = random_dfa(rng, rng.randrange(1, 7), rng.randrange(1, 4))
        assert parse_dfa(serialize_dfa(d)) == d


# the example of the README's "File formats"
README_EXAMPLE = """\
# strings of a's, over {a, b}
alphabet: a b
states: 1
initial: 0
accepting: 0
0 a 0
"""

# what a mutation puts in place of a token: comments, colons, signs,
# underscores, non-ASCII digits, a number past int()'s 4300-digit limit
TOKENS = (
    "#", ":", "a:b", "+1", "1_0", "\u0663", "\u00b2", "-1", "9" * 5000, "0", "2", "7", "z", "a", "",
)


def _mutated(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        kind = rng.randrange(6)
        if kind == 0:  # a character put anywhere in the line
            j = rng.randrange(len(line) + 1)
            lines[i] = line[:j] + rng.choice(("#", ":", "\t", " ")) + line[j:]
        elif kind == 1:  # a token replaced
            tokens = line.split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
            lines[i] = rng.choice((" ", "\t")).join(tokens)
        elif kind == 2:  # a duplicate line
            lines.insert(rng.randrange(len(lines) + 1), line)
        elif kind == 3 and len(lines) > 1:  # a missing line
            del lines[i]
        elif kind == 4:  # a line moved to the end, so a header comes late
            lines.append(lines.pop(i))
        else:  # a token appended
            lines[i] = line + " " + rng.choice(TOKENS)
    return "\n".join(lines) + "\n"


# the message of every check of the parser, less its details
CHECKS = {
    "unknown header", "duplicate", "expected", "transitions before alphabet/states headers",
    "missing alphabet/states headers", "empty alphabet", "duplicate symbol in alphabet",
    "states header takes one number", "more than", "need at least one state", "bad state id",
    "state id out of range", "unknown symbol", "dangling transition target",
    "duplicate transition for state", "missing initial state", "initial takes exactly one state",
}


def _outcome(parse, text):
    try:
        return parse(text)
    except LangcardError as exc:
        return type(exc), str(exc)


def test_parse_agrees_with_the_line_parser_on_mutated_files():
    rng = seeded(18)
    seen = set()
    for case in range(10_000):
        if case % 10 == 0:
            text = README_EXAMPLE
        else:
            d = random_dfa(rng, rng.randrange(1, 6), rng.randrange(1, 4))
            if case % 7 == 0:  # a symbol with a colon in its name
                alpha = Alphabet(("a:b",) + d.alphabet.symbols[1:])
                d = Dfa(alpha, d.transitions, d.initial, d.accepting)
            lines = serialize_dfa(d).splitlines()
            body = [line for line in lines[4:] if rng.random() < 0.8]  # a partial table
            rng.shuffle(body)
            text = "\n".join(lines[:4] + body) + "\n"
        text = _mutated(rng, text)
        outcome = _outcome(parse_dfa, text)
        assert outcome == _outcome(parse_dfa_by_lines, text), text
        if isinstance(outcome, Dfa):
            seen.add("a model")
        else:
            seen.add(re.match(r"(line \d+: )?([a-z /]*)", outcome[1])[2].strip())
    # every check of the parser refused some file, and some files parsed
    assert seen == CHECKS | {"a model"}


def test_completion_never_changes_the_language():
    # same automaton with and without the sink spelled out
    explicit = parse_dfa(
        "alphabet: a b\nstates: 2\ninitial: 0\naccepting: 0\n"
        "0 a 0\n0 b 1\n1 a 1\n1 b 1\n"
    )
    implicit = parse_dfa(A_STAR_FILE)
    assert equivalent(implicit, explicit)


def test_accepts_basics():
    d = parse_dfa(A_STAR_FILE)
    assert d.accepts(())
    assert not d.accepts((0, 1))


def test_accepts_signature_true_positive():
    reference, _ = signature_models()
    trace = reference.alphabet.trace_from_names(["a", "b", "c"])
    assert reference.accepts(trace)


def test_complement_of_all_accepting_is_empty():
    d = all_accepting(2)
    comp = complement(d)
    assert comp.state_count == d.state_count
    assert not any(comp.accepts(t) for t in [(), (0,), (1, 0), (0, 0, 1)])


def test_complement_involution():
    rng = seeded(7)
    for _ in range(100):
        d = random_dfa(rng, rng.randrange(1, 7), rng.randrange(1, 4))
        assert equivalent(complement(complement(d)), d)


def test_complement_swaps_membership():
    d = parse_dfa(A_STAR_FILE)
    comp = complement(d)
    assert comp.accepts((1,))
    assert not comp.accepts((0, 0))
    rng = seeded(8)
    for _ in range(200):
        t = random_trace(rng, 2)
        assert comp.accepts(t) != d.accepts(t)


def test_product_identities():
    rng = seeded(9)
    d = random_dfa(rng, 5, 2)
    top = all_accepting(2)
    assert equivalent(d.intersect(top), d)
    empty = d.intersect(complement(d))
    assert all(not empty.accepts(random_trace(rng, 2)) for _ in range(100))


def test_product_membership_oracle():
    rng = seeded(10)
    a = random_dfa(rng, 6, 3)
    b = random_dfa(rng, 5, 3)
    inter = a.intersect(b)
    union = a.union(b)
    for _ in range(1000):
        t = random_trace(rng, 3)
        assert inter.accepts(t) == (a.accepts(t) and b.accepts(t))
        assert union.accepts(t) == (a.accepts(t) or b.accepts(t))


def test_product_table_matches_the_tuple_keyed_oracle():
    rng = seeded(12)
    for _ in range(300):
        n_sym = rng.randint(1, 3)
        a = random_dfa(rng, rng.randint(1, 15), n_sym)
        b = random_dfa(rng, rng.randint(1, 15), n_sym)
        a = Dfa(a.alphabet, a.transitions, rng.randrange(a.state_count), a.accepting)
        assert automata._product_table(a, b) == product_table_oracle(a, b)


def test_product_over_the_states_cap_is_refused(monkeypatch):
    monkeypatch.setattr(automata, "MAX_STATES", 50)
    # cycles of coprime lengths reach every pair: 2 x 25 = 50 fits the cap
    product, _ = confusion_product(cycle(2), cycle(25))
    assert product.state_count == 50
    for a, b in ((7, 8), (3, 17), (50, 51)):
        with pytest.raises(SizeGuardError, match="more than 50 reachable states"):
            confusion_product(cycle(a), cycle(b))
    with pytest.raises(SizeGuardError):
        cycle(7).intersect(cycle(8))


def test_alphabet_mismatch():
    a = all_accepting(2)
    b = all_accepting(3)
    with pytest.raises(AlphabetMismatchError):
        a.intersect(b)


def test_minimize_is_idempotent_and_preserves_language():
    rng = seeded(11)
    for _ in range(50):
        d = random_dfa(rng, rng.randrange(1, 9), rng.randrange(1, 4))
        m = d.minimize()
        assert equivalent(m, d)
        assert m.minimize().state_count == m.state_count
        for _ in range(20):
            t = random_trace(rng, len(d.alphabet))
            assert m.accepts(t) == d.accepts(t)


def test_minimize_ignores_padding_states():
    rng = seeded(12)
    for _ in range(30):
        d = random_dfa(rng, rng.randrange(2, 8), 2)
        padded = d.intersect(all_accepting(2))
        assert padded.minimize().state_count == d.minimize().state_count


@st.composite
def complete_dfas(draw, n_symbols=None, max_states=12):
    """Any complete DFA: arbitrary table, initial state and accepting set."""
    if n_symbols is None:
        n_symbols = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(*[state] * n_symbols), min_size=n, max_size=n))
    return Dfa(Alphabet(SYMS[:n_symbols]), tuple(rows), draw(state), draw(st.frozensets(state)))


@given(complete_dfas())
@settings(max_examples=300, deadline=None)
def test_minimize_properties(d):
    m = d.minimize()
    assert equivalent(m, d)
    assert m.minimize() == m
    assert m == moore_minimize(d)
    assert len(m.reachable_states()) == m.state_count
    started = [Dfa(m.alphabet, m.transitions, q, m.accepting) for q in range(m.state_count)]
    for p in range(m.state_count):
        for q in range(p):
            assert not equivalent(started[p], started[q])


def test_minimize_equals_moore_oracle_on_larger_dfas():
    # uniform tables up to 40 states reach the splits of a waiting block
    # that small drawn examples rarely exercise
    rng = seeded(17)
    for _ in range(1000):
        d = random_dfa(rng, rng.randrange(1, 41), rng.randrange(1, 5), rng.random())
        assert d.minimize() == moore_minimize(d)


@st.composite
def dfa_pairs(draw):
    n_symbols = draw(st.integers(1, 3))
    return draw(complete_dfas(n_symbols, 8)), draw(complete_dfas(n_symbols, 8))


@given(dfa_pairs())
@settings(max_examples=200, deadline=None)
def test_confusion_automata_equal_separately_built_products(pair):
    r, h = pair
    assert confusion_automata(r, h) == (
        r.intersect(h).minimize(),
        complement(r).intersect(h).minimize(),
        r.intersect(complement(h)).minimize(),
    )


def test_minimize_gives_canonical_form():
    # two different automata for a* collapse to the same structure
    v1 = parse_dfa(A_STAR_FILE)
    v2 = parse_dfa(
        "alphabet: a b\nstates: 3\ninitial: 0\naccepting: 0 1\n"
        "0 a 1\n1 a 0\n"
    )
    assert v1.minimize() == v2.minimize()


def test_error_states():
    d = parse_dfa(A_STAR_FILE)
    assert 1 in d.error_states  # the sink
    assert 0 not in d.error_states


def test_error_states_match_bfs_oracle():
    rng = seeded(13)
    for _ in range(100):
        d = random_dfa(rng, rng.randrange(1, 8), rng.randrange(1, 4))

        def reaches_accepting(q):
            seen, todo = {q}, [q]
            while todo:
                cur = todo.pop()
                if cur in d.accepting:
                    return True
                for t in d.transitions[cur]:
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
            return False

        for q in range(d.state_count):
            assert (q in d.error_states) == (not reaches_accepting(q))


def test_confusion_automata_identical_models():
    r, _ = signature_models()
    tp, fp, fn = confusion_automata(r, r)
    assert equivalent(tp, r)
    assert not any(q in fp.accepting for q in range(fp.state_count))
    assert not any(q in fn.accepting for q in range(fn.state_count))


def test_confusion_automata_subset_language_has_no_false_positives():
    # inferred language strictly inside the reference one
    rng = seeded(14)
    for _ in range(20):
        r = random_dfa(rng, 5, 2)
        h = r.intersect(random_dfa(rng, 4, 2))
        _, fp, _ = confusion_automata(r, h)
        assert all(q not in fp.accepting for q in range(fp.state_count))


def test_confusion_partition_counts():
    rng = seeded(15)
    for _ in range(25):
        n_sym = rng.randrange(1, 4)
        r = random_dfa(rng, rng.randrange(1, 6), n_sym)
        h = random_dfa(rng, rng.randrange(1, 6), n_sym)
        tp, fp, fn = confusion_automata(r, h)
        # the traces in neither model: the product's states in no class
        tn = complement(confusion_product(r, h)[0])
        seqs = [count_dp(m, 8) for m in (tp, fp, fn, tn)]
        for n in range(9):
            assert sum(s[n] for s in seqs) == n_sym**n
        # cross-check one of them against explicit enumeration
        brute = enumerate_counts(tp, 6)
        assert brute == count_dp(tp, 6)


def test_confusion_counts_split_the_models():
    rng = seeded(16)
    for _ in range(25):
        n_sym = rng.randrange(1, 4)
        r = random_dfa(rng, rng.randrange(1, 6), n_sym)
        h = random_dfa(rng, rng.randrange(1, 6), n_sym)
        tp, fp, fn = confusion_automata(r, h)
        for n in range(12):
            assert count_dp(tp, 12)[n] + count_dp(fp, 12)[n] == count_dp(h, 12)[n]
            assert count_dp(tp, 12)[n] + count_dp(fn, 12)[n] == count_dp(r, 12)[n]


def test_reindex_to_permuted_alphabet():
    d = parse_dfa(A_STAR_FILE)
    target = Alphabet(("b", "a"))
    swapped = d.reindex_to(target)
    assert swapped.accepts(target.trace_from_names(["a", "a"]))
    assert not swapped.accepts(target.trace_from_names(["b"]))
    with pytest.raises(AlphabetMismatchError):
        d.reindex_to(Alphabet(("a", "c")))


def test_build_dfa_without_missing_pairs_adds_no_sink():
    d = build_dfa(["a"], 1, 0, [0], [(0, "a", 0)])
    assert d.state_count == 1


def test_trace_file_round_trip():
    alpha = Alphabet(("a", "b"))
    text = "a b\n\nb\n# comment\na a a\n"
    traces = parse_traces(text, alpha)
    assert traces == [(0, 1), (), (1,), (0, 0, 0)]
    assert parse_traces(format_traces(traces, alpha), alpha) == traces


def test_trace_file_inline_comments():
    alpha = Alphabet(("a", "b"))
    assert parse_traces("a b # tail note\n  # full comment\n", alpha) == [(0, 1)]


def test_trace_file_unknown_symbol():
    with pytest.raises(ModelParseError, match="line 2"):
        parse_traces("a\nq\n", Alphabet(("a",)))


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", ""))
