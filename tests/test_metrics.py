import tracemalloc
from decimal import Decimal
from fractions import Fraction
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langcard import Alphabet, Dfa, automata, confusion_automata, confusion_product, counting, metrics
from langcard.counting import WorkBudget, coefficients, compute_ogf, count_dp, elimination_ogf
from langcard.errors import ResourceLimitError, SizeGuardError
from langcard.metrics import (
    AssessmentResult,
    AssessmentRow,
    ConfusionCounts,
    assess,
    assessment_csv,
    bounded_jaccard,
    confusion_counts,
    counts_csv,
    cumulative_assessment,
    format_ratio,
    format_value,
    single_length_assessment,
)
from langcard.metrics import _ratio_column
from langcard.regexes import EPSILON, one_of, seq, star, sym, to_dfa

from helpers import (
    all_accepting,
    b_power,
    complement,
    doubled,
    empty_language,
    fraction_rows_csv,
    minimized_confusion_counts,
    random_dfa,
    seeded,
    signature_models,
)


def brute_confusion(r, h, n_max):
    """Classify the whole trace space up to n_max by membership."""
    tp = [0] * (n_max + 1)
    fp = [0] * (n_max + 1)
    fn = [0] * (n_max + 1)

    def visit(qr, qh, depth):
        in_r, in_h = qr in r.accepting, qh in h.accepting
        if in_r and in_h:
            tp[depth] += 1
        elif in_h:
            fp[depth] += 1
        elif in_r:
            fn[depth] += 1
        if depth < n_max:
            for s in r.alphabet:
                visit(r.transitions[qr][s], h.transitions[qh][s], depth + 1)

    visit(r.initial, h.initial, 0)
    return tp, fp, fn


def test_confusion_counts_identical_all_accepting():
    top = all_accepting(2)
    c = confusion_counts(top, top, 3)
    assert list(c.tp) == [1, 2, 4, 8]
    assert list(c.fp) == [0, 0, 0, 0]
    assert list(c.fn) == [0, 0, 0, 0]


def test_confusion_counts_signature_example():
    reference, inferred = signature_models()
    c = confusion_counts(reference, inferred, 20)
    for length in range(2, 21):
        assert c.tp[length] == 5 ** (length - 2)
        assert c.fp[length] == 4 * 5 ** (length - 2)


def test_confusion_counts_match_enumeration():
    rng = seeded(31)
    for _ in range(20):
        n_sym = rng.randrange(1, 4)
        r = random_dfa(rng, rng.randrange(1, 6), n_sym)
        h = random_dfa(rng, rng.randrange(1, 6), n_sym)
        c = confusion_counts(r, h, 8)
        tp, fp, fn = brute_confusion(r, h, 8)
        assert list(c.tp) == tp
        assert list(c.fp) == fp
        assert list(c.fn) == fn


def test_confusion_counts_partition_against_models():
    rng = seeded(32)
    for _ in range(20):
        n_sym = rng.randrange(1, 4)
        r = random_dfa(rng, rng.randrange(1, 7), n_sym)
        h = random_dfa(rng, rng.randrange(1, 7), n_sym)
        c = confusion_counts(r, h, 15)
        h_counts = count_dp(h, 15)
        r_counts = count_dp(r, 15)
        for n in range(16):
            assert c.tp[n] + c.fp[n] == h_counts[n]
            assert c.tp[n] + c.fn[n] == r_counts[n]


@st.composite
def model_pairs(draw):
    """Two random complete DFAs over one alphabet of 1-4 symbols, 1-9 states
    each."""
    n_sym = draw(st.integers(1, 4))
    rng = seeded(draw(st.integers(0, 2**32)))
    r = random_dfa(rng, draw(st.integers(1, 9)), n_sym, draw(st.sampled_from([0.1, 0.4, 0.8])))
    h = random_dfa(rng, draw(st.integers(1, 9)), n_sym, draw(st.sampled_from([0.1, 0.4, 0.8])))
    return r, h


def live_product_states(r, h):
    product, _ = confusion_product(r, h)
    return product.state_count - len(product.error_states)


@given(model_pairs(), st.sampled_from([0, 1, 5, 30, 200]))
@settings(max_examples=150, deadline=None)
def test_one_pass_counts_equal_the_minimized_automata_path(pair, n_max):
    r, h = pair
    c = confusion_counts(r, h, n_max)
    assert (c.tp, c.fp, c.fn) == minimized_confusion_counts(r, h, n_max)


def test_one_pass_counts_agree_with_the_dp_and_node_elimination():
    rng = seeded(42)
    for _ in range(30):
        n_sym = rng.randrange(1, 4)
        r = random_dfa(rng, rng.randrange(1, 7), n_sym)
        h = random_dfa(rng, rng.randrange(1, 7), n_sym)
        c = confusion_counts(r, h, 80)
        for counts, m in zip((c.tp, c.fp, c.fn), confusion_automata(r, h)):
            assert list(counts) == count_dp(m, 80) == coefficients(elimination_ogf(m), 80)


def test_one_pass_counts_keep_the_partition_identities_past_the_dp():
    rng = seeded(43)
    for _ in range(30):
        n_sym = rng.randrange(1, 4)
        r = random_dfa(rng, rng.randrange(1, 7), n_sym)
        h = random_dfa(rng, rng.randrange(1, 7), n_sym)
        n_max = 2 * live_product_states(r, h) + 30
        c = confusion_counts(r, h, n_max)
        r_counts, h_counts = count_dp(r, n_max), count_dp(h, n_max)
        neither = count_dp(complement(confusion_product(r, h)[0]), n_max)  # states in no class
        for n in range(n_max + 1):
            assert c.tp[n] + c.fp[n] == h_counts[n]
            assert c.tp[n] + c.fn[n] == r_counts[n]
            assert c.tp[n] + c.fp[n] + c.fn[n] + neither[n] == n_sym**n


def _counting_solves(monkeypatch):
    """Record the terms and the bound Q every solve receives, and the
    denominator it returns."""
    solved = []
    solve = counting._solve

    def recording(terms, q, *rest):
        given = tuple(terms)  # the pass extends the list once solved
        f = solve(terms, q, *rest)
        solved.append((given, q, f.den))
        return f

    monkeypatch.setattr(counting, "_solve", recording)
    return solved


def _expected_solves(r, h, q):
    """One solve per distinct nonzero prefix a_0..a_{2Q+1} among tp, |L(H)|
    and |L(R)|, in that order, each receiving Q."""
    prefixes = [tuple(count_dp(m, 2 * q + 1)) for m in (r.intersect(h), h, r)]
    return [(p, q) for p in dict.fromkeys(prefixes) if any(p)]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_counts_agree_on_both_sides_of_the_branch_point(monkeypatch, k):
    # R accepts every word over {a, b} and H those whose length is a multiple
    # of k: the product is H's k-cycle with every state live, so Q = k
    r = all_accepting(2)
    h = Dfa(Alphabet(("a", "b")), tuple(((q + 1) % k,) * 2 for q in range(k)), 0, frozenset([0]))
    assert live_product_states(r, h) == k
    solved = _counting_solves(monkeypatch)
    dp_only = confusion_counts(r, h, 2 * k + 1)
    assert solved == []
    recurrence = confusion_counts(r, h, 2 * k + 2)
    # tp is |L(H)|, and for k = 1 also |L(R)|: one solve, or two
    assert [(terms, bound) for terms, bound, _ in solved] == _expected_solves(r, h, k)
    assert len(solved) == (1 if k == 1 else 2)
    tp = tuple(2**n if n % k == 0 else 0 for n in range(2 * k + 3))
    fn = tuple(2**n - t for n, t in enumerate(tp))
    assert (recurrence.tp, recurrence.fp, recurrence.fn) == (tp, (0,) * (2 * k + 3), fn)
    assert (dp_only.tp, dp_only.fp, dp_only.fn) == tuple(
        seq[:-1] for seq in (recurrence.tp, recurrence.fp, recurrence.fn)
    )


def test_random_counts_agree_on_both_sides_of_the_branch_point(monkeypatch):
    rng = seeded(44)
    solved = _counting_solves(monkeypatch)
    for _ in range(30):
        n_sym = rng.randrange(1, 4)
        r = random_dfa(rng, rng.randrange(1, 7), n_sym)
        h = random_dfa(rng, rng.randrange(1, 7), n_sym)
        q = live_product_states(r, h)
        solved.clear()
        dp_only = confusion_counts(r, h, 2 * q + 1)
        assert solved == []
        recurrence = confusion_counts(r, h, 2 * q + 2)
        assert [(terms, bound) for terms, bound, _ in solved] == _expected_solves(r, h, q)
        expected = [count_dp(m, 2 * q + 2) for m in confusion_automata(r, h)]
        assert [list(s) for s in (recurrence.tp, recurrence.fp, recurrence.fn)] == expected
        assert [list(s) for s in (dp_only.tp, dp_only.fp, dp_only.fn)] == [e[:-1] for e in expected]


def _subset_pair(rng):
    r = random_dfa(rng, 6, 2)
    return r, r.intersect(random_dfa(rng, 4, 2))


def _superset_pair(rng):
    r = random_dfa(rng, 6, 2)
    return r, r.union(random_dfa(rng, 4, 2))


def _equal_pair(rng):
    r = random_dfa(rng, 6, 3)
    return r, doubled(r)  # the same language with twice the states


def _random_pair(rng, n_sym=3):
    return random_dfa(rng, rng.randrange(1, 8), n_sym), random_dfa(rng, rng.randrange(1, 8), n_sym)


EDGE_PAIRS = {
    "H in R": _subset_pair,
    "R in H": _superset_pair,
    "H = R": _equal_pair,
    "empty H": lambda rng: (random_dfa(rng, 6, 2), empty_language(2)),
    "empty R": lambda rng: (empty_language(2), random_dfa(rng, 6, 2)),
    "both empty": lambda rng: (empty_language(3), empty_language(3)),
    "one symbol": lambda rng: _random_pair(rng, 1),
    "random": _random_pair,
}


@pytest.mark.parametrize("case", EDGE_PAIRS)
def test_counts_past_the_branch_point_on_edge_pairs(monkeypatch, case):
    rng = seeded(45)
    solved = _counting_solves(monkeypatch)
    for _ in range(8):
        r, h = EDGE_PAIRS[case](rng)
        q = live_product_states(r, h)
        n_max = 2 * q + 25
        solved.clear()
        c = confusion_counts(r, h, n_max)
        assert [(terms, bound) for terms, bound, _ in solved] == _expected_solves(r, h, q)
        tp, fp, fn = r.intersect(h), h.intersect(complement(r)), r.intersect(complement(h))
        assert [list(s) for s in (c.tp, c.fp, c.fn)] == [count_dp(m, n_max) for m in (tp, fp, fn)]
        assert (c.h, c.r) == (tuple(count_dp(h, n_max)), tuple(count_dp(r, n_max)))
        # each recurrence is the canonical one of its language, whatever
        # automaton it was counted on
        dens = {terms: den for terms, _, den in solved}
        for m in (tp, h, r):
            prefix = tuple(count_dp(m, 2 * q + 1))
            if any(prefix):
                assert dens[prefix] == compute_ogf(m).den


def test_single_length_signature_precision():
    reference, inferred = signature_models()
    result = single_length_assessment(confusion_counts(reference, inferred, 40))
    for row in result.per_length:
        if row.n >= 2:
            assert row.precision == Fraction(1, 5)
            assert row.recall == 1


def test_counts_from_denominators_equal_the_counts_they_imply():
    counts = ConfusionCounts((1, 2, 0), (1, 5, 4), (6, 2, 6))
    assert (counts.fp, counts.fn) == ((0, 3, 4), (5, 0, 6))
    same = ConfusionCounts((1, 2, 0), (1, 5, 4), (6, 2, 6))
    assert same == counts and hash(same) == hash(counts)
    assert counts != ConfusionCounts((1, 2, 0), (1, 5, 4), (6, 2, 7))
    with pytest.raises(AttributeError):
        counts.tp = (0, 0, 0)
    with pytest.raises(ValueError):
        ConfusionCounts((1,), (1, 2), (1,))


def test_single_length_zero_over_zero_is_undefined():
    c = ConfusionCounts(tp=(0,), h=(0,), r=(0,))
    row = single_length_assessment(c).per_length[0]
    assert row.precision is None
    assert row.recall is None


def test_cumulative_signature_restricted_content():
    reference, inferred = signature_models()
    c = confusion_counts(reference, inferred, 30)
    for n in range(2, 31):
        c_tp = sum(c.tp[2 : n + 1])
        c_fp = sum(c.fp[2 : n + 1])
        assert Fraction(c_tp, c_tp + c_fp) == Fraction(1, 5)


def test_cumulative_at_zero_for_identical_epsilon_models():
    eps = to_dfa(EPSILON, ("a", "b"))
    result = cumulative_assessment(confusion_counts(eps, eps, 0))
    assert result.cumulative[0] == AssessmentRow(0, Fraction(1), Fraction(1))


def test_cumulative_running_sums():
    rng = seeded(33)
    r = random_dfa(rng, 5, 2)
    h = random_dfa(rng, 5, 2)
    c = confusion_counts(r, h, 12)
    result = cumulative_assessment(c)
    running = 0
    for n, row in enumerate(result.cumulative):
        running += c.tp[n]
        denom = running + sum(c.fp[: n + 1])
        expected = Fraction(running, denom) if denom else None
        assert row.precision == expected


def test_results_are_model_independent():
    rng = seeded(34)
    for _ in range(10):
        r = random_dfa(rng, 5, 2)
        h = random_dfa(rng, 5, 2)
        # a language-equal but structurally different inferred model
        h_variant = h.intersect(all_accepting(2))
        assert assess(confusion_counts(r, h, 12)) == assess(
            confusion_counts(r, h_variant, 12)
        )


def test_defined_values_live_in_unit_interval():
    rng = seeded(35)
    for _ in range(15):
        r = random_dfa(rng, 4, 2)
        h = random_dfa(rng, 4, 2)
        result = assess(confusion_counts(r, h, 10))
        for row in [*result.per_length, *result.cumulative]:
            for value in (row.precision, row.recall):
                assert value is None or 0 <= value <= 1


def test_cumulative_precision_is_weighted_mean_of_single_lengths():
    rng = seeded(36)
    for _ in range(10):
        r = random_dfa(rng, 5, 2)
        h = random_dfa(rng, 5, 2)
        c = confusion_counts(r, h, 10)
        per = single_length_assessment(c).per_length
        cum = cumulative_assessment(c).cumulative
        for n in range(11):
            weights = [(c.tp[i] + c.fp[i]) for i in range(n + 1)]
            if sum(weights) == 0:
                assert cum[n].precision is None
                continue
            mean = sum(
                w * per[i].precision for i, w in enumerate(weights) if w
            ) / sum(weights)
            assert cum[n].precision == mean


def test_empty_false_positive_language_forces_precision_one():
    rng = seeded(37)
    for _ in range(10):
        r = random_dfa(rng, 5, 2)
        h = r.intersect(random_dfa(rng, 4, 2))  # subset of the reference
        _, fp, _ = confusion_automata(r, h)
        assert all(q not in fp.accepting for q in range(fp.state_count))
        result = assess(confusion_counts(r, h, 12))
        for row in [*result.per_length, *result.cumulative]:
            assert row.precision in (None, 1)


def test_bounded_jaccard_identical_models():
    r, _ = signature_models()
    assert bounded_jaccard(r, r, 10) == 0


def test_bounded_jaccard_disjoint_languages():
    a = to_dfa(sym("a"), ("a", "b"))
    b = to_dfa(sym("b"), ("a", "b"))
    assert bounded_jaccard(a, b, 5) == 1


def test_bounded_jaccard_undefined_for_empty_union():
    a = to_dfa(seq(sym("a"), sym("a"), sym("a")), ("a", "b"))
    assert bounded_jaccard(a, a, 1) is None


def test_bounded_jaccard_symmetry():
    rng = seeded(38)
    for _ in range(15):
        r = random_dfa(rng, 5, 2)
        h = random_dfa(rng, 5, 2)
        assert bounded_jaccard(r, h, 9) == bounded_jaccard(h, r, 9)


def test_bounded_jaccard_solves_and_extends_within_one_budget(monkeypatch):
    # the clock stands still but in the two solves, each of which spends 0.8
    # of the 1 s budget: a deadline started afresh by each call would hold,
    # while the one deadline has passed by the second extension's check
    now = [0.0]
    solve = metrics.compute_ogf

    def compute_ogf(*args):
        result = solve(*args)
        now[0] += 0.8
        return result

    monkeypatch.setattr(metrics, "compute_ogf", compute_ogf)
    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=lambda: now[0]))
    reference, inferred = signature_models()
    with pytest.raises(ResourceLimitError, match="^extending: "):
        bounded_jaccard(reference, inferred, 10, WorkBudget(time_limit_s=1.0))


def test_bounded_jaccard_refuses_a_horizon_before_building_a_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(automata, "confusion_product", refuse)
    even = Dfa(Alphabet(("a", "b")), ((1, 1), (0, 0)), 0, frozenset([0]))
    with pytest.raises(SizeGuardError, match="^counting to length 60000 over an alphabet of 2 "):
        bounded_jaccard(all_accepting(2), even, 60_000)


def test_format_value():
    assert format_value(Fraction(1, 5)) == "0.200000"
    assert format_value(None) == "undefined"
    assert format_value(Fraction(2, 3), 3) == "0.667"
    assert format_value(Fraction(1), 2) == "1.00"


def test_format_ratio_rounds_half_to_even():
    assert format_ratio(1, 8, 2) == "0.12"  # 0.125, tie to the even 12
    assert format_ratio(3, 8, 2) == "0.38"  # 0.375, tie to the even 38
    assert format_ratio(-1, 8, 2) == "-0.12"
    assert format_ratio(-3, 8, 2) == "-0.38"
    assert format_ratio(1, 3, 2) == "0.33"
    assert format_ratio(-1, 300, 2) == "0.00"  # rounds to zero: no sign
    assert [format_ratio(k, 2, 0) for k in (1, 3, 5, -1, -3)] == ["0", "2", "2", "0", "-2"]
    assert format_ratio(7, 1, 0) == "7"
    assert format_ratio(0, 0, 3) == "undefined"
    assert format_ratio(5, 0, 0) == "undefined"


def test_ratio_column_leaves_undefined_cells_between_defined_ones():
    column = _ratio_column([1, 0, 5, 2, 0, 7], [3, 0, 0, 4, 9, 0], 3)
    assert column == ["0.333", "undefined", "undefined", "0.500", "0.000", "undefined"]
    assert _ratio_column([], [], 6) == []


def test_ratio_column_formats_each_rounded_value_once():
    # 1/3, 2/6 and 333333/10^6 all round to 333333 millionths
    column = _ratio_column([1, 2, 333333, 1], [3, 6, 10**6, 2], 6)
    assert column == ["0.333333"] * 3 + ["0.500000"]
    assert column[0] is column[1] is column[2]
    # -1/300 and 0/5 both round to zero, which has no sign; -1/8 keeps its own
    column = _ratio_column([-1, 0, 1, -1, 1], [300, 5, 8, 8, 8], 2)
    assert column == ["0.00", "0.00", "0.12", "-0.12", "0.12"]


def test_ratio_column_breaks_large_exact_ties_to_even():
    half = 2**3001
    column = _ratio_column([(2 * k + 1) * 2**3000 for k in range(6)], [half] * 6, 0)
    assert column == ["0", "2", "2", "4", "4", "6"]
    negative = _ratio_column([-(2 * k + 1) * 2**3000 for k in range(4)], [half] * 4, 0)
    assert negative == ["0", "-2", "-2", "-4"]
    # the same ties in the last of six decimal places
    column = _ratio_column([(2 * k + 1) * 2**3000 for k in range(4)], [half * 10**6] * 4, 6)
    assert column == ["0.000000", "0.000002", "0.000002", "0.000004"]
    # one unit past a tie rounds up, whatever the parity
    assert _ratio_column([2**3000 + 1], [half], 0) == ["1"]


_COUNT = st.one_of(st.just(0), st.integers(0, 9), st.integers(2**3000, 2**3100))


_ASSESSMENTS = {
    "single": single_length_assessment,
    "cumulative": cumulative_assessment,
    "both": assess,
}


def _window(counts, mode, lo, hi, max_length):
    """The rows ``assess --mode MODE --range LO..HI --max-length M`` writes."""
    result = _ASSESSMENTS[mode](counts)
    if result.per_length is not None:
        result.per_length = result.per_length[lo : hi + 1]
    if result.cumulative is not None:
        result.cumulative = result.cumulative[: max_length + 1]
    return result


@settings(max_examples=150, deadline=None)
@given(
    triples=st.lists(st.tuples(_COUNT, _COUNT, _COUNT), min_size=1, max_size=12),
    mode=st.sampled_from(("single", "cumulative", "both")),
    window=st.tuples(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14)),
    digits=st.integers(0, 12),
)
def test_assessment_csv_equals_fraction_row_oracle(triples, mode, window, digits):
    tp, fp, fn = (tuple(column) for column in zip(*triples))
    counts = ConfusionCounts(tp, tuple(map(add, tp, fp)), tuple(map(add, tp, fn)))
    lo, width, max_length = window
    hi = lo + width
    text = assessment_csv(_window(counts, mode, lo, hi, max_length), digits)
    assert text == fraction_rows_csv(counts, digits, mode, lo, hi, max_length)


@pytest.fixture(scope="module")
def long_horizon_counts():
    """A seeded sigma=3 pair counted to n = 1450: counts of about 2,200 bits."""
    rng = seeded(40)
    counts = confusion_counts(random_dfa(rng, 6, 3), random_dfa(rng, 6, 3), 1450)
    assert min(c[1400].bit_length() for c in (counts.tp, counts.fp, counts.fn)) > 2100
    return counts


@pytest.mark.parametrize("digits", [0, 6, 40])
@pytest.mark.parametrize("mode", sorted(_ASSESSMENTS))
def test_assessment_csv_equals_the_oracle_at_bench_scale(long_horizon_counts, mode, digits):
    # assess --mode MODE --max-length 1400 --range 700..1450
    lo, hi, max_length = 700, 1450, 1400
    text = assessment_csv(_window(long_horizon_counts, mode, lo, hi, max_length), digits)
    assert text == fraction_rows_csv(long_horizon_counts, digits, mode, lo, hi, max_length)


def test_assessment_csv_reads_stepped_and_reversed_views():
    rng = seeded(42)
    counts = confusion_counts(random_dfa(rng, 5, 3), random_dfa(rng, 5, 3), 20)
    cells = [line.split(",") for line in assessment_csv(assess(counts), 4).splitlines()[1:]]
    und = ["undefined"] * 2
    for part in ("per_length", "cumulative"):
        rows = getattr(assess(counts), part)
        for view in (rows[::-1], rows[::3], rows[18:2:-4], rows[5:5]):
            written = assessment_csv(AssessmentResult(counts, **{part: view}), 4)
            kept = [cells[n][1:3] + und if part == "per_length" else und + cells[n][3:]
                    for n in sorted(view.ns)]
            assert written.splitlines()[1:] == [
                ",".join([str(n), *row]) for n, row in zip(sorted(view.ns), kept)
            ]


def test_assessment_csv_of_whole_results():
    rng = seeded(39)
    r = random_dfa(rng, 5, 3)
    h = random_dfa(rng, 5, 3)
    counts = confusion_counts(r, h, 30)
    for mode, assessment in _ASSESSMENTS.items():
        assert assessment_csv(assessment(counts)) == fraction_rows_csv(counts, mode=mode)


def test_row_views_slice_like_lists():
    rng = seeded(40)
    counts = confusion_counts(random_dfa(rng, 5, 2), random_dfa(rng, 5, 2), 12)
    result = assess(counts)
    for rows in (result.per_length, result.cumulative):
        listed = list(rows)
        assert [row.n for row in listed] == list(range(13))
        for window in (slice(3, 8), slice(None, 5), slice(10, 40), slice(None, None, -3)):
            assert rows[window] == listed[window]
            assert len(rows[window]) == len(listed[window])
        assert rows[-1] == listed[-1]
    c_tp, c_fp, c_fn = map(sum, (counts.tp, counts.fp, counts.fn))
    assert result.cumulative[-1] == AssessmentRow(
        12, Fraction(c_tp, c_tp + c_fp), Fraction(c_tp, c_tp + c_fn)
    )


def test_assessment_csv_builds_no_fraction(monkeypatch):
    rng = seeded(41)
    counts = confusion_counts(random_dfa(rng, 5, 2), random_dfa(rng, 5, 2), 20)
    expected = fraction_rows_csv(counts, 4, "both", 5, 20, 9)

    def refuse(*args):
        raise AssertionError("the CSV path built a Fraction")

    monkeypatch.setattr("langcard.metrics.Fraction", refuse)
    result = _window(counts, "both", 5, 20, 9)
    assert (len(result.per_length), len(result.cumulative)) == (16, 10)
    assert assessment_csv(result, 4) == expected


def test_assessment_csv_reads_only_the_counted_triple():
    rng = seeded(41)
    counts = confusion_counts(random_dfa(rng, 5, 2), random_dfa(rng, 5, 2), 20)
    assert assessment_csv(assess(counts)) == fraction_rows_csv(
        ConfusionCounts(counts.tp, counts.h, counts.r)
    )
    assert "fp" not in vars(counts) and "fn" not in vars(counts)


def test_assessment_csv_layout():
    reference, inferred = signature_models()
    result = assess(confusion_counts(reference, inferred, 4))
    text = assessment_csv(result)
    lines = text.strip().splitlines()
    assert lines[0] == "n,precision_eq,recall_eq,precision_le,recall_le"
    assert lines[2] == "1,undefined,undefined,1.000000,1.000000"
    assert lines[4].startswith("3,0.200000,1.000000,")


def _late_fp_pair(rng):
    """H is R plus the one trace b^12, which R rejects: H has a false
    positive first at length 12, and R is inside H below it."""
    late = b_power(12, 2)
    r = random_dfa(rng, 6, 2).intersect(complement(late))
    return r, r.union(late)


COLUMN_PAIRS = {
    **EDGE_PAIRS,
    "fp from 12": _late_fp_pair,
    "fn from 12": lambda rng: _late_fp_pair(rng)[::-1],
}


def ratio_cells_csv(counts, digits, mode, lo, hi, max_length):
    """The CSV of ``assess --mode MODE --range LO..HI --max-length M``, a
    cell at a time from ``format_ratio`` on the counts and their running
    sums: never a column at a time, so never a constant column."""
    rows = {}
    for n in range(counts.max_length + 1):
        cells = ["undefined"] * 4
        if mode != "cumulative" and lo <= n <= hi:
            cells[:2] = (format_ratio(counts.tp[n], counts.h[n], digits),
                         format_ratio(counts.tp[n], counts.r[n], digits))
        if mode != "single" and n <= max_length:
            tp, h, r = (sum(seq[: n + 1]) for seq in (counts.tp, counts.h, counts.r))
            cells[2:] = format_ratio(tp, h, digits), format_ratio(tp, r, digits)
        if mode != "cumulative" and lo <= n <= hi or mode != "single" and n <= max_length:
            rows[n] = ",".join([str(n), *cells])
    return "\n".join(["n,precision_eq,recall_eq,precision_le,recall_le", *rows.values()]) + "\n"


@pytest.mark.parametrize("case", COLUMN_PAIRS)
def test_constant_columns_equal_the_cell_by_cell_oracle(case):
    rng = seeded(46)
    for _ in range(6):
        r, h = COLUMN_PAIRS[case](rng)
        counts = confusion_counts(r, h, 30)
        for mode in _ASSESSMENTS:
            # (lo, hi, max_length): whole, windows starting above 0, one row
            for lo, hi, max_length in ((0, 30, 30), (3, 20, 14), (13, 30, 25), (12, 12, 0)):
                for digits in (0, 1, 6):
                    text = assessment_csv(_window(counts, mode, lo, hi, max_length), digits)
                    assert text == ratio_cells_csv(counts, digits, mode, lo, hi, max_length)


def test_late_false_positives_leave_no_column_constant():
    counts = confusion_counts(*_late_fp_pair(seeded(46)), 30)
    assert counts.fp.index(1) == 12 and not any(counts.fn)
    lines = assessment_csv(single_length_assessment(counts)).splitlines()
    assert lines[13].split(",")[1] != "1.000000"


def _divided_columns(monkeypatch):
    """The columns ``assessment_csv`` divides cell by cell, by length."""
    divided = []
    divide = metrics._ratio_column

    def recording(nums, dens, digits):
        column = divide(nums, dens, digits)
        divided.append(len(column))
        return column

    monkeypatch.setattr(metrics, "_ratio_column", recording)
    return divided


def test_constant_columns_are_written_without_a_division(monkeypatch):
    reference, inferred = signature_models()  # R inside H: recall is constant
    other = to_dfa(star(one_of("a", "c")), reference.alphabet.symbols)  # neither way
    divided = _divided_columns(monkeypatch)
    for (r, h), columns in (((reference, reference), 0), ((inferred, reference), 2),
                            ((reference, inferred), 2), ((reference, other), 4)):
        counts = confusion_counts(r, h, 40)
        expected = ratio_cells_csv(counts, 6, "both", 0, 40, 40)
        divided.clear()
        assert assessment_csv(assess(counts)) == expected
        assert divided == [41] * columns


def test_counts_csv():
    assert counts_csv([1, 2, 4]) == "length,count\n0,1\n1,2\n2,4\n"


def test_counts_csv_holds_its_text_about_twice_at_most():
    # the lines and their one join; a second copy of the whole text, as a
    # join and then a newline appended to it make, would pass 3x
    counts = [Decimal(4**n) for n in range(2001)]
    tracemalloc.start()
    try:
        text = counts_csv(counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.endswith(f"\n2000,{counts[-1]}\n")
    assert peak < 2.5 * len(text)
