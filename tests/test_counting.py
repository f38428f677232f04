import ast
import decimal
import math
import pathlib
from decimal import Decimal
from types import SimpleNamespace

import pytest

import langcard
from langcard import Alphabet, Dfa, counting, polynomials
from langcard.automata import confusion_automata, confusion_product, serialize_dfa
from langcard.cli import main
from langcard.counting import (
    FINAL,
    INITIAL,
    LabeledDigraph,
    WorkBudget,
    _berlekamp_massey_mod,
    coefficients,
    compute_ogf,
    count_by_class,
    count_dp,
    digraph_construction,
    elimination_ogf,
)
from langcard.errors import (
    DivergentStarError,
    NonIntegerCoefficientError,
    ResourceLimitError,
    ZeroConstantDenominatorError,
)
from langcard.metrics import counts_csv
from langcard.polynomials import ONE_POLY, Polynomial, RationalFunction
from langcard.regexes import seq, sym, to_dfa

from helpers import (
    all_accepting,
    binary_tree,
    complement,
    doubled,
    empty_language,
    enumerate_counts,
    random_dfa,
    random_finite_dfa,
    berlekamp_massey_mod_oracle,
    seeded,
    signature_models,
)

GEO2 = RationalFunction(ONE_POLY, Polynomial([1, -2]))  # 1/(1-2z)


def test_digraph_of_one_state_all_accepting():
    g, initial, final = digraph_construction(all_accepting(2))
    assert g.label(initial, 0) == RationalFunction.from_int(1)
    assert g.label(0, 0) == RationalFunction(Polynomial([0, 2]))
    assert g.label(0, final) == RationalFunction.from_int(1)
    assert len(g.labels) == 3


def test_digraph_without_accepting_states_has_no_final_edge():
    g, _, final = digraph_construction(empty_language(2))
    assert not any(v == final for (_, v) in g.labels)


def test_digraph_outgoing_weights_cover_the_alphabet():
    rng = seeded(20)
    for _ in range(30):
        n_sym = rng.randrange(1, 4)
        d = random_dfa(rng, rng.randrange(1, 7), n_sym)
        g, _, _ = digraph_construction(d)
        for q in range(d.state_count):
            weights = sum(
                g.label(q, t).num.coeffs[1]
                for t in range(d.state_count)
                if not g.label(q, t).is_zero
            )
            assert weights == n_sym


def test_eliminate_chain_node_concatenates_labels():
    g = LabeledDigraph()
    for n in (INITIAL, FINAL, 0):
        g.add_node(n)
    f = RationalFunction(Polynomial([0, 3]))
    h = RationalFunction(Polynomial([1, 1]))
    g.set_label(INITIAL, 0, f)
    g.set_label(0, FINAL, h)
    g.eliminate(0)
    assert g.label(INITIAL, FINAL) == f * h


def test_eliminate_self_loop_introduces_geometric_series():
    g = LabeledDigraph()
    for n in (INITIAL, FINAL, 0):
        g.add_node(n)
    one = RationalFunction.from_int(1)
    g.set_label(INITIAL, 0, one)
    g.set_label(0, 0, RationalFunction(Polynomial([0, 2])))
    g.set_label(0, FINAL, one)
    g.eliminate(0)
    assert g.label(INITIAL, FINAL) == GEO2


def test_eliminate_rejects_endpoints():
    g, _, _ = digraph_construction(all_accepting(2))
    with pytest.raises(ValueError):
        g.eliminate(INITIAL)


def test_eliminate_divergent_self_loop():
    g = LabeledDigraph()
    for n in (INITIAL, FINAL, 0):
        g.add_node(n)
    g.set_label(INITIAL, 0, RationalFunction.from_int(1))
    g.set_label(0, 0, RationalFunction.from_int(1))
    g.set_label(0, FINAL, RationalFunction.from_int(1))
    with pytest.raises(DivergentStarError):
        g.eliminate(0)


def test_compute_ogf_ground_truths():
    assert compute_ogf(all_accepting(2)) == GEO2
    # epsilon only
    eps = to_dfa(seq(), ("a", "b"))
    assert compute_ogf(eps) == RationalFunction.from_int(1)
    assert compute_ogf(empty_language(2)) == RationalFunction.from_int(0)


def test_compute_ogf_matches_dp_oracle():
    rng = seeded(21)
    for _ in range(100):
        d = random_dfa(rng, rng.randrange(1, 13), rng.randrange(1, 5))
        assert coefficients(compute_ogf(d), 60) == count_dp(d, 60)


def test_count_dp_matches_enumeration():
    rng = seeded(22)
    for _ in range(40):
        d = random_dfa(rng, rng.randrange(1, 7), rng.randrange(1, 4))
        assert count_dp(d, 8) == enumerate_counts(d, 8)


def test_count_dp_ground_truths():
    assert count_dp(all_accepting(2), 5) == [1, 2, 4, 8, 16, 32]
    assert count_dp(empty_language(3), 4) == [0] * 5


def test_elimination_order_invariance():
    rng = seeded(23)
    for _ in range(30):
        d = random_dfa(rng, rng.randrange(2, 10), rng.randrange(1, 4))
        reference = compute_ogf(d)
        for _ in range(5):
            order = list(range(d.state_count))
            rng.shuffle(order)
            assert elimination_ogf(d, order=order) == reference


def _model_and_shuffled_order(seed):
    rng = seeded(seed)
    d = random_dfa(rng, rng.randrange(8, 14), rng.randrange(2, 4))
    order = list(range(d.state_count))
    rng.shuffle(order)
    return d, order


@pytest.mark.parametrize("seed", [85, 92, 94, 98])
def test_elimination_in_its_own_and_a_shuffled_order_equals_compute_ogf(seed):
    d, order = _model_and_shuffled_order(seed)
    for given in (None, order):
        assert elimination_ogf(d, order=given) == compute_ogf(d)


@pytest.mark.parametrize("reverse", [False, True])
def test_elimination_order_is_the_least_key_whatever_order_the_nodes_come_in(
    monkeypatch, reverse
):
    d, _ = _model_and_shuffled_order(98)
    eliminated = []
    eliminate, interior_nodes = LabeledDigraph.eliminate, LabeledDigraph.interior_nodes

    def recording(g, n):
        eliminated.append(n)
        return eliminate(g, n)

    monkeypatch.setattr(LabeledDigraph, "eliminate", recording)
    if reverse:
        monkeypatch.setattr(LabeledDigraph, "interior_nodes", lambda g: interior_nodes(g)[::-1])
    elimination_ogf(d)
    # ties on self-loop degree and pair count go to the lower node id
    assert eliminated == [2, 8, 9, 1, 3, 4, 6, 5, 0, 7]


def test_coefficients_of_geometric_series():
    assert coefficients(GEO2, 4) == [1, 2, 4, 8, 16]


def test_coefficients_of_zero():
    assert coefficients(RationalFunction.from_int(0), 6) == [0] * 7


def test_coefficients_of_signature_true_positives():
    reference, inferred = signature_models()
    tp = reference.intersect(inferred).minimize()
    counts = coefficients(compute_ogf(tp), 30)
    assert counts == count_dp(tp, 30)
    for length in range(2, 31):
        assert counts[length] == 5 ** (length - 2)


def test_coefficients_need_nonzero_constant_denominator():
    f = RationalFunction(ONE_POLY, Polynomial([0, 1]))  # 1/z
    with pytest.raises(ZeroConstantDenominatorError):
        coefficients(f, 3)


def test_coefficients_flag_non_integer_series():
    f = RationalFunction(ONE_POLY, Polynomial([2, -1]))  # 1/(2-z): 1/2, 1/4, ...
    with pytest.raises(NonIntegerCoefficientError):
        coefficients(f, 3)


def test_complement_counts_sum_to_alphabet_power():
    rng = seeded(24)
    for _ in range(30):
        n_sym = rng.randrange(1, 4)
        d = random_dfa(rng, rng.randrange(1, 7), n_sym)
        a = coefficients(compute_ogf(d), 25)
        b = coefficients(compute_ogf(complement(d)), 25)
        assert all(x + y == n_sym**n for n, (x, y) in enumerate(zip(a, b)))


def test_counts_are_bounded_by_alphabet_power():
    rng = seeded(25)
    for _ in range(30):
        n_sym = rng.randrange(1, 4)
        d = random_dfa(rng, rng.randrange(1, 7), n_sym)
        for n, c in enumerate(coefficients(compute_ogf(d), 20)):
            assert 0 <= c <= n_sym**n


def test_time_budget_is_enforced():
    rng = seeded(26)
    d = random_dfa(rng, 30, 2)
    with pytest.raises(ResourceLimitError):
        compute_ogf(d, WorkBudget(time_limit_s=0.0))


def test_compute_ogf_solves_an_unminimized_tree_to_its_degree_7_ogf():
    d = binary_tree(7)
    assert d.state_count == 256
    tree_ogf = RationalFunction(Polynomial([2**n for n in range(8)]))
    assert compute_ogf(d) == tree_ogf


def _clock_jumping_after(monkeypatch, n_readings):
    """Fake clock: 0 for the first ``n_readings`` readings, then 2."""
    readings = []

    def monotonic():
        readings.append(None)
        return 0.0 if len(readings) <= n_readings else 2.0

    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    return readings


@pytest.mark.parametrize("stage", ["counting terms", "berlekamp-massey", "exact check"])
def test_deadline_is_checked_inside_every_bm_stage(monkeypatch, stage):
    d = random_dfa(seeded(31), 40, 2, accept_p=0.5).minimize()
    q = d.state_count
    assert not d.error_states and q > 12
    # readings: 1 sets the deadline, then one per step: 2q + 1 DP steps,
    # 2q + 2 Berlekamp-Massey steps for the first prime, q + 2 checked
    # coefficients; the clock passes the deadline halfway through a stage
    jump = {
        "counting terms": 1 + q,
        "berlekamp-massey": 1 + (2 * q + 1) + q,
        "exact check": 1 + (2 * q + 1) + (2 * q + 2) + 1,
    }[stage]
    readings = _clock_jumping_after(monkeypatch, jump)
    with pytest.raises(ResourceLimitError, match=stage):
        compute_ogf(d, WorkBudget(time_limit_s=1.0))
    assert len(readings) == jump + 1  # the first late reading raised


def test_deadline_message_gives_the_limit_as_configured(monkeypatch):
    _clock_jumping_after(monkeypatch, 1)
    with pytest.raises(ResourceLimitError, match=r"exceeded 0\.05 s$"):
        compute_ogf(all_accepting(2), WorkBudget(time_limit_s=0.05))


def test_only_the_work_budget_and_main_read_the_clock():
    # a stage that reads the clock itself starts a deadline of its own; the
    # one clock is the command's WorkBudget, and main times the manifest
    readers = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute) and child.attr == "monotonic"
                or isinstance(child, ast.Name) and child.id == "monotonic"
                or isinstance(child, ast.alias) and child.name.endswith("monotonic")
            ):
                readers.append((path.name, scope))
            if scope is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, child.name)  # scope: the top-level definition
            else:
                visit(child, path, scope)

    for path in sorted(pathlib.Path(langcard.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert sorted(readers) == [
        ("cli.py", "main"),  # the start of the manifest's duration_s
        ("cli.py", "main"),  # and its end
        ("counting.py", "WorkBudget"),  # the budget's start
        ("counting.py", "WorkBudget"),  # check
    ]


def _readings_when_time_stands_still(monkeypatch, run):
    readings = _clock_jumping_after(monkeypatch, math.inf)
    run()
    return len(readings)


def _checks(steps):
    """Deadline readings of an extension of ``steps`` steps."""
    return -(-steps // counting._STEPS_PER_CHECK)


@pytest.mark.parametrize("number", [int, Decimal])
def test_coefficients_check_the_deadline_while_extending(monkeypatch, number):
    f = compute_ogf(all_accepting(2))

    def extend():
        return coefficients(f, 300, WorkBudget(time_limit_s=1.0), number=number)

    readings = _readings_when_time_stands_still(monkeypatch, extend)
    assert readings == 1 + _checks(301)  # the budget started, then a check per block
    _clock_jumping_after(monkeypatch, readings - 1)
    with pytest.raises(ResourceLimitError, match=r"^extending: .* exceeded 1\.0 s$"):
        extend()


def test_count_by_class_checks_the_deadline_while_extending(monkeypatch):
    rng = seeded(60)
    product, (tp, fp, fn) = confusion_product(random_dfa(rng, 5, 2), random_dfa(rng, 5, 2))
    top = 2 * counting._live_count(product) + 1  # the DP alone answers up to here

    def count(steps=200):
        budget = WorkBudget(time_limit_s=1.0)
        return count_by_class(product, (tp, tp | fp, tp | fn), top + steps, budget)

    # the three sequences are distinct and nonzero, so each is extended
    counted = count()
    assert len(set(map(tuple, counted))) == 3 and all(map(any, counted))
    readings = _readings_when_time_stands_still(monkeypatch, count)
    one_step = _readings_when_time_stands_still(monkeypatch, lambda: count(1))
    assert readings - one_step == 3 * (_checks(200) - _checks(1))
    _clock_jumping_after(monkeypatch, readings - 1)
    with pytest.raises(ResourceLimitError, match="^extending: "):
        count()


@pytest.mark.parametrize("command", ["count", "assess"])
def test_cli_past_its_deadline_while_extending_exits_3(tmp_path, monkeypatch, capsys, command):
    reference, inferred = signature_models()
    paths = []
    for name, model in (("r", reference), ("h", inferred))[: 1 + (command == "assess")]:
        paths.append(tmp_path / f"{name}.dfa")
        paths[-1].write_text(serialize_dfa(model))
    out = tmp_path / "o.csv"
    argv = [command, *map(str, paths), "--max-length", "300", "--time-limit", "1"]
    argv += ["--out", str(out)]
    readings = _readings_when_time_stands_still(monkeypatch, lambda: main(argv))
    out.unlink()
    (tmp_path / "o.csv.manifest.json").unlink()
    _clock_jumping_after(monkeypatch, readings - 1)
    assert main(argv) == 3
    assert "resource limit: extending: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)


def test_decimal_coefficients_are_the_int_coefficients():
    rng = seeded(62)
    models = [random_dfa(rng, rng.randrange(1, 8), rng.randrange(1, 4)) for _ in range(60)]
    models += [all_accepting(1), all_accepting(4), doubled(all_accepting(3))]
    for d in models:
        f = compute_ogf(d)
        for n_max in (0, 1, rng.randrange(2, 300)):
            ints = coefficients(f, n_max)
            decimals = coefficients(f, n_max, number=Decimal)
            assert all(type(a) is Decimal for a in decimals)
            assert decimals == ints
            # no exponent, no -0: the text of each is the int's
            assert list(map(str, decimals)) == list(map(str, ints))
    # a series that is not a language's fails the same way for both
    halves = RationalFunction(Polynomial([1]), Polynomial([2, -1]))
    for number in (int, Decimal):
        with pytest.raises(NonIntegerCoefficientError, match="coefficient 0"):
            coefficients(halves, 3, number=number)


def test_decimal_coefficients_raise_rather_than_round(monkeypatch):
    exact = counting._EXACT
    assert (exact.prec, exact.Emax, exact.Emin) == (
        decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
    )
    small = exact.copy()
    small.prec = 5
    monkeypatch.setattr(counting, "_EXACT", small)
    fours = compute_ogf(all_accepting(4))
    # 4^8 = 65536 has five digits; 4^9 = 262144 would be rounded
    assert coefficients(fours, 8, number=Decimal) == [4**n for n in range(9)]
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        coefficients(fours, 9, number=Decimal)
    # 10^5 fits five digits only as 1E+5, which the exact context refuses too
    tens = RationalFunction(ONE_POLY, Polynomial([1, -10]))  # 1/(1-10z)
    with pytest.raises(decimal.Rounded):
        coefficients(tens, 5, number=Decimal)


def test_count_writes_the_integer_coefficients(tmp_path, capsys):
    rng = seeded(63)
    models = [random_dfa(rng, rng.randrange(1, 7), rng.randrange(1, 4)) for _ in range(30)]
    # zero counts at some lengths, all of them, or past the longest trace
    models += [empty_language(2), all_accepting(1)]
    models += [random_finite_dfa(rng, rng.randrange(2, 8), rng.randrange(1, 4)) for _ in range(10)]
    model, out = tmp_path / "m.dfa", tmp_path / "c.csv"
    for d in models:
        model.write_text(serialize_dfa(d))
        f = compute_ogf(d)
        for n_max in (0, rng.randrange(1, 120)):
            argv = ["count", str(model), "--max-length", str(n_max), "--out", str(out)]
            assert main(argv) == 0
            assert capsys.readouterr().out == f"OGF: {f}\n"
            assert out.read_text() == counts_csv(coefficients(f, n_max))


def _unbounded():
    """A deadline check that never raises."""


def test_berlekamp_massey_mod_finds_the_shortest_recurrence():
    p = 2147483647
    # Fibonacci: a_n = a_{n-1} + a_{n-2}
    fib = [1, 1]
    for _ in range(10):
        fib.append(fib[-1] + fib[-2])
    assert _berlekamp_massey_mod(fib, p, _unbounded) == ([1, p - 1, p - 1], 2)
    assert _berlekamp_massey_mod([0] * 6, p, _unbounded) == ([1], 0)
    # epsilon only: a_n = 0 for n >= 1 is a recurrence of length 1
    assert _berlekamp_massey_mod([1, 0, 0, 0], p, _unbounded)[1] == 1


@pytest.mark.parametrize("p", [polynomials._PRIMES[0], 2**31 - 1, 2, 3])
def test_berlekamp_massey_mod_matches_the_oracle(p):
    # the first prime keeps residues in one CPython digit
    assert polynomials._PRIMES[0] < 2**30
    rng = seeded(61)
    seqs = [[rng.randrange(p) for _ in range(rng.randrange(30))] for _ in range(150)]
    # mostly zero, so most discrepancies vanish
    seqs += [[rng.randrange(p) * (rng.random() < 0.2) for _ in range(25)] for _ in range(50)]
    # language counts, with recurrences far shorter than the sequence
    for _ in range(100):
        d = random_dfa(rng, rng.randrange(1, 9), rng.randrange(1, 4))
        seqs.append([a % p for a in count_dp(d, rng.randrange(40))])
    for s in seqs:
        assert _berlekamp_massey_mod(s, p, _unbounded) == berlekamp_massey_mod_oracle(s, p)


def test_bm_engine_survives_unlucky_primes_and_rejected_candidates(monkeypatch):
    # {a, b, c}* d* has 1/((1 - 3z)(1 - z)) as its OGF, and its counts
    # (3^(n+1) - 1)/2 are all 1 mod 3: a shorter recurrence than over the
    # integers, so the prime 3 is unlucky and the CRT must restart.  All words
    # over {a, b, c} number 3^n, 0 mod 3 for n >= 1: the length is right but
    # the lift is the candidate 1, which the exact check must reject.
    abc_then_d = Dfa(
        Alphabet(("a", "b", "c", "d")),
        ((0, 0, 0, 1), (2, 2, 2, 1), (2, 2, 2, 2)),
        0,
        frozenset({0, 1}),
    )
    everything = all_accepting(3)
    residues = [a % 3 for a in count_dp(abc_then_d, 7)]
    assert _berlekamp_massey_mod(residues, 3, _unbounded) == ([1, 2], 1)
    residues = [a % 3 for a in count_dp(everything, 3)]
    assert _berlekamp_massey_mod(residues, 3, _unbounded) == ([1, 0], 1)
    expected = [elimination_ogf(d) for d in (abc_then_d, everything)]
    assert expected[0] == RationalFunction(ONE_POLY, Polynomial([1, -4, 3]))
    # a tiny prime in front of the real ones; the list must keep its tail,
    # since new primes are found by counting down from the last entry
    monkeypatch.setattr(polynomials, "_PRIMES", [3] + polynomials._PRIMES)
    # a lift that never settles fails on the budget instead of hanging
    budget = WorkBudget(time_limit_s=10.0)
    assert [compute_ogf(d, budget) for d in (abc_then_d, everything)] == expected
    rng = seeded(29)
    for _ in range(30):
        d = random_dfa(rng, rng.randrange(1, 10), rng.randrange(1, 4))
        assert compute_ogf(d, budget) == elimination_ogf(d)


def test_bm_results_are_built_without_a_gcd(monkeypatch, tmp_path, capsys):
    rng = seeded(32)
    models = [random_dfa(rng, rng.randrange(1, 10), rng.randrange(1, 4)) for _ in range(20)]
    models += [doubled(d) for d in models[:5]]
    expected = [elimination_ogf(d) for d in models]
    reference, inferred = signature_models()
    product, classes = confusion_product(reference, inferred)
    n_max = 2 * product.state_count + 20  # past 2Q + 1, so each class is solved
    oracle = [count_dp(d, n_max) for d in confusion_automata(reference, inferred)]
    model = tmp_path / "m.dfa"
    model.write_text(serialize_dfa(models[0]))

    def refuse(a, b):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(polynomials, "poly_gcd", refuse)
    assert [compute_ogf(d) for d in models] == expected
    assert count_by_class(product, classes, n_max) == oracle
    tp, fp, fn = classes
    assert count_by_class(product, (tp, tp | fp, tp | fn), n_max) == [
        oracle[0],
        count_dp(inferred, n_max),
        count_dp(reference, n_max),
    ]
    assert main(["count", str(model), "--max-length", "40", "--out", str(tmp_path / "c.csv")]) == 0
    assert capsys.readouterr().out == f"OGF: {expected[0]}\n"


def test_count_by_class_counts_overlapping_sets():
    rng = seeded(62)
    for _ in range(40):
        n_sym = rng.randrange(1, 4)
        product, _ = confusion_product(random_dfa(rng, 6, n_sym), random_dfa(rng, 6, n_sym))
        accepting = sorted(product.accepting)
        sets = [frozenset(q for q in accepting if rng.random() < 0.5) for _ in range(4)]
        sets += [sets[0], frozenset(), frozenset(accepting)]
        n_max = 2 * product.state_count + 15
        counts = count_by_class(product, sets, n_max)
        assert counts == [
            count_dp(Dfa(product.alphabet, product.transitions, 0, s), n_max) for s in sets
        ]
        # equal sets share a solve, not a list
        assert counts[0] is not counts[4]
        counts[4].append(0)
        assert len(counts[0]) == n_max + 1


def test_count_by_class_refuses_a_set_of_rejecting_states():
    d = all_accepting(2).intersect(to_dfa(seq(sym("a")), ("a", "b")))
    rejecting = frozenset(range(d.state_count)) - d.accepting
    with pytest.raises(ValueError, match="sets of accepting states"):
        count_by_class(d, (d.accepting, rejecting), 10)


def test_bm_engine_on_a_large_four_letter_model():
    # elimination needs minutes at this size, so the DP is the only oracle;
    # 40 terms past the 2|Q| + 2 that BM reads check the extrapolation
    rng = seeded(1515)
    n = 160
    while True:
        d = random_dfa(rng, n, 4, accept_p=0.3).minimize()
        if d.state_count >= 150:
            break
        n += 10
    q = d.state_count
    assert coefficients(compute_ogf(d), 2 * q + 40) == count_dp(d, 2 * q + 40)


def test_star_height_zero_means_finite_language():
    # the counting route agrees: polynomial generating function
    d = to_dfa(seq(sym("a"), sym("b")), ("a", "b"))
    assert compute_ogf(d).den.degree == 0
