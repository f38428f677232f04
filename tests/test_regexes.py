import pytest

from langcard import automata
from langcard.errors import SizeGuardError
from langcard.regexes import EMPTY, EPSILON, alt, one_of, seq, star, sym, to_dfa

from helpers import enumerate_language, seeded, random_trace

AB = ("a", "b")


def lang(r, n_max=6, alpha=AB):
    return enumerate_language(to_dfa(r, alpha), n_max)


def test_epsilon_and_empty():
    assert lang(EPSILON) == {()}
    assert lang(EMPTY) == set()


def test_symbol_and_class():
    assert lang(sym("a")) == {(0,)}
    assert lang(one_of("a", "b")) == {(0,), (1,)}


def test_concatenation():
    assert lang(seq(sym("a"), sym("b"))) == {(0, 1)}


def test_union_and_star():
    assert lang(alt(sym("a"), seq(sym("b"), sym("b"))), 3) == {(0,), (1, 1)}
    assert lang(star(sym("a")), 3) == {(), (0,), (0, 0), (0, 0, 0)}


def test_operator_sugar():
    assert lang(sym("a") | sym("b")) == lang(one_of("a", "b"))
    assert lang(sym("a") + sym("b")) == lang(seq(sym("a"), sym("b")))


def test_star_of_union_counts():
    d = to_dfa(star(one_of("a", "b")), AB)
    assert d.state_count == 1  # minimal all-accepting automaton
    rng = seeded(40)
    assert all(d.accepts(random_trace(rng, 2)) for _ in range(50))


def test_compiled_dfa_is_complete_and_minimal():
    d = to_dfa(seq(sym("a"), star(sym("b"))), AB)
    assert all(len(row) == 2 for row in d.transitions)
    assert d.minimize().state_count == d.state_count


def test_a_regex_whose_subset_construction_passes_the_states_cap_is_refused(monkeypatch):
    a12 = seq(*[sym("a")] * 12)  # 14 subsets: 13 positions and the sink
    assert to_dfa(a12, AB).state_count == 14
    monkeypatch.setattr(automata, "MAX_STATES", 13)
    with pytest.raises(SizeGuardError, match="the subset construction has more than 13"):
        to_dfa(a12, AB)
