"""Regex combinators compiled to complete DFAs.

Only what model fixtures need: symbols, symbol classes, concatenation,
union and Kleene star.  Construction goes through a Thompson-style NFA with
epsilon moves, then subset construction (the empty subset acts as the sink,
so the result is complete) and minimization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Alphabet, Dfa, subset_construction


class Regex:
    def __or__(self, other):
        return Alt((self, other))

    def __add__(self, other):
        return Seq((self, other))


@dataclass(frozen=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True)
class Never(Regex):
    pass


@dataclass(frozen=True)
class Sym(Regex):
    names: tuple[str, ...]


@dataclass(frozen=True)
class Seq(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True)
class Alt(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


EPSILON = Epsilon()
EMPTY = Never()


def sym(name) -> Regex:
    return Sym((name,))


def one_of(*names) -> Regex:
    """Symbol class: any one of the given symbols."""
    return Sym(tuple(names))


def seq(*parts) -> Regex:
    return Seq(tuple(parts))


def alt(*parts) -> Regex:
    return Alt(tuple(parts))


def star(inner) -> Regex:
    return Star(inner)


class _Nfa:
    def __init__(self):
        self.eps = []  # state -> epsilon targets
        self.moves = []  # state -> list of (symbol id, target)

    def new_state(self):
        self.eps.append([])
        self.moves.append([])
        return len(self.eps) - 1

    def fragment(self, r, alpha):
        """Thompson construction; returns (entry, exit) for regex r."""
        if isinstance(r, Epsilon):
            a, b = self.new_state(), self.new_state()
            self.eps[a].append(b)
            return a, b
        if isinstance(r, Never):
            return self.new_state(), self.new_state()
        if isinstance(r, Sym):
            a, b = self.new_state(), self.new_state()
            for name in r.names:
                self.moves[a].append((alpha.index[name], b))
            return a, b
        if isinstance(r, Seq):
            if not r.parts:
                return self.fragment(EPSILON, alpha)
            entry, exit_ = self.fragment(r.parts[0], alpha)
            for part in r.parts[1:]:
                pa, pb = self.fragment(part, alpha)
                self.eps[exit_].append(pa)
                exit_ = pb
            return entry, exit_
        if isinstance(r, Alt):
            a, b = self.new_state(), self.new_state()
            for part in r.parts:
                pa, pb = self.fragment(part, alpha)
                self.eps[a].append(pa)
                self.eps[pb].append(b)
            return a, b
        if isinstance(r, Star):
            a, b = self.new_state(), self.new_state()
            pa, pb = self.fragment(r.inner, alpha)
            self.eps[a] += [pa, b]
            self.eps[pb] += [pa, b]
            return a, b
        raise TypeError(f"not a regex: {r!r}")


def to_dfa(r: Regex, alpha: Alphabet | tuple[str, ...] | list[str]) -> Dfa:
    """Compile a regex over the given alphabet to a minimal complete DFA."""
    if not isinstance(alpha, Alphabet):
        alpha = Alphabet(tuple(alpha))
    nfa = _Nfa()
    entry, final = nfa.fragment(r, alpha)

    def closure(states):
        seen = set(states)
        todo = list(states)
        while todo:
            q = todo.pop()
            for t in nfa.eps[q]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(seen)

    return subset_construction(
        alpha,
        closure([entry]),
        lambda subset, s: closure(
            [t for q in subset for (ss, t) in nfa.moves[q] if ss == s]
        ),
        lambda subset: final in subset,
    ).minimize()
