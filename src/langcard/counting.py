"""Exact trace counting for regular languages.

The central object is the ordinary generating function (OGF) of a language's
cardinality sequence: the formal power series whose n-th coefficient a_n is
the number of accepted traces of length n.  Only the q live states of a DFA
(reachable from the initial state and able to reach an accepting one) carry
accepted traces, so the series is a rational function N/D with
deg N <= q - 1 and deg D <= q, and by Fatou's lemma D has integer
coefficients and constant term 1 once reduced.

``compute_ogf`` never builds a digraph.  It takes the 2q + 2 terms
a_0..a_{2q+1} from the DP counter, runs Berlekamp-Massey modulo primes
below 2^30 (so residues are one-digit CPython ints) to get the connection
polynomial, and lifts it to the integers by CRT.  A candidate D of degree
<= L <= q, L the recurrence length, with N = (D * a) mod z^L, is accepted
only after checking in integers that coefficients L..2q+1 of D * a vanish.
That proves N/D is the OGF: with the true OGF N*/D*, the polynomial
N * D* - N* * D has degree < 2q and is divisible by z^(2q), so it is zero.
An unlucky prime can only delay the answer, never change it.  The proof
needs only an upper bound on q, which is what lets several languages share
one automaton.

The result is in lowest terms without a GCD.  Let L* be the length of the
shortest recurrence over the rationals.  The true D* taken mod p is a
recurrence of length L*, so each prime's length, and the kept L, is at
most L*; the passed check makes D a recurrence of length L, so L >= L*.
Hence L = L*, and a common factor of N and D would give a shorter one.
D(0) = 1, so D has content 1 and its sign is already the canonical one.

``count_by_class`` counts several languages at once: the traces ending in
each of some sets of accepting states of one DFA, which may overlap, such as
the states of the product of a reference and an inferred model that accept
in both models, in the inferred one and in the reference.  One DP over the
Q live states of that DFA sums its frontier by set at every step.  The
count of any set of live states, or of the difference of two sets, is
u^T M^n w over those same Q states, so its OGF is N/D with deg D <= Q and
deg N < Q: Q stands in for q in the proof above.  Up to length 2Q + 1 the
DP terms are the answer; past it each sequence is extended by the
recurrence proved from its first 2Q + 2 terms, solved once per distinct
nonzero prefix (equal prefixes mean equal series, and a zero prefix the
zero series).  Nothing is minimized.

``elimination_ogf``, the reference engine, is the construction of the
paper: node elimination on a digraph whose edges carry rational functions.
Eliminating a node n rewires every predecessor/successor pair (p, s) with

    E(p, s) += E(p, n) * E(n, s) * 1/(1 - E(n, n))

until only the distinguished entry and exit nodes remain.  Elimination order
does not affect the result (the canonical form is identical), only the cost.
The default order is a plain minimum of a key at each step: the node with
the lowest self-loop degree first, breaking ties by predecessor*successor
pair count and then node id.

Coefficients come out of the rational function through the linear recurrence

    a_n = (b_n - sum_{j=1..n} c_j a_{n-j}) / c_0

with b and c the numerator and denominator coefficients.  The terms are
ints, or ``decimal.Decimal``s for counts that are to be written out: a
Decimal's text takes time linear in its length, an int's quadratic time.
Decimals are computed under an exact context (``decimal``'s largest
precision and exponent range, with ``Inexact``, ``Rounded`` and
``InvalidOperation`` trapped), so a result that would be rounded raises
instead.  Every recurrence extension, here and in ``count_by_class``, checks
the deadline once per 64 terms, under the stage name "extending".
``count_dp`` is the DP alone, the sparse push over the transition table that
every engine reads its terms from.  The test suite checks the engines
against each other and against counts taken by enumerating traces.
"""

from __future__ import annotations

import contextlib
import decimal
import time
from dataclasses import dataclass
from decimal import Decimal
from operator import add, mul

from .errors import (
    NonIntegerCoefficientError,
    ResourceLimitError,
    SizeGuardError,
    ZeroConstantDenominatorError,
    int_text,
)
from .polynomials import (
    RF_ONE,
    RF_ZERO,
    Polynomial,
    RationalFunction,
    _crt_lift,
    _primes,
    kleene_star,
)

INITIAL = -1
FINAL = -2

CardinalitySequence = list[int]


@dataclass
class WorkBudget:
    """The work one command may do: a wall-clock limit.

    The clock starts when the budget is made, and every stage it is passed
    to shares its one deadline.  A stage binds ``check(stage)`` once and
    calls it per step or block."""

    time_limit_s: float = 600.0

    def __post_init__(self):
        self._started = time.monotonic()

    def check(self, stage):
        """A function of no arguments that raises ``ResourceLimitError``,
        naming ``stage``, once the deadline has passed."""
        deadline = self._started + self.time_limit_s

        def check():
            if time.monotonic() > deadline:
                raise ResourceLimitError(f"{stage}: time limit exceeded {self.time_limit_s} s")

        return check


# the most memory, in bytes, that the counts of one computation may be
# estimated to take (``check_horizon``); the peak of a command that writes
# them out is a few times this, for the counts' text
MAX_COUNT_BYTES = 2**27
# bytes estimated per length counted, besides the count's own digits: its
# list slot and number object
_SLOT_BYTES = 64


def check_horizon(n_max, sigma, sequences=1):
    """Refuse (``SizeGuardError``) to count ``sequences`` sequences of
    traces over ``sigma`` symbols up to length ``n_max`` when they are
    estimated to take more than ``MAX_COUNT_BYTES``.

    Each sequence holds n_max + 1 counts, and the count of length n at most
    n * log2(sigma) bits, so about n_max^2 * log2(sigma) / 2 bits in all;
    log2(sigma) is rounded up to an integer, so no float is involved.
    """
    bits = max(sigma - 1, 0).bit_length()  # ceil(log2(sigma))
    estimate = sequences * ((n_max + 1) * _SLOT_BYTES + n_max * n_max * bits // 16)
    if estimate > MAX_COUNT_BYTES:
        raise SizeGuardError(
            f"counting to length {int_text(n_max)} over an alphabet of {sigma} would take "
            f"about {int_text(estimate)} bytes (cap {MAX_COUNT_BYTES})",
            estimate=estimate,
        )


class LabeledDigraph:
    """Digraph with rational-function edge labels; absent edge means zero.

    ``INITIAL`` has no incoming edges and ``FINAL`` no outgoing ones; interior
    nodes are the DFA states, eliminated one by one.
    """

    def __init__(self):
        self.nodes = set()
        self.labels = {}  # (src, dst) -> RationalFunction, never zero
        self.succ = {}  # node -> set of successors
        self.pred = {}  # node -> set of predecessors

    def add_node(self, n):
        if n not in self.nodes:
            self.nodes.add(n)
            self.succ[n] = set()
            self.pred[n] = set()

    def label(self, u, v):
        return self.labels.get((u, v), RF_ZERO)

    def set_label(self, u, v, f):
        if f.is_zero:
            self.labels.pop((u, v), None)
            self.succ[u].discard(v)
            self.pred[v].discard(u)
        else:
            self.labels[(u, v)] = f
            self.succ[u].add(v)
            self.pred[v].add(u)

    def add_to_label(self, u, v, f):
        self.set_label(u, v, self.label(u, v) + f)

    def interior_nodes(self):
        return [n for n in self.nodes if n not in (INITIAL, FINAL)]

    def self_loop_degree(self, n):
        return self.label(n, n).degree

    def elimination_cost(self, n):
        """Heuristic key: self-loop degree, then pred*succ pairs, then id."""
        preds = len(self.pred[n] - {n})
        succs = len(self.succ[n] - {n})
        return (self.self_loop_degree(n), preds * succs, n)

    def eliminate(self, n):
        """Remove node n, rerouting its traffic through updated edges."""
        if n in (INITIAL, FINAL):
            raise ValueError("cannot eliminate the entry or exit node")
        loop = kleene_star(self.label(n, n))
        trivial_loop = loop == RF_ONE
        self.set_label(n, n, RF_ZERO)
        preds = list(self.pred[n])
        succs = list(self.succ[n])
        for p in preds:
            into = self.label(p, n)
            if not trivial_loop:
                into = into * loop
            for s in succs:
                self.add_to_label(p, s, into * self.label(n, s))
            self.set_label(p, n, RF_ZERO)
        for s in succs:
            self.set_label(n, s, RF_ZERO)
        self.nodes.discard(n)
        del self.succ[n]
        del self.pred[n]


def digraph_construction(d) -> tuple[LabeledDigraph, int, int]:
    """Build the counting digraph of a DFA.

    A transition bundle of n symbols between two states is one edge labeled
    n*z; the entry edge and the edges from accepting states to the exit carry
    the constant 1.
    """
    g = LabeledDigraph()
    g.add_node(INITIAL)
    g.add_node(FINAL)
    for q in range(d.state_count):
        g.add_node(q)
    z = Polynomial((0, 1))
    for q, row in enumerate(d.transitions):
        bundle = {}
        for t in row:
            bundle[t] = bundle.get(t, 0) + 1
        for t, n in bundle.items():
            g.set_label(q, t, RationalFunction(z.scale(n)))
    g.set_label(INITIAL, d.initial, RF_ONE)
    for q in d.accepting:
        g.set_label(q, FINAL, RF_ONE)
    return g, INITIAL, FINAL


def compute_ogf(d, budget: WorkBudget | None = None) -> RationalFunction:
    """Generating function of the cardinality sequence of L(d).

    Berlekamp-Massey on the first 2q + 2 DP terms, q the number of live
    states, proved exact before it is returned.  A horizon 2q + 1 that
    ``check_horizon`` refuses is refused before anything is counted, which
    bounds q, and so the degree of the result.  The deadline is checked on
    every step of the DP, of Berlekamp-Massey and of the exact check.
    """
    budget = budget or WorkBudget()
    q = _live_count(d)
    check_horizon(2 * q + 1, len(d.alphabet))
    (terms,) = _dp_terms(d, (d.accepting,), 2 * q + 1, budget.check("counting terms"))
    return _solve(terms, q, budget)


def count_by_class(
    d, classes, n_max, budget: WorkBudget | None = None
) -> list[CardinalitySequence]:
    """Accepted-trace counts per length up to n_max, one sequence per set.

    ``classes`` are sets of accepting states of d, which may overlap; a
    trace counts toward every set that holds the state it ends in.  With Q
    the number of live states of d, the DP alone answers up to length
    2Q + 1.  Past it, each sequence is extended by its recurrence, solved
    and proved from its first 2Q + 2 terms; a sequence whose first terms are
    all zero, or equal to an earlier one's, is not solved again.  The
    deadline is checked on every step of the DP, of Berlekamp-Massey and of
    the exact check, and once per ``_STEPS_PER_CHECK`` steps of each
    extension.  A horizon that ``check_horizon`` refuses is refused first.
    """
    for members in classes:
        if not d.accepting.issuperset(members):
            raise ValueError("count_by_class counts sets of accepting states")
    check_horizon(n_max, len(d.alphabet), len(classes))
    budget = budget or WorkBudget()
    check_extending = budget.check("extending")
    q = _live_count(d)
    top = 2 * q + 1
    seqs = _dp_terms(d, classes, min(n_max, top), budget.check("counting terms"))
    if n_max > top:
        extended = {}  # prefix -> its sequence extended to n_max
        for i, terms in enumerate(seqs):
            prefix = tuple(terms)
            if prefix in extended:
                seqs[i] = extended[prefix][:]
                continue
            extended[prefix] = terms
            if not any(terms):
                terms += [0] * (n_max - top)
                continue
            den = _solve(terms, q, budget).den
            # c_0 = 1 and deg N < q, so a_n = -sum_{j>=1} c_j a_{n-j} for n >= q
            taps = [(j, c) for j, c in enumerate(den.coeffs) if j and c]
            for block in _blocks(top + 1, n_max + 1, check_extending):
                for n in block:
                    a = 0
                    for j, c in taps:
                        a -= c * terms[n - j]
                    terms.append(a)
    return seqs


# the deadline is read once per this many steps of a recurrence extension:
# a reading per step would cost more than 1% of a long-horizon ``assess``
_STEPS_PER_CHECK = 64


def _blocks(start, stop, check):
    """``range(start, stop)`` in consecutive ranges of ``_STEPS_PER_CHECK``
    steps, calling ``check`` before each."""
    for first in range(start, stop, _STEPS_PER_CHECK):
        check()
        yield range(first, min(first + _STEPS_PER_CHECK, stop))


def _live_count(d):
    dead = d.error_states
    return sum(1 for s in d.reachable_states() if s not in dead)


def _solve(terms, q, budget):
    """The generating function N/D of a count sequence, D(0) = 1, proved
    to equal the series of ``terms`` = a_0..a_{2q+1} for a language of at
    most q live states, and in lowest terms.

    Berlekamp-Massey modulo primes below 2^30 gives the connection
    polynomial of the longest length L <= q seen, lifted to the integers by
    CRT.  A candidate D with N = (D * a) mod z^L is returned only once
    coefficients L..2q+1 of D * a are checked to vanish in integers.  The
    check proves L minimal, which makes N/D canonical with no GCD (module
    docstring).
    """
    rev = terms[::-1]
    top = 2 * q + 1

    def product_coefficient(den, n):
        # coefficient n of den * sum(a_k z^k); rev[top - n + i] is a_{n-i}
        start = top - n
        return sum(map(mul, den, rev[start : start + len(den)]))

    check_bm = budget.check("berlekamp-massey")
    check_exact = budget.check("exact check")
    best = -1  # longest recurrence seen; shorter ones come from unlucky primes
    residues = previous = None
    modulus = 1
    for p in _primes():
        c, length = _berlekamp_massey_mod([a % p for a in terms], p, check_bm)
        # the proof needs deg D <= q, so a longer recurrence is never lifted
        if length > q or length < best:
            continue
        if length > best:
            best = length
            residues, modulus, previous = None, 1, None
        c = c[: length + 1] + [0] * (length + 1 - len(c))
        residues, modulus, sym = _crt_lift(residues, modulus, c, p)
        # check once the lift stops changing (always on round one); the
        # check makes a wrong candidate impossible, just wasteful
        if previous is None or sym == previous:
            for n in range(length, top + 1):
                check_exact()
                if product_coefficient(sym, n):
                    break
            else:
                return RationalFunction._reduced(
                    Polynomial([product_coefficient(sym, n) for n in range(length)]),
                    Polynomial(sym),
                )
        previous = sym


def elimination_ogf(d, budget: WorkBudget | None = None, order=None) -> RationalFunction:
    """The generating function by node elimination, the reference engine.

    ``order`` overrides the elimination order (a sequence of state ids); by
    default each step eliminates the interior node of least
    ``elimination_cost``, a plain minimum over the nodes left, whose key
    ends in the node id.  Every order yields the same canonical result as
    ``compute_ogf``.
    """
    budget = budget or WorkBudget()
    g, _, _ = digraph_construction(d)
    check_deadline = budget.check("node elimination")

    def cheapest():
        return min(g.interior_nodes(), key=g.elimination_cost, default=None)

    for n in iter(cheapest, None) if order is None else order:
        g.eliminate(n)
        check_deadline()
    assert not g.interior_nodes(), "elimination order must cover every state"
    return g.label(INITIAL, FINAL)


def _berlekamp_massey_mod(seq, p, check):
    """Shortest linear recurrence of ``seq`` over GF(p).

    Returns ``(c, length)``: ascending coefficients of the connection
    polynomial, with c[0] = 1 and degree at most ``length``, such that
    sum_i c[i] * seq[n - i] = 0 (mod p) for every length <= n < len(seq).
    ``check`` is called before every step.
    """
    rev = seq[::-1]
    top = len(seq) - 1
    c, b = [1], [1]
    length, shift, b_inv = 0, 1, 1  # b_inv: inverse of b's discrepancy
    for n in range(len(seq)):
        check()
        start = top - n  # rev[start + i] is seq[n - i]
        disc = sum(map(mul, c, rev[start : start + len(c)])) % p
        if disc == 0:
            shift += 1
            continue
        coef = disc * b_inv % p
        old = c
        c = c + [0] * (len(b) + shift - len(c))
        end = shift + len(b)
        c[shift:end] = [(x - coef * y) % p for x, y in zip(c[shift:end], b)]
        if 2 * length <= n:
            length, b, b_inv, shift = n + 1 - length, old, pow(disc, -1, p), 1
        else:
            shift += 1
    return c, length


# the context of ``coefficients``'s Decimal arithmetic: as many digits as
# the module allows, and a trap on any result that would be rounded, so a
# Decimal count is exact or not made at all
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


def coefficients(
    f: RationalFunction, n_max: int, budget: WorkBudget | None = None, number=int
) -> CardinalitySequence:
    """First n_max+1 series coefficients of f via the linear recurrence.

    The terms are of type ``number``: ``int``, or ``decimal.Decimal`` for
    counts that are to be written out, since a Decimal's text takes time
    linear in its length and an int's quadratic time.  Decimals are
    computed under ``_EXACT``, which traps ``Inexact``, ``Rounded`` and
    ``InvalidOperation``: each term is the exact integer or an exception.
    The deadline of ``budget`` is checked every ``_STEPS_PER_CHECK`` terms.
    """
    c = f.den.coeffs
    if not c or c[0] == 0:
        raise ZeroConstantDenominatorError(
            "series extraction needs a nonzero constant term in the denominator"
        )
    check = (budget or WorkBudget()).check("extending")
    exact = decimal.localcontext(_EXACT) if number is Decimal else contextlib.nullcontext()
    with exact:
        b = list(map(number, f.num.coeffs))
        c0 = number(c[0])
        zero = number(0)
        # ``out`` starts with d zeros standing for the coefficients before
        # z^0, so coefficient n - j sits at out[n + d - j] and no tap needs a
        # bound
        d = len(c) - 1
        taps = [(d - j, number(cj)) for j, cj in enumerate(c) if j and cj]
        out = [zero] * d
        for block in _blocks(0, n_max + 1, check):
            for n in block:
                s = b[n] if n < len(b) else zero
                for offset, cj in taps:
                    s -= cj * out[n + offset]
                if c0 != 1:
                    s, r = divmod(s, c0)
                    if r:
                        raise NonIntegerCoefficientError(
                            f"coefficient {n} is not an integer; not a language series?"
                        )
                out.append(s)
    return out[d:]


def count_dp(d, n_max: int, budget: WorkBudget | None = None) -> CardinalitySequence:
    """Accepted-trace counts per length by pushing path counts forward.

    Only live states carry a count: error states are dropped, so the
    frontier stays as small as the automaton allows.  The deadline is checked
    before every step, and a horizon that ``check_horizon`` refuses is
    refused first.
    """
    check_horizon(n_max, len(d.alphabet))
    check = (budget or WorkBudget()).check("counting terms")
    (counts,) = _dp_terms(d, (d.accepting,), n_max, check)
    return counts


def _dp_terms(d, classes, n_max, check):
    """Per set of accepting states in ``classes`` (sets that may overlap),
    the number of traces of each length 0..n_max that end in it: one sparse
    push DP over the live states, calling ``check`` before every step.

    The DP sums its frontier into one slot per group of states held by the
    same sets; a set's sequence is the sum of its groups' sequences."""
    dead = d.error_states
    held = {}  # state -> the indices of the sets that hold it
    for i, members in enumerate(classes):
        for q in members:
            held[q] = held.get(q, ()) + (i,)
    groups = {}  # indices of sets -> slot
    cls = [-1] * d.state_count  # slot -1 gathers the states in no set
    for q, sets in held.items():
        cls[q] = groups.setdefault(sets, len(groups))
    moves = [tuple(t for t in row if t not in dead) for row in d.transitions]
    seqs = [[0] * (n_max + 1) for _ in range(len(groups) + 1)]
    frontier = {} if d.initial in dead else {d.initial: 1}
    for n in range(n_max):
        check()
        nxt = {}
        get = nxt.get
        for q, v in frontier.items():
            seqs[cls[q]][n] += v
            for t in moves[q]:
                nxt[t] = get(t, 0) + v
        frontier = nxt
    for q, v in frontier.items():
        seqs[cls[q]][n_max] += v
    out = []
    for i in range(len(classes)):
        mine = [seqs[slot] for sets, slot in groups.items() if i in sets]
        if len(mine) == 1 and (i,) in groups:
            out.append(mine[0])  # a group held by this set alone
        else:
            total = [0] * (n_max + 1)
            for part in mine:
                total = list(map(add, total, part))
            out.append(total)
    return out
