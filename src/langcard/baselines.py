"""Statistical and model-based baseline assessment methods.

These are the methods the exact counting approach is compared against:
random-walk trace similarity (plain and conditioned on trace length), the
W-method test set from model-based testing, and uniform per-length sampling
of the symbol space.

All randomness flows from explicit seeds through ``random.Random`` (Mersenne
Twister), so identical configurations reproduce identical evaluation sets
bit for bit.  Walk streams for different purposes derive independent
generators from (seed, stream id).

Every method runs on precomputed integer tables over the reachable product
R x H, walks included: the pair a trace ends in says which model accepts
it.  A walk set walks R x H choosing only among the moves live in the model
it walks, so each trace is judged by the other model where it ends, and no
trace is run through a model a second time, nor held: a walk is tallied by
its length and by whether the other model accepts in the pair it ends in.
One loop takes every walk over one table, in one of two step kernels.
While the coverage rule still waits on some unit, a walk records the units
it covers; once none does, walks are bare, one table read and one
``random()`` call per step (two at an accepting state), with nothing
appended.  ``gen-traces`` walks a model's own states, recording every walk
and every trace it keeps.  Each state's count of live moves is held as a
float, because CPython 3.11 specializes the multiplication in
``int(random() * n)`` for two floats and not for a float and an int;
``float(n)`` is exact, so the same move is chosen.

The W-method's tests are counted, not listed, the way the paper counts any
finite language: a DFA of the test set, built by subset construction, runs
against R x H in one DP that sums the distinct tests by the product state
they end in.  A state bound whose test set the size bound takes past the
cap with the fewest traces that could tell the states apart is refused
before the characterization set is built.  The DFA reads the state cover
off the reference's BFS tree, whose paths it is, so no cover is listed.

Sampling draws a trace's symbols in bulk, yet consumes the generator exactly
as one ``int(rng.random() * sigma)`` per symbol would.  CPython builds each
``random()`` as m / 2**53 from two 32-bit Mersenne Twister words a and b,
with the 53-bit numerator m = (a >> 5) * 2**26 + (b >> 6), and
``getrandbits(64 * L)`` returns the same 2L words, the first word in the
lowest bits.  Up to 256 symbols, a draw's symbol is the number of the
sigma - 1 boundaries at or below its m, boundary k being the least m with
``int(m / 2**53 * sigma) >= k``, one of the five integers around
k * 2**53 / sigma.  Bisecting the boundaries gives each of the 256 top bytes
of m its symbol, and byte 8i+3 of the words' little-endian bytes is the top
byte of the i-th call's m.  A top byte whose numerators straddle a boundary
(2 of the 256 at sigma = 3) takes the symbol off a 256-entry row of its own
by the next byte, 8i+2, built the first time it is met; only when those two
bytes straddle the boundary too (1 in 256 of them) is the draw's own m
bisected.  The tables depend on sigma alone and are built once per sigma.
Past 256 symbols every top byte straddles one, so those alphabets call
``random()`` per symbol.

Sampling then runs a whole batch of draws through R x H together, one
symbol position at a time: one bulk call draws every symbol of the batch,
and each draw keeps a lane holding q * sigma for its product state q.  A
step adds the column of the draws' next symbols s to the lanes and reads
each sum q * sigma + s off a table of successors.  When the product has at
most 256 / sigma states the lanes are the bytes of one integer, every sum
fits its byte and so never carries into the next draw's, and a step is one
integer addition and one ``bytes.translate``.  Wider products, and batches
too small to pay a step's fixed cost, run one draw at a time through the
same table.
"""

from __future__ import annotations

import functools
import itertools
import random
import struct
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .automata import _product_table, confusion_product, subset_construction
from .counting import _STEPS_PER_CHECK, WorkBudget, count_dp
from .errors import (
    IndistinguishableStatesError,
    ResourceLimitError,
    SizeGuardError,
    UnsuitableModelError,
    int_text,
)

DEFAULT_SEED = 52_4287

# refusal threshold on the W-method test set's size bound
# |cover| * (1 + sigma + ... + sigma^(k+1)) * |distinguishing set|
MAX_TEST_SET_SIZE = 5_000_000
# refusal threshold on the expected draws n_target * sigma**length / |slice|
MAX_EXPECTED_DRAWS = 5_000_000
# the most symbols sampling draws in one batch; a trace longer than this is
# a batch of its own
MAX_BATCH_SYMBOLS = 2**13
# the fewest draws a batch steps as byte lanes: below about 24 (CPython
# 3.11) a lane step's fixed cost outweighs stepping each draw on its own
_MIN_LANES = 24
# the most steps one walk may take, and the most times it may start over
# from a state with nothing live to follow
MAX_WALK_STEPS = 1_000_000
MAX_WALK_RESTARTS = 1_000_000
# the most steps walks take between two deadline checks, but for the walk
# that passes it
_WALK_STEPS_PER_CHECK = 2**16
# refusal threshold on the slots the traces ``gen-traces`` walks hold: one
# per symbol and one per trace
MAX_HELD_SLOTS = 2**24


@dataclass
class RandomWalkConfig:
    """Knobs of the random-walk trace generator.

    ``termination_probability`` applies only at accepting states; each step
    is chosen uniformly among the transitions into states from which an
    accepting state is still reachable.
    """

    termination_probability: float = 0.1
    target_trace_count: int = 100_000
    min_transition_coverage: int = 10
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not 0 < self.termination_probability <= 1:
            raise ValueError("termination probability must be in (0, 1]")


@dataclass
class EvaluationMultiset:
    """Multiset of traces."""

    traces: Counter = field(default_factory=Counter)

    @property
    def total(self):
        return sum(self.traces.values())


def derive_rng(seed, stream) -> random.Random:
    return random.Random((seed ^ (stream * 0x9E3779B97F4A7C15)) & (2**64 - 1))


def _walk_table(d, rows, states, initial, by_state=False):
    """The table random walks on ``d`` take over the automaton ``rows``
    (``rows[i][s]``: the successor of state i on symbol s), whose state i
    is ``d``'s state ``states[i]``: ``d`` itself when ``states`` numbers
    its states, or R x H projected onto one of its components.

    Returns ``(initial, targets, moves, size, start)``: two rows per state,
    each holding whether ``d`` accepts there and the count of its live moves
    as a float, then their targets in ``targets`` and the moves themselves
    (symbol, unit covered, target) in ``moves``; then the number of units
    and the units every walk covers.  A move is live when ``d`` can still
    accept from its target.  It covers ``d``'s step id
    ``state * sigma + symbol``, or with ``by_state`` the state of ``d`` it
    enters, every walk then also covering ``d``'s initial state."""
    errors = d.error_states
    if states[initial] in errors:
        raise UnsuitableModelError("random walk needs a model with a nonempty language")
    sigma = len(d.alphabet)
    targets, moves = [], []
    for q, row in zip(states, rows):
        live = [
            (s, states[t] if by_state else q * sigma + s, t)
            for s, t in enumerate(row)
            if states[t] not in errors
        ]
        # CPython 3.11 specializes float * float, not float * int, and
        # float(n) is exact: int(rand() * n) picks the same move either way
        head = (q in d.accepting, float(len(live)))
        targets.append((*head, [t for _, _, t in live]))
        moves.append((*head, live))
    if by_state:
        return initial, targets, moves, d.state_count, (states[initial],)
    return initial, targets, moves, d.state_count * sigma, ()


def _walk_until_covered(table, cfg, rng, least, need, budget, stage, hold=None):
    """Random walks over the walk ``table`` (``_walk_table``) until at least
    ``least`` traces are walked, one at the least, and each unit that walks
    can cover was covered ``need`` times.

    Returns the walks kept per (length, end state), keyed by
    ``length * len(targets) + end``.  One loop takes every walk, in one of
    two step kernels over the one table.  While some unit is still short,
    or for as long as ``hold`` is given, a walk steps on the table's
    ``moves`` rows and records the units it covers, and with ``hold`` its
    trace, which it hands to ``hold(trace)`` in place of the tally, taking
    one slot per symbol and one per trace; past ``MAX_HELD_SLOTS`` slots in
    all the walks are refused.  Any other walk is bare, on the ``targets``
    rows: one table read and one ``random()`` call per step (two at an
    accepting state), the length the count of steps.  Both choose a move
    as ``int(rand() * n)`` on the table's float count n.  A walk meets a
    dead end only at an accepting state: a live state that does not accept
    has a live move.
    The deadline of ``budget`` (a fresh ``WorkBudget`` if None) is checked
    before a walk once ``_STEPS_PER_CHECK`` walks, restarted ones included,
    or ``_WALK_STEPS_PER_CHECK`` steps have passed since the last check."""
    initial, targets, moves, size, start = table
    width = len(targets)
    coverage = [0] * size
    pa = cfg.termination_probability
    short = 0  # the units still covered fewer than ``need`` times
    if need > 0:
        # the units of the steps walks can take: at pa = 1 a walk stops at
        # the first accepting state it meets, so none out of those
        units, seen, order = set(start), {initial}, [initial]
        for q in order:
            stop, _, live = moves[q]
            if pa < 1 or not stop:
                for _, u, t in live:
                    units.add(u)
                    if t not in seen:
                        seen.add(t)
                        order.append(t)
        short = len(units)
    rand = rng.random
    check = (budget or WorkBudget()).check(stage)
    # a walk stops or steps once per pass, so it may take MAX_WALK_STEPS
    # steps and stop after the last
    passes = range(MAX_WALK_STEPS + 1)
    cap = MAX_HELD_SLOTS
    ends = {}
    held = walked = restarts = 0
    walks = steps = 0  # since the last deadline check
    while True:
        if restarts > MAX_WALK_RESTARTS:
            raise ResourceLimitError("random walk exceeded the restart limit")
        if walks >= _STEPS_PER_CHECK or steps >= _WALK_STEPS_PER_CHECK:
            check()
            walks = steps = 0
        walks += 1
        state = initial
        kept = True
        if hold or short:
            trace = [] if hold else None
            units = [*start] if short else None
            for length in passes:
                stop, n, live = moves[state]
                if stop:
                    if rand() < pa:
                        break
                    if not n:
                        kept = False  # nothing live to follow: discard and start over
                        break
                s, unit, state = live[int(rand() * n)]
                if trace is not None:
                    trace.append(s)
                if units is not None:
                    units.append(unit)
            else:
                raise ResourceLimitError("random walk exceeded the step limit")
        else:
            for length in passes:
                stop, n, live = targets[state]
                if stop:
                    if rand() < pa:
                        break
                    if not n:
                        kept = False
                        break
                state = live[int(rand() * n)]
            else:
                raise ResourceLimitError("random walk exceeded the step limit")
        steps += length
        if not kept:
            restarts += 1
            continue
        restarts = 0
        walked += 1
        if hold:
            hold(tuple(trace))
            held += length + 1
            if held > cap:
                msg = f"{stage}: the traces held would take {held} slots (cap {cap})"
                raise SizeGuardError(msg, estimate=held)
        else:
            key = length * width + state
            ends[key] = ends.get(key, 0) + 1
        if short:  # the walk recorded its units
            for unit in units:
                coverage[unit] += 1
                if coverage[unit] == need:
                    short -= 1
        if walked >= least and not short:
            return ends


@dataclass(frozen=True)
class WalkTally:
    """A walk set tallied by trace length 0..``longest``: the walks, and
    the walks the other model accepts."""

    walks: tuple[int, ...]
    accepted: tuple[int, ...]

    @property
    def total(self):
        return sum(self.walks)

    @property
    def longest(self):
        return len(self.walks) - 1


@dataclass
class TraceSimilarityResult:
    precision: Fraction
    recall: Fraction
    e_precision: WalkTally
    e_recall: WalkTally


def _walked_and_tallied(reference, inferred, cfg, budget):
    """The walk sets on ``inferred`` and on ``reference``, both walked over
    one R x H and each tallied by length against the other model
    (``WalkTally``); both sets share the deadline of ``budget`` (a fresh
    ``WorkBudget`` if None).

    Set i draws stream i of ``cfg.seed``.  A walk chooses among the moves
    live in its model, stops only where that model accepts and covers its
    step ids; the other model accepts the trace when it accepts in the pair
    the walk ends in."""
    budget = budget or WorkBudget()
    rows, pairs = _product_table(reference, inferred)
    in_r, in_h = [qr for qr, _ in pairs], [qh for _, qh in pairs]
    least, need = cfg.target_trace_count, cfg.min_transition_coverage
    width = len(rows)
    sets = [(inferred, in_h, reference, in_r), (reference, in_r, inferred, in_h)]
    tallies = []
    for stream, (model, states, judge, judged) in enumerate(sets):
        table = _walk_table(model, rows, states, 0)
        rng = derive_rng(cfg.seed, stream)
        ends = _walk_until_covered(table, cfg, rng, least, need, budget, "evaluation walks")
        walks = [0] * (max(ends) // width + 1)
        accepted = walks.copy()
        for key, count in ends.items():
            length, end = divmod(key, width)
            walks[length] += count
            if judged[end] in judge.accepting:
                accepted[length] += count
        tallies.append(WalkTally(tuple(walks), tuple(accepted)))
    return tallies


def trace_similarity(
    reference, inferred, cfg: RandomWalkConfig, budget: WorkBudget | None = None
) -> TraceSimilarityResult:
    """Classic statistical assessment: precision is the fraction of traces
    walked on the inferred model that the reference accepts; recall swaps the
    roles."""
    e_prec, e_rec = _walked_and_tallied(reference, inferred, cfg, budget)
    precision = Fraction(sum(e_prec.accepted), e_prec.total)
    recall = Fraction(sum(e_rec.accepted), e_rec.total)
    return TraceSimilarityResult(precision, recall, e_prec, e_rec)


@dataclass(frozen=True)
class ConditionedRow:
    n: int
    precision: Fraction | None
    precision_samples: int
    recall: Fraction | None
    recall_samples: int


def trace_similarity_conditioned(
    reference, inferred, cfg, budget: WorkBudget | None = None
) -> list[ConditionedRow]:
    """Trace similarity partitioned by trace length.

    Lengths never sampled get the undefined marker, mirroring the gaps such
    plots show in practice.
    """
    parts = _walked_and_tallied(reference, inferred, cfg, budget)
    rows = []
    for n in range(max(part.longest for part in parts) + 1):
        (p_hits, p_total), (r_hits, r_total) = (
            (part.accepted[n], part.walks[n]) if n <= part.longest else (0, 0) for part in parts
        )
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


def _bfs_tree(d):
    """The BFS tree of ``d``: per state, its children by symbol.  The path
    to each state is its shortest trace, the least by symbols among those;
    raises when some state is unreachable."""
    kids = [None] * d.state_count
    kids[d.initial] = {}
    order = [d.initial]
    for q in order:
        for s, t in enumerate(d.transitions[q]):
            if kids[t] is None:
                kids[q][s] = t
                kids[t] = {}
                order.append(t)
    if len(order) != d.state_count:
        # unreachable states cannot be covered; minimize() removes them
        raise UnsuitableModelError("state cover requires every state to be reachable")
    return kids


def state_cover(d) -> list[tuple[int, ...]]:
    """Prefix-closed set of shortest traces reaching every state: the paths
    of the BFS tree (``_bfs_tree``)."""
    kids = _bfs_tree(d)
    paths, order = [()], [d.initial]
    for i, q in enumerate(order):
        for s, t in kids[q].items():
            paths.append(paths[i] + (s,))
            order.append(t)
    return sorted(paths, key=lambda t: (len(t), t))


def characterization_set(d, check=None) -> list[tuple[int, ...]]:
    """Traces separating every pair of states by acceptance.

    Requires a minimized automaton; raises if some pair cannot be told
    apart.  A single-state automaton gets the conventional {epsilon}.
    ``check``, if given, is called once per row of the first pass over the
    pairs and of each sweep.
    """
    n = d.state_count
    if n == 1:
        return [()]
    check = check or (lambda: None)
    witness = {}
    for p in range(n):
        check()
        for q in range(p + 1, n):
            if (p in d.accepting) != (q in d.accepting):
                witness[(p, q)] = ()
    changed = True
    while changed:
        changed = False
        for p in range(n):
            check()
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


def _test_set_bound(cover, sigma, k, dist):
    """The size bound |C| (1 + sigma + ... + sigma^(k+1)) |D| of a test set
    and the longest middle it has summed.

    The sum stops at the first power of sigma that takes the bound past
    ``MAX_TEST_SET_SIZE``, so it adds at most about 23 powers whatever ``k``
    is; below sigma = 2 it is one product."""
    if sigma < 2:
        return cover * (1 + sigma * (k + 1)) * dist, k + 1
    longest, power, middles = 0, 1, 1
    while longest <= k and cover * middles * dist <= MAX_TEST_SET_SIZE:
        longest += 1
        power *= sigma
        middles += power
    return cover * middles * dist, longest


def _refuse_past_the_cap(estimate, longest, m, k, claim):
    """Raise ``SizeGuardError`` when ``estimate``, a size bound summed over
    middles of up to ``longest`` symbols (``_test_set_bound``), passes
    ``MAX_TEST_SET_SIZE``; the message opens with ``claim``."""
    if estimate > MAX_TEST_SET_SIZE:
        scope = "" if longest > k else (
            f" counting middles of at most {longest} symbols alone; m = {m} allows {k + 1}"
        )
        raise SizeGuardError(
            f"{claim} {estimate} traces{scope} (cap {MAX_TEST_SET_SIZE})", estimate=estimate
        )


def _w_method_parts(d, m, check=None):
    """k = m - |Q|, the BFS tree of ``d`` (``_bfs_tree``), whose paths are
    the state cover C, and the characterization set D of the W-method test
    set C (eps|Sigma|...|Sigma^{k+1}) D of ``d``, once the set is known to
    be within ``MAX_TEST_SET_SIZE``; ``check`` is passed to
    ``characterization_set``.

    C holds one trace per state, so |C| = |Q|.  The size bound is first
    taken with |D| = ceil(log2 |Q|), the fewest traces that tell |Q| states
    apart by acceptance, so a bound that this already takes past the cap is
    refused before the tree and D are built; the bound with D's own size is
    checked once they are."""
    if m < d.state_count:
        raise ValueError("state bound m must be at least the reference size")
    n, sigma = d.state_count, len(d.alphabet)
    k = m - n
    bound = _test_set_bound(n, sigma, k, max(1, (n - 1).bit_length()))
    _refuse_past_the_cap(*bound, m, k, "W-method test set's size bound would hold at least")
    tree = _bfs_tree(d)
    dist = characterization_set(d, check)
    bound = _test_set_bound(n, sigma, k, len(dist))
    _refuse_past_the_cap(*bound, m, k, "W-method test set would hold up to")
    return k, tree, dist


def w_method_test_set(d, m) -> EvaluationMultiset:
    """The conformance test set C (eps|Sigma|...|Sigma^{k+1}) D with
    k = m - |Q|, duplicates removed; ``m`` bounds the state count of the
    model under test.  Tests are listed in the order the set spells them,
    cover string first, then middle, then distinguishing suffix."""
    k, _, dist = _w_method_parts(d, m)
    cover = state_cover(d)
    middles = [
        mid
        for i in range(k + 2)
        for mid in itertools.product(range(len(d.alphabet)), repeat=i)
    ]
    tests = dict.fromkeys((c + mid + w for c in cover for mid in middles for w in dist), 1)
    return EvaluationMultiset(Counter(tests))


def _trie(words):
    """The trie of ``words``: each node's children by symbol (node 0 the
    root), and the set of nodes that end a word."""
    children = [{}]
    ends = set()
    for word in words:
        node = 0
        for s in word:
            kids = children[node]
            node = kids.get(s)
            if node is None:
                node = kids[s] = len(children)
                children.append({})
        ends.add(node)
    return children, ends


def _test_automaton(d, k, tree, dist, check):
    """A DFA accepting exactly the W-method test set C (eps|...|Sigma^{k+1}) D
    of ``d``, C being the paths of ``d``'s BFS ``tree`` (``_bfs_tree``).

    It is the subset construction of an NFA whose positions are the states
    of ``d``, as nodes of the tree, then 1..k+1 symbols past the tree, then
    the nodes of D's trie.  C is the tree's paths, so C (eps|...|Sigma^{k+1})
    holds exactly the traces that leave the tree at most k + 1 symbols
    before their end.  A symbol moves a node to its child on it, or one
    symbol past the tree when it has none, and j < k + 1 symbols past it to
    j + 1; a D word starts after every prefix that holds a tree or
    past-the-tree position, and a subset accepts when it holds the end of a
    whole D word.  The set is finite, so the DFA is acyclic but for its
    sink, the empty subset.  ``check`` is called on every step of a
    subset."""
    dist_kids, dist_ends = _trie(dist)
    past = d.state_count  # position of one symbol past the tree
    root = past + k + 1  # position of D's root
    last = root - 1  # position of k + 1 symbols past the tree

    def step(subset, s):
        check()
        nxt = set()
        for pos in subset:
            if pos < past:
                nxt.update((tree[pos].get(s, past), root))
            elif pos < last:
                nxt.update((pos + 1, root))
            elif pos >= root:
                child = dist_kids[pos - root].get(s)
                if child is not None:
                    nxt.add(root + child)
        return frozenset(nxt)

    start = frozenset((d.initial, root))  # the cover holds the empty string
    ends = frozenset(root + node for node in dist_ends)
    return subset_construction(d.alphabet, start, step, lambda subset: not ends.isdisjoint(subset))


def mbt_assessment(reference, inferred, m, budget: WorkBudget | None = None):
    """Precision and recall over the W-method test set of the reference for
    the state bound ``m``.

    The distinct tests are counted, not listed: one DP runs over the pairs
    of a state of the test set's DFA (``_test_automaton``) and a state of
    R x H, in a topological order of the DFA, and sums the tests ending in
    each product state.  The DFA is deterministic, so every distinct test is
    one path, and the sums are those of running each test once.  The
    deadline of ``budget`` is checked once per row of the characterization
    set's passes, on every step of a subset and once per DFA state of the
    DP."""
    budget = budget or WorkBudget()
    parts = _w_method_parts(reference, m, budget.check("characterization set"))
    tests = _test_automaton(reference, *parts, budget.check("test automaton"))
    product, classes = confusion_product(reference, inferred)
    columns = tuple(zip(*product.transitions))  # columns[s][p]: p's successor on s
    rows = tests.transitions
    dead = tests.error_states  # the sink
    waiting = [0] * len(rows)  # per state, its in-edges from states not yet walked
    for q, row in enumerate(rows):
        if q not in dead:
            for t in row:
                waiting[t] += 1
    reached = [0] * product.state_count
    counts = {tests.initial: {0: 1}}  # test DFA state -> product state -> tests
    order = [tests.initial]  # the start has no edge into it; grows while walked
    check = budget.check("counting tests")
    for q in order:
        check()
        here = counts.pop(q)
        if q in tests.accepting:
            for p, c in here.items():
                reached[p] += c
        for t, column in zip(rows[q], columns):
            if t in dead:
                continue
            there = counts.setdefault(t, {})
            for p, c in here.items():
                r = column[p]
                there[r] = there.get(r, 0) + c
            waiting[t] -= 1
            if not waiting[t]:
                order.append(t)
    tp, fp, fn = (sum(reached[q] for q in members) for members in classes)
    precision = Fraction(tp, tp + fp) if tp + fp else None
    recall = Fraction(tp, tp + fn) if tp + fn else None
    return precision, recall


# ---------------------------------------------------------------------------
# Model-independent sampling of the symbol space

_SPLIT = 255  # table mark of a byte whose numerators straddle a symbol boundary


@functools.cache
def _symbol_draws(sigma):
    """``draw(rng, length)``: the symbols ``int(rng.random() * sigma)`` of
    ``length`` successive calls, as a sequence of ints, leaving ``rng`` where
    those calls would (see the module docstring); made once per sigma."""
    if sigma > 256:

        def draw_each(rng, length):
            rand = rng.random
            return [int(rand() * sigma) for _ in range(length)]

        return draw_each

    def boundary(k):  # the least numerator m with int(m / 2**53 * sigma) >= k
        c = -(-k << 53) // sigma  # the float product rounds by less than two numerators
        return bisect_left(range(c - 2, c + 3), k, key=lambda m: int(m / 2**53 * sigma)) + c - 2

    def table(base, shift):  # per byte w, the symbol of base + (w << shift) and up, or _SPLIT
        low = [bisect_right(bounds, base + (w << shift)) for w in range(256)]
        high = [bisect_right(bounds, base + (w + 1 << shift) - 1) for w in range(256)]
        return bytes(a if a == b else _SPLIT for a, b in zip(low, high))

    bounds = [boundary(k) for k in range(1, sigma)]
    top = table(0, 45)
    split = sigma < 256 and _SPLIT in top  # at sigma = 256, 255 is a symbol
    row = functools.cache(lambda v: table(v << 45, 37))  # top byte v's symbols by the next byte

    def draw(rng, length):
        raw = rng.getrandbits(64 * length).to_bytes(8 * length, "little")
        symbols = bytearray(raw[3::8].translate(top))
        i = symbols.find(_SPLIT) if split else -1
        while i >= 0:
            s = row(raw[8 * i + 3])[raw[8 * i + 2]]
            if s == _SPLIT:  # the top two bytes straddle a boundary too
                a, b = struct.unpack_from("<II", raw, 8 * i)
                s = bisect_right(bounds, a >> 5 << 26 | b >> 6)
            symbols[i] = s
            i = symbols.find(_SPLIT, i + 1)
        return symbols

    return draw


def sigma_sampling_assessment(
    reference,
    inferred,
    length: int,
    n_target: int,
    metric: str,
    seed: int,
    budget: WorkBudget | None = None,
) -> Fraction:
    """Estimate one accuracy value from uniform random traces of one length.

    Draws length-``length`` traces with i.i.d. uniform symbols until
    ``n_target`` of them are accepted by the conditioning model (the inferred
    one for precision, the reference for recall), then returns the fraction
    of those that the other model also accepts.  Refuses before the first
    draw when the expected number of draws exceeds ``MAX_EXPECTED_DRAWS``.
    The count of the conditioning slice and the draws share ``budget``'s
    deadline, checked before each batch of draws.
    """
    if metric not in ("precision", "recall"):
        raise ValueError("metric must be 'precision' or 'recall'")
    conditioning = inferred if metric == "precision" else reference
    budget = budget or WorkBudget()
    size = count_dp(conditioning, length, budget)[length]
    if size == 0:
        raise UnsuitableModelError(f"conditioning language has no trace of length {length}")
    estimate = n_target * len(reference.alphabet) ** length // size
    if estimate > MAX_EXPECTED_DRAWS:
        raise SizeGuardError(
            f"sampling would need about {int_text(estimate)} draws for {n_target} traces "
            f"of length {length}, of which the conditioning language has "
            f"{int_text(size)} (cap {MAX_EXPECTED_DRAWS})",
            estimate=estimate,
        )
    product, (tp, fp, fn) = confusion_product(reference, inferred)
    counted = tp | (fp if metric == "precision" else fn)
    sigma = len(reference.alphabet)
    width = product.state_count * sigma
    # a draw's lane holds q * sigma in product state q, so that the lane plus
    # the next symbol s indexes flat[q * sigma + s] = delta(q, s) * sigma
    flat = [t * sigma for row in product.transitions for t in row]
    # per lane of a finished draw: 0 rejected, 1 counted, 2 true positive
    grade = bytearray(max(width, 256))
    for q in counted:
        grade[q * sigma] = 1 + (q in tp)
    step = bytes(flat).ljust(256, b"\0") if width <= 256 else None
    draw = _symbol_draws(sigma)
    rng = random.Random(seed)
    check = budget.check("sampling")
    space = sigma**length
    true_positives = 0
    accepted = 0
    while accepted < n_target:
        check()
        # at most the draws still expected to be needed, in one call
        expected = -(-(n_target - accepted) * space // size)
        count = max(1, min(MAX_BATCH_SYMBOLS // max(length, 1), expected))
        symbols = draw(rng, count * length)  # draw i is symbols[i * length:][:length]
        if width <= 256 and count >= _MIN_LANES:
            # q * sigma + s < width <= 256, so the bytewise sum of the lanes
            # and a column never carries from one draw into the next
            lanes = bytes(count)
            for t in range(length):
                total = int.from_bytes(lanes, "big") + int.from_bytes(symbols[t::length], "big")
                lanes = total.to_bytes(count, "big").translate(step)
            ends = lanes.translate(grade)
        else:
            ends = bytearray(count)
            for i in range(count):
                q = 0
                for s in symbols[i * length : (i + 1) * length]:
                    q = flat[q + s]
                ends[i] = grade[q]
        hits = count - ends.count(0)
        if accepted + hits <= n_target:
            accepted += hits
            true_positives += ends.count(2)
            continue
        # the batch that crosses n_target: its draws in order, up to the
        # n_target-th accepted one; the generator is this call's own, so
        # the draws past it change nothing
        for g in ends:
            if g:
                accepted += 1
                true_positives += g >> 1
                if accepted == n_target:
                    break
    return Fraction(true_positives, accepted)
