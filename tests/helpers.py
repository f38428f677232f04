"""Shared test utilities: model generators and brute-force oracles.

The oracles here deliberately avoid the code paths they check: language
enumeration walks the transition table directly, equivalence goes through
product-automaton search, and counting sums over explicitly enumerated
traces.
"""

import itertools
import random
from collections import Counter, deque
from fractions import Fraction
from operator import mul

from langcard import (
    Alphabet,
    Dfa,
    build_dfa,
    characterization_set,
    coefficients,
    compute_ogf,
    confusion_automata,
    confusion_product,
    state_cover,
)
from langcard.automata import MAX_STATES
from langcard.baselines import ConditionedRow, WalkTally, _walk_table, _walk_until_covered, derive_rng
from langcard.errors import ModelParseError, SizeGuardError
from langcard.inference import _Trie
from langcard.regexes import EPSILON, alt, one_of, seq, star, sym, to_dfa

SYMS = ("a", "b", "c", "d")


def random_dfa(rng, n_states, n_symbols, accept_p=0.4):
    rows = tuple(
        tuple(rng.randrange(n_states) for _ in range(n_symbols))
        for _ in range(n_states)
    )
    accepting = frozenset(q for q in range(n_states) if rng.random() < accept_p)
    return Dfa(Alphabet(SYMS[:n_symbols]), rows, 0, accepting)


def random_nonempty_dfa(rng, n_states, n_symbols, accept_p=0.4):
    while True:
        d = random_dfa(rng, n_states, n_symbols, accept_p)
        if d.initial not in d.error_states:
            return d


def random_trace(rng, n_symbols, max_len=12):
    return tuple(rng.randrange(n_symbols) for _ in range(rng.randrange(max_len + 1)))


def complement(d):
    """The complete DFA ``d`` with its accepting set flipped."""
    return Dfa(d.alphabet, d.transitions, d.initial, frozenset(range(d.state_count)) - d.accepting)


def equivalent(a, b):
    """Language equality by breadth-first search over the product of ``a``
    and ``b`` for a reachable pair on which they disagree.  Independent of
    minimization, so it serves as the oracle of the minimizer."""
    assert a.alphabet == b.alphabet
    start = (a.initial, b.initial)
    seen = {start}
    todo = deque([start])
    while todo:
        qa, qb = todo.popleft()
        if (qa in a.accepting) != (qb in b.accepting):
            return False
        for s in a.alphabet:
            nxt = (a.transitions[qa][s], b.transitions[qb][s])
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


def build_pta(ts):
    """Prefix tree acceptor of the training set ``ts``, completed with a
    sink: one state per distinct prefix, accepting exactly the training
    traces.  The tree that the one-pass exact k-tails model is checked
    against."""
    trie = _Trie(ts)
    edges = [
        (node, ts.alphabet.symbols[s], nxt)
        for node, kids in enumerate(trie.children)
        for s, nxt in kids.items()
    ]
    return build_dfa(ts.alphabet.symbols, len(trie), 0, trie.accepting, edges)


def random_walk_trace(d, cfg, rng):
    """One random-walk trace of ``d`` as the baselines walk it."""
    walked = []
    table = _walk_table(d, d.transitions, range(d.state_count), d.initial)
    _walk_until_covered(table, cfg, rng, 1, 0, None, "walks", walked.append)
    return walked[0]


def reference_walks(d, cfg, rng, least, need, by_state=False):
    """The traces random walks on ``d`` keep, walked as the baselines
    document their walks but by none of their code: from the initial state,
    a walk at an accepting state stops when ``rng.random() < pa``; else it
    takes the move ``int(rng.random() * len(live))`` of the ``live`` moves,
    those into states from which ``d`` can still accept, in symbol order,
    and with none it is discarded and a new walk starts.  Walks are kept
    until at least ``least`` are, and one at the least, and every unit that
    walks can cover was covered ``need`` times: a step (state, symbol), or
    with ``by_state`` a state entered, each walk also covering the initial
    state.  At pa = 1 a walk stops at the first accepting state it meets,
    so no step out of one counts.  Oracle of ``baselines._walk_until_covered``."""
    pa = cfg.termination_probability
    errors = d.error_states
    live = [[(s, t) for s, t in enumerate(row) if t not in errors] for row in d.transitions]

    def unit(q, s, t):
        return t if by_state else (q, s)

    coverable, seen, todo = {d.initial} if by_state else set(), {d.initial}, [d.initial]
    while todo:
        q = todo.pop()
        if pa < 1 or q not in d.accepting:
            for s, t in live[q]:
                coverable.add(unit(q, s, t))
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
    covered = Counter()
    traces = []
    while not traces or len(traces) < least or any(covered[u] < need for u in coverable):
        q, trace, units = d.initial, [], [d.initial] if by_state else []
        while not (q in d.accepting and rng.random() < pa):
            moves = live[q]
            if not moves:
                break
            s, t = moves[int(rng.random() * len(moves))]
            trace.append(s)
            units.append(unit(q, s, t))
            q = t
        else:
            traces.append(tuple(trace))
            covered.update(units)
    return traces


def trace_similarity_by_models(reference, inferred, cfg):
    """Trace similarity with each walk set walked on its model alone by
    ``reference_walks``, every trace recorded, and each distinct trace then
    judged by ``Dfa.accepts`` of the other model: the oracle of the tallied
    walks over R x H.

    Returns the multisets walked on ``inferred`` and on ``reference``, their
    ``WalkTally``s, precision, recall and the rows of the conditioned
    method."""
    walked, tallies = [], []
    for stream, (model, judge) in enumerate(((inferred, reference), (reference, inferred))):
        rng = derive_rng(cfg.seed, stream)
        traces = Counter(
            reference_walks(model, cfg, rng, cfg.target_trace_count, cfg.min_transition_coverage)
        )
        walks = [0] * (max(map(len, traces)) + 1)
        accepted = walks.copy()
        for t, c in traces.items():
            walks[len(t)] += c
            accepted[len(t)] += c * judge.accepts(t)
        walked.append(traces)
        tallies.append(WalkTally(tuple(walks), tuple(accepted)))
    precision, recall = (Fraction(sum(t.accepted), sum(t.walks)) for t in tallies)
    rows = []
    for n in range(max(len(t.walks) for t in tallies)):
        (p_hits, p_total), (r_hits, r_total) = (
            (t.accepted[n], t.walks[n]) if n < len(t.walks) else (0, 0) for t in tallies
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
    return walked, tallies, precision, recall, rows


def enumerate_counts(d, n_max):
    """Accepted traces per length by walking the full trace tree."""
    counts = [0] * (n_max + 1)
    rows = d.transitions
    accepting = d.accepting
    stack = [(d.initial, 0)]
    n_sym = len(d.alphabet)
    while stack:
        state, depth = stack.pop()
        if state in accepting:
            counts[depth] += 1
        if depth < n_max:
            row = rows[state]
            for s in range(n_sym):
                stack.append((row[s], depth + 1))
    return counts


def enumerate_language(d, n_max):
    """The set of accepted traces up to n_max, pruning dead branches."""
    out = set()
    errors = d.error_states

    def dfs(state, trace):
        if state in d.accepting:
            out.add(trace)
        if len(trace) == n_max:
            return
        for s in d.alphabet:
            t = d.transitions[state][s]
            if t not in errors:
                dfs(t, trace + (s,))

    if d.initial not in errors:
        dfs(d.initial, ())
    return out


SIGNATURE_ALPHABET = ("a", "b", "c", "d", "e", "f")


def signature_models():
    """Reconstruction of the sensitivity example: the reference accepts the
    empty trace plus a b {b..f}*, the inferred model adds a {c..f} {b..f}*
    (so one in five continuations after 'a' is correct)."""
    tail = star(one_of("b", "c", "d", "e", "f"))
    tp_lang = seq(sym("a"), sym("b"), tail)
    fp_lang = seq(sym("a"), one_of("c", "d", "e", "f"), tail)
    reference = to_dfa(alt(EPSILON, tp_lang), SIGNATURE_ALPHABET)
    inferred = to_dfa(alt(EPSILON, tp_lang, fp_lang), SIGNATURE_ALPHABET)
    return reference, inferred


def all_accepting(n_symbols):
    rows = (tuple(0 for _ in range(n_symbols)),)
    return Dfa(Alphabet(SYMS[:n_symbols]), rows, 0, frozenset([0]))


def empty_language(n_symbols):
    rows = (tuple(0 for _ in range(n_symbols)),)
    return Dfa(Alphabet(SYMS[:n_symbols]), rows, 0, frozenset())


def b_power(length, n_symbols):
    """Acceptor of the single trace b^length over the first n_symbols of SYMS."""
    sink = length + 1
    rows = tuple(
        tuple(q + 1 if s == 1 and q < length else sink for s in range(n_symbols))
        for q in range(length + 2)
    )
    return Dfa(Alphabet(SYMS[:n_symbols]), rows, 0, frozenset([length]))


def a_chain(n):
    """The n-state chain over {a, b} that moves on a to its next state and
    loops on b, its last state, which also loops on a, alone accepting: the
    traces with at least n - 1 a's.  Minimal, with |D| = n - 1."""
    rows = tuple((min(q + 1, n - 1), q) for q in range(n))
    return Dfa(Alphabet(SYMS[:2]), rows, 0, frozenset([n - 1]))


def cycle(n):
    """One-symbol acceptor of the traces whose length is a multiple of n."""
    return Dfa(Alphabet(("a",)), tuple(((q + 1) % n,) for q in range(n)), 0, frozenset({0}))


def random_finite_dfa(rng, n_states, n_symbols, accept_p=0.4):
    """Random acyclic acceptor: every move goes to a later state, the last
    state being a rejecting sink, so the language is finite."""
    sink = n_states
    rows = tuple(
        tuple(rng.randrange(q + 1, sink + 1) for _ in range(n_symbols))
        for q in range(n_states)
    ) + ((sink,) * n_symbols,)
    accepting = frozenset(q for q in range(n_states) if rng.random() < accept_p)
    return Dfa(Alphabet(SYMS[:n_symbols]), rows, 0, accepting)


def doubled(d):
    """An unminimized copy of d with twice its states: state q + n*bit
    stands for q and flips ``bit`` on every move."""
    n = d.state_count
    rows = tuple(
        tuple(t + n * (1 - bit) for t in d.transitions[q])
        for bit in (0, 1)
        for q in range(n)
    )
    accepting = frozenset(q + n * bit for q in d.accepting for bit in (0, 1))
    return Dfa(d.alphabet, rows, d.initial, accepting)


def binary_tree(depth):
    """Unminimized acceptor of all words over {a, b} up to ``depth`` long.

    One state per word (2^(depth+1) - 1 of them) plus a sink, so the OGF,
    sum 2^n z^n for n <= depth, has a far smaller degree than the model has
    states.
    """
    inner = 2 ** depth - 1  # states below the last level
    leaves = 2 ** (depth + 1) - 1
    sink = leaves
    rows = [(2 * q + 1, 2 * q + 2) if q < inner else (sink, sink) for q in range(leaves)]
    rows.append((sink, sink))
    return Dfa(Alphabet(SYMS[:2]), tuple(rows), 0, frozenset(range(leaves)))


def moore_minimize(d):
    """Minimal DFA by Moore refinement: split classes by the classes of their
    successors until a round splits nothing, then number the classes by BFS
    from the initial one.  Oracle for the Hopcroft minimizer."""
    reachable = d.reachable_states()
    cls = {q: (1 if q in d.accepting else 0) for q in reachable}
    if len(set(cls.values())) == 1:
        cls = {q: 0 for q in reachable}
    while True:
        sig = {
            q: (cls[q], tuple(cls[d.transitions[q][s]] for s in d.alphabet))
            for q in reachable
        }
        renumber = {}
        for q in reachable:
            renumber.setdefault(sig[q], len(renumber))
        new_cls = {q: renumber[sig[q]] for q in reachable}
        done = len(renumber) == len(set(cls.values()))
        cls = new_cls
        if done:
            break
    rep = {}
    for q in reachable:
        rep.setdefault(cls[q], q)
    ids = {cls[d.initial]: 0}
    order = [cls[d.initial]]
    todo = deque(order)
    while todo:
        q = rep[todo.popleft()]
        for s in d.alphabet:
            t = cls[d.transitions[q][s]]
            if t not in ids:
                ids[t] = len(order)
                order.append(t)
                todo.append(t)
    rows = tuple(
        tuple(ids[cls[d.transitions[rep[c]][s]]] for s in d.alphabet) for c in order
    )
    accepting = frozenset(ids[c] for c in order if rep[c] in d.accepting)
    return Dfa(d.alphabet, rows, 0, accepting)


def fraction_rows_csv(counts, digits=6, mode="both", lo=0, hi=None, max_length=None):
    """Assessment CSV from exact ``Fraction`` rows: a row per n for each part
    the mode asks for (per-length rows kept for lo <= n <= hi, cumulative
    rows for n <= max_length), each value rounded as a Fraction by ``round``.
    Oracle for ``metrics.assessment_csv``, which divides the integers
    directly."""
    hi = counts.max_length if hi is None else hi
    max_length = counts.max_length if max_length is None else max_length

    def ratio(num, den):
        return Fraction(num, den) if den else None

    def render(value):
        if value is None:
            return "undefined"
        scaled = round(value * 10**digits)
        sign = "-" if scaled < 0 else ""
        text = str(abs(scaled)).rjust(digits + 1, "0")
        return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"

    per, cum = {}, {}
    for n in range(counts.max_length + 1):
        tp, fp, fn = counts.tp[n], counts.fp[n], counts.fn[n]
        c_tp, c_fp, c_fn = sum(counts.tp[: n + 1]), sum(counts.fp[: n + 1]), sum(counts.fn[: n + 1])
        if mode != "cumulative" and lo <= n <= hi:
            per[n] = (ratio(tp, tp + fp), ratio(tp, tp + fn))
        if mode != "single" and n <= max_length:
            cum[n] = (ratio(c_tp, c_tp + c_fp), ratio(c_tp, c_tp + c_fn))
    lines = ["n,precision_eq,recall_eq,precision_le,recall_le"]
    for n in sorted(per.keys() | cum.keys()):
        cells = per.get(n, (None, None)) + cum.get(n, (None, None))
        lines.append(",".join([str(n)] + [render(v) for v in cells]))
    return "\n".join(lines) + "\n"


def minimized_confusion_counts(reference, inferred, n_max):
    """tp/fp/fn sequences the way ``confusion_counts`` once took them: three
    minimized confusion automata, the generating function of each, and its
    coefficients.  Oracle for the one-pass count over the product."""
    return tuple(
        tuple(coefficients(compute_ogf(m), n_max)) for m in confusion_automata(reference, inferred)
    )


def berlekamp_massey_mod_oracle(seq, p):
    """Shortest linear recurrence of ``seq`` over GF(p) as ``(c, length)``,
    computed as ``counting._berlekamp_massey_mod`` once did, inverting the
    last discrepancy on every update.  Oracle for that kernel."""
    rev = seq[::-1]
    top = len(seq) - 1
    c, b = [1], [1]
    length, shift, b_disc = 0, 1, 1
    for n in range(len(seq)):
        start = top - n  # rev[start + i] is seq[n - i]
        disc = sum(map(mul, c, rev[start : start + len(c)])) % p
        if disc == 0:
            shift += 1
            continue
        coef = disc * pow(b_disc, -1, p) % p
        old = c
        c = c + [0] * (len(b) + shift - len(c))
        end = shift + len(b)
        c[shift:end] = [(x - coef * y) % p for x, y in zip(c[shift:end], b)]
        if 2 * length <= n:
            length, b, b_disc, shift = n + 1 - length, old, disc, 1
        else:
            shift += 1
    return c, length


def product_table_oracle(a, b):
    """Reachable part of ``a`` x ``b`` the way ``automata._product_table``
    once built it: pairs keyed as tuples, a queue for the BFS, and the rows
    filled in after it.  Oracle for that function."""
    start = (a.initial, b.initial)
    ids = {start: 0}
    order = [start]
    todo = deque([start])
    while todo:
        qa, qb = todo.popleft()
        for s in a.alphabet:
            nxt = (a.transitions[qa][s], b.transitions[qb][s])
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
                todo.append(nxt)
    rows = []
    for qa, qb in order:
        rows.append(
            tuple(ids[(a.transitions[qa][s], b.transitions[qb][s])] for s in a.alphabet)
        )
    return tuple(rows), order


def mbt_by_enumeration(reference, inferred, m):
    """Precision and recall over the W-method test set the way
    ``baselines.mbt_assessment`` once took them: list every cover+middle
    prefix with the distinguishing suffixes that extend it to a test not
    seen before, run each prefix once on the R x H table and each suffix
    from there.  Oracle for the count over the test set's DFA; it skips the
    size guard, so keep its inputs small."""
    assert m >= reference.state_count
    k = m - reference.state_count
    cover = state_cover(reference)
    dist = characterization_set(reference)
    middles = [
        mid
        for i in range(k + 2)
        for mid in itertools.product(range(len(reference.alphabet)), repeat=i)
    ]
    product, classes = confusion_product(reference, inferred)
    rows = product.transitions
    reached = [0] * product.state_count
    seen = set()
    for c in cover:
        for mid in middles:
            prefix = c + mid
            q = 0
            for s in prefix:
                q = rows[q][s]
            for w in dist:
                if prefix + w in seen:
                    continue
                seen.add(prefix + w)
                p = q
                for s in w:
                    p = rows[p][s]
                reached[p] += 1
    tp, fp, fn = (sum(reached[q] for q in members) for members in classes)
    precision = Fraction(tp, tp + fp) if tp + fp else None
    recall = Fraction(tp, tp + fn) if tp + fn else None
    return precision, recall


def sigma_sampling_by_draws(reference, inferred, length, n_target, metric, seed):
    """Uniform sampling the way ``baselines.sigma_sampling_assessment`` once
    ran it: one draw at a time, each of ``length`` symbols
    ``int(rng.random() * sigma)`` stepped through R x H one by one, until
    ``n_target`` draws end in a state of the conditioning model.  Oracle for
    the batched loop; the caller checks that the slice is not too thin."""
    product, (tp, fp, fn) = confusion_product(reference, inferred)
    counted = tp | (fp if metric == "precision" else fn)
    rows = product.transitions
    sigma = len(reference.alphabet)
    rand = random.Random(seed).random
    true_positives = 0
    accepted = 0
    while accepted < n_target:
        q = 0
        for _ in range(length):
            q = rows[q][int(rand() * sigma)]
        if q in counted:
            accepted += 1
            if q in tp:
                true_positives += 1
    return Fraction(true_positives, accepted)


def parse_dfa_by_lines(text):
    """The line-oriented DFA format the way ``automata.parse_dfa`` once
    parsed it: an edge list and a set of the edges seen, the headers checked
    at the first transition, the table filled by ``build_dfa``.  Oracle for
    the one-pass parser, its messages and line numbers included.

    Header lines ``alphabet:``, ``states:``, ``initial:`` and ``accepting:``
    come first (in any order), followed by one ``src symbol dst`` line per
    transition.  Omitted (state, symbol) pairs go to an implicit sink.
    ``#`` starts a comment.
    """
    header = {}
    edges = []
    seen_edges = set()
    alpha = None
    n_states = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if sep and " " not in key:
            key = key.strip()
            if key not in ("alphabet", "states", "initial", "accepting"):
                raise ModelParseError(f"unknown header {key!r}", lineno)
            if key in header:
                raise ModelParseError(f"duplicate {key!r} header", lineno)
            header[key] = (rest.split(), lineno)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ModelParseError("expected 'src symbol dst'", lineno)
        if alpha is None:
            if "alphabet" not in header or "states" not in header:
                raise ModelParseError(
                    "transitions before alphabet/states headers", lineno
                )
            alpha, n_states = _headers_by_lines(header)
        src = _state_by_lines(parts[0], n_states, lineno)
        if parts[1] not in alpha.index:
            raise ModelParseError(f"unknown symbol {parts[1]!r}", lineno)
        dst = _state_by_lines(parts[2], n_states, lineno, dangling=True)
        if (src, parts[1]) in seen_edges:
            raise ModelParseError(
                f"duplicate transition for state {src} on {parts[1]!r}", lineno
            )
        seen_edges.add((src, parts[1]))
        edges.append((src, parts[1], dst))
    if alpha is None:
        if "alphabet" not in header or "states" not in header:
            raise ModelParseError("missing alphabet/states headers")
        alpha, n_states = _headers_by_lines(header)
    if "initial" not in header:
        raise ModelParseError("missing initial state")
    tokens, lineno = header["initial"]
    if len(tokens) != 1:
        raise ModelParseError("initial takes exactly one state", lineno)
    initial = _state_by_lines(tokens[0], n_states, lineno)
    accepting = set()
    if "accepting" in header:
        tokens, lineno = header["accepting"]
        for tok in tokens:
            accepting.add(_state_by_lines(tok, n_states, lineno))
    return build_dfa(alpha.symbols, n_states, initial, accepting, edges)


def _headers_by_lines(header):
    tokens, lineno = header["alphabet"]
    if not tokens:
        raise ModelParseError("empty alphabet", lineno)
    if len(set(tokens)) != len(tokens):
        raise ModelParseError("duplicate symbol in alphabet", lineno)
    alpha = Alphabet(tuple(tokens))
    tokens, lineno = header["states"]
    if len(tokens) != 1 or not tokens[0].isdecimal():
        raise ModelParseError("states header takes one number", lineno)
    # compared as text first: int() refuses numbers of over 4300 digits
    if len(tokens[0].lstrip("0")) > len(str(MAX_STATES)) or int(tokens[0]) > MAX_STATES:
        raise SizeGuardError(f"line {lineno}: more than {MAX_STATES} states")
    n_states = int(tokens[0])
    if n_states < 1:
        raise ModelParseError("need at least one state", lineno)
    return alpha, n_states


def _state_by_lines(token, n_states, lineno, dangling=False):
    try:
        q = int(token)
    except ValueError:
        raise ModelParseError(f"bad state id {token!r}", lineno) from None
    if not 0 <= q < n_states:
        kind = "dangling transition target" if dangling else "state id out of range"
        raise ModelParseError(f"{kind}: {q}", lineno)
    return q


def seeded(seed):
    return random.Random(seed)
