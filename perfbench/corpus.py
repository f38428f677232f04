"""Seeded corpus generator for the benchmark, independent of ``langcard``.

Models are complete DFAs held as plain transition tables.  Everything here --
drawing tables and mutants, minimization, product reachability and the text
writer -- is the benchmark's own code, so the program under test only ever
sees the files written from these tables.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass

SYMBOLS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Model:
    """Complete DFA: ``table[q][s]`` is the successor of q on symbol s."""

    sigma: int
    table: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]

    @property
    def states(self):
        return len(self.table)

    def accepts(self, word):
        q = self.initial
        for s in word:
            q = self.table[q][s]
        return q in self.accepting

    def text(self):
        """The model in ``langcard``'s line-oriented DFA format."""
        names = SYMBOLS[: self.sigma]
        lines = [
            "alphabet: " + " ".join(names),
            f"states: {self.states}",
            f"initial: {self.initial}",
            "accepting: " + " ".join(str(q) for q in sorted(self.accepting)),
        ]
        for q, row in enumerate(self.table):
            lines.extend(f"{q} {names[s]} {t}" for s, t in enumerate(row))
        return "\n".join(lines) + "\n"


def minimized(m: Model) -> Model:
    """Reachable part, Moore-refined, renumbered in BFS order from the start."""
    reach = [m.initial]
    seen = {m.initial}
    for q in reach:
        for t in m.table[q]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    cls = {q: int(q in m.accepting) for q in reach}
    n_cls = len(set(cls.values()))
    while True:
        sigs = {q: (cls[q],) + tuple(cls[t] for t in m.table[q]) for q in reach}
        ids = {}
        new = {q: ids.setdefault(sigs[q], len(ids)) for q in reach}
        cls = new
        if len(ids) == n_cls:
            break
        n_cls = len(ids)
    rep = {}
    for q in reach:
        rep.setdefault(cls[q], q)
    order = [cls[m.initial]]
    index = {order[0]: 0}
    for c in order:
        for t in m.table[rep[c]]:
            if cls[t] not in index:
                index[cls[t]] = len(order)
                order.append(cls[t])
    table = tuple(tuple(index[cls[t]] for t in m.table[rep[c]]) for c in order)
    accepting = frozenset(index[c] for c in order if rep[c] in m.accepting)
    return Model(m.sigma, table, 0, accepting)


def random_model(rng: random.Random, n: int, sigma: int, p_accept=0.5) -> Model:
    """Minimized random DFA drawn from ``n`` states; at most ``n`` remain."""
    table = tuple(tuple(rng.randrange(n) for _ in range(sigma)) for _ in range(n))
    accepting = frozenset(q for q in range(n) if rng.random() < p_accept)
    return minimized(Model(sigma, table, 0, accepting))


def mutant(rng: random.Random, m: Model, edits: int, flips: int) -> Model:
    """``m`` with ``edits`` redirected transitions and ``flips`` toggled
    accepting states, minimized."""
    table = [list(row) for row in m.table]
    for _ in range(edits):
        q, s = rng.randrange(m.states), rng.randrange(m.sigma)
        table[q][s] = rng.randrange(m.states)
    accepting = set(m.accepting)
    for q in rng.sample(range(m.states), min(flips, m.states)):
        accepting ^= {q}
    return minimized(Model(m.sigma, tuple(map(tuple, table)), m.initial, frozenset(accepting)))


def reachable_pairs(r: Model, h: Model) -> list[tuple[int, int]]:
    """States of the product R x H reachable from the start, in BFS order."""
    start = (r.initial, h.initial)
    order = [start]
    seen = {start}
    todo = deque(order)
    while todo:
        qr, qh = todo.popleft()
        for s in range(r.sigma):
            nxt = (r.table[qr][s], h.table[qh][s])
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                todo.append(nxt)
    return order


def live_fraction(m: Model, length: int) -> float:
    """Share of the sigma**length words of one length that ``m`` accepts."""
    v = [0.0] * m.states
    v[m.initial] = 1.0
    for _ in range(length):
        nv = [0.0] * m.states
        for q, x in enumerate(v):
            if x:
                for t in m.table[q]:
                    nv[t] += x / m.sigma
        v = nv
    return sum(v[q] for q in m.accepting)


def draw_pair(rng, sigma, n_ref, edits, flips, pairs_lo, pairs_hi):
    """A (reference, mutant) pair whose product has ``pairs_lo..pairs_hi``
    reachable states and whose reference has at least two states."""
    while True:
        r = random_model(rng, n_ref, sigma)
        if r.states < 2 or not r.accepting:
            continue
        h = mutant(rng, r, edits, flips)
        if not h.accepting:
            continue
        if pairs_lo <= len(reachable_pairs(r, h)) <= pairs_hi:
            return r, h


def digest(files: dict[str, str]) -> str:
    """SHA-256 over file names and contents, in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def confusion_sizes(r: Model, h: Model) -> tuple[int, int, int]:
    """State counts of the minimized tp, fp and fn acceptors of (r, h)."""
    pairs = reachable_pairs(r, h)
    index = {p: i for i, p in enumerate(pairs)}
    table = tuple(
        tuple(index[(r.table[qr][s], h.table[qh][s])] for s in range(r.sigma))
        for qr, qh in pairs
    )
    sizes = []
    for want_r, want_h in ((True, True), (False, True), (True, False)):
        acc = frozenset(
            i for i, (qr, qh) in enumerate(pairs)
            if (qr in r.accepting) == want_r and (qh in h.accepting) == want_h
        )
        sizes.append(minimized(Model(r.sigma, table, 0, acc)).states)
    return tuple(sizes)


def training_words(rng, m: Model, count: int, lo: int, hi: int, attempts=100):
    """``count`` distinct words that ``m`` accepts, of lengths in ``lo..hi``:
    uniform random walks kept when they end in an accepting state.  None
    when ``attempts`` walks do not find them."""
    words = set()
    symbols = range(m.sigma)
    for _ in range(attempts):
        w = tuple(rng.choices(symbols, k=rng.randint(lo, hi)))
        q = m.initial
        for s in w:
            q = m.table[q][s]
        if q in m.accepting:
            words.add(w)
            if len(words) == count:
                return sorted(words)
    return None


def expected_walk_length(m: Model, pa: float) -> float:
    """Mean length of a random walk that picks uniformly among transitions
    to states that can still accept and stops at an accepting state with
    probability ``pa`` (the training-trace walk of the program under test).
    Infinite when the walk can get stuck, which makes it restart."""
    live = {q for q in range(m.states) if q in m.accepting}
    changed = True
    while changed:
        changed = False
        for q in range(m.states):
            if q not in live and any(t in live for t in m.table[q]):
                live.add(q)
                changed = True
    if m.initial not in live:
        return math.inf
    succ = {q: [t for t in m.table[q] if t in live] for q in live}
    if not all(succ.values()):
        return math.inf
    # E[q] = go(q) * (1 + mean of E over live successors), solved exactly
    order = sorted(live)
    index = {q: i for i, q in enumerate(order)}
    rows = []
    for q in order:
        go = 1.0 - (pa if q in m.accepting else 0.0)
        row = [0.0] * (len(order) + 1)
        row[index[q]] += 1.0
        for t in succ[q]:
            row[index[t]] -= go / len(succ[q])
        row[-1] = go
        rows.append(row)
    for col in range(len(order)):
        pivot = max(range(col, len(order)), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(len(order)):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    i = index[m.initial]
    return rows[i][-1] / rows[i][i]
