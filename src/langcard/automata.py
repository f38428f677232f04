"""Complete deterministic finite automata and the operations on them.

The model type is always a *complete* DFA: the transition table is total by
construction, with a sink state inserted during parsing or regex compilation
whenever transitions are omitted.  Totality means that every trace runs to
some state, so a trace is rejected exactly when the state it reaches is not
accepting.

All types are immutable; every operation returns a fresh automaton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import AlphabetMismatchError, ModelParseError, SizeGuardError

Trace = tuple[int, ...]

# the most states of any automaton: parse_dfa refuses a larger ``states:``
# header before it allocates a row per state, and _numbered, which numbers
# the states of every automaton built here, refuses to number one more
MAX_STATES = 100_000


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol names; symbol ids are list positions."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbol name")
        if any(not s for s in self.symbols):
            raise ValueError("empty symbol name")

    @cached_property
    def index(self):
        return {name: i for i, name in enumerate(self.symbols)}

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(range(len(self.symbols)))

    def trace_from_names(self, names) -> Trace:
        return tuple(self.index[n] for n in names)

    def names(self, trace) -> tuple[str, ...]:
        return tuple(self.symbols[s] for s in trace)


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: ``transitions[state][symbol]`` is always defined."""

    alphabet: Alphabet
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]

    def __post_init__(self):
        n = len(self.transitions)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        width = len(self.alphabet)
        for row in self.transitions:
            if len(row) != width:
                raise ValueError("transition row does not cover the alphabet")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError("transition target out of range")
        for q in self.accepting:
            if not 0 <= q < n:
                raise ValueError("accepting state out of range")

    @property
    def state_count(self):
        return len(self.transitions)

    def run(self, trace):
        state = self.initial
        for s in trace:
            state = self.transitions[state][s]
        return state

    def accepts(self, trace) -> bool:
        return self.run(trace) in self.accepting

    @cached_property
    def error_states(self) -> frozenset[int]:
        """States from which no accepting state is reachable."""
        reverse = [[] for _ in range(self.state_count)]
        for q, row in enumerate(self.transitions):
            for t in row:
                reverse[t].append(q)
        alive = set(self.accepting)
        todo = deque(alive)
        while todo:
            q = todo.popleft()
            for p in reverse[q]:
                if p not in alive:
                    alive.add(p)
                    todo.append(p)
        return frozenset(range(self.state_count)) - alive

    def reachable_states(self) -> list[int]:
        """States reachable from the initial one, in BFS discovery order."""
        seen = {self.initial}
        order = [self.initial]
        todo = deque(order)
        while todo:
            q = todo.popleft()
            for t in self.transitions[q]:
                if t not in seen:
                    seen.add(t)
                    order.append(t)
                    todo.append(t)
        return order

    def intersect(self, other) -> "Dfa":
        product, (tp, _, _) = confusion_product(self, other)
        return Dfa(self.alphabet, product.transitions, 0, tp)

    def union(self, other) -> "Dfa":
        return confusion_product(self, other)[0]

    def minimize(self, check=None) -> "Dfa":
        """The minimal DFA of the language, canonically numbered; ``check``,
        if given, is called once per splitter block of the refinement."""
        return _minimize(self, check)

    def reindex_to(self, target: Alphabet) -> "Dfa":
        """Re-map symbol ids onto ``target``; the name sets must coincide."""
        if set(self.alphabet.symbols) != set(target.symbols):
            raise AlphabetMismatchError(
                f"symbol sets differ: {sorted(self.alphabet.symbols)} vs {sorted(target.symbols)}"
            )
        perm = [self.alphabet.index[name] for name in target.symbols]
        rows = tuple(tuple(row[p] for p in perm) for row in self.transitions)
        return Dfa(target, rows, self.initial, self.accepting)


def _check_alphabets(a, b):
    if a.alphabet.symbols != b.alphabet.symbols:
        raise AlphabetMismatchError(
            f"alphabets differ: {a.alphabet.symbols} vs {b.alphabet.symbols}"
        )


def _numbered(start, successors, name):
    """Number the keys reachable from ``start`` in BFS order, ``start`` 0,
    the successors of a key taken in the order ``successors(key)`` lists
    them.  Returns ``(rows, order)``: ``rows[i]`` holds the ids of the
    successors of ``order[i]``.

    Refuses (``SizeGuardError``) more than ``MAX_STATES`` keys when it would
    number the first key past the cap, so nothing larger is ever built."""
    cap = MAX_STATES
    ids = {start: 0}
    order = [start]
    rows = []
    for key in order:  # grows while it is walked
        row = []
        for nxt in successors(key):
            i = ids.get(nxt)
            if i is None:
                i = len(order)
                if i == cap:
                    raise SizeGuardError(f"{name} has more than {cap} reachable states")
                ids[nxt] = i
                order.append(nxt)
            row.append(i)
        rows.append(tuple(row))
    return tuple(rows), order


def _product_table(a, b):
    """Reachable part of ``a`` x ``b``: transition rows over pair ids (the
    start pair is 0, pairs numbered in BFS order) and the pair of each id."""
    _check_alphabets(a, b)
    rows_a, rows_b = a.transitions, b.transitions
    return _numbered(
        (a.initial, b.initial),
        lambda pair: zip(rows_a[pair[0]], rows_b[pair[1]]),
        f"the product of a {a.state_count}-state and a {b.state_count}-state model",
    )


def _minimize(d, check):
    # Hopcroft partition refinement on the reachable part (Hopcroft 1971;
    # Valmari & Lehtinen, STACS 2008), then the canonical numbering of
    # ``canonical_dfa`` so that equal languages give equal automata.
    rows = d.transitions
    symbols = range(len(d.alphabet))
    reachable = d.reachable_states()
    inverse = [[[] for _ in rows] for _ in symbols]
    for p in reachable:
        for s, t in enumerate(rows[p]):
            inverse[s][t].append(p)
    final = {q for q in reachable if q in d.accepting}
    blocks = [b for b in (final, set(reachable) - final) if b]
    cls = [0] * len(rows)
    for b, members in enumerate(blocks):
        for q in members:
            cls[q] = b
    # A splitter block refines by every symbol.  When a block splits, both
    # halves wait if it was waiting, else only the smaller one: stability
    # under the block and under one half implies it under the other half.
    pending = [min(range(len(blocks)), key=lambda b: len(blocks[b]))]
    waiting = set(pending)
    while pending:
        if check:
            check()
        splitter = pending.pop()
        waiting.discard(splitter)
        members = list(blocks[splitter])
        for s in symbols:
            preds = inverse[s]
            marked = {}
            for t in members:
                for p in preds[t]:
                    marked.setdefault(cls[p], []).append(p)
            for b, hit in marked.items():
                block = blocks[b]
                if len(hit) == len(block):
                    continue
                block.difference_update(hit)
                new = len(blocks)
                blocks.append(set(hit))
                for p in hit:
                    cls[p] = new
                half = new if b in waiting or len(hit) <= len(block) else b
                pending.append(half)
                waiting.add(half)
    class_rows = [None] * len(blocks)
    for q in reachable:
        c = cls[q]
        if class_rows[c] is None:
            class_rows[c] = [cls[t] for t in rows[q]]
    accepting = {cls[q] for q in reachable if q in d.accepting}
    return canonical_dfa(d.alphabet, class_rows, cls[d.initial], accepting)


def canonical_dfa(alpha: Alphabet, rows, initial, accepting) -> Dfa:
    """The part of the automaton ``rows`` (``rows[q][s]``: the successor of
    state ``q`` on symbol ``s``) reachable from ``initial``, renumbered in
    BFS order from it, symbols visited in id order.

    When no two of its states accept the same language, equal languages
    give equal automata: this is the numbering of every minimal DFA.
    """
    out, order = _numbered(initial, rows.__getitem__, "the minimal DFA")
    return Dfa(alpha, out, 0, frozenset(i for i, q in enumerate(order) if q in accepting))


def subset_construction(alpha: Alphabet, start, step, is_accepting) -> Dfa:
    """Complete DFA over the subsets reachable from the frozenset ``start``.

    ``step(subset, symbol)`` returns the successor frozenset of a nonempty
    subset; the empty subset is the sink.  Subsets are numbered in discovery
    order, ``start`` first, symbols visited in id order, and a subset
    accepts when ``is_accepting(subset)`` holds.
    """
    sinks = (frozenset(),) * len(alpha)
    rows, order = _numbered(
        start,
        lambda subset: [step(subset, s) for s in alpha] if subset else sinks,
        "the subset construction",
    )
    accepting = frozenset(i for i, subset in enumerate(order) if is_accepting(subset))
    return Dfa(alpha, rows, 0, accepting)


def confusion_product(reference, inferred):
    """The reachable product R x H of ``reference`` and ``inferred`` and the
    classes of its states.

    Returns the product as a ``Dfa`` accepting the traces of either model,
    and the partition of its accepting states into the states in both models
    (true positives), only in ``inferred`` (false positives) and only in
    ``reference`` (false negatives); the other states are in neither."""
    rows, pairs = _product_table(reference, inferred)
    tp, fp, fn = set(), set(), set()
    for i, (qr, qh) in enumerate(pairs):
        if qh in inferred.accepting:
            (tp if qr in reference.accepting else fp).add(i)
        elif qr in reference.accepting:
            fn.add(i)
    classes = (frozenset(tp), frozenset(fp), frozenset(fn))
    return Dfa(reference.alphabet, rows, 0, frozenset().union(*classes)), classes


def confusion_automata(reference, inferred):
    """Minimized acceptors for true-positive, false-positive and
    false-negative traces of ``inferred`` against ``reference``: the one
    product of ``confusion_product``, accepting each class in turn."""
    product, classes = confusion_product(reference, inferred)
    return tuple(
        Dfa(product.alphabet, product.transitions, 0, members).minimize()
        for members in classes
    )


def build_dfa(symbols, n_states, initial, accepting, edges) -> Dfa:
    """Assemble a complete DFA from sparse ``(src, symbol_name, dst)`` edges.

    Missing (state, symbol) pairs are routed to a fresh sink state with
    self-loops, mirroring the text format's implicit-sink rule.
    """
    alpha = Alphabet(tuple(symbols))
    table = [[None] * len(alpha) for _ in range(n_states)]
    for src, name, dst in edges:
        table[src][alpha.index[name]] = dst
    return _completed(alpha, table, initial, accepting)


def _completed(alpha, table, initial, accepting) -> Dfa:
    """The DFA of ``table``, rows of targets with ``None`` for an omitted
    pair; when a pair is omitted, all of them go to one appended sink."""
    sink = len(table)
    if any(None in row for row in table):
        table = [[sink if t is None else t for t in row] for row in table]
        table.append([sink] * len(alpha))
    return Dfa(alpha, tuple(map(tuple, table)), initial, frozenset(accepting))


# ---------------------------------------------------------------------------
# Text formats


def parse_dfa(text) -> Dfa:
    """Parse the line-oriented DFA format.

    Header lines ``alphabet:``, ``states:``, ``initial:`` and ``accepting:``
    come in any order, but ``alphabet`` and ``states`` before the first
    transition.  A transition is a ``src symbol dst`` line, at most one per
    (state, symbol); omitted pairs go to an implicit sink.  A line is a
    header when no space comes before its first ``:``.  ``#`` starts a
    comment.

    Each line is read once, its transition written straight into the table,
    so a filled cell is a duplicate.  The checks of a transition line come in
    this order: its three fields, the alphabet/states headers, the source,
    the symbol, the target, and last the duplicate.
    """
    header = {}
    table = None  # targets by state and symbol, allocated at the first transition
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if ":" in line:
            key, _, rest = line.strip().partition(":")
            if " " not in key:
                key = key.strip()
                if key not in ("alphabet", "states", "initial", "accepting"):
                    raise ModelParseError(f"unknown header {key!r}", lineno)
                if key in header:
                    raise ModelParseError(f"duplicate {key!r} header", lineno)
                header[key] = (rest.split(), lineno)
                continue
        try:
            src, name, dst = parts
        except ValueError:
            raise ModelParseError("expected 'src symbol dst'", lineno) from None
        if table is None:
            alpha, table = _empty_table(header, lineno)
            n_states = len(table)
            index = alpha.index
        try:
            q, t = int(src), int(dst)
        except ValueError:
            q = t = -1
        s = index.get(name)
        if s is None or not (0 <= q < n_states and 0 <= t < n_states):
            # one of these checks fails: the first, in the documented order
            _parse_state(src, n_states, lineno)
            if s is None:
                raise ModelParseError(f"unknown symbol {name!r}", lineno)
            _parse_state(dst, n_states, lineno, dangling=True)
        row = table[q]
        if row[s] is not None:
            raise ModelParseError(f"duplicate transition for state {q} on {name!r}", lineno)
        row[s] = t
    if table is None:
        alpha, table = _empty_table(header)
        n_states = len(table)
    if "initial" not in header:
        raise ModelParseError("missing initial state")
    tokens, lineno = header["initial"]
    if len(tokens) != 1:
        raise ModelParseError("initial takes exactly one state", lineno)
    initial = _parse_state(tokens[0], n_states, lineno)
    accepting = set()
    if "accepting" in header:
        tokens, lineno = header["accepting"]
        for tok in tokens:
            accepting.add(_parse_state(tok, n_states, lineno))
    return _completed(alpha, table, initial, accepting)


def _empty_table(header, lineno=None):
    """The alphabet and a table of ``None`` rows, one per state, read off the
    headers at the first transition, on line ``lineno``, or at the end of a
    file without one.  The state count is checked before a row is made."""
    if "alphabet" not in header or "states" not in header:
        if lineno is None:
            raise ModelParseError("missing alphabet/states headers")
        raise ModelParseError("transitions before alphabet/states headers", lineno)
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
    return alpha, [[None] * len(alpha) for _ in range(n_states)]


def _parse_state(token, n_states, lineno, dangling=False):
    try:
        q = int(token)
    except ValueError:
        raise ModelParseError(f"bad state id {token!r}", lineno) from None
    if not 0 <= q < n_states:
        kind = "dangling transition target" if dangling else "state id out of range"
        raise ModelParseError(f"{kind}: {q}", lineno)
    return q


def serialize_dfa(d) -> str:
    """Write a DFA back in the text format, with the full transition table."""
    lines = [
        "alphabet: " + " ".join(d.alphabet.symbols),
        f"states: {d.state_count}",
        f"initial: {d.initial}",
        "accepting: " + " ".join(str(q) for q in sorted(d.accepting)),
    ]
    for q, row in enumerate(d.transitions):
        for s, t in enumerate(row):
            lines.append(f"{q} {d.alphabet.symbols[s]} {t}")
    return "\n".join(lines) + "\n"


def parse_traces(text, alpha: Alphabet) -> list[Trace]:
    """Trace file: one trace per line of symbol names; an empty line is the
    empty trace; ``#`` starts a comment (a comment-only line is skipped, not
    read as an empty trace)."""
    traces = []
    for lineno, names in _trace_names(text):
        try:
            traces.append(alpha.trace_from_names(names))
        except KeyError as exc:
            raise ModelParseError(f"unknown symbol {exc.args[0]!r}", lineno) from None
    return traces


def _trace_names(text):
    """``(line number, symbol names)`` of each trace of a trace file, by the
    rules of ``parse_traces``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.lstrip().startswith("#"):
            yield lineno, raw.split("#", 1)[0].split()


def format_traces(traces, alpha: Alphabet) -> str:
    return "\n".join(" ".join(alpha.names(t)) for t in traces) + "\n"
