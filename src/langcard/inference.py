"""k-tails model inference from positive traces.

``k_tails(ts, k)`` builds the prefix tree of the training traces, one node
per distinct prefix, and merges the nodes whose sets of accepting suffixes
of length at most k coincide.  That may introduce nondeterminism, so the
quotient is determinized and minimized before being returned.  Merging is
confined to tree nodes: the sink that completes the model never joins a
class.

With k at least the longest training trace, each state's tails are all of
its accepting suffixes, its right language: no proper generalization is
possible, the inferred language is exactly the training set, and the
quotient is already its minimal DFA.  That model is built in one pass over
the tree instead (Revuz, TCS 1992; Daciuk et al., CL 2000): nodes are taken
in reverse id order, children before parents, and each gets the class of
its signature, whether it accepts and the class of its child on each
symbol (the sink's class for a missing child).  Two nodes share a class
exactly when their right languages are equal, so the classes plus the sink
are the minimal DFA, numbered like every minimized model by
``automata.canonical_dfa``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import automata, baselines
from .automata import Alphabet, Dfa, Trace, canonical_dfa, subset_construction
from .baselines import RandomWalkConfig, _trie, _walk_table, _walk_until_covered, derive_rng
from .counting import _STEPS_PER_CHECK, WorkBudget
from .errors import SizeGuardError


@dataclass(frozen=True)
class TrainingSet:
    traces: tuple[Trace, ...]
    alphabet: Alphabet

    def __post_init__(self):
        used = set().union(*self.traces)
        if used and not (min(used) >= 0 and max(used) < len(self.alphabet)):
            raise ValueError("trace symbol outside the alphabet")

    @property
    def max_trace_length(self):
        return max((len(t) for t in self.traces), default=0)


class _Trie:
    """Prefix tree of the training traces; node 0 is the root."""

    def __init__(self, ts: TrainingSet):
        if not ts.traces:
            raise ValueError("training set must not be empty")
        # nodes are numbered in insertion order, children after parents
        self.children, self.accepting = _trie(ts.traces)

    def __len__(self):
        return len(self.children)

    def tails(self, k, check):
        """Per-node set of suffixes of length <= k that reach acceptance.
        ``check`` is called once per ``_STEPS_PER_CHECK`` nodes."""
        # children have larger ids than their parents, so a reverse sweep
        # sees every child's set before its parent's
        sets = [None] * len(self.children)
        for node in range(len(self.children) - 1, -1, -1):
            if not node % _STEPS_PER_CHECK:
                check()
            tails = {()} if node in self.accepting else set()
            for s, nxt in self.children[node].items():
                tails.update((s,) + t for t in sets[nxt] if len(t) < k)
            sets[node] = frozenset(tails)
        return sets

    def minimal_dfa(self, alpha: Alphabet, check) -> Dfa:
        """The minimal DFA of the training set, one class per distinct
        right language of the tree (module docstring).  ``check`` is called
        once per ``_STEPS_PER_CHECK`` nodes.

        Every class is reachable, so the register is refused as soon as it
        opens one class more than ``automata.MAX_STATES``, with the refusal
        ``canonical_dfa`` would give."""
        cap = automata.MAX_STATES
        symbols = range(len(alpha))
        rows = [(0,) * len(alpha)]  # class 0 is the sink
        accepting = set()
        register = {}  # signature -> class
        cls = [0] * (len(self.children) + 1)  # cls[-1], a missing child's, stays 0
        for node in range(len(self.children) - 1, -1, -1):
            if not node % _STEPS_PER_CHECK:
                check()
            kids = self.children[node]
            signature = (node in self.accepting, *[cls[kids.get(s, -1)] for s in symbols])
            c = register.get(signature)
            if c is None:
                c = register[signature] = len(rows)
                if c == cap:
                    raise SizeGuardError(f"the minimal DFA has more than {cap} reachable states")
                rows.append(signature[1:])
                if signature[0]:
                    accepting.add(c)
            cls[node] = c
        return canonical_dfa(alpha, rows, cls[0], accepting)


def k_tails(ts: TrainingSet, k: int, budget: WorkBudget | None = None) -> Dfa:
    """Infer a DFA by merging the prefix-tree states whose accepting
    suffixes of length at most ``k`` (at least 1) coincide.  The deadline
    of ``budget`` is checked once per ``_STEPS_PER_CHECK`` nodes of the
    prefix tree, on every step of a subset of the quotient and once per
    splitter of its minimization."""
    if k < 1:
        raise ValueError("k must be at least 1")
    trie = _Trie(ts)
    check = (budget or WorkBudget()).check("k-tails")
    if k >= ts.max_trace_length:
        return trie.minimal_dfa(ts.alphabet, check)
    tails = trie.tails(k, check)
    classes = {}
    cls = []
    for node in range(len(trie)):
        cls.append(classes.setdefault(tails[node], len(classes)))
    # quotient NFA over classes: moves[s][c], the classes class c moves to on s
    moves = [[set() for _ in classes] for _ in ts.alphabet]
    for node, kids in enumerate(trie.children):
        for s, nxt in kids.items():
            moves[s][cls[node]].add(cls[nxt])
    moves = [list(map(frozenset, per_class)) for per_class in moves]
    accepting_classes = {cls[node] for node in trie.accepting}

    def step(subset, s):
        check()
        return frozenset().union(*map(moves[s].__getitem__, subset))

    dfa = subset_construction(
        ts.alphabet,
        frozenset([cls[0]]),
        step,
        lambda subset: not accepting_classes.isdisjoint(subset),
    )
    return dfa.minimize(check)


def generate_training_set(
    reference: Dfa,
    cfg: RandomWalkConfig,
    min_traces: int = 100,
    min_state_visits: int = 4,
    budget: WorkBudget | None = None,
) -> TrainingSet:
    """Random-walk training material with a coverage-based stopping rule:
    keep walking until at least ``min_traces`` traces exist and every
    visitable state was visited ``min_state_visits`` times.  The deadline
    of ``budget`` is checked as ``baselines._walk_until_covered`` says.
    Each trace holds a slot of ``baselines.MAX_HELD_SLOTS``, so a
    ``min_traces`` past it is refused before the first walk."""
    cap = baselines.MAX_HELD_SLOTS
    if min_traces > cap:
        msg = f"training walks: {min_traces} traces would take at least as many slots (cap {cap})"
        raise SizeGuardError(msg, estimate=min_traces)
    traces = []
    rng = derive_rng(cfg.seed, 2)
    states = range(reference.state_count)
    table = _walk_table(reference, reference.transitions, states, reference.initial, by_state=True)
    stage = "training walks"
    _walk_until_covered(table, cfg, rng, min_traces, min_state_visits, budget, stage, traces.append)
    return TrainingSet(tuple(traces), reference.alphabet)
