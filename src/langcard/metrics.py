"""Accuracy measures computed from exact confusion-language counts.

The counts come from one pass over the product R x H of the reference and
the inferred model, without minimizing anything: one DP sums the traces
ending in the states accepting in both models (tp), in H (|L(H)|, the
precision denominator tp + fp) and in R (|L(R)|, the recall denominator
tp + fn).  With Q the number of product states from which an accepting one
is reachable, the DP alone answers up to length 2Q + 1; past that, each of
the three continues by the linear recurrence proved exact from its first
2Q + 2 terms (see ``counting``), and fp and fn are the differences.  |L(H)|
and |L(R)| each come from a single model, so their recurrences are far
shorter than those of fp and fn, which are product languages.

Precision and recall are exact rationals.  A 0/0 quotient is reported as the
explicit undefined marker ``None`` rather than silently coerced to 0 or 1;
CSV output writes the literal ``undefined`` for it.  Assessment rows are
views over the counts that build their ``Fraction`` values when read; the
CSV is rendered from the integer counts directly, since its text depends on
nothing else.  It is built a column at a time: one exact round-half-even
division per cell, and the text of each distinct rounded value formatted once
per column (long horizons converge, so most cells repeat a value).

A column is constant when tp equals its denominator at every length it
covers: the precision of a model whose language lies inside the
reference's (the exact k-tails model always does), or the recall of one
whose language contains it.  Such a column is exactly 1 wherever its
denominator (for a cumulative column, the running sum) is nonzero and
``undefined`` elsewhere, so it is written with no division and no running
sum.  One tuple comparison per column decides, and it stops at the first
length that differs, so a pair without inclusion pays next to nothing.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from operator import sub

from .automata import confusion_product
from .counting import WorkBudget, check_horizon, coefficients, compute_ogf, count_by_class


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-length counts for one (reference, inferred) pair: tp, and the
    traces in the inferred and in the reference language, |L(H)| = tp + fp
    and |L(R)| = tp + fn, the denominators of precision and recall.  fp and
    fn are the differences, taken the first time they are read."""

    tp: tuple
    h: tuple
    r: tuple

    def __post_init__(self):
        if not len(self.tp) == len(self.h) == len(self.r):
            raise ValueError("count sequences must share a length")

    @cached_property
    def fp(self):
        return tuple(map(sub, self.h, self.tp))

    @cached_property
    def fn(self):
        return tuple(map(sub, self.r, self.tp))

    @property
    def max_length(self):
        return len(self.tp) - 1


@dataclass(frozen=True)
class AssessmentRow:
    n: int
    precision: Fraction | None
    recall: Fraction | None


class AssessmentRows(Sequence):
    """Precision/recall rows for the lengths in ``ns`` over one set of counts,
    per length or cumulative.

    A view: its length and slices cost nothing, and the exact ``Fraction``
    rows are built once, when a row is first read.  ``assessment_csv`` reads
    the integer counts instead and never builds them.
    """

    def __init__(self, counts: ConfusionCounts, ns: range, cumulative: bool):
        self.counts = counts
        self.ns = ns
        self.cumulative = cumulative

    def __len__(self):
        return len(self.ns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AssessmentRows(self.counts, self.ns[index], self.cumulative)
        return self._rows[index]

    def __iter__(self):
        return iter(self._rows)

    @cached_property
    def _rows(self):
        counts, upto = self.counts, range(max(self.ns, default=-1) + 1)
        precision = map(_fraction, *_ratios(counts.tp, counts.h, upto, self.cumulative))
        recall = map(_fraction, *_ratios(counts.tp, counts.r, upto, self.cumulative))
        values = list(zip(precision, recall))
        return [AssessmentRow(n, *values[n]) for n in self.ns]

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self):
        return f"AssessmentRows({list(self)!r})"


@dataclass
class AssessmentResult:
    """Per-length and/or cumulative precision and recall rows over one set of
    counts; a part left out is None."""

    counts: ConfusionCounts
    per_length: AssessmentRows | None = None
    cumulative: AssessmentRows | None = None


def confusion_counts(reference, inferred, n_max, budget=None) -> ConfusionCounts:
    """Exact tp/fp/fn sequences up to n_max, counted together in one pass
    over the product R x H (``counting.count_by_class``) as tp, |L(H)| and
    |L(R)|; fp and fn are the differences, taken when first read."""
    product, (tp_states, fp_states, fn_states) = confusion_product(reference, inferred)
    sets = (tp_states, tp_states | fp_states, tp_states | fn_states)
    tp, h, r = map(tuple, count_by_class(product, sets, n_max, budget))
    return ConfusionCounts(tp, h, r)


def _ratios(nums, dens, ns: range, cumulative: bool):
    """Iterators over num and den at the n of ``ns`` (a range with a
    positive step), over the traces of length n or, if ``cumulative``, over
    those of length at most n.  ``nums`` is tp and ``dens`` |L(H)| for
    precision, |L(R)| for recall.

    The one definition both the ``Fraction`` rows and the CSV cells read.
    """
    nums, dens = nums[: ns.stop], dens[: ns.stop]
    if cumulative:
        nums, dens = accumulate(nums), accumulate(dens)
    return islice(nums, ns.start, ns.stop, ns.step), islice(dens, ns.start, ns.stop, ns.step)


def _fraction(num, den):
    return Fraction(num, den) if den else None


def single_length_assessment(counts: ConfusionCounts) -> AssessmentResult:
    """Precision/recall over the traces of exactly each length."""
    ns = range(counts.max_length + 1)
    return AssessmentResult(counts, per_length=AssessmentRows(counts, ns, cumulative=False))


def cumulative_assessment(counts: ConfusionCounts) -> AssessmentResult:
    """Precision/recall over all traces of length up to each n."""
    ns = range(counts.max_length + 1)
    return AssessmentResult(counts, cumulative=AssessmentRows(counts, ns, cumulative=True))


def assess(counts: ConfusionCounts) -> AssessmentResult:
    """Both assessment flavors over one set of counts."""
    cumulative = cumulative_assessment(counts)
    cumulative.per_length = single_length_assessment(counts).per_length
    return cumulative


def bounded_jaccard(reference, inferred, n_max, budget=None) -> Fraction | None:
    """Jaccard distance between the two languages restricted to traces of
    length at most n_max; undefined (None) when the union is empty.  Both
    solves and both extensions share ``budget``'s deadline.  It holds one
    coefficient list at a time, so ``check_horizon`` bounds one sequence,
    before either product is built."""
    check_horizon(n_max, len(reference.alphabet))
    budget = budget or WorkBudget()
    inter = reference.intersect(inferred).minimize()
    union = reference.union(inferred).minimize()
    inter_total = sum(coefficients(compute_ogf(inter, budget), n_max, budget))
    union_total = sum(coefficients(compute_ogf(union, budget), n_max, budget))
    if union_total == 0:
        return None
    return 1 - Fraction(inter_total, union_total)


def _ratio_column(nums, dens, digits):
    """Exact decimal text of each num/den (den >= 0), rounded half to even;
    ``undefined`` where den is 0.

    One integer ``divmod`` per cell.  The text of a rounded value is built
    the first time the column reaches it and looked up after that.
    """
    scale = 10**digits
    texts = {}
    column = []
    append = column.append
    for num, den in zip(nums, dens):
        if not den:
            append("undefined")
            continue
        # floor division, so num/den = scaled + rest/den with 0 <= rest < den
        scaled, rest = divmod(num * scale, den)
        twice = 2 * rest
        if twice > den or (twice == den and scaled & 1):
            scaled += 1
        text = texts.get(scaled)
        if text is None:
            sign = "-" if scaled < 0 else ""
            text = str(abs(scaled)).rjust(digits + 1, "0")
            text = f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"
            texts[scaled] = text
        append(text)
    return column


def format_ratio(num: int, den: int, digits: int = 6) -> str:
    """Exact decimal rendering of num/den for den >= 0, rounded half to
    even; ``undefined`` when den is 0."""
    return _ratio_column((num,), (den,), digits)[0]


def format_value(value: Fraction | None, digits: int = 6) -> str:
    """Exact decimal rendering (round-half-even); ``undefined`` for None."""
    if value is None:
        return "undefined"
    return format_ratio(value.numerator, value.denominator, digits)


CSV_HEADER = "n,precision_eq,recall_eq,precision_le,recall_le"


def _text_columns(counts: ConfusionCounts, rows: AssessmentRows | None, stop: int, digits: int):
    """The precision and recall texts of ``rows`` at each n < stop, and
    ``undefined`` where it has no row."""
    precision, recall = ["undefined"] * stop, ["undefined"] * stop
    if rows is not None and rows.ns:
        ascending = rows.ns if rows.ns.step > 0 else rows.ns[::-1]
        window = slice(ascending.start, ascending.stop, ascending.step)
        # one pass per column, so no column of counts is held in memory
        precision[window] = _text_column(counts.tp, counts.h, ascending, rows.cumulative, digits)
        recall[window] = _text_column(counts.tp, counts.r, ascending, rows.cumulative, digits)
    return precision, recall


def _text_column(nums, dens, ns: range, cumulative: bool, digits: int):
    """The text of each ratio of ``_ratios(nums, dens, ns, cumulative)``.

    A constant column, where nums equals dens at every length below
    ``ns.stop``, reads 1 wherever its denominator is nonzero and
    ``undefined`` elsewhere, and is written without a division.  Deciding
    takes one tuple comparison, which stops at the first length that
    differs.
    """
    nums, dens = nums[: ns.stop], dens[: ns.stop]
    if nums != dens:
        return _ratio_column(*_ratios(nums, dens, ns, cumulative), digits)
    one = f"1.{'0' * digits}" if digits else "1"
    if cumulative:
        # counts are nonnegative: a running sum is nonzero from the first
        # nonzero count on
        first = next((n for n, den in enumerate(dens) if den), ns.stop)
        undefined = len(range(ns.start, first, ns.step))
        return ["undefined"] * undefined + [one] * (len(ns) - undefined)
    return [one if den else "undefined" for den in islice(dens, ns.start, ns.stop, ns.step)]


def assessment_csv(result: AssessmentResult, digits: int = 6) -> str:
    """Render the rows in the shared schema, straight from the integer counts.

    A line per n that either part has a row for, in increasing n; a part
    without a row there reads ``undefined``.  The text is built a column at
    a time, then joined once into the text.
    """
    parts = (result.per_length, result.cumulative)
    ns = sorted(set().union(*(rows.ns for rows in parts if rows is not None)))
    stop = ns[-1] + 1 if ns else 0
    p_eq, r_eq = _text_columns(result.counts, result.per_length, stop, digits)
    p_le, r_le = _text_columns(result.counts, result.cumulative, stop, digits)
    lines = [CSV_HEADER + "\n"]
    lines += [f"{n},{p_eq[n]},{r_eq[n]},{p_le[n]},{r_le[n]}\n" for n in ns]
    return "".join(lines)


def counts_csv(counts) -> str:
    """One line per length.  The counts, ints or integral ``Decimal``s, are
    written in full, however many digits they have: CPython's cap on ``int``
    to ``str`` conversion (4,300 digits by default, absent before 3.10.7) is
    lifted for this conversion alone.  A Decimal's text takes time linear in
    its length, an int's quadratic time."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        lines = ["length,count\n"]
        # !s calls str() itself, skipping Decimal.__format__
        lines += [f"{n},{c!s}\n" for n, c in enumerate(counts)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return "".join(lines)
