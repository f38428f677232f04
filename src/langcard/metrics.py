"""Accuracy measures computed from exact confusion-language counts.

The counts come from one pass over the product R x H of the reference and
the inferred model: each product state is in both models, only in H, only in
R or in neither, and one DP sums the traces ending in the first three
classes, giving tp, fp and fn together without minimizing anything.  With Q
the number of product states from which an accepting one is reachable, the
DP alone answers up to length 2Q + 1; past that, each sequence continues by
the linear recurrence proved exact from its first 2Q + 2 terms (see
``counting``).

Precision and recall are exact rationals.  A 0/0 quotient is reported as the
explicit undefined marker ``None`` rather than silently coerced to 0 or 1;
CSV output writes the literal ``undefined`` for it.  Assessment rows are
views over the counts that build their ``Fraction`` values when read; the
CSV is rendered from the integer counts directly, one round-half-even
division per cell, since its text depends on nothing else.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

from .automata import confusion_product
from .counting import coefficients, compute_ogf, count_by_class


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-length counts of true-positive, false-positive and false-negative
    traces for one (reference, inferred) pair."""

    tp: tuple[int, ...]
    fp: tuple[int, ...]
    fn: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        if not len(self.tp) == len(self.fp) == len(self.fn):
            raise ValueError("count sequences must share a length")

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
        part = 2 if self.cumulative else 1
        pairs = list(islice(_ratio_pairs(self.counts), max(self.ns, default=-1) + 1))
        return [
            AssessmentRow(n, *(_fraction(pair) for pair in pairs[n][part])) for n in self.ns
        ]

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __add__(self, other):
        return list(self) + list(other)

    def __repr__(self):
        return f"AssessmentRows({list(self)!r})"


@dataclass
class AssessmentResult:
    """Per-length and/or cumulative precision and recall rows over one set of
    counts; a part left out is None.  ``c_tp``, ``c_fp`` and ``c_fn`` total
    the counts over every length they cover."""

    counts: ConfusionCounts
    per_length: AssessmentRows | None = None
    cumulative: AssessmentRows | None = None

    @property
    def c_tp(self):
        return sum(self.counts.tp)

    @property
    def c_fp(self):
        return sum(self.counts.fp)

    @property
    def c_fn(self):
        return sum(self.counts.fn)


def confusion_counts(reference, inferred, n_max, budget=None) -> ConfusionCounts:
    """Exact tp/fp/fn sequences up to n_max, counted together in one pass
    over the product R x H (``counting.count_by_class``)."""
    product, classes = confusion_product(reference, inferred)
    tp, fp, fn = count_by_class(product, classes, n_max, budget)
    return ConfusionCounts(
        tp=tuple(tp), fp=tuple(fp), fn=tuple(fn), alphabet_size=len(reference.alphabet)
    )


def _ratio_pairs(counts: ConfusionCounts):
    """Per n: the (numerator, denominator) integers of precision and recall
    over the traces of length n, then over those of length at most n.

    The one definition both the ``Fraction`` rows and the CSV cells read.
    """
    c_tp = c_fp = c_fn = 0
    for n, (tp, fp, fn) in enumerate(zip(counts.tp, counts.fp, counts.fn)):
        c_tp += tp
        c_fp += fp
        c_fn += fn
        yield n, ((tp, tp + fp), (tp, tp + fn)), ((c_tp, c_tp + c_fp), (c_tp, c_tp + c_fn))


def _fraction(pair):
    num, den = pair
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
    length at most n_max; undefined (None) when the union is empty."""
    inter = reference.intersect(inferred).minimize()
    union = reference.union(inferred).minimize()
    inter_total = sum(coefficients(compute_ogf(inter, budget), n_max))
    union_total = sum(coefficients(compute_ogf(union, budget), n_max))
    if union_total == 0:
        return None
    return 1 - Fraction(inter_total, union_total)


def format_ratio(num: int, den: int, digits: int = 6) -> str:
    """Exact decimal rendering of num/den for den >= 0, rounded half to
    even; ``undefined`` when den is 0."""
    if den == 0:
        return "undefined"
    # floor division, so num/den = scaled + rest/den with 0 <= rest < den
    scaled, rest = divmod(num * 10**digits, den)
    twice = 2 * rest
    if twice > den or (twice == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def format_value(value: Fraction | None, digits: int = 6) -> str:
    """Exact decimal rendering (round-half-even); ``undefined`` for None."""
    if value is None:
        return "undefined"
    return format_ratio(value.numerator, value.denominator, digits)


CSV_HEADER = "n,precision_eq,recall_eq,precision_le,recall_le"
_UNDEFINED_PAIR = ("undefined", "undefined")


def assessment_csv(result: AssessmentResult, digits: int = 6) -> str:
    """Render the rows in the shared schema, straight from the integer counts.

    A line per n that either part has a row for, in increasing n; a part
    without a row there reads ``undefined``.
    """
    per = result.per_length.ns if result.per_length is not None else range(0)
    cum = result.cumulative.ns if result.cumulative is not None else range(0)
    stop = max(max(per, default=-1), max(cum, default=-1)) + 1
    lines = [CSV_HEADER]
    for n, (precision, recall), (c_precision, c_recall) in islice(
        _ratio_pairs(result.counts), stop
    ):
        in_per = n in per
        in_cum = n in cum
        if not (in_per or in_cum):
            continue
        p_eq, r_eq = (
            (format_ratio(*precision, digits), format_ratio(*recall, digits))
            if in_per
            else _UNDEFINED_PAIR
        )
        p_le, r_le = (
            (format_ratio(*c_precision, digits), format_ratio(*c_recall, digits))
            if in_cum
            else _UNDEFINED_PAIR
        )
        lines.append(f"{n},{p_eq},{r_eq},{p_le},{r_le}")
    return "\n".join(lines) + "\n"


def counts_csv(counts: list[int]) -> str:
    lines = ["length,count"]
    lines += [f"{n},{c}" for n, c in enumerate(counts)]
    return "\n".join(lines) + "\n"
