"""Command-line front end.

Each command returns its result text and the record of its run; ``main``
alone writes the result file together with a JSON manifest holding the full
configuration, both or neither, so a run can be reproduced exactly (the
manifest's duration field is the only part that varies between runs).

``main`` is also the one error boundary: every failure is a ``LangcardError``
whose class carries the exit code and the stderr label.  Exit codes: 0
success, 1 usage, 2 input parse problem, 3 resource limit exceeded, 4 method
refusal (size guard, or a method that cannot run on the given model), 5 output
file cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from decimal import Decimal
from typing import NamedTuple

from . import __version__
from .automata import Alphabet, Dfa, _trace_names, format_traces, parse_dfa, parse_traces, serialize_dfa
from .baselines import (
    DEFAULT_SEED,
    RandomWalkConfig,
    mbt_assessment,
    sigma_sampling_assessment,
    trace_similarity,
    trace_similarity_conditioned,
)
from .counting import WorkBudget, check_horizon, compute_ogf, coefficients, count_dp
from .errors import LangcardError, ModelParseError
from .inference import TrainingSet, generate_training_set, k_tails
from .metrics import (
    CSV_HEADER,
    assess,
    assessment_csv,
    confusion_counts,
    counts_csv,
    cumulative_assessment,
    format_value,
    single_length_assessment,
)
from .report import render_chart, series_from_csv

# the most decimal places --digits accepts: a rendered value of up to 1,001
# digits stays well inside CPython's int-to-str limit of 4,300
MAX_DIGITS = 1000


class _UsageError(LangcardError):
    exit_code = 1
    label = "usage error"


class _OutputError(LangcardError):
    exit_code = 5
    label = "output error"


class _Answered(LangcardError):
    """argparse has answered the call itself (``--help``, ``--version``)."""

    exit_code = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        # reached only from --help and --version, since error() raises
        raise _Answered


class _Output(NamedTuple):
    """What a command produced: the result file's path and text, and the
    record of the run that goes into its manifest."""

    path: str
    text: str
    command: str
    inputs: dict
    config: dict
    extra: dict = {}


def _write_all(files):
    """Write every ``(path, text)`` pair, or leave none of the paths behind.

    Each text goes to a temporary name first; only when all of them are
    written are they renamed into place, and a failure removes every file
    written so far."""
    written = []
    try:
        for path, text in files:
            tmp = f"{path}.tmp.{os.getpid()}"
            written.append(tmp)
            with open(tmp, "w") as fh:
                fh.write(text)
        for index, (path, _) in enumerate(files):
            os.replace(written[index], path)
            written[index] = path
    # UnicodeEncodeError: text taken from undecodable command-line bytes
    except (OSError, UnicodeEncodeError) as exc:
        for name in written:
            with contextlib.suppress(OSError):
                os.remove(name)
        reason = exc.reason if isinstance(exc, UnicodeEncodeError) else exc.strerror
        raise _OutputError(f"cannot write {path}: {reason}") from None


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ModelParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"cannot read {path}: not {exc.encoding} text") from None


def _load_model(path) -> Dfa:
    return parse_dfa(_read(path))


def _load_pair(ref_path, inf_path):
    reference = _load_model(ref_path)
    inferred = _load_model(inf_path)
    if reference.alphabet.symbols != inferred.alphabet.symbols:
        # same names in a different order are tolerated; reindex onto R
        inferred = inferred.reindex_to(reference.alphabet)
    return reference, inferred


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise _UsageError("range must look like A..B")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError("range bounds must be integers") from None
    if lo < 0 or hi < lo:
        raise _UsageError("range must satisfy 0 <= A <= B")
    return lo, hi


def _checked(convert, accept, expected):
    """argparse type: ``convert`` the text, then require ``accept(value)``."""

    def parse(text):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_nonnegative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_digits = _checked(int, lambda v: 0 <= v <= MAX_DIGITS, f"an integer in 0..{MAX_DIGITS}")
_probability = _checked(float, lambda v: 0 < v <= 1, "a probability in (0, 1]")
_seconds = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number of seconds")
_symbols = _checked(
    str, lambda v: len(set(v.split())) == len(v.split()), "distinct space-separated symbols"
)


def build_parser():
    parser = _Parser(prog="langcard", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="exact precision/recall of a model pair")
    p.add_argument("reference")
    p.add_argument("inferred")
    p.add_argument("--max-length", type=_nonnegative_int, default=200)
    p.add_argument("--range", dest="length_range", default=None, metavar="A..B")
    p.add_argument("--mode", choices=("single", "cumulative", "both"), default="both")
    p.add_argument("--digits", type=_digits, default=6, help=f"decimal places, at most {MAX_DIGITS}")
    p.add_argument("--time-limit", type=_seconds, default=600.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("count", help="count accepted traces per length")
    p.add_argument("model")
    p.add_argument("--max-length", type=_nonnegative_int, default=200)
    p.add_argument("--oracle", choices=("dp",), default=None)
    p.add_argument("--time-limit", type=_seconds, default=600.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("baseline", help="run a comparison assessment method")
    p.add_argument(
        "method",
        choices=("trace-sim", "trace-sim-conditioned", "mbt", "sigma-sample"),
    )
    p.add_argument("reference")
    p.add_argument("inferred")
    p.add_argument("--pa", type=_probability, default=0.1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--target-traces", type=_nonnegative_int, default=100_000)
    p.add_argument("--min-coverage", type=_nonnegative_int, default=10)
    p.add_argument("--time-limit", type=_seconds, default=1800.0)
    p.add_argument("--m-bound", type=_nonnegative_int, default=None, help="state bound for mbt")
    p.add_argument("--length", type=_nonnegative_int, default=None, help="trace length for sigma-sample")
    p.add_argument("--samples", type=_positive_int, default=1000, help="accepted samples for sigma-sample")
    p.add_argument("--metric", choices=("precision", "recall"), default="precision")
    p.add_argument("--digits", type=_digits, default=6, help=f"decimal places, at most {MAX_DIGITS}")
    p.add_argument("--out", required=True)

    p = sub.add_parser("infer", help="k-tails inference from a trace file")
    p.add_argument("traces")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--alphabet", type=_symbols, default=None, help="space-separated symbols (default: from traces)")
    p.add_argument("--time-limit", type=_seconds, default=600.0)
    p.add_argument("--out-model", required=True)

    p = sub.add_parser("gen-traces", help="random-walk training traces from a model")
    p.add_argument("model")
    p.add_argument("--pa", type=_probability, default=0.1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--min-traces", type=_nonnegative_int, default=100)
    p.add_argument("--min-state-visits", type=_nonnegative_int, default=4)
    p.add_argument("--time-limit", type=_seconds, default=1800.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="render assessment CSVs as an SVG chart")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--columns", default="precision_eq,recall_eq")
    p.add_argument("--title", default="")
    p.add_argument("--out", required=True)
    return parser


# built once per process: parse_args keeps no state between calls, and the
# build costs about as much as a small command
_shared_parser = functools.cache(build_parser)


def _cmd_assess(args):
    reference, inferred = _load_pair(args.reference, args.inferred)
    if args.length_range:
        lo, hi = _parse_range(args.length_range)
    else:
        lo, hi = 0, args.max_length
    # count only as far as the rows the mode writes
    if args.mode == "single":
        n_max, assessment = hi, single_length_assessment
    elif args.mode == "cumulative":
        n_max, assessment = args.max_length, cumulative_assessment
    else:
        n_max, assessment = max(args.max_length, hi), assess
    budget = WorkBudget(time_limit_s=args.time_limit)
    result = assessment(confusion_counts(reference, inferred, n_max, budget))
    # slices of the row views: no row is built, the CSV reads the counts
    if result.per_length is not None:
        result.per_length = result.per_length[lo : hi + 1]
    if result.cumulative is not None:
        result.cumulative = result.cumulative[: args.max_length + 1]
    return _Output(
        args.out,
        assessment_csv(result, args.digits),
        "assess",
        {"reference": args.reference, "inferred": args.inferred},
        {
            "max_length": args.max_length,
            "range": [lo, hi],
            "mode": args.mode,
            "digits": args.digits,
            "time_limit": args.time_limit,
        },
    )


def _cmd_count(args):
    model = _load_model(args.model)
    budget = WorkBudget(time_limit_s=args.time_limit)
    extra = {}
    if args.oracle == "dp":
        counts = count_dp(model, args.max_length, budget)
    else:
        check_horizon(args.max_length, len(model.alphabet))
        ogf = compute_ogf(model, budget)
        # Decimals, whose text is linear in their length where an int's is
        # quadratic
        counts = coefficients(ogf, args.max_length, budget, number=Decimal)
        extra["ogf"] = str(ogf)
        print(f"OGF: {ogf}")
    return _Output(
        args.out,
        counts_csv(counts),
        "count",
        {"model": args.model},
        {"max_length": args.max_length, "oracle": args.oracle, "time_limit": args.time_limit},
        extra,
    )


def _baseline_rows(args, reference, inferred):
    """The CSV rows of one baseline method and its extra manifest keys."""
    cfg = RandomWalkConfig(
        termination_probability=args.pa,
        target_trace_count=args.target_traces,
        min_transition_coverage=args.min_coverage,
        seed=args.seed,
    )
    budget = WorkBudget(time_limit_s=args.time_limit)
    und = "undefined"
    digits = args.digits
    if args.method == "trace-sim":
        res = trace_similarity(reference, inferred, cfg, budget)
        n = max(res.e_precision.longest, res.e_recall.longest)
        row = f"{n},{und},{und},{format_value(res.precision, digits)},{format_value(res.recall, digits)}"
        return [row], {"traces_precision": res.e_precision.total, "traces_recall": res.e_recall.total}
    if args.method == "trace-sim-conditioned":
        rows = trace_similarity_conditioned(reference, inferred, cfg, budget)
        return [
            f"{row.n},{format_value(row.precision, digits)},"
            f"{format_value(row.recall, digits)},{und},{und}"
            for row in rows
        ], {}
    if args.method == "mbt":
        if args.m_bound is None:
            raise _UsageError("mbt needs --m-bound")
        if args.m_bound < reference.state_count:
            raise _UsageError(
                f"--m-bound {args.m_bound} is below the reference's "
                f"{reference.state_count} states"
            )
        precision, recall = mbt_assessment(reference, inferred, args.m_bound, budget)
        return [f"0,{und},{und},{format_value(precision, digits)},{format_value(recall, digits)}"], {}
    # sigma-sample, the last of the parser's choices
    if args.length is None:
        raise _UsageError("sigma-sample needs --length")
    value = sigma_sampling_assessment(
        reference, inferred, args.length, args.samples, args.metric, args.seed, budget
    )
    cell = format_value(value, digits)
    if args.metric == "precision":
        return [f"{args.length},{cell},{und},{und},{und}"], {}
    return [f"{args.length},{und},{cell},{und},{und}"], {}


def _cmd_baseline(args):
    reference, inferred = _load_pair(args.reference, args.inferred)
    rows, extra = _baseline_rows(args, reference, inferred)
    return _Output(
        args.out,
        "\n".join([CSV_HEADER, *rows]) + "\n",
        f"baseline:{args.method}",
        {"reference": args.reference, "inferred": args.inferred},
        {
            "pa": args.pa,
            "seed": args.seed,
            "target_traces": args.target_traces,
            "min_coverage": args.min_coverage,
            "time_limit": args.time_limit,
            "m_bound": args.m_bound,
            "length": args.length,
            "samples": args.samples,
            "metric": args.metric,
            "digits": args.digits,
        },
        extra,
    )


def _cmd_infer(args):
    text = _read(args.traces)
    if args.alphabet:
        symbols = tuple(args.alphabet.split())
    else:
        symbols = tuple(sorted({tok for _, names in _trace_names(text) for tok in names}))
        if not symbols:
            raise ModelParseError("trace file holds no symbols; pass --alphabet")
    alpha = Alphabet(symbols)
    traces = parse_traces(text, alpha)
    if not traces:
        raise ModelParseError("trace file holds no traces")
    budget = WorkBudget(time_limit_s=args.time_limit)
    model = k_tails(TrainingSet(tuple(traces), alpha), args.k, budget)
    return _Output(
        args.out_model,
        serialize_dfa(model),
        "infer",
        {"traces": args.traces},
        {"k": args.k, "alphabet": list(symbols), "time_limit": args.time_limit},
        {"states": model.state_count},
    )


def _cmd_gen_traces(args):
    model = _load_model(args.model)
    cfg = RandomWalkConfig(termination_probability=args.pa, seed=args.seed)
    ts = generate_training_set(
        model,
        cfg,
        min_traces=args.min_traces,
        min_state_visits=args.min_state_visits,
        budget=WorkBudget(time_limit_s=args.time_limit),
    )
    return _Output(
        args.out,
        format_traces(ts.traces, model.alphabet),
        "gen-traces",
        {"model": args.model},
        {
            "pa": args.pa,
            "seed": args.seed,
            "min_traces": args.min_traces,
            "min_state_visits": args.min_state_visits,
            "time_limit": args.time_limit,
        },
        {"traces": len(ts.traces)},
    )


def _cmd_report(args):
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    series = []
    for path in args.csvs:
        text = _read(path)
        stem = os.path.splitext(os.path.basename(path))[0]
        for column in columns:
            name = f"{stem}:{column}" if len(columns) > 1 else stem
            series.append(series_from_csv(name, text, column))
    return _Output(
        args.out,
        render_chart(series, title=args.title),
        "report",
        {"csvs": list(args.csvs)},
        {"columns": columns, "title": args.title},
    )


_COMMANDS = {
    "assess": _cmd_assess,
    "count": _cmd_count,
    "baseline": _cmd_baseline,
    "infer": _cmd_infer,
    "gen-traces": _cmd_gen_traces,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        started = time.monotonic()
        out = _COMMANDS[args.command](args)
        manifest = {
            "command": out.command,
            "tool_version": __version__,
            "inputs": out.inputs,
            "config": out.config,
            "duration_s": round(time.monotonic() - started, 3),
            **out.extra,
        }
        manifest_text = json.dumps(manifest, indent=2) + "\n"
        _write_all([(out.path, out.text), (out.path + ".manifest.json", manifest_text)])
        return 0
    except LangcardError as exc:
        if exc.exit_code:
            print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
