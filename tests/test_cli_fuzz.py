"""Fuzzing the command line: any subcommand, with any mix of valid, negative,
malformed and missing options, over small model, trace and CSV files with
junk lines mixed in, ends in a documented exit code and never raises.

Every example stays cheap: at most 20 states in any ``states:`` header,
lengths of at most 40, at most 50 traces or samples, and a time limit of at
most one second on every command that takes one, or else one that must be
refused (negative, zero, ``nan``, ``inf`` or not a number).  Among the
output names are one whose manifest's temporary name is too long and one too
long for any file.
One model file in ten declares more states than the parser's cap instead;
the parser refuses such a header before it allocates anything.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from langcard.automata import MAX_STATES, serialize_dfa
from langcard.cli import main
from helpers import all_accepting, empty_language, signature_models

MODELS = [serialize_dfa(m) for m in (*signature_models(), all_accepting(2), empty_language(2))] + [
    "alphabet: a b\nstates: 2\ninitial: 0\naccepting: 1\n0 a 1\n1 b 0\n",
    # state 2 is unreachable
    "alphabet: a b\nstates: 3\ninitial: 0\naccepting: 1\n0 a 1\n0 b 0\n1 a 1\n1 b 0\n2 a 1\n2 b 2\n",
    # states 1 and 2 are equivalent
    "alphabet: a b\nstates: 3\ninitial: 0\naccepting: 1 2\n0 a 1\n0 b 0\n1 a 2\n1 b 0\n2 a 1\n2 b 0\n",
]
TRACES = ["a b a\nb\n\n", "# only a comment\n", "", "a a a a\nb b\n", "b\n# c\na b\n"]
CSVS = [
    "n,precision_eq,recall_eq,precision_le,recall_le\n0,1.000000,1.000000,1.000000,1.000000\n"
    "1,undefined,undefined,1.000000,0.500000\n",
    "n,precision_eq,recall_eq,precision_le,recall_le\n",
]
FILES = {"model": MODELS, "traces": TRACES, "csv": CSVS}

# ``states:`` headers over the cap, the last too long for int() to parse
OVER_CAP = st.sampled_from([str(MAX_STATES + 1), "1000000000", "9" * 5000])

# lines that get past a parser's first checks; no states header above 20
PLAUSIBLE = [
    "", "# note", "alphabet: a", "alphabet: a a", "alphabet:", "states: 0", "states: 2",
    "states: 20", "states: x", "initial: 9", "initial: 0 1", "accepting: 7", "0 a 9",
    "0 z 0", "0 a", "-1 a 0", "a b c", "n,precision_eq,recall_eq,precision_le,recall_le",
    "0,abc,1,1,1", "x,1,1,1,1", "2,1,1,1", "3,0.5,undefined,1,1",
]
JUNK = st.one_of(
    st.sampled_from(PLAUSIBLE), st.text(max_size=12).filter(lambda t: "states" not in t)
)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


BAD_NUMBER = ints(-5, -1) | st.sampled_from(["", "x", "1.5", "1e3", "nan", "--", "0x10", "2"])
BAD_SECONDS = st.sampled_from(["-1", "-0.5", "0", "nan", "inf", "x"])


def option(valid, invalid=BAD_NUMBER):
    """Nine times in ten a valid value, else an invalid one."""
    return st.integers(0, 9).flatmap(lambda i: valid if i < 9 else invalid)


SECONDS = option(st.sampled_from(["1", "0.5", "1e-3"]), BAD_SECONDS)


def choice(*names):
    return option(st.sampled_from(names), st.just("none"))


PROBABILITY = option(st.floats(0.1, 1).map(str))
RANGE = st.one_of(
    st.builds("{}..{}".format, st.integers(-2, 40), st.integers(-2, 40)),
    st.sampled_from(["", "3", "a..b", "1..", "..4"]),
)

# command: (positional file kinds, options that may be left out, options
# always given because their defaults are expensive, the output option)
COMMANDS = {
    "assess": (
        ["model", "model"],
        {
            "--max-length": option(ints(0, 40)),
            "--range": RANGE,
            "--mode": choice("single", "cumulative", "both"),
            "--digits": option(ints(0, 40)),
        },
        {"--time-limit": SECONDS},
        "--out",
    ),
    "count": (
        ["model"],
        {"--oracle": choice("dp")},
        {"--max-length": option(ints(0, 40)), "--time-limit": SECONDS},
        "--out",
    ),
    "baseline": (
        ["method", "model", "model"],
        {
            "--pa": PROBABILITY,
            "--seed": option(ints(0, 99)),
            "--min-coverage": option(ints(0, 50)),
            "--m-bound": option(ints(0, 6)),
            "--length": option(ints(0, 8)),
            "--metric": choice("precision", "recall"),
            "--digits": option(ints(0, 40)),
        },
        {
            "--target-traces": option(ints(0, 50)),
            "--samples": option(ints(1, 50)),
            "--time-limit": SECONDS,
        },
        "--out",
    ),
    "infer": (
        ["traces"],
        {"--alphabet": st.sampled_from(["a b", "b a c", "a a", "x", " "])},
        {"--k": option(ints(1, 5)), "--time-limit": SECONDS},
        "--out-model",
    ),
    "gen-traces": (
        ["model"],
        {
            "--pa": PROBABILITY,
            "--seed": option(ints(0, 99)),
            "--min-state-visits": option(ints(0, 50)),
        },
        {"--min-traces": option(ints(0, 50)), "--time-limit": SECONDS},
        "--out",
    ),
    "report": (
        ["csv", "csv"],
        {
            "--columns": st.sampled_from(["precision_eq,recall_eq", "recall_le", "n", "bogus", ""]),
            "--title": st.text(max_size=10),
        },
        {},
        "--out",
    ),
}
METHOD = choice("trace-sim", "trace-sim-conditioned", "mbt", "sigma-sample")


def draw_file(draw, directory, index, wanted):
    kind = draw(st.sampled_from([wanted] * 6 + ["model", "traces", "csv", "missing"]))
    path = os.path.join(directory, f"in{index}.txt")
    if kind != "missing":
        lines = draw(st.sampled_from(FILES[kind])).splitlines()
        if kind == "model" and draw(st.integers(0, 9)) == 0:
            states = f"states: {draw(OVER_CAP)}"
            lines = [states if line.startswith("states:") else line for line in lines]
        for junk in draw(st.lists(JUNK, max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))), junk)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return path


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_any_command_line_ends_in_a_documented_exit_code(data):
    draw = data.draw
    command = draw(st.sampled_from(sorted(COMMANDS)))
    kinds, optional, always, out_flag = COMMANDS[command]
    with tempfile.TemporaryDirectory() as directory:
        argv = [command]
        for index, kind in enumerate(kinds):
            if kind == "method":
                argv.append(draw(METHOD))
            else:
                argv.append(draw_file(draw, directory, index, kind))
        for flag, value in optional.items():
            if draw(st.booleans()):
                argv += [flag, draw(value)]
        for flag, value in always.items():
            argv += [flag, draw(value)]
        # 240 characters: the manifest's temporary name passes the 255-byte
        # limit, the result's does not; 300: neither fits
        out = draw(st.sampled_from(
            ["out.txt"] * 4 + [os.path.join("missing", "out.txt"), "x" * 240, "x" * 300, None]
        ))
        if out is not None:
            out = os.path.join(directory, out)
            argv += [out_flag, out]
        extra = draw(st.sampled_from([None] * 8 + ["--bogus", "-h"]))
        argv += [extra] if extra else []

        code = main(argv)

        assert type(code) is int and 0 <= code <= 5, argv
        if code != 0 and out is not None:
            assert not os.path.exists(out), argv
