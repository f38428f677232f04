import errno
import json
import os
import pkgutil
import subprocess
import sys
from types import SimpleNamespace
from xml.etree import ElementTree

import pytest

import langcard
from langcard import automata, baselines, cli, counting, polynomials
from langcard.automata import MAX_STATES, Alphabet, Dfa, serialize_dfa
from langcard.cli import main
from langcard.metrics import confusion_counts
from helpers import a_chain, all_accepting, b_power, binary_tree, cycle, empty_language, signature_models


@pytest.fixture
def signature_files(tmp_path):
    reference, inferred = signature_models()
    r_path = tmp_path / "reference.dfa"
    h_path = tmp_path / "inferred.dfa"
    r_path.write_text(serialize_dfa(reference))
    h_path.write_text(serialize_dfa(inferred))
    return str(r_path), str(h_path)


def run(*argv):
    return main(list(argv))


def _clock_past_the_deadline(monkeypatch):
    """Fake clock: 0 when the command's budget starts, far past any
    deadline at every later reading."""
    readings = []

    def monotonic():
        readings.append(None)
        return 0.0 if len(readings) == 1 else 1e9

    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))


def test_assess_signature(tmp_path, signature_files):
    r_path, h_path = signature_files
    out = tmp_path / "result.csv"
    code = run("assess", r_path, h_path, "--max-length", "50", "--mode", "both", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,precision_eq,recall_eq,precision_le,recall_le"
    for line in lines[1:]:
        n, p_eq, *_ = line.split(",")
        if int(n) >= 2:
            assert p_eq == "0.200000"
    manifest = json.loads((tmp_path / "result.csv.manifest.json").read_text())
    assert manifest["command"] == "assess"
    assert manifest["config"]["max_length"] == 50


def test_assess_identical_models(tmp_path, signature_files):
    r_path, _ = signature_files
    out = tmp_path / "same.csv"
    assert run("assess", r_path, r_path, "--max-length", "10", "--out", str(out)) == 0
    for line in out.read_text().strip().splitlines()[1:]:
        for cell in line.split(",")[1:]:
            assert cell in ("1.000000", "undefined")


def test_assess_output_is_deterministic(tmp_path, signature_files):
    r_path, h_path = signature_files
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run("assess", r_path, h_path, "--max-length", "20", "--out", str(a))
    run("assess", r_path, h_path, "--max-length", "20", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_assess_range_restricts_rows(tmp_path, signature_files):
    r_path, h_path = signature_files
    out = tmp_path / "rng.csv"
    run("assess", r_path, h_path, "--max-length", "10", "--range", "3..5",
        "--mode", "single", "--out", str(out))
    rows = [line.split(",")[0] for line in out.read_text().strip().splitlines()[1:]]
    assert rows == ["3", "4", "5"]


def test_count_all_accepting(tmp_path, capsys):
    model = tmp_path / "top.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    out = tmp_path / "counts.csv"
    assert run("count", str(model), "--max-length", "8", "--out", str(out)) == 0
    assert "OGF: 1 / (1 - 2z)" in capsys.readouterr().out
    rows = out.read_text().strip().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == [2**n for n in range(9)]
    manifest = json.loads((tmp_path / "counts.csv.manifest.json").read_text())
    assert manifest["ogf"] == "1 / (1 - 2z)"


def test_count_empty_language(tmp_path, capsys):
    model = tmp_path / "empty.dfa"
    model.write_text(serialize_dfa(empty_language(2)))
    out = tmp_path / "counts.csv"
    assert run("count", str(model), "--max-length", "4", "--out", str(out)) == 0
    assert "OGF: 0 / 1" in capsys.readouterr().out
    rows = out.read_text().strip().splitlines()[1:]
    assert all(r.endswith(",0") for r in rows)


def test_count_oracle_flag_matches_ogf_route(tmp_path, signature_files):
    r_path, _ = signature_files
    via_ogf = tmp_path / "ogf.csv"
    via_dp = tmp_path / "dp.csv"
    run("count", r_path, "--max-length", "40", "--out", str(via_ogf))
    run("count", r_path, "--max-length", "40", "--oracle", "dp", "--out", str(via_dp))
    assert via_ogf.read_text() == via_dp.read_text()


def test_baseline_trace_sim_pa_one(tmp_path, signature_files):
    r_path, h_path = signature_files
    out = tmp_path / "ts.csv"
    code = run(
        "baseline", "trace-sim", r_path, h_path,
        "--pa", "1.0", "--target-traces", "500", "--min-coverage", "0",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[3] == "1.000000"  # precision_le column carries the overall value


def test_baseline_trace_sim_keeps_one_walk_at_a_target_of_none(tmp_path, signature_files):
    # no walk is asked for, yet each walk set keeps its first
    r_path, h_path = signature_files
    expected = {
        "trace-sim": "n,precision_eq,recall_eq,precision_le,recall_le\n3,undefined,undefined,0.000000,1.000000\n",
        "trace-sim-conditioned": (
            "n,precision_eq,recall_eq,precision_le,recall_le\n"
            "0,undefined,undefined,undefined,undefined\n1,undefined,undefined,undefined,undefined\n"
            "2,undefined,1.000000,undefined,undefined\n3,0.000000,undefined,undefined,undefined\n"
        ),
    }
    for method, csv in expected.items():
        out = tmp_path / f"{method}.csv"
        argv = ["baseline", method, r_path, h_path, "--target-traces", "0", "--min-coverage", "0"]
        assert run(*argv, "--seed", "3", "--out", str(out)) == 0
        assert out.read_text() == csv
    manifest = json.loads((tmp_path / "trace-sim.csv.manifest.json").read_text())
    assert (manifest["traces_precision"], manifest["traces_recall"]) == (1, 1)


def test_baseline_seeded_runs_are_identical(tmp_path, signature_files):
    r_path, h_path = signature_files
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        run(
            "baseline", "trace-sim-conditioned", r_path, h_path,
            "--pa", "0.4", "--target-traces", "400", "--min-coverage", "0",
            "--seed", "17", "--out", str(out),
        )
    assert a.read_bytes() == b.read_bytes()


def test_baseline_mbt_identical_models(tmp_path, signature_files):
    r_path, _ = signature_files
    out = tmp_path / "mbt.csv"
    code = run("baseline", "mbt", r_path, r_path, "--m-bound", "6", "--out", str(out))
    assert code == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[3] == "1.000000" and row[4] == "1.000000"


def test_baseline_sigma_sample(tmp_path):
    model = tmp_path / "top.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    out = tmp_path / "sigma.csv"
    code = run(
        "baseline", "sigma-sample", str(model), str(model),
        "--length", "4", "--samples", "100", "--metric", "precision",
        "--out", str(out),
    )
    assert code == 0
    assert out.read_text().strip().splitlines()[1].split(",")[1] == "1.000000"


def test_baseline_sigma_sample_refuses_a_thin_slice(tmp_path, capsys):
    reference = tmp_path / "top.dfa"
    reference.write_text(serialize_dfa(all_accepting(3)))
    inferred = tmp_path / "b12.dfa"
    inferred.write_text(serialize_dfa(b_power(12, 3)))
    out = tmp_path / "sigma.csv"
    code = run(
        "baseline", "sigma-sample", str(reference), str(inferred),
        "--length", "12", "--samples", "150", "--metric", "precision",
        "--out", str(out),
    )
    assert code == 4
    assert "refused:" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "sigma.csv.manifest.json").exists()


def test_infer_and_gen_traces_pipeline(tmp_path, signature_files):
    r_path, _ = signature_files
    traces = tmp_path / "train.traces"
    assert run(
        "gen-traces", r_path, "--pa", "0.3", "--seed", "5",
        "--min-traces", "60", "--min-state-visits", "2", "--out", str(traces),
    ) == 0
    assert len(traces.read_text().splitlines()) >= 60

    # the run is replayable from its manifest configuration
    replay = tmp_path / "replay.traces"
    assert run(
        "gen-traces", r_path, "--pa", "0.3", "--seed", "5",
        "--min-traces", "60", "--min-state-visits", "2", "--out", str(replay),
    ) == 0
    assert replay.read_bytes() == traces.read_bytes()

    model_out = tmp_path / "inferred.dfa"
    assert run("infer", str(traces), "--k", "50", "--out-model", str(model_out)) == 0

    result = tmp_path / "assessment.csv"
    assert run("assess", r_path, str(model_out), "--max-length", "30", "--out", str(result)) == 0
    for line in result.read_text().strip().splitlines()[1:]:
        assert line.split(",")[1] in ("1.000000", "undefined")


def test_infer_single_trace(tmp_path):
    traces = tmp_path / "one.traces"
    traces.write_text("a b a\n")
    model_out = tmp_path / "m.dfa"
    assert run("infer", str(traces), "--k", "1", "--out-model", str(model_out)) == 0
    from langcard.automata import parse_dfa

    model = parse_dfa(model_out.read_text())
    assert model.accepts(model.alphabet.trace_from_names(["a", "b", "a"]))


def test_infer_without_an_alphabet_reads_it_from_the_traces_alone(tmp_path):
    traces = tmp_path / "t.traces"
    traces.write_text("# header: z names no symbol\nb a # c is not one either\n\na\n")
    model_out = tmp_path / "m.dfa"
    assert run("infer", str(traces), "--k", "1", "--out-model", str(model_out)) == 0
    manifest = json.loads((tmp_path / "m.dfa.manifest.json").read_text())
    assert manifest["config"]["alphabet"] == ["a", "b"]
    model = automata.parse_dfa(model_out.read_text())
    assert model.alphabet.symbols == ("a", "b")
    assert model.accepts(())


def test_report_flat_line_and_gaps(tmp_path):
    csv = tmp_path / "flat.csv"
    csv.write_text(
        "n,precision_eq,recall_eq,precision_le,recall_le\n"
        "0,1.000000,1.000000,1.000000,1.000000\n"
        "1,undefined,undefined,1.000000,1.000000\n"
        "2,1.000000,1.000000,1.000000,1.000000\n"
    )
    out = tmp_path / "chart.svg"
    code = run("report", str(csv), "--columns", "precision_eq", "--out", str(out))
    assert code == 0
    svg = out.read_text()
    # data points carry the csv values verbatim; the undefined row is a gap
    assert svg.count('data-value="1.000000"') == 2
    assert 'data-n="1"' not in svg
    ys = {
        part.split('cy="')[1].split('"')[0]
        for part in svg.split("<circle ")[1:]
    }
    assert len(ys) == 1  # flat line at y = 1


def test_report_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,schema\n")
    out = tmp_path / "chart.svg"
    assert run("report", str(bad), "--out", str(out)) == 2


def test_exit_codes(tmp_path, signature_files, monkeypatch):
    r_path, h_path = signature_files
    # usage: missing required argument
    assert run("assess", r_path, h_path) == 1
    # parse: malformed model file
    bad = tmp_path / "bad.dfa"
    bad.write_text("alphabet: a\nstates: 1\n0 a 7\n")
    assert run("count", str(bad), "--out", str(tmp_path / "x.csv")) == 2
    # refusal: W-method bound far beyond the reference size
    assert run(
        "baseline", "mbt", r_path, h_path, "--m-bound", "60",
        "--out", str(tmp_path / "y.csv"),
    ) == 4
    # usage: a time limit that is not a number
    assert run("count", h_path, "--time-limit", "junk", "--out", str(tmp_path / "w.csv")) == 1
    # resource limit: the clock past the deadline at the first check
    _clock_past_the_deadline(monkeypatch)
    assert run("count", h_path, "--out", str(tmp_path / "z.csv")) == 3


def test_missing_input_file(tmp_path):
    assert run("count", str(tmp_path / "nope.dfa"), "--out", str(tmp_path / "o.csv")) == 2


def test_permuted_alphabets_are_normalized(tmp_path):
    a = tmp_path / "a.dfa"
    b = tmp_path / "b.dfa"
    # same language (exactly one 'y'), alphabets listed in different orders
    a.write_text("alphabet: x y\nstates: 2\ninitial: 0\naccepting: 1\n0 x 0\n0 y 1\n1 x 1\n")
    b.write_text("alphabet: y x\nstates: 2\ninitial: 0\naccepting: 1\n0 x 0\n0 y 1\n1 x 1\n")
    out = tmp_path / "norm.csv"
    assert run("assess", str(a), str(b), "--max-length", "6", "--out", str(out)) == 0
    for line in out.read_text().strip().splitlines()[1:]:
        for cell in line.split(",")[1:]:
            assert cell in ("1.000000", "undefined")


def test_disjoint_alphabets_exit_with_parse_code(tmp_path):
    a = tmp_path / "a.dfa"
    b = tmp_path / "b.dfa"
    a.write_text("alphabet: x\nstates: 1\ninitial: 0\naccepting: 0\n0 x 0\n")
    b.write_text("alphabet: z\nstates: 1\ninitial: 0\naccepting: 0\n0 z 0\n")
    assert run("assess", str(a), str(b), "--out", str(tmp_path / "o.csv")) == 2


def test_assess_rejects_negative_digits(tmp_path, signature_files):
    r_path, h_path = signature_files
    out = tmp_path / "o.csv"
    assert run("assess", r_path, h_path, "--digits", "-2", "--out", str(out)) == 1
    assert not out.exists()


def test_assess_rejects_negative_max_length(tmp_path, signature_files):
    r_path, h_path = signature_files
    out = tmp_path / "o.csv"
    assert run("assess", r_path, h_path, "--max-length", "-3", "--out", str(out)) == 1
    assert not out.exists()


def test_count_rejects_negative_max_length(tmp_path):
    model = tmp_path / "m.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    out = tmp_path / "o.csv"
    assert run("count", str(model), "--max-length", "-2", "--out", str(out)) == 1
    assert not out.exists()


@pytest.mark.parametrize("extra", [("--length", "3", "--digits", "-1"), ("--length", "-1")])
def test_baseline_rejects_negative_integers(tmp_path, signature_files, extra):
    r_path, h_path = signature_files
    out = tmp_path / "o.csv"
    assert run("baseline", "sigma-sample", r_path, h_path, *extra, "--out", str(out)) == 1
    assert not out.exists()


def test_unwritable_output_exits_with_output_code(tmp_path):
    model = tmp_path / "m.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    out = tmp_path / "missing" / "x.csv"
    assert run("count", str(model), "--out", str(out)) == 5
    assert not (tmp_path / "missing").exists()


def test_unencodable_output_exits_with_output_code(tmp_path):
    traces = tmp_path / "t.traces"
    traces.write_text("a b\n")
    out = tmp_path / "m.dfa"
    # an argv byte that is not UTF-8 reaches Python as a lone surrogate
    assert run("infer", str(traces), "--k", "1", "--alphabet", "a b \udcff",
               "--out-model", str(out)) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.traces"]


def test_count_checks_the_horizon_of_its_own_solve(tmp_path, monkeypatch, capsys):
    # 256 states, 255 of them live, and an OGF of degree 7: the solve counts
    # to 2q + 1 = 511 whatever --max-length asks
    model = tmp_path / "tree.dfa"
    model.write_text(serialize_dfa(binary_tree(7)))
    out = tmp_path / "o.csv"
    assert run("count", str(model), "--max-length", "9", "--out", str(out)) == 0
    counts = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    assert counts == [str(2**n) for n in range(8)] + ["0", "0"]
    out.unlink()
    (tmp_path / "o.csv.manifest.json").unlink()
    # length 1 is under the cap, length 511 is not
    monkeypatch.setattr(counting, "MAX_COUNT_BYTES", 20_000)
    assert run("count", str(model), "--max-length", "1", "--out", str(out)) == 4
    assert "refused: counting to length 511 over an alphabet of 2 would take about " in (
        capsys.readouterr().err
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree.dfa"]


TWO_STATES = "alphabet: a b\nstates: 2\ninitial: 0\naccepting: 1\n0 a 1\n1 b 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-traces", "M", "--pa", "2"),
        ("gen-traces", "M", "--min-traces", "-5"),
        ("gen-traces", "M", "--min-state-visits", "-3"),
        ("baseline", "trace-sim", "M", "M", "--pa", "0"),
        ("baseline", "trace-sim", "M", "M", "--target-traces", "-5"),
        ("baseline", "trace-sim", "M", "M", "--min-coverage", "-5"),
        ("baseline", "mbt", "M", "M", "--m-bound", "1"),  # the model has 3 states
        ("baseline", "sigma-sample", "M", "M", "--samples", "0", "--length", "3"),
        ("assess", "M", "M", "--digits", "1001"),
        ("assess", "M", "M", "--digits", "5000"),
        ("baseline", "mbt", "M", "M", "--m-bound", "3", "--digits", "5000"),
    ],
    ids=lambda argv: " ".join(a for a in argv if a != "M"),
)
def test_out_of_range_arguments_exit_with_usage_code(tmp_path, argv):
    model = tmp_path / "m.dfa"
    model.write_text(TWO_STATES)
    out = tmp_path / "o.txt"
    argv = [str(model) if a == "M" else a for a in argv]
    assert run(*argv, "--out", str(out)) == 1
    assert not out.exists()


def test_digits_up_to_the_cap_are_written(tmp_path):
    m = tmp_path / "m.dfa"
    m.write_text(TWO_STATES)
    out = tmp_path / "o.csv"
    one = "1." + "0" * cli.MAX_DIGITS
    digits = ("--digits", str(cli.MAX_DIGITS), "--out", str(out))
    assert run("assess", str(m), str(m), "--max-length", "1", *digits) == 0
    assert out.read_text().splitlines()[-1] == f"1,{one},{one},{one},{one}"
    assert run("baseline", "mbt", str(m), str(m), "--m-bound", "3", *digits) == 0
    assert out.read_text().splitlines()[-1] == f"0,undefined,undefined,{one},{one}"


def test_count_writes_counts_past_the_int_to_str_digit_cap(tmp_path):
    # 4^7200 has 4,335 decimal digits, past CPython's default cap of 4,300
    model = tmp_path / "all4.dfa"
    model.write_text(serialize_dfa(all_accepting(4)))
    out = tmp_path / "counts.csv"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert run("count", str(model), "--max-length", "7200", "--out", str(out)) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    n, digits = out.read_text().splitlines()[-1].split(",")
    assert n == "7200" and len(digits) == 4335
    # read back in two parts, each within the cap
    assert int(digits[:-4300]) * 10**4300 + int(digits[-4300:]) == 4**7200


def test_infer_rejects_k_below_one(tmp_path):
    traces = tmp_path / "one.traces"
    traces.write_text("a b a\n")
    out = tmp_path / "m.dfa"
    assert run("infer", str(traces), "--k", "0", "--out-model", str(out)) == 1
    assert not out.exists()


def test_assess_range_past_max_length(tmp_path, signature_files):
    r_path, h_path = signature_files
    out = tmp_path / "past.csv"
    assert run("assess", r_path, h_path, "--max-length", "3", "--range", "2..6",
               "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == [str(n) for n in range(7)]
    # per-length cells exist only in 2..6, cumulative ones only up to 3
    assert lines[0] == "0,undefined,undefined,1.000000,1.000000"
    assert lines[3].startswith("3,0.200000,1.000000,0.")
    for line in lines[4:]:
        assert line.endswith(",0.200000,1.000000,undefined,undefined")


def test_consecutive_calls_share_no_parser_state(tmp_path, signature_files):
    r_path, h_path = signature_files
    three = tmp_path / "three.csv"
    six = tmp_path / "six.csv"
    assert run("assess", r_path, h_path, "--max-length", "3", "--digits", "3",
               "--out", str(three)) == 0
    assert run("assess", r_path, h_path, "--max-length", "3", "--out", str(six)) == 0
    assert three.read_text().splitlines()[1] == "0,1.000,1.000,1.000,1.000"
    assert six.read_text().splitlines()[1] == "0,1.000000,1.000000,1.000000,1.000000"
    # a usage error leaves the next call unaffected
    assert run("assess", r_path, h_path, "--mode", "none", "--out", str(three)) == 1
    again = tmp_path / "again.csv"
    assert run("assess", r_path, h_path, "--max-length", "3", "--out", str(again)) == 0
    assert again.read_bytes() == six.read_bytes()


ODD_LENGTHS = TWO_STATES  # accepts (ab)*a: no trace of even length
UNREACHABLE = (
    "alphabet: a b\nstates: 3\ninitial: 0\naccepting: 1\n"
    "0 a 1\n0 b 0\n1 a 1\n1 b 0\n2 a 1\n2 b 2\n"  # nothing leads to state 2
)
NON_MINIMAL = (
    "alphabet: a b\nstates: 3\ninitial: 0\naccepting: 1 2\n"
    "0 a 1\n0 b 0\n1 a 2\n1 b 0\n2 a 1\n2 b 0\n"  # states 1 and 2 are equivalent
)


@pytest.mark.parametrize(
    "model, argv",
    [
        (ODD_LENGTHS, ("baseline", "sigma-sample", "M", "M", "--length", "2")),
        (None, ("gen-traces", "M")),
        (None, ("baseline", "trace-sim", "M", "M")),
        (UNREACHABLE, ("baseline", "mbt", "M", "M", "--m-bound", "3")),
        (NON_MINIMAL, ("baseline", "mbt", "M", "M", "--m-bound", "3")),
    ],
    ids=["sigma-sample no trace of the length", "gen-traces empty language",
         "trace-sim empty language", "mbt unreachable states",
         "mbt non-minimal reference"],
)
def test_methods_that_cannot_run_on_the_model_exit_refused(tmp_path, capsys, model, argv):
    path = tmp_path / "m.dfa"
    path.write_text(model or serialize_dfa(empty_language(2)))
    out = tmp_path / "o.txt"
    argv = [str(path) if a == "M" else a for a in argv]
    assert run(*argv, "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("refused: ")
    assert not out.exists()


def test_report_has_no_format_option(tmp_path):
    csv = tmp_path / "a.csv"
    csv.write_text("n,precision_eq,recall_eq,precision_le,recall_le\n0,1.0,1.0,1.0,1.0\n")
    out = tmp_path / "chart.svg"
    assert run("report", str(csv), "--format", "svg", "--out", str(out)) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [("--version",), ("assess", "--help")], ids=" ".join)
def test_version_and_help_return_zero(capsys, argv):
    assert run(*argv) == 0
    out, err = capsys.readouterr()
    assert out and not err


def test_infer_rejects_a_repeated_alphabet_symbol(tmp_path):
    traces = tmp_path / "t.traces"
    traces.write_text("a b\n")
    out = tmp_path / "m.dfa"
    assert run("infer", str(traces), "--k", "1", "--alphabet", "a b a",
               "--out-model", str(out)) == 1
    assert not out.exists()


def test_infer_on_a_trace_file_without_traces_is_an_input_error(tmp_path, capsys):
    traces = tmp_path / "t.traces"
    traces.write_text("# a comment, no trace\n")
    out = tmp_path / "m.dfa"
    assert run("infer", str(traces), "--k", "1", "--alphabet", "a b",
               "--out-model", str(out)) == 2
    assert capsys.readouterr().err == "input error: trace file holds no traces\n"
    assert not out.exists()


def test_undecodable_input_is_an_input_error(tmp_path):
    model = tmp_path / "m.dfa"
    model.write_bytes(b"alphabet: a\xff\n")
    assert run("count", str(model), "--out", str(tmp_path / "o.csv")) == 2


@pytest.mark.parametrize(
    "row", ["0,abc,1,1,1", "0,nan,1,1,1", "0,-inf,1,1,1", "0.5,1,1,1,1", "x,undefined,1,1,1"],
    ids=["value not a number", "value nan", "value infinite", "n not an integer",
         "n not a number"],
)
def test_report_rejects_malformed_cells_with_their_line(tmp_path, capsys, row):
    csv = tmp_path / "bad.csv"
    csv.write_text(f"n,precision_eq,recall_eq,precision_le,recall_le\n\n{row}\n")
    out = tmp_path / "chart.svg"
    assert run("report", str(csv), "--columns", "precision_eq", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("input error: line 3: ")
    assert not out.exists()


def test_report_svg_is_well_formed_with_markup_in_its_text(tmp_path):
    csv = tmp_path / "R&D <1>.csv"
    csv.write_text("n,precision_eq,recall_eq,precision_le,recall_le\n0,1.0,0.5,1.0,1.0\n")
    out = tmp_path / "chart.svg"
    assert run("report", str(csv), "--title", "R & H <v2>", "--out", str(out)) == 0
    root = ElementTree.parse(out).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "R & H <v2>" in texts
    assert "R&D <1>:precision_eq" in texts and "R&D <1>:recall_eq" in texts


@pytest.mark.parametrize(
    "mode, max_length, length_range, n_max",
    [
        ("single", "10", "3..5", 5),
        ("cumulative", "4", "2..8", 4),
        ("both", "4", "2..8", 8),
        ("both", "10", "3..5", 10),
    ],
)
def test_assess_counts_only_as_far_as_its_mode_writes(
    tmp_path, signature_files, monkeypatch, mode, max_length, length_range, n_max
):
    r_path, h_path = signature_files
    counted = []

    def recording(reference, inferred, n, budget=None):
        counted.append(n)
        return confusion_counts(reference, inferred, n, budget)

    monkeypatch.setattr(cli, "confusion_counts", recording)
    out = tmp_path / "o.csv"
    assert run("assess", r_path, h_path, "--max-length", max_length, "--mode", mode,
               "--range", length_range, "--out", str(out)) == 0
    assert counted == [n_max]
    manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert manifest["config"]["range"] == [int(b) for b in length_range.split("..")]


def test_assess_cumulative_writes_the_same_csv_with_or_without_a_range(
    tmp_path, signature_files
):
    r_path, h_path = signature_files
    plain, ranged = tmp_path / "plain.csv", tmp_path / "ranged.csv"
    common = ("assess", r_path, h_path, "--max-length", "4", "--mode", "cumulative")
    assert run(*common, "--out", str(plain)) == 0
    assert run(*common, "--range", "2..30", "--out", str(ranged)) == 0
    assert ranged.read_bytes() == plain.read_bytes()


def test_a_result_is_never_left_without_its_manifest(tmp_path, capsys):
    model = tmp_path / "two.dfa"
    model.write_text(TWO_STATES)
    # the result's temporary name fits the 255-byte limit, the manifest's not
    out = tmp_path / ("x" * 240)
    assert run("count", str(model), "--out", str(out)) == 5
    assert "output error: cannot write" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["two.dfa"]


def test_a_manifest_that_cannot_be_renamed_takes_its_result_with_it(tmp_path, monkeypatch):
    model = tmp_path / "two.dfa"
    model.write_text(TWO_STATES)
    replace = os.replace

    def failing(src, dst):
        if dst.endswith(".manifest.json"):
            raise OSError(errno.EACCES, "Permission denied")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", failing)
    assert run("count", str(model), "--out", str(tmp_path / "o.csv")) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["two.dfa"]


# every command that takes --time-limit, with its default
TIME_LIMITS = {"assess": 600.0, "count": 600.0, "baseline": 1800.0, "infer": 600.0,
               "gen-traces": 1800.0}


def _timed_call(tmp_path, signature_files, command):
    """A cheap call of ``command`` that ends in its output option."""
    r_path, h_path = signature_files
    traces = tmp_path / "t.traces"
    traces.write_text("a b\n")
    return {
        "assess": ["assess", r_path, h_path, "--out"],
        "count": ["count", r_path, "--out"],
        "baseline": ["baseline", "trace-sim", r_path, h_path, "--target-traces", "50", "--out"],
        "infer": ["infer", str(traces), "--k", "1", "--out-model"],
        "gen-traces": ["gen-traces", r_path, "--out"],
    }[command]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", TIME_LIMITS)
def test_time_limit_must_be_positive_and_finite(tmp_path, signature_files, command, value):
    out = tmp_path / "o.txt"
    assert run(*_timed_call(tmp_path, signature_files, command), str(out), "--time-limit", value) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", TIME_LIMITS)
def test_the_manifest_records_the_time_limit(tmp_path, signature_files, command):
    argv = [*_timed_call(tmp_path, signature_files, command), str(tmp_path / "o.txt")]
    for extra, seconds in (([], TIME_LIMITS[command]), (["--time-limit", "7.5"], 7.5)):
        assert run(*argv, *extra) == 0
        manifest = json.loads((tmp_path / "o.txt.manifest.json").read_text())
        assert manifest["config"]["time_limit"] == seconds


def test_count_dp_oracle_keeps_the_work_budget(tmp_path, monkeypatch, capsys):
    model = tmp_path / "two.dfa"
    model.write_text(TWO_STATES)
    out = tmp_path / "o.csv"
    _clock_past_the_deadline(monkeypatch)
    assert run("count", str(model), "--oracle", "dp", "--max-length", "5", "--out", str(out)) == 3
    assert "resource limit: counting terms" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("states", [str(MAX_STATES + 1), "9" * 5000])
def test_a_states_header_over_the_cap_is_refused(tmp_path, capsys, states):
    model = tmp_path / "huge.dfa"
    model.write_text(f"alphabet: a\nstates: {states}\ninitial: 0\n")
    out = tmp_path / "o.csv"
    assert run("count", str(model), "--out", str(out)) == 4
    assert f"refused: line 2: more than {MAX_STATES} states" in capsys.readouterr().err
    assert not out.exists()


def test_assess_refuses_a_product_over_the_states_cap(tmp_path, monkeypatch, capsys):
    paths = []
    for n in (7, 8):  # one-symbol cycles of coprime lengths: 56 product states
        paths.append(tmp_path / f"cycle{n}.dfa")
        paths[-1].write_text(serialize_dfa(cycle(n)))
    out = tmp_path / "o.csv"
    argv = ["assess", *map(str, paths), "--max-length", "5", "--out", str(out)]
    assert run(*argv) == 0
    monkeypatch.setattr(automata, "MAX_STATES", 50)
    out.unlink()
    (tmp_path / "o.csv.manifest.json").unlink()
    assert run(*argv) == 4
    assert "refused: the product of a 7-state and a 8-state model has more than 50" in (
        capsys.readouterr().err
    )
    assert sorted(tmp_path.iterdir()) == sorted(paths)


@pytest.mark.parametrize("method", ["trace-sim", "trace-sim-conditioned"])
def test_trace_sim_refuses_a_product_over_the_states_cap_before_walking(
    tmp_path, monkeypatch, capsys, method
):
    paths = []
    for n in (7, 8):  # one-symbol cycles of coprime lengths: 56 product states
        paths.append(tmp_path / f"cycle{n}.dfa")
        paths[-1].write_text(serialize_dfa(cycle(n)))
    out = tmp_path / "o.csv"
    argv = ["baseline", method, *map(str, paths), "--target-traces", "10", "--out", str(out)]
    assert run(*argv) == 0
    out.unlink()
    (tmp_path / "o.csv.manifest.json").unlink()
    monkeypatch.setattr(automata, "MAX_STATES", 50)
    monkeypatch.setattr(baselines, "_walk_until_covered", None)  # a walk would fail
    assert run(*argv) == 4
    assert "refused: the product of a 7-state and a 8-state model has more than 50" in (
        capsys.readouterr().err
    )
    assert sorted(tmp_path.iterdir()) == sorted(paths)


# a^i b for i < 12: the exact route's minimal DFA has 14 states, and at k=3
# the quotient's subset construction numbers 5 subsets
A_STAR_B = "".join("a " * i + "b\n" for i in range(12))


@pytest.mark.parametrize(
    "argv, construction",
    [
        (["infer", "train.traces", "--k", "12", "--out-model"], "the minimal DFA"),
        (["infer", "train.traces", "--k", "3", "--out-model"], "the subset construction"),
        (["baseline", "mbt", "one.dfa", "one.dfa", "--m-bound", "100", "--out"],
         "the subset construction"),  # the test DFA has m + 2 states
    ],
    ids=["infer-exact", "infer-quotient", "mbt"],
)
def test_a_construction_over_the_states_cap_is_refused(
    tmp_path, monkeypatch, capsys, argv, construction
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "train.traces").write_text(A_STAR_B)
    (tmp_path / "one.dfa").write_text(serialize_dfa(all_accepting(1)))
    inputs = sorted(tmp_path.iterdir())
    assert run(*argv, "out") == 0
    for written in ("out", "out.manifest.json"):
        (tmp_path / written).unlink()
    monkeypatch.setattr(automata, "MAX_STATES", 4)
    assert run(*argv, "out") == 4
    assert f"refused: {construction} has more than 4 reachable states" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs


def _infer_past_its_work_budget(tmp_path, monkeypatch, capsys, k):
    # the clock reads 0 when the command's budget starts and far past it at
    # the first check of k-tails
    traces = tmp_path / "train.traces"
    traces.write_text(A_STAR_B)
    _clock_past_the_deadline(monkeypatch)
    out = tmp_path / "m.dfa"
    assert run("infer", str(traces), "--k", k, "--out-model", str(out)) == 3
    assert "resource limit: k-tails: time limit exceeded 600.0 s" in capsys.readouterr().err
    assert not out.exists()


def test_infer_past_its_work_budget_exits_3(tmp_path, monkeypatch, capsys):
    _infer_past_its_work_budget(tmp_path, monkeypatch, capsys, "3")


def test_infer_by_the_exact_route_past_its_work_budget_exits_3(tmp_path, monkeypatch, capsys):
    # k at least the longest trace: no quotient, the prefix tree's sweep checks
    _infer_past_its_work_budget(tmp_path, monkeypatch, capsys, "12")


def test_infer_past_its_work_budget_in_the_quotients_minimization_exits_3(
    tmp_path, monkeypatch, capsys
):
    # the clock reads 0 until the quotient's minimization begins and far past
    # the deadline from then on, so the check of its first splitter raises
    traces = tmp_path / "train.traces"
    traces.write_text(A_STAR_B)
    late, returned = [False], [False]
    minimize = automata._minimize

    def minimizing(*args):
        late[0] = True
        result = minimize(*args)
        returned[0] = True
        return result

    monkeypatch.setattr(automata, "_minimize", minimizing)
    clock = SimpleNamespace(monotonic=lambda: 1e9 if late[0] else 0.0)
    monkeypatch.setattr(counting, "time", clock)
    out = tmp_path / "m.dfa"
    assert run("infer", str(traces), "--k", "2", "--time-limit", "1", "--out-model", str(out)) == 3
    assert "resource limit: k-tails: time limit exceeded 1.0 s" in capsys.readouterr().err
    assert late[0] and not returned[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.traces"]


@pytest.mark.parametrize("stage", ["counting terms", "berlekamp-massey", "exact check"])
def test_assess_past_its_deadline_in_any_counting_stage_exits_3(
    tmp_path, signature_files, monkeypatch, capsys, stage
):
    r_path, h_path = signature_files
    # the clock reads 0 when the deadline is set, and jumps past it once the
    # pass reaches ``stage``: at once for the DP, on entering Berlekamp-Massey,
    # or on leaving it for the exact check that follows
    readings, late = [], [stage == "counting terms"]
    solve = counting._berlekamp_massey_mod

    def berlekamp_massey(*args):
        late[0] = late[0] or stage == "berlekamp-massey"
        result = solve(*args)
        late[0] = late[0] or stage == "exact check"
        return result

    def monotonic():
        readings.append(None)
        return 1e9 if late[0] and len(readings) > 1 else 0.0

    monkeypatch.setattr(counting, "_berlekamp_massey_mod", berlekamp_massey)
    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    out = tmp_path / "o.csv"
    assert run("assess", r_path, h_path, "--max-length", "60", "--out", str(out)) == 3
    assert f"resource limit: {stage}: " in capsys.readouterr().err
    assert not out.exists()


def test_sigma_sample_past_its_deadline_exits_3(tmp_path, monkeypatch, capsys):
    model = tmp_path / "top.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    readings = []

    def monotonic():
        # 0 when the budget starts and at the 3 steps of the slice's count,
        # far past the deadline at the draws' first check
        readings.append(None)
        return 0.0 if len(readings) <= 4 else 1e9

    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    out = tmp_path / "o.csv"
    argv = ["baseline", "sigma-sample", str(model), str(model), "--length", "3", "--samples", "10000"]
    assert run(*argv, "--time-limit", "1", "--out", str(out)) == 3
    assert "resource limit: sampling: time limit exceeded 1.0 s" in capsys.readouterr().err
    assert not out.exists()


def test_gen_traces_past_its_time_limit_exits_3(tmp_path, monkeypatch, capsys):
    # the clock reads 0 when the command's budget starts and far past its
    # 1 s at the first check, after 64 traces, long before 1,000 traces
    model = tmp_path / "top.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    _clock_past_the_deadline(monkeypatch)
    out = tmp_path / "t.traces"
    argv = ["gen-traces", str(model), "--min-traces", "1000", "--time-limit", "1"]
    assert run(*argv, "--out", str(out)) == 3
    assert "resource limit: training walks: time limit exceeded 1.0 s" in capsys.readouterr().err
    assert not out.exists()


def test_trace_sim_past_its_time_limit_exits_3(tmp_path, monkeypatch, capsys):
    # as above: the precision set's first check, after 64 of its 1,000
    # traces, finds the deadline passed, and nothing is written
    model = tmp_path / "top.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    _clock_past_the_deadline(monkeypatch)
    out = tmp_path / "s.csv"
    argv = ["baseline", "trace-sim", str(model), str(model), "--target-traces", "1000"]
    assert run(*argv, "--time-limit", "1", "--out", str(out)) == 3
    assert "resource limit: evaluation walks: time limit exceeded 1.0 s" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, written",
    [
        (["baseline", "trace-sim", "M", "M", "--min-coverage", "1", "--target-traces", "1"],
         "n,precision_eq,recall_eq,precision_le,recall_le\n0,undefined,undefined,1.000000,1.000000\n"),
        (["gen-traces", "M", "--min-state-visits", "1", "--min-traces", "1"], "\n"),
    ],
    ids=["trace-sim", "gen-traces"],
)
def test_walks_at_pa_one_stop_after_the_least_walks(tmp_path, monkeypatch, argv, written):
    # at --pa 1 every walk stops at once in the accepting initial state, so
    # the step out of it and state 1 can never be covered; the clock passes
    # the deadline at the first check, after 64 walks, where walks waiting
    # on them would exit 3
    model = tmp_path / "m.dfa"
    model.write_text("alphabet: a b\nstates: 2\ninitial: 0\naccepting: 0\n0 a 1\n1 b 0\n")
    _clock_past_the_deadline(monkeypatch)
    out = tmp_path / "o.txt"
    argv = [str(model) if a == "M" else a for a in argv]
    assert run(*argv, "--pa", "1", "--time-limit", "1", "--out", str(out)) == 0
    assert out.read_text() == written


@pytest.mark.parametrize(
    "argv, held",
    [
        (["gen-traces", "M", "--min-traces", "10", "--min-state-visits", "0"], "the traces held"),
        (["gen-traces", "M", "--min-traces", "21"], "21 traces"),
    ],
    ids=["gen-traces walking", "gen-traces before walking"],
)
def test_walks_past_the_held_slots_exit_4(tmp_path, monkeypatch, capsys, argv, held):
    model = tmp_path / "top.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    monkeypatch.setattr(baselines, "MAX_HELD_SLOTS", 20)
    out = tmp_path / "o.txt"
    assert run(*[str(model) if a == "M" else a for a in argv], "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and held in err and "(cap 20)" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["trace-sim", "trace-sim-conditioned"])
def test_trace_sim_holds_no_traces(tmp_path, monkeypatch, method):
    # trace-sim tallies its walks and holds none, so 1,000 walks complete
    # under a cap of 20 held slots and write the uncapped CSV
    model = tmp_path / "top.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    argv = ["baseline", method, str(model), str(model), "--target-traces", "1000", "--out"]
    uncapped, capped = tmp_path / "uncapped.csv", tmp_path / "capped.csv"
    assert run(*argv, str(uncapped)) == 0
    monkeypatch.setattr(baselines, "MAX_HELD_SLOTS", 20)
    assert run(*argv, str(capped)) == 0
    assert capped.read_text() == uncapped.read_text()
    if method == "trace-sim":
        manifest = json.loads((tmp_path / "capped.csv.manifest.json").read_text())
        assert (manifest["traces_precision"], manifest["traces_recall"]) == (1000, 1000)


@pytest.mark.parametrize("stage", ["test automaton", "counting tests"])
def test_mbt_past_its_time_limit_exits_3(tmp_path, monkeypatch, capsys, stage):
    # the clock reads 0 when the command's budget starts, and jumps past its
    # 1 s as ``stage`` begins: at the first step of the test automaton's
    # subset construction, or once that automaton is built
    model = tmp_path / "one.dfa"
    model.write_text(serialize_dfa(all_accepting(1)))
    readings, late = [], [stage == "test automaton"]
    build = baselines._test_automaton

    def test_automaton(*args):
        result = build(*args)
        late[0] = True
        return result

    def monotonic():
        readings.append(None)
        return 1e9 if late[0] and len(readings) > 1 else 0.0

    monkeypatch.setattr(baselines, "_test_automaton", test_automaton)
    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    out = tmp_path / "o.csv"
    argv = ["baseline", "mbt", str(model), str(model), "--m-bound", "50"]
    assert run(*argv, "--time-limit", "1", "--out", str(out)) == 3
    assert f"resource limit: {stage}: time limit exceeded 1.0 s" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget, step", [("1", 0.6), (None, 360.0)])
def test_count_solves_and_extends_within_one_budget(tmp_path, monkeypatch, capsys, budget, step):
    # counting's clock reads 0 when the budget starts, ``step`` during the
    # solve and twice ``step`` once compute_ogf returns: the solve spends 0.6
    # of the budget's seconds (1 s, or the default 600 s when --time-limit is
    # not given), and the extension's first check finds them all spent; a
    # budget started afresh after the solve would still hold
    model = tmp_path / "two.dfa"
    model.write_text(TWO_STATES)
    readings, solved = [], [False]
    solve = cli.compute_ogf

    def compute_ogf(*args):
        result = solve(*args)
        solved[0] = True
        return result

    def monotonic():
        readings.append(None)
        return 0.0 if len(readings) == 1 else step * (1 + solved[0])

    monkeypatch.setattr(cli, "compute_ogf", compute_ogf)
    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    out = tmp_path / "o.csv"
    argv = ["count", str(model), "--max-length", "50", "--out", str(out)]
    assert run(*argv, *(["--time-limit", budget] if budget else [])) == 3
    assert "resource limit: extending: " in capsys.readouterr().err
    assert not out.exists()


def test_sigma_sample_counts_its_slice_within_the_time_limit(tmp_path, monkeypatch, capsys):
    # counting's clock reads 0 when the count's deadline is set and 2 s after:
    # past the 1 s --time-limit, though well inside the default work budget
    model = tmp_path / "top.dfa"
    model.write_text(serialize_dfa(all_accepting(2)))
    readings = []

    def monotonic():
        readings.append(None)
        return 0.0 if len(readings) == 1 else 2.0

    monkeypatch.setattr(counting, "time", SimpleNamespace(monotonic=monotonic))
    out = tmp_path / "o.csv"
    argv = ["baseline", "sigma-sample", str(model), str(model), "--length", "3", "--samples", "10"]
    assert run(*argv, "--time-limit", "1", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "resource limit: counting terms: time limit exceeded 1.0 s" in err
    assert "generating-function" not in err
    assert not out.exists()


HORIZON_CALLS = [
    ["assess", "M", "M"],
    ["count", "M"],
    ["count", "M", "--oracle", "dp"],
    ["baseline", "sigma-sample", "M", "M", "--length"],
]


@pytest.mark.parametrize("sigma", [1, 2])
@pytest.mark.parametrize("call", HORIZON_CALLS, ids=" ".join)
def test_a_horizon_over_the_memory_cap_is_refused(tmp_path, monkeypatch, capsys, call, sigma):
    # at sigma = 1 every count is 0 or 1, but the 1,001 slots alone pass the cap
    model = tmp_path / "all.dfa"
    model.write_text(serialize_dfa(all_accepting(sigma)))
    monkeypatch.setattr(counting, "MAX_COUNT_BYTES", 20_000)
    out = tmp_path / "o.csv"
    argv = [str(model) if arg == "M" else arg for arg in call]
    if "--length" not in argv:
        argv.append("--max-length")
    assert run(*argv, "10", "--out", str(out)) == 0
    out.unlink()
    (tmp_path / "o.csv.manifest.json").unlink()
    assert run(*argv, "1000", "--out", str(out)) == 4
    assert f"refused: counting to length 1000 over an alphabet of {sigma} would take about " in (
        capsys.readouterr().err
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["all.dfa"]


HUGE_ESTIMATE_CALLS = [
    ["count", "P", "--max-length", "9" * 2500],
    ["assess", "P", "P", "--max-length", "9" * 2500],
    ["baseline", "mbt", "P", "P", "--m-bound", "20000"],
    ["baseline", "sigma-sample", "A", "A", "--length", "15000"],
]


@pytest.mark.parametrize(
    "call", HUGE_ESTIMATE_CALLS, ids=["count", "assess", "mbt", "sigma-sample"]
)
def test_a_refusal_past_the_int_to_str_limit_exits_4(tmp_path, capsys, call):
    # each estimate has more than CPython's 4,300 digits (mbt's, unless its
    # sum stops at the cap); the message must quote it without str()
    ab = Alphabet(("a", "b"))
    models = {
        "P": Dfa(ab, ((1, 0), (0, 1)), 0, frozenset([0])),  # even number of a's
        "A": Dfa(ab, ((0, 1), (1, 1)), 0, frozenset([0])),  # a^n: one trace per length
    }
    for name, model in models.items():
        (tmp_path / f"{name}.dfa").write_text(serialize_dfa(model))
    out = tmp_path / "o.csv"
    argv = [str(tmp_path / f"{arg}.dfa") if arg in models else arg for arg in call]
    assert run(*argv, "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("refused: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A.dfa", "P.dfa"]


def test_the_horizon_cap_admits_the_benchmark_horizons():
    counting.check_horizon(7200, 4)  # count's longest
    counting.check_horizon(1600, 4, 3)  # long-horizon's assess


def test_mbt_over_the_test_set_cap_is_refused(tmp_path, monkeypatch, capsys):
    # the 5-state chain has |D| = 4 distinguishing traces, one more than the
    # ceil(log2 5) = 3 the bound takes before D is built.  At m = 6 the
    # middles are eps, a, b, aa, ab, ba and bb, so the bound is first
    # 5 * 7 * 3 = 105, which a cap of 105 lets through, and then 5 * 7 * 4
    model = tmp_path / "chain.dfa"
    model.write_text(serialize_dfa(a_chain(5)))
    out = tmp_path / "o.csv"
    argv = ["baseline", "mbt", str(model), str(model), "--m-bound", "6", "--out", str(out)]
    assert run(*argv) == 0
    out.unlink()
    (tmp_path / "o.csv.manifest.json").unlink()
    monkeypatch.setattr(baselines, "MAX_TEST_SET_SIZE", 105)
    assert run(*argv) == 4
    assert capsys.readouterr().err == "refused: W-method test set would hold up to 140 traces (cap 105)\n"
    assert not out.exists()


def test_mbt_past_the_cap_by_a_lower_bound_is_refused_before_the_characterization_set(
    tmp_path, monkeypatch, capsys
):
    # the 2,001-state chain at m = 2030: 2001 cover traces and at least
    # ceil(log2 2001) = 11 distinguishing ones take the bound past the cap
    # at middles of 7 symbols, 2001 * (2^8 - 1) * 11 traces, with neither
    # the cover nor the characterization set built
    def unreachable(*args):
        raise AssertionError("built")

    monkeypatch.setattr(baselines, "state_cover", unreachable)
    monkeypatch.setattr(baselines, "characterization_set", unreachable)
    model = tmp_path / "chain.dfa"
    model.write_text(serialize_dfa(a_chain(2001)))
    out = tmp_path / "o.csv"
    argv = ["baseline", "mbt", str(model), str(model), "--m-bound", "2030", "--out", str(out)]
    assert run(*argv) == 4
    assert capsys.readouterr().err == (
        "refused: W-method test set's size bound would hold at least 5612805 traces counting "
        "middles of at most 7 symbols alone; m = 2030 allows 30 (cap 5000000)\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.dfa"]


def test_no_command_reaches_a_gcd_or_node_elimination(tmp_path, signature_files, monkeypatch):
    # the commands count by Berlekamp-Massey, whose results need no GCD;
    # node elimination is the library's reference engine only
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(polynomials, "poly_gcd", unreachable)
    monkeypatch.setattr(counting, "elimination_ogf", unreachable)
    r_path, h_path = signature_files
    csv, traces = str(tmp_path / "a.csv"), str(tmp_path / "t.traces")

    def out(name):
        return ["--out", str(tmp_path / name)]

    calls = [
        ["assess", r_path, h_path, "--max-length", "60", "--out", csv],
        ["count", r_path, "--max-length", "60", *out("c.csv")],
        ["count", r_path, "--oracle", "dp", "--max-length", "60", *out("d.csv")],
        ["baseline", "trace-sim", r_path, h_path, "--target-traces", "200", *out("s.csv")],
        ["baseline", "trace-sim-conditioned", r_path, h_path, "--target-traces", "200", *out("sc.csv")],
        ["baseline", "mbt", r_path, h_path, "--m-bound", "6", *out("m.csv")],
        ["baseline", "sigma-sample", r_path, h_path, "--length", "4", "--samples", "50", *out("ss.csv")],
        ["gen-traces", r_path, "--min-traces", "20", "--out", traces],
        ["infer", traces, "--k", "2", "--out-model", str(tmp_path / "k.dfa")],
        ["report", csv, *out("r.svg")],
    ]
    assert {call[0] for call in calls} == set(cli._COMMANDS)
    for call in calls:
        assert run(*call) == 0, call


RUNTIME_PROBE = """
import contextlib, importlib, io, json, sys
before = set(sys.modules)
import langcard
for name in sys.argv[1:]:
    importlib.import_module("langcard." + name)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = langcard.cli.main(["--version"])
loaded = set(sys.modules) - before
print(json.dumps({
    "code": code,
    "version": out.getvalue().strip(),
    "foreign": sorted(
        m for m in loaded
        if m.partition(".")[0] not in sys.stdlib_module_names | {"langcard"}
    ),
    "network": sorted({"ssl", "http.client"} & set(sys.modules)),
}))
"""


def test_runtime_loads_only_the_standard_library():
    # a fresh interpreter, so modules the test runner loaded do not hide any
    names = [m.name for m in pkgutil.iter_modules(langcard.__path__)]
    src = os.path.dirname(os.path.dirname(langcard.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", RUNTIME_PROBE, *names],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    probe = json.loads(done.stdout)
    assert "cli" in names and probe["code"] == 0
    assert probe["version"] == langcard.__version__
    assert probe["foreign"] == []
    assert probe["network"] == []
