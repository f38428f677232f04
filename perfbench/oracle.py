"""Output oracle for the benchmark, independent of ``langcard``.

Counts come from a joint-state dynamic program over the reachable part of
the product R x H, which shares no code with the program's automata or
counting layers.  Decimal cells are rounded half-to-even from the exact
integer quotient, never through ``Fraction``.
"""

from __future__ import annotations

import json
import math

from corpus import SYMBOLS, Model, reachable_pairs

UNDEFINED = "undefined"
ASSESS_HEADER = "n,precision_eq,recall_eq,precision_le,recall_le"
# Hoeffding: P(|p_hat - p| >= eps) <= 2 exp(-2 S eps^2) for S i.i.d. draws;
# the sigma-sample check fails a correct program with probability <= this.
SAMPLING_FALSE_ALARM = 1e-9


class OracleError(Exception):
    """The program's output disagrees with the oracle."""


def confusion_counts(r: Model, h: Model, n_max: int):
    """Exact (tp, fp, fn) lists of per-length trace counts, lengths 0..n_max."""
    pairs = reachable_pairs(r, h)
    index = {p: i for i, p in enumerate(pairs)}
    succ = [
        [index[(r.table[qr][s], h.table[qh][s])] for s in range(r.sigma)]
        for qr, qh in pairs
    ]
    kind = []
    for qr, qh in pairs:
        in_r, in_h = qr in r.accepting, qh in h.accepting
        kind.append(0 if in_r and in_h else 1 if in_h else 2 if in_r else 3)
    v = [0] * len(pairs)
    v[0] = 1
    out = ([], [], [])
    for n in range(n_max + 1):
        sums = [0, 0, 0, 0]
        for i, c in enumerate(v):
            sums[kind[i]] += c
        for k in range(3):
            out[k].append(sums[k])
        if n == n_max:
            break
        nv = [0] * len(pairs)
        for i, c in enumerate(v):
            if c:
                for t in succ[i]:
                    nv[t] += c
        v = nv
    return out


def count_words(m: Model, n_max: int) -> list[int]:
    """Accepted words of each length 0..n_max."""
    v = [0] * m.states
    v[m.initial] = 1
    out = []
    for n in range(n_max + 1):
        out.append(sum(v[q] for q in m.accepting))
        if n == n_max:
            break
        nv = [0] * m.states
        for q, c in enumerate(v):
            if c:
                for t in m.table[q]:
                    nv[t] += c
        v = nv
    return out


def decimal(num: int, den: int, digits: int) -> str:
    """num/den rounded half-to-even to ``digits`` places; 0/0 is undefined."""
    if den == 0:
        return UNDEFINED
    q, r = divmod(num * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    text = str(q).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


def assess_csv(r: Model, h: Model, max_length: int, digits: int) -> str:
    tp, fp, fn = confusion_counts(r, h, max_length)
    lines = [ASSESS_HEADER]
    c_tp = c_fp = c_fn = 0
    for n in range(max_length + 1):
        c_tp += tp[n]
        c_fp += fp[n]
        c_fn += fn[n]
        lines.append(
            f"{n},{decimal(tp[n], tp[n] + fp[n], digits)},"
            f"{decimal(tp[n], tp[n] + fn[n], digits)},"
            f"{decimal(c_tp, c_tp + c_fp, digits)},"
            f"{decimal(c_tp, c_tp + c_fn, digits)}"
        )
    return "\n".join(lines) + "\n"


def counts_csv(m: Model, max_length: int) -> str:
    rows = [f"{n},{c}" for n, c in enumerate(count_words(m, max_length))]
    return "\n".join(["length,count"] + rows) + "\n"


def expect_equal(label, got: str, want: str):
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        for i, (g, w) in enumerate(zip(got_lines, want_lines)):
            if g != w:
                raise OracleError(f"{label}: line {i + 1} is {g!r}, expected {w!r}")
        raise OracleError(
            f"{label}: {len(got_lines)} lines, expected {len(want_lines)}"
        )


def check_manifest(path, command):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise OracleError(f"unreadable manifest {path}: {exc}") from None
    if payload.get("command") != command:
        raise OracleError(f"manifest names command {payload.get('command')!r}")


def parse_model(text: str, sigma: int) -> Model:
    """Read a fully tabulated model in the program's text format."""
    header = {}
    edges = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if sep:
            header[key.strip()] = rest.split()
            continue
        src, name, dst = line.split()
        edges[(int(src), SYMBOLS.index(name))] = int(dst)
    if tuple(header["alphabet"]) != SYMBOLS[:sigma]:
        raise OracleError(f"model alphabet {header['alphabet']}")
    n = int(header["states"][0])
    try:
        table = tuple(tuple(edges[(q, s)] for s in range(sigma)) for q in range(n))
    except KeyError as exc:
        raise OracleError(f"model has no transition for {exc.args[0]}") from None
    accepting = frozenset(int(q) for q in header.get("accepting", []))
    return Model(sigma, table, int(header["initial"][0]), accepting)


def parse_words(text: str, sigma: int) -> list[tuple[int, ...]]:
    names = SYMBOLS[:sigma]
    return [tuple(names.index(tok) for tok in line.split()) for line in text.splitlines()]


def check_exact_language(m: Model, words) -> None:
    """L(m) is exactly the set ``words``."""
    distinct = set(words)
    longest = max(len(w) for w in distinct)
    for w in distinct:
        if not m.accepts(w):
            raise OracleError(f"inferred model rejects training trace {w}")
    # with every training trace accepted, equal per-length counts up to
    # longest + |Q| rule out extra traces: a longer accepted trace would
    # force one of length in (longest, longest + |Q|]
    counts = count_words(m, longest + m.states)
    for n, c in enumerate(counts):
        want = sum(1 for w in distinct if len(w) == n)
        if c != want:
            raise OracleError(f"inferred model accepts {c} traces of length {n}, training set has {want}")


def check_superset(m: Model, words) -> None:
    for w in set(words):
        if not m.accepts(w):
            raise OracleError(f"inferred model rejects training trace {w}")


def _row(text, header):
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != header:
        raise OracleError(f"expected a header and one row, got {len(lines)} lines")
    return lines[1].split(",")


def _probability(cell, allow_undefined=False):
    if cell == UNDEFINED and allow_undefined:
        return None
    whole, dot, frac = cell.partition(".")
    if not (dot and whole.isdigit() and frac.isdigit()):
        raise OracleError(f"cell {cell!r} is not a decimal")
    value = float(cell)
    if not 0.0 <= value <= 1.0:
        raise OracleError(f"cell {cell!r} is outside [0, 1]")
    return value


def check_trace_sim(text: str) -> None:
    n, p_eq, r_eq, p_le, r_le = _row(text, ASSESS_HEADER)
    if not n.isdigit() or (p_eq, r_eq) != (UNDEFINED, UNDEFINED):
        raise OracleError(f"trace-sim row has the wrong shape: {text!r}")
    _probability(p_le)
    _probability(r_le)


def check_mbt(text: str) -> None:
    n, p_eq, r_eq, p_le, r_le = _row(text, ASSESS_HEADER)
    if n != "0" or (p_eq, r_eq) != (UNDEFINED, UNDEFINED):
        raise OracleError(f"mbt row has the wrong shape: {text!r}")
    _probability(p_le, allow_undefined=True)
    _probability(r_le, allow_undefined=True)


def check_sigma_sample(text, r: Model, h: Model, length, samples, metric) -> None:
    """The estimate is within a Hoeffding bound of the exact value."""
    cells = _row(text, ASSESS_HEADER)
    col = 1 if metric == "precision" else 2
    if cells[0] != str(length) or any(
        c != UNDEFINED for i, c in enumerate(cells[1:], 1) if i != col
    ):
        raise OracleError(f"sigma-sample row has the wrong shape: {text!r}")
    estimate = _probability(cells[col])
    tp, fp, fn = confusion_counts(r, h, length)
    other = fp[length] if metric == "precision" else fn[length]
    exact = tp[length] / (tp[length] + other)
    eps = math.sqrt(math.log(2 / SAMPLING_FALSE_ALARM) / (2 * samples))
    if abs(estimate - exact) > eps + 1e-6:
        raise OracleError(
            f"sigma-sample {metric} {estimate} is {abs(estimate - exact):.4f} "
            f"from the exact {exact:.6f} (bound {eps:.4f})"
        )
