"""Paired benchmark runs of two checkouts, written as one evidence file.

    python3 tools/pairs.py PARENT CHANGE --workload W --seeds A-B --out FILE [--trace]

PARENT and CHANGE are source checkouts, each holding ``perfbench/run.py``
and ``src/langcard``.  For each seed from A to B, each checkout runs its own
``perfbench/run.py --workload W --seed N --seconds S --trace 0`` in a
subprocess, S being the ``run_seconds`` of ``BENCHMARK.json``, one after
the other: the parent first on odd seeds and the change first on even ones,
so that a drift in the machine's speed favours neither side.  Then
``tools/identity.py PARENT CHANGE --workload W``, from the checkout this
script sits in, compares what the two produce.  With ``--trace``, each side
then makes one ``--trace 1`` run of the same length on seed A, in that
seed's order.

FILE is a JSON object whose ``workloads`` hold, per workload:

- ``pairs``: per seed, which side ran first and each side's end-to-end
  metrics, ``attempted`` and ``failed``;
- ``summary``: per end-to-end metric of ``BENCHMARK.json``, both sides'
  medians, the parent's interquartile range, the pairs the change wins
  (ties win nothing) and the exact two-sided sign-test p-value of those
  wins, ties left out, over all the pairs;
- ``summaries``: the same per run, over that run's own pairs, keyed by its
  seed range ``A-B``, so that seeds held out of a claim stay readable
  apart from the seeds it was made on;
- ``failed``: per side, the operations failed and attempted in all;
- ``identity``: the probe's exit code and output lines;
- ``traced`` (with ``--trace``): the seed, which side ran first, each side's
  per-layer metrics of ``BENCHMARK.json``, ``attempted`` and ``failed``, and
  per per-layer metric the change's value minus the parent's (``delta``).

Running again into an existing FILE keeps its other workloads, replaces the
pairs of the seeds run again, recomputes the summary from all the pairs and
adds the run's own summary to ``summaries``, keeping those of earlier runs
but one of the same seed range; a workload's ``traced`` is replaced only by
another ``--trace`` run.
``--workload`` may be given more than once (default: every workload of
``BENCHMARK.json``).  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENTITY = os.path.join(ROOT, "tools", "identity.py")
SIDES = ("parent", "change")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(checkout, workload, seed, seconds, trace=0):
    """The metrics (end-to-end, or per-layer with ``trace``), ``attempted``
    and ``failed`` of one run of ``checkout``'s own benchmark."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    run = {name: metric["value"] for name, metric in result["metrics"].items()}
    run.update(attempted=result["attempted"], failed=result["failed"])
    return run


def run_identity(parent, change, workload):
    proc = subprocess.run(
        [sys.executable, IDENTITY, parent, change, "--workload", workload],
        capture_output=True, text=True,
    )
    return {"exit": proc.returncode, "output": (proc.stdout + proc.stderr).splitlines()}


def order(seed):
    """The sides in the order they run on ``seed``."""
    return SIDES if seed % 2 else SIDES[::-1]


def sign_test(wins, losses):
    """The exact two-sided sign-test p-value of ``wins`` against
    ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def summary(pairs, end_to_end):
    """Per end-to-end metric, the medians, the parent's interquartile range,
    the change's wins and their sign-test p-value over ``pairs``."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        got = [(p["parent"][name], p["change"][name]) for p in pairs
               if name in p["parent"] and name in p["change"]]
        if not got:
            continue
        parent, change = zip(*got)
        wins = sum(sign * (c - p) > 0 for p, c in got)
        losses = sum(sign * (c - p) < 0 for p, c in got)
        quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
        out[name] = {
            "better": metric["better"],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": quartiles[2] - quartiles[0],
            "wins": wins,
            "pairs": len(got),
            "sign_p": sign_test(wins, losses),
        }
    return out


def collect(parent, change, workload, seeds, seconds, runner=run_bench, identity=run_identity):
    """The pairs of ``workload`` on ``seeds`` and the identity probe's
    result; ``runner(checkout, workload, seed, seconds)`` makes one run."""
    pairs = []
    checkouts = dict(zip(SIDES, (parent, change)))
    for seed in seeds:
        pair = {"seed": seed, "first": order(seed)[0]}
        for side in order(seed):
            pair[side] = runner(checkouts[side], workload, seed, seconds)
        pairs.append(pair)
    return pairs, identity(parent, change, workload)


def traced(parent, change, workload, seed, seconds, layers, runner=run_bench):
    """One ``--trace 1`` run per side of ``workload`` on ``seed``, and per
    metric named in ``layers`` that both report, the change's value minus
    the parent's."""
    checkouts = dict(zip(SIDES, (parent, change)))
    out = {"seed": seed, "first": order(seed)[0]}
    for side in order(seed):
        out[side] = runner(checkouts[side], workload, seed, seconds, trace=1)
    out["delta"] = {name: out["change"][name] - out["parent"][name]
                    for name in layers if name in out["parent"] and name in out["change"]}
    return out


def merged(old, workload, pairs, probe, end_to_end, trace=None):
    """``old`` (a FILE's object, or empty) with ``workload``'s pairs, by
    seed, replaced by ``pairs``, its summary recomputed, the summary of
    ``pairs`` alone stored under their seed range and its traced runs
    replaced by ``trace`` unless that is None."""
    entries = old.setdefault("workloads", {})
    before = entries.get(workload, {})
    seeds = {p["seed"] for p in pairs}
    kept = [p for p in before.get("pairs", []) if p["seed"] not in seeds]
    everything = sorted(kept + pairs, key=lambda p: p["seed"])
    trace = trace or before.get("traced")
    runs = before.get("summaries", {})
    runs[f"{pairs[0]['seed']}-{pairs[-1]['seed']}"] = summary(pairs, end_to_end)
    entries[workload] = {
        "pairs": everything,
        "summary": summary(everything, end_to_end),
        "summaries": runs,
        "failed": {side: [sum(p[side]["failed"] for p in everything),
                          sum(p[side]["attempted"] for p in everything)] for side in SIDES},
        "identity": probe,
    }
    if trace:
        entries[workload]["traced"] = trace
    return old


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None, runner=run_bench, identity=run_identity):
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, or one seed")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true", help="add one --trace 1 run per side")
    args = parser.parse_args(argv)
    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    for checkout in (parent, change):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            parser.error(f"no perfbench/run.py under {checkout}")
    old = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            old = json.load(fh)
    seconds = bench["run_seconds"]
    command = (f"perfbench/run.py --seconds {seconds} --trace 0, "
               "parent first on odd seeds, change first on even ones")
    if args.trace:
        command += "; one --trace 1 run per side on the first seed"
    old.update(
        command=command,
        python=platform.python_version(),
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs",
    )
    for workload in args.workload or names:
        pairs, probe = collect(parent, change, workload, args.seeds, seconds, runner, identity)
        trace = None
        if args.trace:
            layers = [m["name"] for m in bench["per_layer"]]
            trace = traced(parent, change, workload, args.seeds[0], seconds, layers, runner)
        old = merged(old, workload, pairs, probe, bench["end_to_end"], trace)
        with open(args.out, "w") as fh:
            json.dump(old, fh, indent=1)
            fh.write("\n")
        for name, s in old["workloads"][workload]["summary"].items():
            print(f"{workload} {name}: {s['parent_median']:.4g} -> {s['change_median']:.4g} "
                  f"(parent IQR {s['parent_iqr']:.3g}), change wins {s['wins']}/{s['pairs']}, "
                  f"sign p {s['sign_p']:.3g}")
        print(f"{workload} identity: exit {probe['exit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
