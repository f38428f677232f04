"""Run every workload and print each metric with its unit.

    python3 perfbench/summary.py [--seeds 1,2,3] [--seconds 25] [--trace-seeds 1]
                                 [--out perfbench/results/NAME.json]
                                 [--against perfbench/results/baseline.json]

For each workload, runs ``run.py`` once per seed untraced and once per
trace seed traced, each in its own process, and prints the median and
quartiles of every end-to-end and per-layer metric over those runs, the
spread (quartile distance over the median), and the error rate (failed over
attempted operations).  ``--out`` also writes every
value measured, for later commits to compare against.  ``--against`` prints,
for every end-to-end metric, how far its median moved from the median in an
earlier report, and whether the move is worse than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload, seeds, seconds, trace):
    runs = [run(workload, seed, seconds, trace) for seed in seeds]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {}
    for r in runs:
        for name, m in r["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    return {
        "seeds": seeds,
        "correct": all(r["correct"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
    }


def describe(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(report, earlier, bench):
    """Lines comparing end-to-end medians with those of ``earlier``."""
    lines = []
    for name, entry in report["workloads"].items():
        before = earlier["workloads"].get(name, {}).get("end_to_end")
        if "end_to_end" not in entry or not before:
            continue
        for m in bench["end_to_end"]:
            old = statistics.median(before["metrics"][m["name"]]["values"])
            new = statistics.median(entry["end_to_end"]["metrics"][m["name"]]["values"])
            change = new / old - 1
            worse = change if m["better"] == "lower" else -change
            verdict = "worse than bound" if worse > m["bound"] else "within bound"
            lines.append(f"{name:18s} {m['name']:18s} {old:12.6g} -> {new:12.6g} "
                         f"({change:+.3f}, bound {m['bound']}) {verdict}")
    return lines


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace-seeds", default="1")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    trace_seeds = [int(s) for s in args.trace_seeds.split(",") if s]
    report = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "seconds": args.seconds,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        entry = report["workloads"][name] = {}
        for trace, run_seeds in ((0, seeds), (1, trace_seeds)):
            if not run_seeds:
                continue
            result = entry["trace" if trace else "end_to_end"] = collect(
                name, run_seeds, args.seconds, trace
            )
            print(f"{name} ({'traced' if trace else 'untraced'}, seeds {args.seeds if not trace else args.trace_seeds}): "
                  f"correct {result['correct']} error_rate {result['error_rate']} "
                  f"({result['failed']}/{result['attempted']})")
            for metric, m in result["metrics"].items():
                med, q1, q3 = describe(m["values"])
                spread = (q3 - q1) / med if med else 0.0
                print(f"  {metric:32s} {med:14.6g} {m['unit']:9s} "
                      f"(q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.3f})")
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)
        print(f"medians against {args.against}:")
        for line in compare(report, earlier, bench):
            print(f"  {line}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
