"""Byte-identity probe: run the benchmark's operations through two checkouts
and compare everything they produce.

    python3 tools/identity.py PARENT CHANGE [--seed N] [--workload NAME] [--ops K]

PARENT and CHANGE are source checkouts, each holding ``src/langcard``.  For
every workload (or the one named), the corpus is built by the benchmark's own
``perfbench/workloads.py``, imported read-only from the checkout this script
sits in, so both sides read the same inputs.  Each checkout then runs every
operation (or the first K of each workload) in a subprocess of its own,
through its own ``langcard.cli.main``, with paths relative to a fresh
directory, so that the manifests can be compared too.

Compared: the exit code of every call, the ``OGF:`` lines each call prints,
every file the corpus directory ends up holding, and each manifest less its
``duration_s``.  Prints each difference, a manifest's as each key path whose
values differ (``h000.csv.manifest.json: config.time_limit: missing against
600.0``), and exits 1 if there is any, 0 if there is none.  Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("assess-random", "ktails-roundtrip", "long-horizon", "baselines")
CORPUS = "corpus"
SHOWN = 10  # differences printed per workload


def record(checkout, workload, seed, ops):
    """Run the first ``ops`` operations of ``workload`` (all if None) through
    ``checkout`` in the current directory; returns what they produced."""
    sys.dont_write_bytecode = True  # leave no cache behind in either tree
    sys.path[:0] = [os.path.join(checkout, "src"), PERFBENCH]
    from langcard import cli

    import workloads

    expected = os.path.realpath(os.path.join(checkout, "src", "langcard"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != expected:
        raise SystemExit(f"langcard was imported from {cli.__file__}, not {expected}")
    calls = []

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escape from the program is a result to compare
                code = f"{type(exc).__name__}: {exc}"
        ogf = [line for line in out.getvalue().splitlines() if line.startswith("OGF:")]
        calls.append([argv, code, ogf])

    for op in workloads.build(workload, seed, CORPUS)[0][:ops]:
        op.run(call)
    files = {}
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("duration_s", None)
            files[name] = manifest
        else:
            files[name] = hashlib.sha256(data).hexdigest()
    return {"calls": calls, "files": files}


def run_both(checkouts, workload, seed, ops):
    """The records of both checkouts, made side by side in subprocesses."""
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        procs = []
        for i, checkout in enumerate(checkouts):
            work = os.path.join(tmp, str(i))
            os.mkdir(work)
            argv = [sys.executable, os.path.abspath(__file__), "--record", checkout,
                    workload, str(seed), str(ops if ops is not None else -1)]
            procs.append(subprocess.Popen(argv, cwd=work, stdout=subprocess.PIPE))
        outputs = [proc.communicate()[0] for proc in procs]
        for checkout, proc in zip(checkouts, procs):
            if proc.returncode:
                raise SystemExit(f"{workload}: recording {checkout} exited {proc.returncode}")
    return [json.loads(out) for out in outputs]


MISSING = object()  # the side of a key or file that one record lacks


def key_differences(was, now, path=""):
    """``path: was against now`` for each key path at which two JSON values
    differ, dicts compared key by key; a key that one side lacks is shown as
    ``missing``.  Two values that are not both dicts give one line at most,
    without a path when ``path`` is empty."""
    if isinstance(was, dict) and isinstance(now, dict):
        return [
            line
            for key in sorted(was.keys() | now.keys())
            for line in key_differences(
                was.get(key, MISSING), now.get(key, MISSING), f"{path}.{key}" if path else key
            )
        ]
    if was == now:
        return []
    shown = " against ".join("missing" if v is MISSING else json.dumps(v) for v in (was, now))
    return [f"{path}: {shown}" if path else shown]


def differences(parent, change):
    """One line per call or file on which the two records differ, and per
    key path on which two manifests differ."""
    found = []
    if len(parent["calls"]) != len(change["calls"]):
        found.append(f"{len(parent['calls'])} calls against {len(change['calls'])}")
    for (argv, *was), (_, *now) in zip(parent["calls"], change["calls"]):
        if was != now:
            found.append(f"{' '.join(argv[:3])}: exit and OGF {was} against {now}")
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        was, now = parent["files"].get(name, MISSING), change["files"].get(name, MISSING)
        found += [f"{name}: {line}" for line in key_differences(was, now)]
    return found


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--record"]:
        checkout, workload, seed, ops = args[1:]
        ops = None if int(ops) < 0 else int(ops)
        json.dump(record(checkout, workload, int(seed), ops), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--ops", type=int, default=None, help="the first K operations of each workload")
    args = parser.parse_args(args)
    checkouts = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    for checkout in checkouts:
        if not os.path.isfile(os.path.join(checkout, "src", "langcard", "cli.py")):
            parser.error(f"no langcard sources under {checkout}")
    total = 0
    for workload in args.workload or WORKLOADS:
        parent, change = run_both(checkouts, workload, args.seed, args.ops)
        found = differences(parent, change)
        total += len(found)
        print(f"{workload}: {len(parent['calls'])} calls, {len(parent['files'])} files, "
              f"{len(found)} differences")
        for line in found[:SHOWN]:
            print(f"  {line}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
