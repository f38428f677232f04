"""Outside-in tracing of ``langcard``'s layer boundaries.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
timing wrapper, in the module that defines it and in every ``langcard``
module that imported it by name; ``uninstall`` puts the originals back.
Spans are kept in memory as tuples and written out once the run is over.
The untraced run never installs anything.
"""

from __future__ import annotations

import functools
import sys
import time

_WRAPPED = "__perfbench_original__"


def _rows(args, result):
    return len(result.per_length or ()) + len(result.cumulative or ())


# (module, attribute, span name, size of the work done: f(args, result) or None)
TARGETS = [
    ("langcard.cli", "main", "cli.main", None),
    ("langcard.automata", "parse_dfa", "automata.parse", lambda a, r: r.state_count),
    ("langcard.automata", "serialize_dfa", "automata.serialize", None),
    ("langcard.automata", "confusion_automata", "automata.confusion", None),
    ("langcard.automata", "Dfa.intersect", "automata.product", lambda a, r: r.state_count),
    ("langcard.automata", "Dfa.union", "automata.product", lambda a, r: r.state_count),
    ("langcard.automata", "Dfa.minimize", "automata.minimize", lambda a, r: (a[0].state_count, r.state_count)),
    ("langcard.polynomials", "poly_gcd", "polynomials.gcd", None),
    ("langcard.counting", "compute_ogf", "counting.ogf", lambda a, r: (a[0].state_count, r.degree)),
    ("langcard.counting", "coefficients", "counting.coefficients", lambda a, r: len(r)),
    ("langcard.counting", "count_dp", "counting.dp", lambda a, r: len(r)),
    ("langcard.metrics", "assess", "metrics.assess", _rows),
    ("langcard.metrics", "single_length_assessment", "metrics.assess", _rows),
    ("langcard.metrics", "cumulative_assessment", "metrics.assess", _rows),
    ("langcard.metrics", "assessment_csv", "metrics.csv", None),
    ("langcard.metrics", "counts_csv", "metrics.csv", None),
    ("langcard.inference", "k_tails", "inference.ktails", lambda a, r: r.state_count),
    ("langcard.inference", "generate_training_set", "inference.gen_traces", lambda a, r: len(r.traces)),
    ("langcard.baselines", "trace_similarity", "baselines.trace_sim", lambda a, r: r.e_precision.total + r.e_recall.total),
    ("langcard.baselines", "w_method_test_set", "baselines.wmethod", lambda a, r: r.total),
    ("langcard.baselines", "mbt_assessment", "baselines.mbt", None),
    ("langcard.baselines", "sigma_sampling_assessment", "baselines.sigma_sample", None),
]

ROOT = "op"


class Tracer:
    """Span recorder.  A span is ``(op, parent, name, start, end, size)``;
    ``parent`` is an index into ``spans`` or -1 for an operation's root."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def span(self, name, fn, size=None):
        """``fn`` wrapped so that every call records one span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, parent, name, start, end, None)
            if size is not None:
                spans[index] = (self.op, parent, name, start, end, size(args, result))
            return result

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def install(self):
        for module_name, attr, name, size in TARGETS:
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(sys.modules[module_name], owner_name)
                self._patch(owner, method, self.span(name, getattr(owner, method), size))
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.span(name, original, size)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "langcard" or mod_name.startswith("langcard."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_s,end_s,size\n")
            for i, (op, parent, name, start, end, size) in enumerate(self.spans):
                size = "" if size is None else str(size).replace(", ", ";")
                fh.write(f"{op},{i},{parent},{name},{start:.9f},{end:.9f},{size}\n")


def installed_wrappers():
    """(module or class, attribute) of every wrapper still in place."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "langcard" or mod_name.startswith("langcard."):
            for key, value in vars(mod).items():
                if hasattr(value, _WRAPPED):
                    found.append((mod_name, key))
                elif isinstance(value, type):
                    found.extend(
                        (f"{mod_name}.{key}", k)
                        for k, v in vars(value).items()
                        if hasattr(v, _WRAPPED)
                    )
    return found


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    out = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
