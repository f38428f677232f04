"""Inferring models with k-tails and measuring the size/accuracy trade-off.

Training traces are random walks on a small reference protocol.  Small k
merges aggressively (small model, generous language, lower precision);
large k barely generalizes (big model, high precision, low recall).  The
exact cumulative assessment quantifies both sides of the trade.
"""

from langcard import RandomWalkConfig, WorkBudget, generate_training_set, k_tails
from langcard.metrics import confusion_counts, cumulative_assessment
from langcard.regexes import alt, seq, star, sym, to_dfa

reference = to_dfa(
    star(alt(seq(sym("open"), star(sym("read")), sym("close")),
             seq(sym("open"), sym("close")))),
    ("open", "read", "close"),
)

cfg = RandomWalkConfig(termination_probability=0.2, seed=31)
training = generate_training_set(reference, cfg, budget=WorkBudget(time_limit_s=60.0))
longest = training.max_trace_length
print(f"training set: {len(training.traces)} traces, longest {longest}")

print(f"\n{'k':>3} {'states':>7} {'precision<=20':>14} {'recall<=20':>11}")
for k in (1, 2, 4, 8, longest + 1):
    model = k_tails(training, k)
    counts = confusion_counts(reference, model, 20)
    result = cumulative_assessment(counts)
    last = result.cumulative[-1]
    p = "undefined" if last.precision is None else f"{float(last.precision):.3f}"
    r = "undefined" if last.recall is None else f"{float(last.recall):.3f}"
    print(f"{k:>3} {model.state_count:>7} {p:>14} {r:>11}")

print(
    "\nwith k past the longest training trace the model accepts exactly the"
    "\ntraining set: precision 1 by construction, recall whatever the sample"
    "\nhappened to cover."
)
