"""The comparison methods side by side on one model pair.

Runs the W-method assessment (deterministic but weight-blind), uniform
per-length sampling (unbiased but statistical), and the exact per-length
values they approximate.
"""

from langcard import mbt_assessment, sigma_sampling_assessment, w_method_test_set
from langcard.metrics import confusion_counts, single_length_assessment
from langcard.regexes import alt, seq, star, sym, to_dfa

AB = ("a", "b")

reference = to_dfa(star(alt(sym("a"), seq(sym("b"), sym("a")))), AB).minimize()
inferred = to_dfa(star(sym("a")), AB).minimize()  # lost the b-a blocks

m = max(reference.state_count, inferred.state_count)
tests = w_method_test_set(reference, m)
precision, recall = mbt_assessment(reference, inferred, m)
print(f"W-method with m = {m}: {tests.total} test traces")
print(f"  precision = {float(precision):.3f}, recall = {float(recall):.3f}")

print("\nexact single-length values:")
rows = single_length_assessment(confusion_counts(reference, inferred, 10)).per_length
for row in rows:
    if row.n in (2, 4, 6, 8, 10):
        print(
            f"  n = {row.n:>2}: precision = {float(row.precision):.3f}, "
            f"recall = {float(row.recall):.3f}"
        )

print("\nuniform sampling of the length-8 slice (1000 useful samples):")
for seed in (1, 2, 3):
    sampled = sigma_sampling_assessment(reference, inferred, 8, 1000, "recall", seed=seed)
    print(f"  seed {seed}: sampled recall = {float(sampled):.3f}")
exact = rows[8].recall
print(f"  exact value: {float(exact):.6f} ({exact})")
print("\nsampling scatters around the exact value; the counting route needs no seed.")
