"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is either a pinned ground truth, an independently
computed oracle (dynamic programming, exhaustive enumeration, brute-force
classification), or a statistical bound stated with its confidence level.
"""

import time
from fractions import Fraction

from langcard import confusion_product, parse_dfa
from langcard.baselines import (
    RandomWalkConfig,
    mbt_assessment,
    sigma_sampling_assessment,
    trace_similarity,
    w_method_test_set,
)
from langcard.counting import (
    WorkBudget,
    coefficients,
    compute_ogf,
    _live_count,
    count_dp,
    elimination_ogf,
)
from langcard.inference import generate_training_set, k_tails
from langcard.metrics import confusion_counts, single_length_assessment
from langcard.polynomials import ONE_POLY, Polynomial, RationalFunction

from helpers import (
    all_accepting,
    complement,
    doubled,
    enumerate_counts,
    enumerate_language,
    equivalent,
    random_dfa,
    random_finite_dfa,
    random_nonempty_dfa,
    seeded,
    signature_models,
)


def report(capsys, number, elapsed, limit, detail):
    with capsys.disabled():
        print(
            f"\nACCEPTANCE {number}: PASS ({elapsed:.1f}s / limit {limit:.0f}s) — {detail}"
        )
    assert elapsed < limit


def test_criterion_1_ogf_ground_truth(capsys):
    started = time.monotonic()
    ogf = compute_ogf(all_accepting(2))
    assert ogf == RationalFunction(ONE_POLY, Polynomial([1, -2]))
    assert str(ogf) == "1 / (1 - 2z)"
    counts = coefficients(ogf, 200)
    assert counts == [2**n for n in range(201)]
    report(
        capsys, 1, time.monotonic() - started, 1.0,
        "all-accepting binary model gives 1 / (1 - 2z) with counts 2^n up to n=200",
    )


def test_criterion_2_signature_exact_precision(capsys):
    started = time.monotonic()
    reference, inferred = signature_models()
    counts = confusion_counts(reference, inferred, 100)
    result = single_length_assessment(counts)
    for row in result.per_length:
        if 2 <= row.n <= 100:
            assert row.precision == Fraction(1, 5)
    c_tp = c_fp = 0
    for n in range(2, 101):
        c_tp += counts.tp[n]
        c_fp += counts.fp[n]
        assert Fraction(c_tp, c_tp + c_fp) == Fraction(1, 5)
    report(
        capsys, 2, time.monotonic() - started, 5.0,
        "single-length precision is exactly 1/5 for all 2 <= l <= 100, "
        "cumulative over the l >= 2 content is exactly 1/5",
    )


def test_criterion_3_trace_similarity_sensitivity(capsys):
    started = time.monotonic()
    reference, inferred = signature_models()
    base = dict(target_trace_count=50_000, min_transition_coverage=0, seed=424242)
    res_high = trace_similarity(
        reference, inferred, RandomWalkConfig(termination_probability=1.0, **base)
    )
    assert res_high.precision == 1
    res_low = trace_similarity(
        reference, inferred, RandomWalkConfig(termination_probability=0.01, **base)
    )
    assert Fraction(18, 100) <= res_low.precision <= Fraction(22, 100)
    report(
        capsys, 3, time.monotonic() - started, 30.0,
        f"precision 1 at pa=1 and {float(res_low.precision):.4f} at pa=0.01 "
        "with 50,000 seeded traces",
    )


def test_criterion_4_oracle_equivalence(capsys):
    started = time.monotonic()
    rng = seeded(4040)
    models = [random_dfa(rng, rng.randrange(1, 13), rng.randrange(1, 5)) for _ in range(200)]
    # finite languages and doubled state sets recur in fewer terms than they
    # have live states: BM then keeps a length L < q
    models += [random_finite_dfa(rng, rng.randrange(1, 10), rng.randrange(1, 4)) for _ in range(50)]
    models += [doubled(random_dfa(rng, rng.randrange(1, 7), rng.randrange(1, 4))) for _ in range(50)]
    shorter = 0
    for i, d in enumerate(models):
        ogf = compute_ogf(d)
        assert elimination_ogf(d) == ogf, f"engine mismatch on model {i}"
        # built without a GCD, yet already canonical
        assert RationalFunction(ogf.num, ogf.den) == ogf, f"unreduced result on model {i}"
        ogf_counts = coefficients(ogf, 60)
        assert ogf_counts == count_dp(d, 60), f"dp mismatch on model {i}"
        assert ogf_counts[:9] == enumerate_counts(d, 8), f"enumeration mismatch on model {i}"
        length = max(len(ogf.num.coeffs), len(ogf.den.coeffs) - 1)
        shorter += length < _live_count(d)
    assert shorter >= 50
    report(
        capsys, 4, time.monotonic() - started, 120.0,
        f"{len(models)} models (200 random, 50 finite, 50 doubled; {shorter} "
        "recurring in fewer terms than live states): both engines give the "
        "same canonical function, whose series coefficients equal the "
        "dynamic-programming counts (n <= 60) and exhaustive enumeration (n <= 8)",
    )


def test_criterion_5_elimination_order_invariance(capsys):
    started = time.monotonic()
    rng = seeded(5050)
    for _ in range(50):
        d = random_dfa(rng, rng.randrange(2, 11), rng.randrange(1, 4))
        reference = compute_ogf(d)
        for _ in range(10):
            order = list(range(d.state_count))
            rng.shuffle(order)
            assert elimination_ogf(d, order=order) == reference
    report(
        capsys, 5, time.monotonic() - started, 120.0,
        "50 random models x 10 random elimination orders all reach the same "
        "canonical rational function",
    )


def test_criterion_6_partition_identities(capsys):
    started = time.monotonic()
    rng = seeded(6060)
    for _ in range(50):
        n_sym = rng.randrange(1, 4)
        r = random_dfa(rng, rng.randrange(1, 7), n_sym)
        h = random_dfa(rng, rng.randrange(1, 7), n_sym)
        c = confusion_counts(r, h, 40)
        # the traces in neither model: the product's states in no class
        tn_model = complement(confusion_product(r, h)[0])
        tn = coefficients(compute_ogf(tn_model), 40)
        h_counts = count_dp(h, 40)
        r_counts = count_dp(r, 40)
        for n in range(41):
            assert c.tp[n] + c.fp[n] == h_counts[n]
            assert c.tp[n] + c.fn[n] == r_counts[n]
            assert c.tp[n] + c.fp[n] + c.fn[n] + tn[n] == n_sym**n
    report(
        capsys, 6, time.monotonic() - started, 120.0,
        "50 random pairs satisfy all confusion partition identities exactly "
        "for every n <= 40",
    )


def test_criterion_7_sampling_agreement(capsys):
    started = time.monotonic()
    rng = seeded(7070)
    trials = 0
    failures = 0
    pairs = 0
    while pairs < 20:
        r = random_dfa(rng, rng.randrange(2, 6), 2, accept_p=0.6)
        h = random_dfa(rng, rng.randrange(2, 6), 2, accept_p=0.6)
        length = rng.randrange(4, 8)
        exact_rows = single_length_assessment(confusion_counts(r, h, length)).per_length
        exact = exact_rows[length].precision
        # keep runtimes sane: require a decent acceptance rate for the
        # conditioning model so 1000 useful samples arrive quickly
        accepted = count_dp(h, length)[length]
        if exact is None or accepted * 8 < 2**length:
            continue
        pairs += 1
        for s in range(5):
            sampled = sigma_sampling_assessment(
                r, h, length, 1000, "precision", seed=rng.randrange(2**32)
            )
            trials += 1
            if abs(float(sampled) - float(exact)) > 0.0408:
                failures += 1
    assert trials == 100
    assert failures <= 1, f"{failures} of {trials} trials missed the 4.08pp bound"
    report(
        capsys, 7, time.monotonic() - started, 300.0,
        f"uniform sampling with 1000 useful traces stayed within 4.08 points of "
        f"the exact value in {trials - failures}/{trials} seeded trials",
    )


# Reconstructed reference and two deliberately flawed subset models: the
# first misses fewer traces overall, yet scores a lower W-method recall,
# because test-set hits do not weigh language sizes.
_INVERSION_R = """\
alphabet: a b
states: 2
initial: 0
accepting: 0
0 a 1
0 b 0
1 a 0
1 b 1
"""

_INVERSION_H1 = """\
alphabet: a b
states: 3
initial: 0
accepting: 2
0 a 1
0 b 0
1 a 2
1 b 1
2 a 1
2 b 0
"""

_INVERSION_H2 = """\
alphabet: a b
states: 5
initial: 0
accepting: 0 4
0 a 1
0 b 0
1 a 2
1 b 3
2 a 1
2 b 4
3 a 4
3 b 1
4 a 3
4 b 2
"""


def test_criterion_8_w_method(capsys):
    started = time.monotonic()
    rng = seeded(8080)
    pairs = 0
    while pairs < 100:
        r = random_dfa(rng, rng.randrange(2, 5), 2).minimize()
        h = random_dfa(rng, rng.randrange(2, 6), 2).minimize()
        if equivalent(r, h):
            continue
        pairs += 1
        m = max(r.state_count, h.state_count)
        tests = w_method_test_set(r, m)
        assert any(
            r.accepts(t) != h.accepts(t) for t in tests.traces
        ), "test set failed to expose an inequivalent model"

    # directional check on the reconstructed fixtures
    r = parse_dfa(_INVERSION_R)
    h1 = parse_dfa(_INVERSION_H1)
    h2 = parse_dfa(_INVERSION_H2)
    c1 = confusion_counts(r, h1, 10)
    c2 = confusion_counts(r, h2, 10)
    assert sum(c1.fp) == sum(c2.fp) == 0  # both are subset models
    assert sum(c1.fn) < sum(c2.fn)
    m = max(r.state_count, h1.state_count, h2.state_count)
    _, recall1 = mbt_assessment(r, h1, m)
    _, recall2 = mbt_assessment(r, h2, m)
    assert recall1 < recall2
    report(
        capsys, 8, time.monotonic() - started, 120.0,
        f"every one of 100 inequivalent pairs is exposed by the test set; "
        f"fixture with fewer missed traces ({sum(c1.fn)} vs {sum(c2.fn)}) still "
        f"scores lower W-method recall ({float(recall1):.3f} vs {float(recall2):.3f})",
    )


def test_criterion_9_k_tails_degenerate(capsys):
    started = time.monotonic()
    rng = seeded(9090)
    for i in range(20):
        reference = random_nonempty_dfa(rng, rng.randrange(3, 6), rng.randrange(2, 4), accept_p=0.5)
        cfg = RandomWalkConfig(termination_probability=0.25, seed=rng.randrange(2**32))
        ts = generate_training_set(reference, cfg)
        assert len(ts.traces) >= 100
        k = ts.max_trace_length + 1
        inferred = k_tails(ts, k)
        assert enumerate_language(inferred, ts.max_trace_length + 1) == set(ts.traces), (
            f"training set {i} was generalized despite k > max length"
        )
        rows = single_length_assessment(
            confusion_counts(reference, inferred, ts.max_trace_length + 2)
        ).per_length
        defined = [row.precision for row in rows if row.precision is not None]
        assert defined and all(p == 1 for p in defined)
    report(
        capsys, 9, time.monotonic() - started, 180.0,
        "20 generated training sets: k beyond the longest trace reproduces the "
        "training set exactly and precision is 1 wherever defined",
    )


def test_criterion_10_scalability_smoke(capsys):
    started = time.monotonic()
    rng = seeded(1010)
    n = 110
    while True:
        d = random_dfa(rng, n, 2, accept_p=0.3).minimize()
        if d.state_count >= 100:
            break
        n += 10
    ogf = compute_ogf(d, WorkBudget())  # default budget
    assert coefficients(ogf, 80) == count_dp(d, 80)
    assert elimination_ogf(d, WorkBudget()) == ogf
    report(
        capsys, 10, time.monotonic() - started, WorkBudget().time_limit_s,
        f"generating function of a {d.state_count}-state minimized model "
        "computed within the default work budget by both engines and cross-checked",
    )
