import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langcard.counting import coefficients
from langcard.errors import DivergentStarError
from langcard.polynomials import (
    ONE_POLY,
    Polynomial,
    RationalFunction,
    format_rational,
    kleene_star,
    poly_gcd,
)

small_coeffs = st.lists(st.integers(-9, 9), max_size=6)


def naive_mul(a, b):
    if not a.coeffs or not b.coeffs:
        return Polynomial()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Polynomial(out)


def test_trailing_zeros_are_normalized():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0]).is_zero


def test_degree_of_zero_is_minus_infinity():
    assert Polynomial().degree == -math.inf
    assert Polynomial([0, 0, 5]).degree == 2


@given(small_coeffs, small_coeffs)
def test_mul_matches_schoolbook(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    assert pa * pb == naive_mul(pa, pb)


def test_kronecker_path_matches_schoolbook():
    # 40 x 35 terms with mixed signs, larger than the Hypothesis tests draw;
    # the name predates the removal of the packing (Kronecker) path
    a = Polynomial([(-1) ** i * (i**3 + 1) for i in range(40)])
    b = Polynomial([(i % 7) - 3 for i in range(35)])
    assert a * b == naive_mul(a, b)


@given(small_coeffs, small_coeffs, small_coeffs)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    pa, pb, pc = Polynomial(a), Polynomial(b), Polynomial(c)
    assert pa * pb == pb * pa
    assert pa + pb == pb + pa
    assert (pa + pb) * pc == pa * pc + pb * pc


@given(small_coeffs, small_coeffs, small_coeffs)
@settings(max_examples=60)
def test_gcd_divides_and_scales(a, b, g):
    pa, pb, pg = Polynomial(a), Polynomial(b), Polynomial(g)
    if pa.is_zero and pb.is_zero:
        return
    d = poly_gcd(pa, pb)
    if not pa.is_zero:
        assert pa.exact_div(d) * d == pa
    if not pb.is_zero:
        assert pb.exact_div(d) * d == pb
    if not pg.is_zero:
        scaled = poly_gcd(pa * pg, pb * pg)
        # gcd(ag, bg) = gcd(a, b) * g up to sign
        expected = d * pg
        if expected.leading() < 0:
            expected = -expected
        assert scaled == expected


def test_gcd_known_values():
    a = Polynomial([1, 1]) * Polynomial([-2, 1])  # (1+z)(z-2)
    b = Polynomial([1, 1]) * Polynomial([3, 1])  # (1+z)(z+3)
    assert poly_gcd(a, b) == Polynomial([1, 1])
    assert poly_gcd(Polynomial([6, 0, 12]), Polynomial([4])) == Polynomial([2])


def test_rational_canonical_form():
    # (2 + 2z) / (2 - 2z^2) reduces to 1 / (1 - z)
    f = RationalFunction(Polynomial([2, 2]), Polynomial([2, 0, -2]))
    assert f.num == Polynomial([1])
    assert f.den == Polynomial([1, -1])


def test_rational_sign_normalization():
    f = RationalFunction(Polynomial([1]), Polynomial([-1, 2]))
    assert f.den.trailing() > 0
    assert f.num == Polynomial([-1])


def test_add_mul_identities():
    f = RationalFunction(Polynomial([1, 3]), Polynomial([1, 0, 2]))
    zero = RationalFunction.from_int(0)
    one = RationalFunction.from_int(1)
    assert f + zero == f
    assert f * one == f
    assert f - f == zero


def test_mul_cancellation():
    geo = RationalFunction(ONE_POLY, Polynomial([1, -1]))  # 1/(1-z)
    lin = RationalFunction(Polynomial([1, -1]))  # 1-z
    assert geo * lin == RationalFunction.from_int(1)


def test_kleene_star_basics():
    two_z = RationalFunction(Polynomial([0, 2]))
    assert kleene_star(two_z) == RationalFunction(ONE_POLY, Polynomial([1, -2]))
    assert kleene_star(RationalFunction.from_int(0)) == RationalFunction.from_int(1)


def test_kleene_star_divergence():
    with pytest.raises(DivergentStarError):
        kleene_star(RationalFunction.from_int(1))


@given(small_coeffs, small_coeffs)
@settings(max_examples=60)
def test_kleene_star_inverse_property(num, den):
    den_poly = Polynomial([1] + den)  # nonzero constant term
    num_poly = Polynomial([0] + num)  # f(0) = 0
    f = RationalFunction(num_poly, den_poly)
    one = RationalFunction.from_int(1)
    assert kleene_star(f) * (one - f) == one


@given(small_coeffs, small_coeffs, small_coeffs, small_coeffs)
@settings(max_examples=60)
def test_field_round_trip(an, ad, bn, bd):
    if not any(ad) or not any(bd):
        return
    a = RationalFunction(Polynomial(an), Polynomial(ad))
    b = RationalFunction(Polynomial(bn), Polynomial(bd))
    assert (a + b) - b == a


# denominators with D(0) = 1, so every series has integer coefficients
series_dens = st.lists(st.integers(-9, 9), max_size=5).map(lambda c: Polynomial([1, *c]))


@given(small_coeffs, series_dens, small_coeffs, series_dens)
@settings(max_examples=80)
def test_sums_and_products_add_and_convolve_the_series(an, ad, bn, bd):
    # the oracle reads only the operands' and results' coefficients through
    # the recurrence, never the rational-function arithmetic under test
    a, b = RationalFunction(Polynomial(an), ad), RationalFunction(Polynomial(bn), bd)
    n = 12
    ca, cb = coefficients(a, n), coefficients(b, n)
    total, product = a + b, a * b
    assert coefficients(total, n) == [x + y for x, y in zip(ca, cb)]
    assert coefficients(product, n) == [
        sum(ca[i] * cb[k - i] for i in range(k + 1)) for k in range(n + 1)
    ]
    for f in (total, product):
        assert RationalFunction(f.num, f.den) == f  # already canonical


def test_formatting():
    geo2 = RationalFunction(ONE_POLY, Polynomial([1, -2]))
    assert str(geo2) == "1 / (1 - 2z)"
    assert format_rational(RationalFunction.from_int(0)) == "0 / 1"
    poly = RationalFunction(Polynomial([1, 0, -3, 1]))
    assert str(poly) == "(1 - 3z^2 + z^3) / 1"


def test_formatting_parenthesizes_a_numerator_of_several_terms():
    f = RationalFunction(Polynomial([1, -1]), Polynomial([1, -2, -1]))
    assert format_rational(f) == "(1 - z) / (1 - 2z - z^2)"
    single = RationalFunction(Polynomial([0, 0, -3]), Polynomial([1, -1]))
    assert format_rational(single) == "-3z^2 / (1 - z)"
    assert format_rational(RationalFunction(Polynomial([0, 2]))) == "2z / 1"
