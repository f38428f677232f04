"""Exact arithmetic for integer polynomials and rational functions.

Polynomials are dense coefficient tuples in ascending powers of z with
arbitrary-precision integer entries and no stored trailing zeros.  Rational
functions keep numerator and denominator coprime at all times with the sign
normalized so that the denominator's lowest-order nonzero coefficient is
positive.  That canonical form makes structural equality coincide with
mathematical equality, which the counting layer relies on when checking
order invariance.  Since it is unique, a sum or product is built unreduced,
(a.num * b.den + b.num * a.den) / (a.den * b.den) or
(a.num * b.num) / (a.den * b.den), and reduced once by the constructor.

GCDs are computed modulo word-size primes with CRT reconstruction and a
trial-division check, so the result is provably the true GCD; a primitive
remainder sequence over the integers was tried in its place and was about
25 times slower on the largest cross-check of node elimination.  Only
rational-function arithmetic (node elimination, the reference engine) and
the public constructor need a GCD: Berlekamp-Massey results are built
already reduced (``counting``).
"""

from __future__ import annotations

import math

from .errors import DivergentStarError

# Primes just below 2**30, largest first, so residues are one-digit CPython
# ints and products of two fit a machine word; the list grows on demand.
_PRIMES = [2**30 - 35]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    # Deterministic Miller-Rabin for n < 3.3e24, far above anything we probe.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _extend_primes():
    n = _PRIMES[-1] - 2
    while not _is_prime(n):
        n -= 2
    _PRIMES.append(n)


def _primes():
    """The word-size primes in order, extending the list on demand."""
    i = 0
    while True:
        if i == len(_PRIMES):
            _extend_primes()
        yield _PRIMES[i]
        i += 1


def _crt_lift(residues, modulus, new, p):
    """Fold coefficient residues mod p into residues mod ``modulus``.

    ``residues`` of None starts afresh.  Returns the combined residues, their
    modulus, and their symmetric representatives in (-modulus/2, modulus/2].
    """
    if residues is None:
        combined, modulus = list(new), p
    else:
        inv = pow(modulus, -1, p)
        combined = [r + modulus * ((s - r) % p * inv % p) for r, s in zip(residues, new)]
        modulus *= p
    half = modulus // 2
    return combined, modulus, [r - modulus if r > half else r for r in combined]


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _school_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


class Polynomial:
    """Integer polynomial in z, stored as ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(tuple(coeffs))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def trailing(self):
        """Lowest-order nonzero coefficient (0 for the zero polynomial)."""
        for c in self.coeffs:
            if c:
                return c
        return 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO_POLY
        return Polynomial(_school_mul(a, b))

    def scale(self, k):
        if k == 0:
            return ZERO_POLY
        return Polynomial(tuple(c * k for c in self.coeffs))

    def content(self):
        """GCD of all coefficients (nonnegative; 0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def exact_div(self, other):
        """Divide by ``other`` assuming exact divisibility over the integers."""
        q = _exact_div(self.coeffs, other.coeffs)
        if q is None:
            raise ArithmeticError("polynomial division is not exact")
        return Polynomial(q)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


ZERO_POLY = Polynomial()
ONE_POLY = Polynomial((1,))


def format_poly(p):
    if p.is_zero:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            power = "z" if i == 1 else f"z^{i}"
            term = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def _exact_div(a, b):
    """Quotient of a by b over Z, or None if the division has a remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    if len(a) < len(b):
        return None
    rem = list(a)
    lead = b[-1]
    nq = len(a) - len(b) + 1
    quot = [0] * nq
    for i in range(nq - 1, -1, -1):
        c = rem[i + len(b) - 1]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            return None
        quot[i] = q
        for j, bj in enumerate(b):
            rem[i + j] -= q * bj
    if any(rem[: len(b) - 1]):
        return None
    return quot


def _gcd_mod(a, b, p):
    """Monic GCD of two coefficient lists in GF(p)[z]."""
    a = [c % p for c in a]
    b = [c % p for c in b]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        # a mod b in place
        inv = pow(b[-1], -1, p)
        nb = len(b)
        for i in range(len(a) - nb, -1, -1):
            c = a[i + nb - 1]
            if c:
                q = c * inv % p
                for j in range(nb):
                    a[i + j] = (a[i + j] - q * b[j]) % p
        a, b = b, trim(a)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def poly_gcd(a, b):
    """GCD over Z[z], normalized to positive leading coefficient.

    Computed modulo large primes with CRT reconstruction; a candidate is
    accepted only after exact trial division of both inputs, so unlucky
    primes cannot produce a wrong answer.
    """
    if a.is_zero:
        return b if b.leading() > 0 else -b
    if b.is_zero:
        return a if a.leading() > 0 else -a
    ca, cb = a.content(), b.content()
    c = math.gcd(ca, cb)
    pa = tuple(x // ca for x in a.coeffs)
    pb = tuple(x // cb for x in b.coeffs)
    if len(pa) == 1 or len(pb) == 1:
        return Polynomial((c,))
    if len(pa) < len(pb):
        pa, pb = pb, pa
    lc = math.gcd(pa[-1], pb[-1])
    best = len(pb)  # 1 + max possible gcd degree
    residues = previous = None
    modulus = 1
    for p in _primes():
        if pa[-1] % p == 0 or pb[-1] % p == 0:
            continue
        g = _gcd_mod(pa, pb, p)
        if len(g) == 1:
            return Polynomial((c,))
        if len(g) > best:
            continue  # unlucky prime
        if len(g) < best:
            best = len(g)
            residues, modulus, previous = None, 1, None
        residues, modulus, sym = _crt_lift(residues, modulus, [x * lc % p for x in g], p)
        cand = Polynomial(sym)
        cc = cand.content()
        if cc:
            cand = Polynomial(tuple(x // cc for x in cand.coeffs))
        if cand.leading() < 0:
            cand = -cand
        # try division once the lift stops changing (always on round one);
        # verification makes a wrong candidate impossible, just wasteful
        if previous is None or cand == previous:
            if _exact_div(pa, cand.coeffs) is not None and _exact_div(pb, cand.coeffs) is not None:
                return cand.scale(c)
        previous = cand


class RationalFunction:
    """Quotient of two integer polynomials, always in canonical form.

    Canonical means numerator and denominator are coprime, carry no common
    integer content, and the denominator's lowest-order nonzero coefficient
    is positive.  The zero function is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE_POLY):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO_POLY, ONE_POLY
            return
        g = poly_gcd(num, den)
        if g.coeffs != (1,):
            num = num.exact_div(g)
            den = den.exact_div(g)
        if den.trailing() < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @classmethod
    def _reduced(cls, num, den):
        """Build from an already-coprime pair, normalizing only the sign."""
        self = object.__new__(cls)
        if num.is_zero:
            self.num, self.den = ZERO_POLY, ONE_POLY
            return self
        if den.trailing() < 0:
            num, den = -num, -den
        self.num, self.den = num, den
        return self

    @classmethod
    def from_int(cls, k):
        return cls._reduced(Polynomial((k,)), ONE_POLY)

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def degree(self):
        """Max of numerator and denominator degree; -inf for zero."""
        if self.is_zero:
            return -math.inf
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return format_rational(self)


RF_ZERO = RationalFunction.from_int(0)
RF_ONE = RationalFunction.from_int(1)


def kleene_star(f):
    """Series 1/(1 - f): counts sequences of blocks counted by f.

    Defined whenever the denominator keeps a nonzero constant term, i.e.
    whenever f(0) != 1.
    """
    den = f.den - f.num
    if den.constant_term() == 0:
        raise DivergentStarError("Kleene star of a series with constant term 1 diverges")
    # gcd(den, f.den) = gcd(f.den, f.num) = 1, so the pair is already coprime
    return RationalFunction._reduced(f.den, den)


def format_rational(f):
    """Render as ``N / D`` with ascending powers, e.g. ``(1 - z) / (1 - 2z)``;
    a side of more than one term is parenthesized."""

    def side(p):
        text = format_poly(p)
        return f"({text})" if sum(1 for c in p.coeffs if c) > 1 else text

    return f"{side(f.num)} / {side(f.den)}"
