"""Exact sums of roots of unity with rational coefficients.

Gauss sums and the bruteforced Whittaker values collapse to rational numbers
through cancellations among roots of unity; testing those collapses with
floats would turn exact identities into tolerance checks.

A :class:`Cyc` stores sum_k (c_k / D) zeta_N^k, zeta_N = e^{2 pi i / N}, on
machine integers: a conductor N, a map from exponents k in [0, N) to nonzero
integer numerators c_k, and one common denominator D > 0 that shares no
factor with every c_k.  An operation on values of conductors N1 and N2 works
at lcm(N1, N2), so N grows only when an operand needs it.  ``terms`` is the
same value as a map from angles k/N in [0, 1) to nonzero Fraction
coefficients c_k/D; it is a fresh dict on every access.

The exponent maps keep the insertion order of the angle maps they replaced,
so ``to_complex`` adds the same float terms in the same order.  Values are
never mutated after construction, so results may be shared and cached.

Zero test.  The powers of zeta_N satisfy Phi_N, and with R = rad N the
product of the primes dividing N, Phi_N(x) = Phi_R(x^(N/R)) (Washington,
*Introduction to Cyclotomic Fields*, section 2).  So Q(zeta_N) is the direct
sum of x^r Q(zeta_R) over r < N/R, with x^(N/R) = zeta_R: a value is zero
exactly when, for each residue r mod N/R, the polynomial sum_j c_{r + j N/R}
y^j reduces to zero modulo Phi_R.  These N/R reductions have degree R; the
integer coefficients of the monic Phi_R keep them in integer arithmetic.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

Scalarish = Union[int, Fraction]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    # x^n - 1 = prod_{d | n} Phi_d(x); divide out the proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_monic(poly, cyclotomic_poly(d))
    return tuple(poly)


def _poly_div_monic(num: list, den: tuple) -> list:
    """num / den for a monic integer den that divides num exactly."""
    num = list(num)
    deg = len(den) - 1
    out = [0] * (len(num) - deg)
    for shift in range(len(out) - 1, -1, -1):
        c = out[shift] = num[shift + deg]
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    assert not any(num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def _radical_split(n: int) -> tuple:
    """(R, n/R, deg Phi_R, Phi_R's nonzero coefficients below the top as
    (i, c) pairs) for R = rad n."""
    r, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            r *= d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        r *= m
    phi = cyclotomic_poly(r)
    return r, n // r, len(phi) - 1, tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def _reduce(den: int, nums: dict) -> tuple:
    """(den, nums) with their common factor divided out."""
    g = gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {k: c // g for k, c in nums.items()}
    return den, nums


def _make(n: int, den: int, nums: dict) -> "Cyc":
    """The value sum (nums[k] / den) zeta_n^k, for nonzero nums."""
    return _wrap(n, *_reduce(den, nums))


def _wrap(n: int, den: int, nums: dict) -> "Cyc":
    """Wrap fields that are already in normal form, without a copy."""
    out = object.__new__(Cyc)
    out.n, out.den, out.nums = n, den, nums
    return out


def _at(x: "Cyc", n: int):
    """x's (exponent, numerator) pairs at conductor n, a multiple of x.n."""
    s = n // x.n
    return x.nums.items() if s == 1 else [(k * s, c) for k, c in x.nums.items()]


class Cyc:
    """An element of the group algebra Q[roots of unity], reduced lazily."""

    __slots__ = ("n", "den", "nums")

    def __init__(self, terms: dict | None = None):
        pairs = []
        for ang, c in (terms or {}).items():
            if c:
                pairs.append((Fraction(ang) % 1, Fraction(c)))
        n = lcm(*(a.denominator for a, _ in pairs))
        den = lcm(*(c.denominator for _, c in pairs))
        nums: dict[int, int] = {}
        for a, c in pairs:
            k = a.numerator * (n // a.denominator)
            nums[k] = nums.get(k, 0) + c.numerator * (den // c.denominator)
        self.n = n
        self.den, self.nums = _reduce(den, {k: c for k, c in nums.items() if c})

    @property
    def terms(self) -> dict:
        """The value as {angle in [0, 1): nonzero Fraction coefficient}."""
        n, den = self.n, self.den
        return {Fraction(k, n): Fraction(c, den) for k, c in self.nums.items()}

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "Cyc":
        return _wrap(1, 1, {})

    @staticmethod
    def rational(c: Scalarish) -> "Cyc":
        c = Fraction(c)
        return _wrap(1, c.denominator, {0: c.numerator} if c else {})

    @staticmethod
    def root(theta: Fraction, coeff: Scalarish = 1) -> "Cyc":
        """coeff * e^{2 pi i theta}."""
        if not coeff:
            return Cyc.zero()
        theta, coeff = Fraction(theta) % 1, Fraction(coeff)
        return _wrap(theta.denominator, coeff.denominator, {theta.numerator: coeff.numerator})

    @staticmethod
    def sum(values) -> "Cyc":
        """The sum of an iterable of Cyc values, accumulated in one dict."""
        values = list(values)
        n = lcm(*(v.n for v in values))
        den = lcm(*(v.den for v in values))
        out: dict[int, int] = {}
        for v in values:
            f = den // v.den
            for k, c in _at(v, n):
                s = out.get(k)
                if s is None:
                    out[k] = c * f
                else:
                    s += c * f
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return _make(n, den, out)

    # -- ring operations ------------------------------------------------------
    def __add__(self, other) -> "Cyc":
        if not isinstance(other, Cyc):
            other = Cyc.rational(other)
        return Cyc.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return _wrap(self.n, self.den, {k: -c for k, c in self.nums.items()})

    def __sub__(self, other) -> "Cyc":
        if not isinstance(other, Cyc):
            other = Cyc.rational(other)
        return self + (-other)

    def __rsub__(self, other) -> "Cyc":
        return Cyc.rational(other) + (-self)

    def __mul__(self, other) -> "Cyc":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Cyc.zero()
            other = Fraction(other)
            num = other.numerator
            return _make(self.n, self.den * other.denominator, {k: c * num for k, c in self.nums.items()})
        if len(self.nums) == 1:
            self, other = other, self  # the monomial factor, if any, is ``other``
        den = self.den * other.den
        if len(other.nums) == 1:
            # c0 zeta^k0 only scales and rotates: distinct exponents stay distinct
            ((k0, c0),) = other.nums.items()
            if not k0:
                return _make(self.n, den, {k: c * c0 for k, c in self.nums.items()})
            n = lcm(self.n, other.n)
            k0 *= n // other.n
            out = {}
            for k, c in _at(self, n):
                k += k0
                out[k - n if k >= n else k] = c * c0
            return _make(n, den, out)
        n = lcm(self.n, other.n)
        right = _at(other, n)
        out: dict[int, int] = {}
        for k1, c1 in _at(self, n):
            for k2, c2 in right:
                k = k1 + k2
                if k >= n:
                    k -= n
                out[k] = out.get(k, 0) + c1 * c2
        return _make(n, den, {k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            raise ValueError("negative powers are not defined for Cyc sums")
        out = Cyc.rational(1)
        for _ in range(k):
            out = out * self
        return out

    # -- reduction and comparisons ----------------------------------------------
    def is_zero(self) -> bool:
        if not self.nums:
            return True
        r, m, deg, phi = _radical_split(self.n)
        classes: dict[int, list] = {}
        for k, c in self.nums.items():
            j, i = divmod(k, m)
            vec = classes.get(i)
            if vec is None:
                vec = classes[i] = [0] * r
            vec[j] = c
        for vec in classes.values():
            # y^j for j >= deg is reduced with y^deg = -sum_i phi_i y^i
            for j in range(r - 1, deg - 1, -1):
                c = vec[j]
                if c:
                    base = j - deg
                    for i, pc in phi:
                        vec[base + i] -= c * pc
            if any(vec[:deg]):
                return False
        return True

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Cyc values are unhashable (lazy normal form)")

    def to_complex(self) -> complex:
        # c / den and k / n are the correctly rounded floats of the Fraction
        # coefficient and angle, however those are reduced
        n, den = self.n, self.den
        return sum(
            (c / den * cmath.exp(2j * cmath.pi * (k / n)) for k, c in self.nums.items()),
            0j,
        )

    def __repr__(self):
        if not self.nums:
            return "Cyc(0)"
        bits = [f"{c}*e({a})" for a, c in sorted(self.terms.items())]
        return "Cyc(" + " + ".join(bits) + ")"
