"""Exact sums of roots of unity with rational coefficients.

Gauss sums and the bruteforced Whittaker values collapse to rational numbers
through cancellations among roots of unity; testing those collapses with
floats would turn exact identities into tolerance checks.  A :class:`Cyc`
stores sum(c_theta * e^{2 pi i theta}) as a map angle -> coefficient with
Fraction entries, and decides equality by reduction modulo the cyclotomic
polynomial of the common angle denominator.

Every ``Cyc`` is in normal form: each angle key is a Fraction in [0, 1) and
each coefficient a nonzero Fraction.  The public constructor ``Cyc(dict)``
brings any input to that form; the ring operations, whose operands are
already normal, build their results in normal form directly (a sum of two
angles in [0, 1) only needs -1 when it reaches 1) and wrap them without a
second pass.  Values are never mutated after construction, so results may be
shared and cached.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

Scalarish = Union[int, Fraction]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    # x^n - 1 = prod_{d | n} Phi_d(x); divide out the proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _poly_div_exact(num: list, den: list) -> list:
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        coef = num[-1] / den[-1]
        out[shift] = coef
        for i, c in enumerate(den):
            num[shift + i] -= coef * c
        while num and num[-1] == 0:
            num.pop()
    assert all(c == 0 for c in num), "non-exact polynomial division"
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out]


def _accumulate(out: dict, terms: dict) -> None:
    """out += terms in place, for normal ``terms``; keeps ``out`` normal."""
    for a, c in terms.items():
        s = out.get(a)
        if s is None:
            out[a] = c
        else:
            s += c
            if s:
                out[a] = s
            else:
                del out[a]


class Cyc:
    """An element of the group algebra Q[roots of unity], reduced lazily."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        normal: dict[Fraction, Fraction] = {}
        if terms:
            for ang, c in terms.items():
                if c:
                    a = Fraction(ang) % 1
                    normal[a] = normal.get(a, Fraction(0)) + Fraction(c)
        self.terms = {a: c for a, c in normal.items() if c}

    @staticmethod
    def _normal(terms: dict) -> "Cyc":
        """Wrap a dict that is already in normal form, without a copy."""
        out = object.__new__(Cyc)
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "Cyc":
        return Cyc._normal({})

    @staticmethod
    def rational(c: Scalarish) -> "Cyc":
        return Cyc._normal({Fraction(0): Fraction(c)} if c else {})

    @staticmethod
    def root(theta: Fraction, coeff: Scalarish = 1) -> "Cyc":
        """coeff * e^{2 pi i theta}."""
        return Cyc._normal({Fraction(theta) % 1: Fraction(coeff)} if coeff else {})

    one = staticmethod(lambda: Cyc.rational(1))

    @staticmethod
    def sum(values) -> "Cyc":
        """The sum of an iterable of Cyc values, accumulated in one dict."""
        out: dict[Fraction, Fraction] = {}
        for v in values:
            _accumulate(out, v.terms)
        return Cyc._normal(out)

    # -- ring operations ------------------------------------------------------
    def __add__(self, other: "Cyc") -> "Cyc":
        if not isinstance(other, Cyc):
            other = Cyc.rational(other)
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return Cyc._normal(out)

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc._normal({a: -c for a, c in self.terms.items()})

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
            return Cyc._normal({a: c * other for a, c in self.terms.items()})
        if len(self.terms) == 1:
            self, other = other, self  # the monomial factor, if any, is ``other``
        if len(other.terms) == 1:
            # c0 e(a0) only scales and rotates: distinct angles stay distinct
            ((a0, c0),) = other.terms.items()
            if not a0:
                return self * c0
            out = {}
            for a, c in self.terms.items():
                a += a0
                out[a - 1 if a >= 1 else a] = c * c0
            return Cyc._normal(out)
        out: dict[Fraction, Fraction] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                a = a1 + a2
                if a >= 1:
                    a -= 1
                out[a] = out.get(a, 0) + c1 * c2
        return Cyc._normal({a: c for a, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            raise ValueError("negative powers are not defined for Cyc sums")
        out = Cyc.rational(1)
        for _ in range(k):
            out = out * self
        return out

    # -- reduction and comparisons ----------------------------------------------
    def _denominator(self) -> int:
        n = 1
        for a in self.terms:
            n = n * a.denominator // gcd(n, a.denominator)
        return n

    def is_zero(self) -> bool:
        if not self.terms:
            return True
        n = self._denominator()
        # residue vector of the polynomial sum c_k x^k (x = zeta_n) mod Phi_n
        coeffs = [Fraction(0)] * n
        for a, c in self.terms.items():
            coeffs[int(a * n) % n] += c
        phi = cyclotomic_poly(n)
        deg = len(phi) - 1
        # reduce monomials x^k (k >= deg) using x^deg = -phi[:deg]
        for k in range(n - 1, deg - 1, -1):
            c = coeffs[k]
            if c:
                coeffs[k] = Fraction(0)
                for i in range(deg):
                    coeffs[k - deg + i] -= c * phi[i]
        return all(c == 0 for c in coeffs[:deg])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Cyc values are unhashable (lazy normal form)")

    def to_complex(self) -> complex:
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * float(a)) for a, c in self.terms.items()),
            0j,
        )

    def __repr__(self):
        if not self.terms:
            return "Cyc(0)"
        bits = [f"{c}*e({a})" for a, c in sorted(self.terms.items())]
        return "Cyc(" + " + ".join(bits) + ")"
