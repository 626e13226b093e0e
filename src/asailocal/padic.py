"""Exact arithmetic for the ground field Q_p (p odd) and its quadratic extensions.

Elements are stored as exact rationals: every quantity the library ever
constructs (shell representatives, unit residues, traces, norms) lies in Q or
in Q(sqrt(d)), so valuations and residue classes are computed without any
rounding.  The ``precision`` attribute of a ground field is the cap on residue
moduli that finite sums are allowed to request; exceeding it raises
:class:`PrecisionError` instead of silently truncating.

Both fields share one element API, so code written for a field K never asks
which field it has: ``elem``, ``embed``, ``zero``, ``one``, ``uniformizer``,
``val``, ``unit_part``, ``residue``, ``shell``, ``shell_coords``,
``shell_basis``, ``coords``, ``tr`` (trace down to F), ``ground`` and
``different_exponent``.  Elements of F are plain ``Fraction``s and elements of
E are :class:`EElement`s; both support the field operations ``+ - * /`` and
comparison with 0, and ``embed`` returns an element of the field unchanged.

Shells are enumerated as integer coordinates.  ``K.shell_coords(v, m)`` lists
the pairs (a, b) with x = pi^v (a + b sqrt(d)) running over {ord x = v} modulo
pi^(v+m), b = 0 on F; ``K.shell_basis(v)`` gives e1 = pi^v and e2 =
pi^v sqrt(d) (0 on F), so x = a e1 + b e2, and ``K.shell`` is that map.  The
unit part of such an x is a + b sqrt(d) itself, so its residue key is read off
(a, b) with integer arithmetic; finite character sums use this and build no
field element per term (see :func:`asailocal.characters.shell_angles`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

DEFAULT_PRECISION = 12

UNRAMIFIED = "unramified"
RAMIFIED_P = "ramified-p"
RAMIFIED_UP = "ramified-up"
EXTENSION_TYPES = (UNRAMIFIED, RAMIFIED_P, RAMIFIED_UP)


class PrecisionError(Exception):
    """A finite sum asked for more residue digits than the field carries."""


class ZeroValuationError(ZeroDivisionError):
    """Valuation of the zero element was requested."""


Rational = Union[int, Fraction]


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@lru_cache(maxsize=None)
def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue unit mod p."""
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise ValueError(f"no quadratic non-residue mod {p}")


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@dataclass(frozen=True)
class PAdicGround:
    """The field F = Q_p with odd residue characteristic.

    ``precision`` bounds the modulus exponent any enumeration may use.
    """

    p: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        p = self.p
        if p < 3 or p % 2 == 0 or any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
            raise ValueError("p must be an odd prime >= 3")
        if self.precision < 8:
            raise ValueError("precision must be at least 8")

    @property
    def q(self) -> int:
        return self.p

    @property
    def ground(self) -> "PAdicGround":
        return self

    different_exponent = 0

    # -- element constructors --------------------------------------------------
    def elem(self, a: Rational) -> Fraction:
        return _frac(a)

    embed = elem

    def one(self) -> Fraction:
        return Fraction(1)

    def zero(self) -> Fraction:
        return Fraction(0)

    def uniformizer(self) -> Fraction:
        return Fraction(self.p)

    def tr(self, x: Fraction) -> Fraction:
        """Trace down to F: the identity."""
        return x

    def coords(self, x: Fraction) -> tuple:
        """Coordinates (a, b) of x = a + b sqrt(d); b = 0 on F."""
        return x, Fraction(0)

    # -- valuations ------------------------------------------------------------
    def val(self, x: Rational) -> int:
        """ord_F(x), normalized so ord_F(p) = 1."""
        x = _frac(x)
        if x == 0:
            raise ZeroValuationError("valuation of zero")
        v = 0
        num, den = x.numerator, x.denominator
        while num % self.p == 0:
            num //= self.p
            v += 1
        while den % self.p == 0:
            den //= self.p
            v -= 1
        return v

    def unit_part(self, x: Rational) -> Fraction:
        """x / p^{ord(x)} as an exact rational unit."""
        return _frac(x) / Fraction(self.p) ** self.val(x)

    def unit_residue(self, x: Rational, m: int) -> int:
        """Residue of the unit part of x in (Z/p^m)^x."""
        if m > self.precision:
            raise PrecisionError(f"modulus exponent {m} exceeds precision {self.precision}")
        u = self.unit_part(x)
        mod = self.p**m
        return u.numerator % mod * pow(u.denominator, -1, mod) % mod

    def residue(self, x: Rational, m: int) -> int:
        """Residue of an integral element x in Z/p^m."""
        if m > self.precision:
            raise PrecisionError(f"modulus exponent {m} exceeds precision {self.precision}")
        x = _frac(x)
        mod = self.p**m
        if x.denominator % self.p == 0:
            raise ValueError("residue of a non-integral element")
        return x.numerator % mod * pow(x.denominator, -1, mod) % mod

    def frac_part(self, x: Rational) -> Fraction:
        """p-adic fractional part: the unique k/p^m in [0,1) with x - k/p^m in Z_p."""
        x = _frac(x)
        v = 0 if x == 0 else self.val(x)
        if x == 0 or v >= 0:
            return Fraction(0)
        m = -v
        if m > self.precision:
            raise PrecisionError(f"fractional part needs p^{m} > precision window")
        y = x * Fraction(self.p) ** m  # now a p-adic unit
        k = self.residue(y, m)
        return Fraction(k, self.p**m)

    def shell_coords(self, v: int, m: int) -> tuple:
        """Coordinates (a, 0) of the representatives p^v a of {x : ord(x)=v}
        modulo p^{v+m}, m >= 1: the units a mod p^m in increasing order."""
        _check_shell_modulus(m, self.precision)
        return _shell_coords(self.p, m, 0, True)

    def shell_basis(self, v: int) -> tuple:
        """(p^v, 0): the shell element of coordinates (a, b) is a p^v."""
        return Fraction(self.p) ** v, Fraction(0)

    def shell(self, v: int, m: int) -> list[Fraction]:
        """Representatives of {x : ord(x)=v} modulo p^{v+m}, m >= 1."""
        e1, e2 = self.shell_basis(v)
        return [a * e1 + b * e2 for a, b in self.shell_coords(v, m)]

    def to_json(self) -> dict:
        return {"p": self.p, "ext": None, "precision": self.precision}


def _check_shell_modulus(m: int, precision: int) -> None:
    if m < 1:
        raise ValueError("modulus exponent must be >= 1")
    if m > precision:
        raise PrecisionError(f"shell modulus {m} exceeds precision {precision}")


@lru_cache(maxsize=None)
def _shell_coords(p: int, ma: int, mb: int, a_unit: bool) -> tuple:
    """Pairs (a, b), a < p^ma and b < p^mb (mb = 0 gives b = 0), a-major,
    with a a unit, or with a or b a unit when ``a_unit`` is false."""
    return tuple(
        (a, b)
        for a in range(p**ma)
        for b in range(p**mb)
        if a % p or (not a_unit and b % p)
    )


class EElement:
    """a + b*sqrt(d) with exact rational coordinates, d the extension's class."""

    __slots__ = ("ext", "a", "b")

    def __init__(self, ext: "QuadExtension", a: Rational, b: Rational = 0):
        self.ext = ext
        self.a = _frac(a)
        self.b = _frac(b)

    # -- basic structure ---------------------------------------------------
    def __repr__(self):
        return f"EElement({self.a} + {self.b}*sqrt({self.ext.d}))"

    def __eq__(self, other):
        if isinstance(other, EElement):
            return self.ext.same(other.ext) and self.a == other.a and self.b == other.b
        return self.b == 0 and self.a == _frac(other)

    def __hash__(self):
        return hash((self.a, self.b, self.ext.d))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def in_F(self) -> bool:
        return self.b == 0

    def as_F(self) -> Fraction:
        if self.b != 0:
            raise ValueError("element does not lie in the ground field")
        return self.a

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other) -> "EElement":
        if isinstance(other, EElement):
            if not self.ext.same(other.ext):
                raise ValueError("elements of different extensions")
            return other
        return EElement(self.ext, other)

    def __add__(self, other):
        o = self._coerce(other)
        return EElement(self.ext, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return EElement(self.ext, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if not self.b and not o.b:  # both in F: one Fraction product, b stays 0
            return EElement(self.ext, self.a * o.a, self.b)
        d = self.ext.d
        return EElement(
            self.ext,
            self.a * o.a + d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inv(self) -> "EElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return EElement(self.ext, self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = EElement(self.ext, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- Galois structure ----------------------------------------------------
    def conj(self) -> "EElement":
        return EElement(self.ext, self.a, -self.b)

    def trace(self) -> Fraction:
        return 2 * self.a

    def norm(self) -> Fraction:
        return self.a * self.a - self.ext.d * self.b * self.b

    def val(self) -> int:
        return self.ext.val(self)


@dataclass(frozen=True)
class QuadExtension:
    """E = F(sqrt(d)) for the canonical non-square class of each type.

    d is a unit non-residue (unramified), p (ramified-p), or u*p (ramified-up).
    """

    ground: PAdicGround
    ext_type: str

    def __post_init__(self):
        if self.ext_type not in EXTENSION_TYPES:
            raise ValueError(f"unknown extension type {self.ext_type!r}")

    # -- invariants ----------------------------------------------------------
    @property
    def p(self) -> int:
        return self.ground.p

    @property
    def d(self) -> int:
        p = self.ground.p
        u = smallest_nonresidue(p)
        if self.ext_type == UNRAMIFIED:
            return u
        if self.ext_type == RAMIFIED_P:
            return p
        return u * p

    @property
    def e(self) -> int:
        return 1 if self.ext_type == UNRAMIFIED else 2

    @property
    def f(self) -> int:
        return 2 if self.ext_type == UNRAMIFIED else 1

    @property
    def q(self) -> int:
        return self.ground.p**self.f

    @property
    def different_exponent(self) -> int:
        # tame quadratic extensions only (p odd): e - 1
        return self.e - 1

    def same(self, other: "QuadExtension") -> bool:
        return self.p == other.p and self.ext_type == other.ext_type

    # -- element constructors --------------------------------------------------
    def elem(self, a: Rational, b: Rational = 0) -> EElement:
        return EElement(self, a, b)

    def one(self) -> EElement:
        return self.elem(1)

    def zero(self) -> EElement:
        return self.elem(0)

    def sqrt_d(self) -> EElement:
        return self.elem(0, 1)

    def uniformizer(self) -> EElement:
        if self.ext_type == UNRAMIFIED:
            return self.elem(self.p)
        return self.sqrt_d()

    def xi(self) -> EElement:
        """Canonical trace-zero element, scaled so c(psi0_xi) = 0."""
        if self.ext_type == UNRAMIFIED:
            return self.sqrt_d()
        return self.elem(0, Fraction(1, self.p))

    @property
    def theta(self) -> EElement:
        """Ring generator theta with O_E = O_F[theta] and psi_xi(a + b*theta) = psi(b).

        theta = xi^{-1} up to an integral shift: tr(xi * theta) = 1 and
        tr(xi * 1) = 0, which is what the normalization requires.
        """
        # xi = c*sqrt(d); tr(xi*(x + y*sqrt(d))) = 2*c*d*y, so theta = sqrt(d)/(2*c*d)
        c = self.xi().b
        return self.elem(0, Fraction(1, 2 * c * self.d))

    # -- valuations ------------------------------------------------------------
    def val(self, x) -> int:
        """ord_E normalized so ord_E(uniformizer) = 1; x is an element of E
        or of F."""
        x = self.embed(x)
        if x.is_zero():
            raise ZeroValuationError("valuation of zero")
        F = self.ground
        if self.ext_type == UNRAMIFIED:
            vals = []
            if x.a != 0:
                vals.append(F.val(x.a))
            if x.b != 0:
                vals.append(F.val(x.b))
            return min(vals)
        vals = []
        if x.a != 0:
            vals.append(2 * F.val(x.a))
        if x.b != 0:
            vals.append(2 * F.val(x.b) + 1)
        return min(vals)

    def unit_part(self, x: EElement) -> EElement:
        """x / pi^{ord x}, by rescaling the coordinates: by p^{-v} on
        unramified E; on ramified E by d^{-floor(v/2)}, and for odd v one
        division by sqrt(d), which swaps the coordinates."""
        v = self.val(x)
        if self.ext_type == UNRAMIFIED:
            s = Fraction(self.p) ** -v
            return EElement(self, x.a * s, x.b * s)
        s = Fraction(self.d) ** -(v // 2)
        if v % 2:
            # (a + b sqrt d) / sqrt d = b + (a/d) sqrt d
            return EElement(self, x.b * s, x.a * s / self.d)
        return EElement(self, x.a * s, x.b * s)

    def unit_residue(self, x: EElement, m: int) -> tuple:
        """Canonical residue tuple of the unit part of x in (O_E/pi^m)^x."""
        return self.residue(self.unit_part(x), m)

    def residue_digits(self, m: int) -> tuple:
        """(ma, mb): x = a + b sqrt(d) mod pi^m is (a mod p^ma, b mod p^mb)."""
        if self.ext_type == UNRAMIFIED:
            return m, m
        return (m + 1) // 2, m // 2

    def residue(self, x: EElement, m: int) -> tuple:
        """Canonical residue tuple of an integral x in O_E/pi_E^m."""
        F = self.ground
        ma, mb = self.residue_digits(m)
        return (
            F.residue(x.a, ma) if ma else 0,
            F.residue(x.b, mb) if mb else 0,
        )

    def shell_coords(self, v: int, m: int) -> tuple:
        """Coordinates (a, b) of the representatives pi^v (a + b sqrt(d)) of
        {x : ord_E(x)=v} modulo pi_E^{v+m}, m >= 1, a-major: a, b < p^m with
        one of them a unit (unramified); a < p^ceil(m/2) a unit and
        b < p^floor(m/2) (ramified)."""
        _check_shell_modulus(m, self.ground.precision)
        ma, mb = self.residue_digits(m)
        return _shell_coords(self.p, ma, mb, self.ext_type != UNRAMIFIED)

    def shell_basis(self, v: int) -> tuple:
        """(pi^v, pi^v sqrt(d)): the shell element of coordinates (a, b) is
        a pi^v + b pi^v sqrt(d)."""
        pi_v = self.uniformizer() ** v
        return pi_v, pi_v * self.sqrt_d()

    def shell(self, v: int, m: int) -> list[EElement]:
        """Representatives of {x : ord_E(x)=v} modulo pi_E^{v+m}, m >= 1."""
        e1, e2 = self.shell_basis(v)
        return [a * e1 + b * e2 for a, b in self.shell_coords(v, m)]

    def embed(self, x) -> EElement:
        """x as an element of E; an element of E is returned unchanged."""
        return x if isinstance(x, EElement) else EElement(self, x)

    def tr(self, x: EElement) -> Fraction:
        """Trace down to F."""
        return x.trace()

    def coords(self, x: EElement) -> tuple:
        """Coordinates (a, b) of x = a + b sqrt(d)."""
        return x.a, x.b

    def to_json(self) -> dict:
        return {"p": self.p, "ext": self.ext_type, "precision": self.ground.precision}


Field = Union[PAdicGround, QuadExtension]


def field_from_json(obj: dict) -> Field:
    p = int(obj["p"])
    precision = int(obj.get("precision", DEFAULT_PRECISION))
    if p != obj["p"] or precision != obj.get("precision", precision):
        raise ValueError("p and precision must be integers")
    ground = PAdicGround(p, precision)
    ext = obj.get("ext")
    if ext in (None, "F"):
        return ground
    return QuadExtension(ground, ext)


def is_extension(K: Field) -> bool:
    return isinstance(K, QuadExtension)
