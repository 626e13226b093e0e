"""Exact arithmetic for the ground field Q_p (p odd) and its quadratic extensions.

Elements are exact: every quantity the library ever constructs (shell
representatives, unit residues, traces, norms) lies in Q or in Q(sqrt(d)),
so valuations and residue classes are computed without any rounding.  An
element of E is stored as three Python ints, x = (A + B sqrt(d)) / D with
D > 0 and gcd(A, B, D) = 1 (:class:`EElement`): each operation does integer
products and one gcd, and valuations, residues and traces are read off A, B
and D.  The ``precision`` attribute of a ground field is the cap on residue
moduli that finite sums are allowed to request; exceeding it raises
:class:`PrecisionError` instead of silently truncating.

Both fields share one element API, so code written for a field K never asks
which field it has: ``elem``, ``embed``, ``zero``, ``one``, ``uniformizer``,
``val``, ``unit_part``, ``residue``, ``shell``, ``shell_coords``,
``shell_basis``, ``coords``, ``tr`` (trace down to F), ``ground`` and
``different_exponent``.  Elements of F are plain ``Fraction``s and elements of
E are :class:`EElement`s, whose coordinates ``x.a``, ``x.b`` (and
``K.coords(x)``) are ``Fraction``s; both support the field operations
``+ - * /`` and comparison with 0, and ``embed`` returns an element of the
field unchanged.  Additive characters read their angles off integers as
well: ``K._tr_mul(x, y)`` is tr(x y) as an integer pair, and
``F._frac_num`` its p-adic fractional part k/p^m as the pair (k, p^m).

Shells are enumerated as integer coordinates.  ``K.shell_coords(v, m)`` lists
the pairs (a, b) with x = pi^v (a + b sqrt(d)) running over {ord x = v} modulo
pi^(v+m), b = 0 on F; ``K.shell_basis(v)`` gives e1 = pi^v and e2 =
pi^v sqrt(d) (0 on F), so x = a e1 + b e2, and ``K.shell`` is that map.  The
unit part of such an x is a + b sqrt(d) itself, so its residue key is read off
(a, b) with integer arithmetic; finite character sums use this and build no
field element per term (see :func:`asailocal.characters.shell_cyc`).

The fields and the package's other immutable records derive from
:class:`Value`: slotted classes with a hand-written ``__init__``, where any
constructor check runs, equal when of one class with equal field tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


# sets a slot of a Value, whose own __setattr__ refuses
_set = object.__setattr__


class Value:
    """Immutable record.  ``_fields`` name its fields; ``__init__`` sets each
    field's slot with ``_set``, and ``_key`` to the tuple of the fields, from
    which equality, hash, repr and pickling are read."""

    __slots__ = ("_key",)
    _fields: tuple = ()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        args = ", ".join(f"{name}={v!r}" for name, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key


class PAdicGround(Value):
    """The field F = Q_p with odd residue characteristic.

    ``precision`` bounds the modulus exponent any enumeration may use.
    """

    _fields = ("p", "precision")
    __slots__ = _fields + ("_hash",)

    def __init__(self, p: int, precision: int = DEFAULT_PRECISION):
        if p < 3 or _prime_factors(p) != [p]:
            raise ValueError("p must be an odd prime >= 3")
        if precision < 8:
            raise ValueError("precision must be at least 8")
        _set(self, "p", p)
        _set(self, "precision", precision)
        _set(self, "_key", (p, precision))
        # the field keys most caches: hash once
        _set(self, "_hash", hash(self._key))

    def __hash__(self):
        return self._hash

    @property
    def q(self) -> int:
        return self.p

    @property
    def ground(self) -> "PAdicGround":
        return self

    different_exponent = 0
    e = 1

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
        return self._val(x.numerator, 0, x.denominator)

    def _val(self, A: int, B: int, D: int) -> int:
        """ord of A / D from ints, D > 0 and not necessarily in lowest terms;
        B, the sqrt(d) coordinate of the extensions' ``_val``, is 0 on F."""
        if not A:
            raise ZeroValuationError("valuation of zero")
        return _vp(A, self.p) - _vp(D, self.p)

    def unit_part(self, x: Rational) -> Fraction:
        """x / p^{ord(x)} as an exact rational unit."""
        return _frac(x) / Fraction(self.p) ** self.val(x)

    def residue(self, x: Rational, m: int) -> int:
        """Residue of an integral element x in Z/p^m."""
        x = _frac(x)
        return self._residue(x.numerator, x.denominator, m)

    def _residue(self, num: int, den: int, m: int) -> int:
        """Residue of an integral num/den, den > 0 and not necessarily in
        lowest terms, in Z/p^m."""
        if m > self.precision:
            raise PrecisionError(f"modulus exponent {m} exceeds precision {self.precision}")
        p = self.p
        while not den % p:
            if num % p:
                raise ValueError("residue of a non-integral element")
            num //= p
            den //= p
        mod = p**m
        return num % mod * pow(den, -1, mod) % mod

    def _frac_num(self, num: int, den: int) -> tuple:
        """(k, p^m) for the p-adic fractional part of num/den (den > 0, not
        necessarily in lowest terms): the unique k/p^m in [0, 1), in lowest
        terms, with num/den - k/p^m in Z_p."""
        p = self.p
        m = _vp(den, p) - _vp(num, p) if num else 0
        if m <= 0:
            return 0, 1
        if m > self.precision:
            raise PrecisionError(f"fractional part needs p^{m} > precision window")
        P = p**m
        # num P / den is a p-adic unit, so its residue k is prime to p
        return self._residue(num * P, den, m), P

    def _tr_mul(self, x: Rational, y: Rational) -> tuple:
        """tr(x y) = x y as an integer pair (num, den), den > 0, not reduced."""
        x, y = _frac(x), _frac(y)
        return x.numerator * y.numerator, x.denominator * y.denominator

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
        pv, _ = self.shell_basis(v)
        return [a * pv for a, _ in self.shell_coords(v, m)]

    def to_json(self) -> dict:
        return {"p": self.p, "ext": None, "precision": self.precision}


def _check_shell_modulus(m: int, precision: int) -> None:
    if m < 1:
        raise ValueError("modulus exponent must be >= 1")
    if m > precision:
        raise PrecisionError(f"shell modulus {m} exceeds precision {precision}")


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
    """x = (A + B sqrt(d)) / D, d the extension's class: three ints with
    D > 0 and gcd(A, B, D) = 1, so each element has one representation.

    Every operation works on the integers and normalises once, by one
    ``math.gcd(A, B, D)``; equality and hashing compare the triples, and
    an element of F also equals, and hashes as, the int or Fraction A / D.
    The coordinates a = A/D and b = B/D are read-only ``Fraction`` properties.
    ``EElement(ext, a, b)`` takes ints or Fractions (or anything
    ``Fraction`` accepts).
    """

    __slots__ = ("ext", "A", "B", "D")

    def __init__(self, ext: "QuadExtension", a: Rational, b: Rational = 0):
        if type(a) is not int:
            a = a if type(a) is Fraction else Fraction(a)
        if type(b) is not int:
            b = b if type(b) is Fraction else Fraction(b)
        # a, b in lowest terms over D = lcm of their denominators share no
        # factor with D, so the triple is normal
        da, db = a.denominator, b.denominator
        D = da if da == db else math.lcm(da, db)
        self.ext = ext
        self.A = a.numerator * (D // da)
        self.B = b.numerator * (D // db)
        self.D = D

    # -- basic structure ---------------------------------------------------
    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    def __repr__(self):
        return f"EElement({self.a} + {self.b}*sqrt({self.ext.d}))"

    def __eq__(self, other):
        if isinstance(other, EElement):
            same = (self.A, self.B, self.D) == (other.A, other.B, other.D)
            return same and self.ext.same(other.ext)
        return not self.B and self.A == other * self.D

    def __hash__(self):
        if not self.B:
            # an element of F equals, so hashes as, the number A / D
            return hash(self.A) if self.D == 1 else hash(self.a)
        return hash((self.A, self.B, self.D, self.ext.d))

    def is_zero(self) -> bool:
        return not self.A and not self.B

    def in_F(self) -> bool:
        return not self.B

    def as_F(self) -> Fraction:
        if self.B:
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
        D, oD = self.D, o.D
        if D == oD:
            return _normal(self.ext, self.A + o.A, self.B + o.B, D)
        return _normal(self.ext, self.A * oD + o.A * D, self.B * oD + o.B * D, D * oD)

    __radd__ = __add__

    def __neg__(self):
        return _normal(self.ext, -self.A, -self.B, self.D)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        A, B, oA, oB = self.A, self.B, o.A, o.B
        if oB:
            A, B = A * oA + self.ext.d * B * oB, A * oB + B * oA
        else:  # a factor in F scales both coordinates
            A, B = A * oA, B * oA
        return _normal(self.ext, A, B, self.D * o.D)

    __rmul__ = __mul__

    def inv(self) -> "EElement":
        # 1/x = D (A - B sqrt d) / (A^2 - d B^2)
        A, B, D = self.A, self.B, self.D
        n = A * A - self.ext.d * B * B
        if not n:
            raise ZeroDivisionError("inverse of zero")
        if n < 0:
            D, n = -D, -n
        return _normal(self.ext, D * A, -D * B, n)

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
        return _normal(self.ext, self.A, -self.B, self.D)

    def trace(self) -> Fraction:
        return Fraction(2 * self.A, self.D)

    def norm(self) -> Fraction:
        return Fraction(self.A * self.A - self.ext.d * self.B * self.B, self.D * self.D)


def _normal(ext: "QuadExtension", A: int, B: int, D: int) -> EElement:
    """The element (A + B sqrt(d)) / D, D > 0, with gcd(A, B, D) divided out."""
    x = object.__new__(EElement)
    x.ext = ext
    g = math.gcd(A, B, D)
    if g == 1:
        x.A, x.B, x.D = A, B, D
    else:
        x.A, x.B, x.D = A // g, B // g, D // g
    return x


def _vp(n: int, p: int) -> int:
    """ord_p of a nonzero integer."""
    v = 0
    while not n % p:
        n //= p
        v += 1
    return v


def _prime_factors(n: int) -> list[int]:
    """The primes dividing n >= 1, increasing, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class QuadExtension(Value):
    """E = F(sqrt(d)) for the canonical non-square class of each type.

    d is a unit non-residue (unramified), p (ramified-p), or u*p (ramified-up).
    """

    _fields = ("ground", "ext_type")
    # invariants, set once per instance: element arithmetic reads them on
    # every operation
    __slots__ = _fields + ("p", "d", "e", "f", "q", "_hash")

    def __init__(self, ground: PAdicGround, ext_type: str):
        if ext_type not in EXTENSION_TYPES:
            raise ValueError(f"unknown extension type {ext_type!r}")
        p = ground.p
        u = smallest_nonresidue(p)
        d = {UNRAMIFIED: u, RAMIFIED_P: p, RAMIFIED_UP: u * p}[ext_type]
        e = 1 if ext_type == UNRAMIFIED else 2
        for name, value in (
            ("ground", ground), ("ext_type", ext_type), ("_key", (ground, ext_type)),
            ("p", p), ("d", d), ("e", e), ("f", 3 - e), ("q", p ** (3 - e)),
        ):
            _set(self, name, value)
        _set(self, "_hash", hash(self._key))

    def __hash__(self):
        return self._hash

    @property
    def different_exponent(self) -> int:
        # tame quadratic extensions only (p odd): e - 1
        return self.e - 1

    def same(self, other: "QuadExtension") -> bool:
        return self is other or (self.p == other.p and self.ext_type == other.ext_type)

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

    # -- valuations ------------------------------------------------------------
    def val(self, x) -> int:
        """ord_E normalized so ord_E(uniformizer) = 1; x is an element of E
        or of F."""
        if not isinstance(x, EElement):
            return self.ground.val(x) * self.e
        return self._val(x.A, x.B, x.D)

    def _val(self, A: int, B: int, D: int) -> int:
        """ord_E of (A + B sqrt(d)) / D from ints, D > 0 and not necessarily
        in lowest terms: a common factor changes no difference of p-orders."""
        e = self.e
        if not B:  # in F
            if not A:
                raise ZeroValuationError("valuation of zero")
            return (_vp(A, self.p) - _vp(D, self.p)) * e
        # sqrt(d) is a unit on unramified E and a uniformizer on ramified E
        vd = _vp(D, self.p)
        vb = (_vp(B, self.p) - vd) * e + e - 1
        return min((_vp(A, self.p) - vd) * e, vb) if A else vb

    def unit_part(self, x: EElement) -> EElement:
        """x / pi^{ord x}, by rescaling the coordinates: by p^{-v} on
        unramified E; on ramified E by d^{-floor(v/2)}, and for odd v one
        division by sqrt(d), which swaps the coordinates."""
        v = self.val(x)
        A, B, D = x.A, x.B, x.D
        k, odd = (v, 0) if self.ext_type == UNRAMIFIED else divmod(v, 2)
        s = (self.p if self.ext_type == UNRAMIFIED else self.d) ** abs(k)
        if k > 0:
            D *= s
        else:
            A, B = A * s, B * s
        if odd:
            # (A + B sqrt d) / sqrt d = (d B + A sqrt d) / d
            A, B, D = self.d * B, A, self.d * D
        return _normal(self, A, B, D)

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
            F._residue(x.A, x.D, ma) if ma else 0,
            F._residue(x.B, x.D, mb) if mb else 0,
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
        """Representatives of {x : ord_E(x)=v} modulo pi_E^{v+m}, m >= 1,
        written from their coordinates: x = a e1 + b e2 over the common
        denominator of the basis e1 = pi^v, e2 = pi^v sqrt(d)."""
        e1, e2 = self.shell_basis(v)
        D = math.lcm(e1.D, e2.D)
        (A1, B1), (A2, B2) = ((e.A * (D // e.D), e.B * (D // e.D)) for e in (e1, e2))
        return [
            _normal(self, a * A1 + b * A2, a * B1 + b * B2, D)
            for a, b in self.shell_coords(v, m)
        ]

    def embed(self, x) -> EElement:
        """x as an element of E; an element of E is returned unchanged."""
        return x if isinstance(x, EElement) else EElement(self, x)

    def tr(self, x: EElement) -> Fraction:
        """Trace down to F."""
        return x.trace()

    def _tr_mul(self, x: EElement, y) -> tuple:
        """tr(x y) = 2 (A A' + d B B') / (D D') as an integer pair (num,
        den), den > 0, not reduced; y may lie in F."""
        y = self.embed(y)
        return 2 * (x.A * y.A + self.d * x.B * y.B), x.D * y.D

    def coords(self, x: EElement) -> tuple:
        """Coordinates (a, b) of x = a + b sqrt(d)."""
        return x.a, x.b

    def to_json(self) -> dict:
        return {"p": self.p, "ext": self.ext_type, "precision": self.ground.precision}


Field = Union[PAdicGround, QuadExtension]


def field_from_json(obj: dict) -> Field:
    if "p" not in obj:
        raise ValueError("needs a 'p' entry")
    p, precision = obj["p"], obj.get("precision", DEFAULT_PRECISION)
    for name, v in (("p", p), ("precision", precision)):
        if type(v) is not int:  # a bool is an int too
            raise ValueError(f"{name} must be a JSON integer, not {v!r}")
    ground = PAdicGround(p, precision)
    ext = obj.get("ext")
    if ext in (None, "F"):
        return ground
    return QuadExtension(ground, ext)


def is_extension(K: Field) -> bool:
    return isinstance(K, QuadExtension)
