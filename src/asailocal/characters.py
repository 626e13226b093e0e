"""Additive and multiplicative characters of F^x and E^x.

Unit-part data is exact and integer: a multiplicative character of level n
holds one denominator ``unit_den`` and one weight w_j per generator g_j of
(O_K/pi^n)^x, chi(g_j) = e(w_j / unit_den), with 0 <= w_j < unit_den and
gcd(unit_den, *w) = 1; ``angles`` reads them as Fractions.  Additive
characters evaluate through the p-adic fractional part, so Gauss-sum
identities fail only through genuine bugs, never rounding.  Conductors are
always recomputed by brute force rather than trusted from constructors.

Every character op works on the weights mod unit_den.  Restriction to F^x,
sigma-conjugation and composition with the norm are the one pullback
x -> chi(f(x)) |x|^lam of :func:`_pullback`.  It, ``mul`` and ``reduced``
change level through two cached integer tables of generator dlogs, each
computed once per pair of groups and map:

* the pullback table (:func:`_pullback_table`): the dlogs in chi's group of
  f(g) for the generators g of the group pulled back to, so chi o f has the
  weights sum_j row_j w_j;
* the reduction table (:func:`_reduction_table`): the dlogs in a group of
  its one-unit generators at level m, on which chi is trivial iff every
  row sums to 0 mod unit_den.

The pullback's value at pi_K reads one more cached row, the dlog of the
unit part of f(pi_K) (:func:`_uniformizer_row`).

Exact data is integer all the way through: a :class:`Phase` holds its
angle as a reduced pair num / den, so products, powers and values of
phases build no Fraction.  Evaluation is integer too: ``value``, ``cyc``
and ``angle_at`` read one core, the pair (v, k) with chi(x) = t^v
e(k / unit_den) q^(-lam v), and finish in Phase arithmetic.  With exact t
and lam = 0, the only Fraction they build beyond the field's own (an
element of F is one) is the angle ``angle_at`` returns; ``extend_from_F``
and ``omega_quadratic`` find their t in Phase arithmetic as well.

A ``MultChar`` compares and hashes by value (field, level, unit data, t,
lam), so characters reached along different routes, restriction of a
product against the product of restrictions say, are equal and share every
cache keyed on characters.  Two bounded caches are keyed that way: the
pullback itself (:func:`_pullback`) and ``tate.gauss_sum``.  Cached
characters are shared, so no caller may change one.

Finite character sums over a shell {ord x = v} mod pi^(v+m) go through one
kernel, :func:`shell_angles`, which works on the integer coordinates of
``K.shell_coords(v, m)`` and builds no field element per term.  For the i-th
x = pi^v (a + b sqrt(d)) it gives two integer angle numerators:

* chi's unit part, e(units[i] / unit_den): the sum of e_j w_j over the dlog
  exponents e_j of the residue key of a + b sqrt(d) (of 1 + x with
  ``shift``), with chi's weights w_j;
* psi(c x), e(psis[i] / psi_den): (alpha a + beta b) mod p^k, with alpha and
  beta the residues of p^k tr(c psi_mult pi^v) and p^k tr(c psi_mult pi^v
  sqrt(d)), psi_den = p^k.

Everything but the weights depends on the shell alone, and every character
of one unit group shares it, so it is computed once per shell and kept in
bounded caches: the psi numerators per (psi, v, m, c) (:func:`_psi_frame`),
and the dlog exponents of every element's key, one column per generator,
per (unit group, m, v of the shift) (:func:`_dlog_frame`).  A character then
costs one integer pass over the columns, e_0 w_0 mod unit_den on F and the
weighted sum of the columns on E.  A frame whose build raises is not
cached, so the kernel raises :class:`PrecisionError` on every call where
``shell`` or ``AddChar.angle`` would.

:func:`shell_cyc` counts the numerators into one exact ``Cyc`` on integer
exponents; every local integral of the two oracles is built from it
(:mod:`asailocal.tate`).  :func:`shell_sum`, the float Gauss sum of the
closed form, takes the roots e(k/den) from cached tables, and t^v and
q^(-lam v) once per call; each term is still (t^v e(u/den)) [q^(-lam v)]
e(s/psi_den), multiplied in that order and summed in shell order, so each
float term, and the order of the sum, is the one an element-by-element loop
of ``chi.value(x) * psi.value(x)`` gives, bit for bit.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from operator import mul
from typing import NamedTuple, Optional, Union

from .cyclotomic import Cyc, _make, _wrap
from .padic import (
    EElement,
    Field,
    PAdicGround,
    PrecisionError,
    QuadExtension,
    Value,
    _set,
    is_extension,
)
from .unitgroups import unit_group


def _num_exp(num: int, den: int) -> complex:
    """e(num/den).  num % den / den is the correctly rounded float of the
    rational angle mod 1, so the value does not depend on how num/den is
    reduced."""
    return cmath.exp(2j * cmath.pi * (num % den / den))


class Phase:
    """A complex scalar that remembers an exact root-of-unity angle when it has one.

    The exact angle is held as integers num / den, 0 <= num < den and
    gcd(num, den) = 1 (``den`` is None for an approximate phase), so ``*``,
    ``**``, ``inv`` and ``value`` build no Fraction; ``angle`` reads it as one.
    Two builders make every phase: :meth:`_exact` from integers (``exact``
    reads a Fraction into it) and :meth:`approx` from a float."""

    __slots__ = ("num", "den", "_z")

    @staticmethod
    def exact(angle) -> "Phase":
        return Phase._exact(*Fraction(angle).as_integer_ratio())

    @staticmethod
    def _exact(num: int, den: int) -> "Phase":
        """The exact phase e(num/den), reduced; den >= 1."""
        g = math.gcd(num, den)
        out = Phase.__new__(Phase)
        out.num, out.den, out._z = num // g % (den // g), den // g, None
        return out

    @staticmethod
    def approx(z: complex) -> "Phase":
        out = Phase.__new__(Phase)
        out.num, out.den, out._z = None, None, complex(z)
        return out

    @staticmethod
    def one() -> "Phase":
        return Phase._exact(0, 1)

    @property
    def is_exact(self) -> bool:
        return self.den is not None

    @property
    def angle(self) -> Optional[Fraction]:
        """The exact angle in [0, 1) as a Fraction, None when approximate."""
        return None if self.den is None else Fraction(self.num, self.den)

    def value(self) -> complex:
        if self.den is not None:
            return _num_exp(self.num, self.den)
        return self._z

    def __mul__(self, other: "Phase") -> "Phase":
        if self.den is not None and other.den is not None:
            return Phase._exact(self.num * other.den + other.num * self.den, self.den * other.den)
        return Phase.approx(self.value() * other.value())

    def __pow__(self, k: int) -> "Phase":
        if self.den is not None:
            return Phase._exact(self.num * k, self.den)
        return Phase.approx(self.value() ** k)

    def inv(self) -> "Phase":
        return self ** (-1)

    def __repr__(self):
        if self.den is not None:
            return f"Phase(angle={self.angle})"
        return f"Phase(z={self._z})"


# ---------------------------------------------------------------------------
# additive characters
# ---------------------------------------------------------------------------


class AddChar(Value):
    """psi(x) = e(frac_p(b x)) on F, or e(frac_p(tr(b x))) on E.

    The standard character psi0 (b = 1 on F) has conductor 0; every other
    additive character in scope is a multiplicative shift of it.
    """

    _fields = ("field", "mult")
    __slots__ = _fields + ("_hash", "_conductor")

    def __init__(self, field: Field, mult: Union[Fraction, int, EElement] = 1):
        # stored as an element of ``field`` from here on; the hash is taken
        # once, since the caches keyed on psi look it up on every call
        mult = field.embed(mult)
        _set(self, "field", field)
        _set(self, "mult", mult)
        _set(self, "_key", (field, mult))
        _set(self, "_hash", hash(self._key))
        _set(self, "_conductor", None)  # set by conductor_add

    def __hash__(self):
        return self._hash

    def angle(self, x) -> Fraction:
        """Exact angle in [0,1): psi(x) = e^(2 pi i angle), read off the
        integer coordinates of tr(mult x), with no field element built."""
        K = self.field
        return Fraction(*K.ground._frac_num(*K._tr_mul(self.mult, x)))

    def value(self, x) -> complex:
        return _num_exp(*self.angle(x).as_integer_ratio())

    def cyc(self, x) -> Cyc:
        theta = self.angle(x)
        return _make(theta.denominator, 1, {theta.numerator: 1})

    def shifted(self, a) -> "AddChar":
        """psi^a, i.e. x -> psi(a x)."""
        return AddChar(self.field, self.mult * self.field.embed(a))

    def to_json(self) -> dict:
        b = self.mult
        if is_extension(self.field):
            return {"field": "E", "mult": [str(b.a), str(b.b)]}
        return {"field": "F", "mult": str(b)}


def conductor_add(psi: AddChar) -> int:
    """The conductor of psi, found by value once (:func:`_checked_conductor`)
    and then kept on psi: a repeat lookup on the same object compares no fields."""
    if psi._conductor is None:
        _set(psi, "_conductor", _checked_conductor(psi))
    return psi._conductor


@cache
def _checked_conductor(psi: AddChar) -> int:
    """Brute-force conductor of an additive character.

    The formula c = -ord(b) - d(E/F) pins the tail; triviality on the shells
    v = c, c + 1 and non-triviality at v = c-1 are then checked on shell
    representatives.
    """
    K = psi.field
    c = -K.val(psi.mult) - K.different_exponent
    for v in (c, c + 1):
        if any(shell_angles(None, psi, v, 1).psis):
            raise AssertionError("additive conductor formula violated (trivial side)")
    if not any(shell_angles(None, psi, c - 1, 1).psis):
        raise AssertionError("additive conductor formula violated (nontrivial side)")
    return c


def standard_psi(F: PAdicGround) -> AddChar:
    return AddChar(F, 1)


def psi_to_E(psi: AddChar, E: QuadExtension, xi: Optional[EElement] = None) -> AddChar:
    """psi_xi(x) = psi(tr(xi x)); xi = 1 gives psi o tr."""
    mult = E.embed(psi.mult)
    if xi is not None:
        mult = mult * xi
    return AddChar(E, mult)


# ---------------------------------------------------------------------------
# multiplicative characters
# ---------------------------------------------------------------------------


class MultChar:
    """chi(x) = t^{ord x} * unit_part(x) * |x|^lam with exact unit-part data.

    The unit part is held as integers: chi(g_j) = e(unit_weights[j] / unit_den)
    on the generators g_j of ``group``, the unit group (O_K/pi^n)^x, n the
    minimal conductor, with 0 <= w < unit_den and gcd(unit_den, *weights) = 1,
    so unit_den is the lcm of the reduced denominators of the angles.
    ``angles`` gives the same data as Fractions.  ``lam`` is kept separate so
    the unitary data stays exact.

    Characters compare and hash by value (:meth:`_value_key`), so equal
    characters built separately share every cache keyed on them.
    """

    __slots__ = ("field", "n", "group", "t", "lam", "unit_den", "unit_weights", "_vkey", "_hash")

    def __init__(self, field: Field, n: int, angles, t: Phase, lam=0):
        angles = [Fraction(a) for a in angles]
        den = math.lcm(*(a.denominator for a in angles))
        self._init(field, n, den, [a.numerator * (den // a.denominator) for a in angles], t, lam)

    def _init(self, field: Field, n: int, den: int, weights, t: Phase, lam) -> None:
        g = math.gcd(den, *weights)
        self.field = field
        self.n = n
        self.unit_den = den // g
        self.unit_weights = tuple(w // g % self.unit_den for w in weights)
        self.t = t
        self.lam = lam if isinstance(lam, Fraction) else (
            Fraction(lam) if isinstance(lam, int) else complex(lam)
        )
        self.group = unit_group(field, n)
        if len(self.unit_weights) != len(self.group.gens):
            raise ValueError("angle vector does not match unit-group generators")
        self._vkey = None

    def _value_key(self) -> tuple:
        """(field, n, unit_den, unit_weights, t, lam), built on the first
        comparison: t as its (num, den) when exact, and a float t or a complex
        lam by repr, which keeps them apart from exact data (Fraction(0) ==
        0j) and -0.0 apart from 0.0, as ``to_json`` does."""
        if self._vkey is None:
            t, lam = self.t, self.lam
            self._vkey = (
                self.field,
                self.n,
                self.unit_den,
                self.unit_weights,
                (t.num, t.den) if t.den is not None else repr(t._z),
                lam if isinstance(lam, Fraction) else repr(lam),
            )
            self._hash = hash(self._vkey)
        return self._vkey

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not MultChar:
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self):
        if self._vkey is None:
            self._value_key()
        return self._hash

    @property
    def angles(self) -> tuple:
        """The unit angles in [0, 1), Fraction(w, unit_den) per generator."""
        return tuple(Fraction(w, self.unit_den) for w in self.unit_weights)

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def _from_weights(field: Field, n: int, den: int, weights, t: Phase, lam) -> "MultChar":
        """The character with angles w / den on the generators of
        (O_K/pi^n)^x; den and the weights are reduced by their gcd."""
        chi = MultChar.__new__(MultChar)
        chi._init(field, n, den, weights, t, lam)
        return chi

    @staticmethod
    def from_angles(field: Field, level: int, angles, t: Phase, lam=0) -> "MultChar":
        """Build from data at any level; the conductor is minimized by brute force."""
        raw = MultChar(field, level, angles, t, lam)
        return raw.reduced()

    @staticmethod
    def unramified(field: Field, t: Phase, lam=0) -> "MultChar":
        return MultChar(field, 0, (), t, lam)

    @staticmethod
    def trivial(field: Field) -> "MultChar":
        return MultChar(field, 0, (), Phase.one(), 0)

    # -- conductor --------------------------------------------------------------
    def reduced(self) -> "MultChar":
        """Same character presented at its minimal conductor: the level
        drops while chi is trivial on the one-unit generators below it
        (:func:`_reduction_table`)."""
        n = self.n
        while n >= 1 and not any(map(self._unit_num, _reduction_table(self.field, self.n, n - 1))):
            n -= 1
        if n == self.n:
            return self
        weights = self._weights_at(self.field, n, "identity")
        return MultChar._from_weights(self.field, n, self.unit_den, weights, self.t, self.lam)

    @property
    def is_ramified(self) -> bool:
        return self.n >= 1

    def _weights_at(self, K: Field, level: int, fmap: str) -> tuple:
        """Unit weights over ``unit_den`` of x -> chi(f(x)) on the generators
        of (O_K/pi^level)^x, f the map named ``fmap`` (:data:`_MAPS`), read
        off :func:`_pullback_table`; the identity at chi's own level is
        ``unit_weights``."""
        if fmap == "identity" and level == self.n:
            return self.unit_weights
        return tuple(map(self._unit_num, _pullback_table(self.field, self.n, K, level, fmap)))

    # -- evaluation ----------------------------------------------------------------
    def _unit_num(self, exps) -> int:
        return sum(map(mul, exps, self.unit_weights)) % self.unit_den

    def _exponents(self, x) -> tuple:
        """(v, k) with chi(x) = t^v e(k / unit_den) q^(-lam v), v = ord x:
        the one integer core of ``value``, ``cyc`` and ``angle_at``.  A
        level-0 character takes no unit part and no dlog."""
        K = self.field
        x = K.embed(x)
        v = K.val(x)
        return v, (self._unit_num(self.group.dlog(K.unit_part(x))) if self.n else 0)

    def value(self, x) -> complex:
        v, k = self._exponents(x)
        return self._values(v, (_num_exp(k, self.unit_den),))[0]

    def _values(self, v: int, unit_values) -> list:
        """The float value at an element of valuation v whose unit part has
        value z, for each z of ``unit_values``: (t^v z) q^(-lam v),
        multiplied in that order, with t^v and q^(-lam v) computed once."""
        tv = self.t.value() ** v
        out = [tv * z for z in unit_values]
        lam = self.lam
        if lam != 0:
            scale = self.field.q ** complex(-lam * v)
            out = [z * scale for z in out]
        return out

    def angle_at(self, x) -> Fraction:
        """Exact angle, defined when t is exact and lam = 0 (or x is a unit)."""
        v, k = self._exponents(x)
        if not self.t.is_exact:
            raise ValueError("character has no exact t")
        if self.lam != 0 and v != 0:
            raise ValueError("twist exponent breaks exactness")
        return (self.t**v * Phase._exact(k, self.unit_den)).angle

    def cyc(self, x) -> Cyc:
        """Exact value as a cyclotomic number (integer lam only)."""
        v, k = self._exponents(x)
        if not self.t.is_exact:
            raise ValueError("character has no exact t")
        lam, scale = self.lam, 1
        if lam != 0:
            if not isinstance(lam, Fraction) or lam.denominator != 1:
                raise ValueError("twist exponent breaks exactness")
            scale = Fraction(self.field.q) ** (-lam.numerator * v)
        phase = self.t**v * Phase._exact(k, self.unit_den)
        return _wrap(phase.den, scale.denominator, {phase.num: scale.numerator})

    def t_full(self) -> complex:
        """Value at the uniformizer, twist included."""
        return self.t.value() * self.field.q ** complex(-self.lam)

    # -- algebra ----------------------------------------------------------------
    def mul(self, other: "MultChar") -> "MultChar":
        if is_extension(self.field) != is_extension(other.field):
            raise ValueError("characters live on different fields")
        K, n = self.field, max(self.n, other.n)
        den = math.lcm(self.unit_den, other.unit_den)
        a, b = den // self.unit_den, den // other.unit_den
        weights = [
            x * a + y * b
            for x, y in zip(self._weights_at(K, n, "identity"), other._weights_at(K, n, "identity"))
        ]
        lam = _add_lam(self.lam, other.lam)
        return MultChar._from_weights(K, n, den, weights, self.t * other.t, lam).reduced()

    __mul__ = mul

    def inv(self) -> "MultChar":
        weights = [-w for w in self.unit_weights]
        return MultChar._from_weights(
            self.field, self.n, self.unit_den, weights, self.t.inv(), -self.lam
        )

    def twist_by_norm_power(self, w) -> "MultChar":
        """chi * |.|^w."""
        lam = _add_lam(self.lam, w)
        return MultChar._from_weights(self.field, self.n, self.unit_den, self.unit_weights, self.t, lam)

    def is_trivial(self) -> bool:
        """Exact on exact data (Fraction lam, exact t); within 1e-9 on float
        data (complex lam, approximate t), which carries rounding."""
        if self.n != 0:
            return False
        if isinstance(self.lam, Fraction):
            if self.lam != 0:
                return False
        elif abs(self.lam) > 1e-9:
            return False
        if self.t.is_exact:
            return self.t.num == 0
        return abs(self.t.value() - 1) < 1e-9

    def to_json(self) -> dict:
        t = {"angle": str(self.t.angle)} if self.t.is_exact else [
            self.t.value().real,
            self.t.value().imag,
        ]
        lam = (
            str(self.lam)
            if isinstance(self.lam, Fraction)
            else [complex(self.lam).real, complex(self.lam).imag]
        )
        return {
            "field": "E" if is_extension(self.field) else "F",
            "conductor": self.n,
            "unit_part": [str(a) for a in self.angles],
            "t": t,
            "lambda": lam,
        }

    def __repr__(self):
        tag = "E" if is_extension(self.field) else "F"
        return f"MultChar({tag}, n={self.n}, angles={self.angles}, t={self.t}, lam={self.lam})"


def _add_lam(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return complex(a) + complex(b)


def json_complex(value) -> complex:
    """A JSON number, or an [re, im] pair, as a finite complex number; JSON
    true and false are no numbers, alone or in a pair, and neither is a
    string such as "0.5", which complex() would parse."""
    pair = isinstance(value, (list, tuple))
    try:
        if pair and len(value) != 2:
            raise ValueError(f"expected a number or [re, im], got {value!r}")
        parts = value if pair else (value,)
        if any(isinstance(x, (bool, str)) for x in parts):
            raise TypeError("a boolean or a string is not a JSON number")
        z = complex(*parts)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"expected a number or [re, im], got {value!r}") from exc
    if not cmath.isfinite(z):
        raise ValueError(f"not a finite number: {value!r}")
    return z


def as_lam(v):
    """A twist exponent as a Fraction when it is an integer, else as a complex."""
    if isinstance(v, Fraction):
        return v
    z = complex(v)
    if z.imag == 0 and z.real.is_integer():
        return Fraction(int(z.real))
    return z


def mult_char_from_json(obj: dict, field: Field) -> MultChar:
    t = obj.get("t", 1)
    if isinstance(t, dict):
        if "angle" not in t:
            raise ValueError("an exact 't' needs an 'angle' entry")
        if isinstance(t["angle"], bool):
            raise ValueError(f"the 't' angle must be a number or a string, not {t['angle']!r}")
        phase = Phase.exact(Fraction(t["angle"]))
    else:
        z = json_complex(t)
        if z == 0:
            raise ValueError("'t' must be nonzero")
        phase = Phase.approx(z)
    lam = obj.get("lambda", 0)
    if isinstance(lam, str):
        lam = Fraction(lam)
    elif isinstance(lam, (list, tuple)):
        lam = as_lam(json_complex(lam))
    elif type(lam) is not int:  # a bool is an int too
        lam = json_complex(lam)
    n = obj.get("conductor", 0)
    if type(n) is not int:  # a bool is an int too
        raise ValueError(f"conductor must be a JSON integer, not {n!r}")
    if n < 0:
        raise ValueError("conductor must be >= 0")
    unit_part = obj.get("unit_part", [])
    if any(isinstance(a, bool) for a in unit_part):
        raise ValueError(f"unit_part angles must be numbers or strings, not {unit_part!r}")
    angles = [Fraction(a) for a in unit_part]
    for a, d in zip(angles, unit_group(field, n).orders):
        if (a * d).denominator != 1:
            raise ValueError(f"unit_part angle {a} times its generator's order {d} is not an integer")
    chi = MultChar.from_angles(field, n, angles, phase, lam)
    if not normal_at_uniformizer(chi):
        raise ValueError(
            f"'lambda' {obj.get('lambda', 0)!r} with 't' {obj.get('t', 1)!r}: chi(pi) = "
            f"t q^(-lambda) for q = {field.q} is not a normal float"
        )
    return chi


def normal_at_uniformizer(chi: MultChar) -> bool:
    """Whether chi(pi) (``t_full``) is a normal float: it enters chi's
    Euler factor and, inverted, its dual's, so the Tate factors of a
    character outside that range under- or overflow."""
    try:
        r = abs(chi.t_full())
    except OverflowError:
        return False
    return sys.float_info.min <= r <= sys.float_info.max


# ---------------------------------------------------------------------------
# finite shell sums
# ---------------------------------------------------------------------------


class ShellAngles(NamedTuple):
    """Integer angles over the elements of ``K.shell_coords(v, m)``, in order."""

    units: list  # chi's unit part: e(units[i] / unit_den)
    unit_den: int
    psis: tuple  # psi(c x): e(psis[i] / psi_den)
    psi_den: int


@lru_cache(maxsize=256)
def _psi_frame(psi: AddChar, v: int, m: int, c) -> tuple:
    """(psis, psi_den) of :class:`ShellAngles`: psi(c x) over the shell,
    for every character alike.  Bounded, as the Whittaker path varies c."""
    K = psi.field
    F = K.ground
    coords = K.shell_coords(v, m)
    e1, e2 = K.shell_basis(v)
    mult = psi.mult * K.embed(c)
    # psi(c x) = e(frac(a alpha + b beta)); beta is 0 on F, and on ramified
    # m = 1 every b is 0, so beta must not count towards the precision there
    alpha, beta = K.tr(mult * e1), K.tr(mult * e2)
    if beta and not any(b for _, b in coords):
        beta = 0
    k = max([0] + [-F.val(z) for z in (alpha, beta) if z])
    if k > F.precision:
        raise PrecisionError(f"fractional part needs p^{k} > precision window")
    P = F.p**k
    al, be = (F.residue(z * P, k) if z else 0 for z in (alpha, beta))
    return tuple((al * a + be * b) % P for a, b in coords), P


@lru_cache(maxsize=64)
def _dlog_frame(G, m: int, shift_v: Optional[int]) -> tuple:
    """The dlog exponents over G's generators of the residue keys of the
    shell mod pi^(v+m), one column per generator: of a + b sqrt(d), the
    unit part of x, or of 1 + x for ``shift_v`` = v.  Only the shift reads
    v; the keys and dlogs are the same for every character on G."""
    K = G.field
    coords = K.shell_coords(0, m)
    if shift_v is not None:
        # 1 + a e1 + b e2 in coordinates; e1, e2 are integral for v >= 1
        e1, e2 = K.shell_basis(shift_v)
        (r, s), (t, u) = (map(int, K.coords(e)) for e in (e1, e2))
        coords = [(1 + a * r + b * t, a * s + b * u) for a, b in coords]
    logs = G.logs
    return tuple(zip(*(logs[key] for key in G.keys(coords))))


def shell_angles(
    chi: Optional[MultChar], psi: AddChar, v: int, m: int, c=1, shift: bool = False
) -> ShellAngles:
    """The kernel of every finite character sum (see the module docstring).

    x runs over the shell ord x = v mod pi^(v+m) in ``K.shell`` order; chi's
    unit part is taken at x, or at the unit 1 + x with ``shift`` (v >= 1).
    ``chi=None`` gives unit angles 0.
    """
    psis, P = _psi_frame(psi, v, m, c)
    if chi is None or chi.n == 0:
        return ShellAngles([0] * len(psis), 1, psis, P)
    if shift and v < 1:
        raise ValueError("the 1 + x shift needs ord x >= 1")
    cols = _dlog_frame(chi.group, m, v if shift else None)
    den = chi.unit_den
    if len(cols) == 1:
        (w,) = chi.unit_weights
        units = [j * w % den for j in cols[0]]
    else:
        units = list(map(chi._unit_num, zip(*cols)))
    return ShellAngles(units, den, psis, P)


def shell_cyc(
    chi: Optional[MultChar], psi: AddChar, v: int, m: int, c=1, shift: bool = False
) -> Cyc:
    """sum chi(x) psi(c x) over the shell, exactly: chi(1 + x) with
    ``shift``, psi alone for ``chi=None``.  The counts of each integer
    numerator mod D become the coefficients, at the conductor D reduced by
    the gcd of D and the numerators."""
    sa = shell_angles(chi, psi, v, m, c, shift)
    D = math.lcm(sa.unit_den, sa.psi_den)
    fu, fp = D // sa.unit_den, D // sa.psi_den
    counts = Counter((u * fu + s * fp) % D for u, s in zip(sa.units, sa.psis))
    g = math.gcd(D, *counts)
    out = _make(D // g, 1, {num // g: n for num, n in counts.items()})
    if chi is None or shift:
        return out
    return chi.cyc(psi.field.uniformizer() ** v) * out


@lru_cache(maxsize=64)
def _root_table(den: int) -> tuple:
    """e(k/den) for k = 0, ..., den - 1."""
    return tuple(_num_exp(k, den) for k in range(den))


def shell_sum(chi: MultChar, psi: AddChar, v: int, m: int) -> complex:
    """The float ``shell_cyc(chi, psi, v, m)``: each term is
    chi.value(x) * psi.value(x), summed in shell order.  The shell must
    cover chi's level n (m >= n), where chi is defined: then unit_den, which
    divides the exponent of (O/pi^n)^x, is at most the shell's size, and so
    is the root table of chi's values by numerator; psi's values come from
    the root table of psi_den."""
    if m < chi.n:
        raise ValueError(f"a shell mod pi^(v+{m}) does not cover chi's level {chi.n}")
    sa = shell_angles(chi, psi, v, m)
    ce = chi._values(v, _root_table(sa.unit_den))
    pe = _root_table(sa.psi_den)
    out = 0j
    for u, k in zip(sa.units, sa.psis):
        out += ce[u] * pe[k]
    return out


# ---------------------------------------------------------------------------
# restriction / extension / Galois operations
# ---------------------------------------------------------------------------


# The maps of the transports, by name, from K into L, so that the tables
# below are keyed on values: the identity, F -> E, sigma and N_{E/F}.
_MAPS = {
    "identity": lambda L, x: x,
    "embed": lambda L, x: L.embed(x),
    "conj": lambda L, x: x.conj(),
    "norm": lambda L, x: x.norm(),
}


@lru_cache(maxsize=None)
def _pullback_table(L: Field, n: int, K: Field, level: int, fmap: str) -> tuple:
    """The dlogs in ``unit_group(L, n)`` of f(g), f the map named ``fmap``,
    for the generators g of ``unit_group(K, level)``: a character of level
    n on L with weights w pulls back to the weights sum_j row_j w_j."""
    G, gens = unit_group(L, n), unit_group(K, level).gens
    if n == 0:
        return ((),) * len(gens)
    f = _MAPS[fmap]
    return tuple(G.dlog(f(L, g)) for g in gens)


@lru_cache(maxsize=None)
def _reduction_table(K: Field, n: int, m: int) -> tuple:
    """The dlogs in ``unit_group(K, n)`` of its generators of
    (1+pi^m O)/(1+pi^n O) (``one_unit_gens``), or of all its generators at
    m = 0: a character of level n is trivial on that subgroup iff
    sum_j row_j w_j = 0 mod unit_den on every row."""
    G = unit_group(K, n)
    return tuple(map(G.dlog, G.gens if m == 0 else G.one_unit_gens(m)))


@lru_cache(maxsize=None)
def _uniformizer_row(L: Field, n: int, K: Field, fmap: str, v: int) -> tuple:
    """The dlog in ``unit_group(L, n)`` of the unit part of f(pi_K), f the
    map named ``fmap``, which must take pi_K to valuation v; () at n = 0."""
    fpi = _MAPS[fmap](L, K.uniformizer())
    if L.val(fpi) != v:
        raise AssertionError(f"the uniformizer must map to valuation {v}")
    return unit_group(L, n).dlog(L.unit_part(fpi)) if n else ()


@lru_cache(maxsize=1024)
def _pullback(chi: MultChar, K: Field, level: int, fmap: str, v: int, lam) -> MultChar:
    """x -> chi(f(x)) |x|_K^lam on K^x, built at ``level`` and reduced, for
    the homomorphism f named ``fmap`` into chi's field, taking units to
    units and pi_K to valuation v: chi(f(pi_K)) is t^v times chi at the unit
    part of f(pi_K), read off :func:`_uniformizer_row`.  Cached by value;
    lam is chi.lam or 2 chi.lam, so chi's value decides it and its type."""
    row = _uniformizer_row(chi.field, chi.n, K, fmap, v)
    t = chi.t**v * Phase._exact(chi._unit_num(row), chi.unit_den)
    weights = chi._weights_at(K, level, fmap)
    return MultChar._from_weights(K, level, chi.unit_den, weights, t, lam).reduced()


def restrict_to_F(chi: MultChar) -> MultChar:
    """chi|_{F^x} with the conductor recomputed by brute force."""
    E: QuadExtension = chi.field
    if not is_extension(E):
        raise ValueError("restriction needs a character of E^x")
    level = (chi.n + E.e - 1) // E.e
    return _pullback(chi, E.ground, level, "embed", E.e, chi.lam * 2)


def sigma_conjugate(chi: MultChar) -> MultChar:
    """chi^sigma(x) = chi(x^sigma)."""
    E: QuadExtension = chi.field
    if not is_extension(E):
        raise ValueError("sigma conjugation needs a character of E^x")
    out = _pullback(chi, E, chi.n, "conj", 1, chi.lam)
    if out.n != chi.n:
        raise AssertionError("sigma conjugation must preserve the conductor")
    return out


def compose_with_norm(chi: MultChar, E: QuadExtension) -> MultChar:
    """chi o N_{E/F} as a character of E^x."""
    if is_extension(chi.field):
        raise ValueError("compose_with_norm needs a character of F^x")
    return _pullback(chi, E, E.e * chi.n, "norm", 2 // E.e, chi.lam)


def extend_from_F(chi: MultChar, E: QuadExtension) -> MultChar:
    """Some character of E^x restricting to chi on F^x.

    The finite-group constraint is solved for the lexicographically smallest
    exponent vector; the uniformizer value takes the smallest consistent
    angle.  Factor definitions downstream must not depend on the choice, and
    that independence is a property test, not an assumption here.
    """
    if is_extension(chi.field):
        raise ValueError("extend_from_F needs a character of F^x")
    F = chi.field
    M = E.e * chi.n + 2
    MF = (M + E.e - 1) // E.e
    orders = unit_group(E, M).orders
    # unit constraint: the weights on the generators of (O_E/pi^M)^x must
    # restrict to chi on the generator of (O_F/p^MF)^x, MF >= 1
    (exps,) = _pullback_table(E, M, F, MF, "embed")
    (target,) = chi._weights_at(F, MF, "identity")
    ks = _solve_congruence(exps, orders, Fraction(target, chi.unit_den))
    den = math.lcm(*orders)
    weights = [k * (den // d) for k, d in zip(ks, orders)]
    tmp = MultChar._from_weights(E, M, den, weights, Phase.one(), 0)
    # uniformizer constraint: chi~(p) = chi(p) once the twist lam/2 is split off
    # p = pi^e u_p, so t~^e = chi(p) / e(k / den) with tmp(u_p) = e(k / den)
    u_p = E.embed(F.p) * (E.uniformizer() ** E.e).inv()
    k = tmp._unit_num(tmp.group.dlog(u_p))
    rest = chi.t * Phase._exact(-k, tmp.unit_den)
    if rest.is_exact:
        # the e-th roots of rest differ by e(1/e); take the smallest angle
        t = Phase._exact(rest.num, rest.den * E.e)
        at_p = t**E.e * Phase._exact(k, tmp.unit_den)
        assert (at_p.num, at_p.den) == (chi.t.num, chi.t.den)
    else:
        t = Phase.approx(rest.value() ** (1.0 / E.e))
    lam = chi.lam / 2 if isinstance(chi.lam, Fraction) else complex(chi.lam) / 2
    return MultChar._from_weights(E, M, den, weights, t, lam).reduced()


def _solve_congruence(exps, orders, target: Fraction) -> list[int]:
    """Lexicographically smallest (k_i), k_i in [0, d_i), with
    sum k_i e_i / d_i = target (mod 1)."""
    if not orders:
        if target % 1 != 0:
            raise ValueError("inconsistent character extension")
        return []
    L = math.lcm(*orders)
    R = target * L
    if R.denominator != 1:
        raise ValueError("inconsistent character extension (denominator)")
    R = int(R) % L
    cs = [(L // d) * e % L for e, d in zip(exps, orders)]
    ks: list[int] = []
    rem = R
    for i, (c, d) in enumerate(zip(cs, orders)):
        # what the later terms can still reach: multiples of this gcd
        tail_g = math.gcd(L, *cs[i + 1 :])
        for k in range(d):
            if (rem - c * k) % tail_g == 0:
                ks.append(k)
                rem = (rem - c * k) % L
                break
        else:
            raise ValueError("inconsistent character extension (no solution)")
    if rem % L != 0:
        raise ValueError("inconsistent character extension (residual)")
    return ks


def omega_quadratic(E: QuadExtension) -> MultChar:
    """The quadratic character of F^x attached to E/F by class field theory.

    Unramified E gives the unramified order-2 character; ramified E gives the
    Legendre symbol on units with the uniformizer value pinned by
    omega(N(sqrt(d))) = 1.
    """
    F = E.ground
    if E.e == 1:
        return MultChar.unramified(F, Phase.exact(Fraction(1, 2)))
    # the generator of (Z/p)^x is a non-residue, so its angle is 1/2
    angles = (Fraction(1, 2),)
    tmp = MultChar(F, 1, angles, Phase.one(), 0)
    n_sqrt_d = E.sqrt_d().norm()  # = -d, valuation 1
    k = tmp._unit_num(tmp.group.dlog(F.unit_part(n_sqrt_d)))
    return MultChar(F, 1, angles, Phase._exact(-k, tmp.unit_den), 0)
