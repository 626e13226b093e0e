"""Additive and multiplicative characters of F^x and E^x.

Unit-part data is exact: a multiplicative character stores root-of-unity
angles (Fractions mod 1) on the generators of (O_K/pi^n)^x, and additive
characters evaluate through the p-adic fractional part, so Gauss-sum
identities fail only through genuine bugs, never rounding.  Conductors are
always recomputed by brute force rather than trusted from constructors.

Restriction to F^x, sigma-conjugation and composition with the norm are the
one pullback x -> chi(f(x)) |x|^lam of :func:`_pullback`.  It, ``mul`` and
``reduced`` change level through :meth:`MultChar._angles_at`, which returns
a character's own angles at its own level without a dlog.

Finite character sums over a shell {ord x = v} mod pi^(v+m) go through one
kernel, :func:`shell_angles`, which works on the integer coordinates of
``K.shell_coords(v, m)`` and builds no field element per term.  For the i-th
x = pi^v (a + b sqrt(d)) it gives two integer angle numerators:

* chi's unit part, e(units[i] / unit_den): the sum of e_j w_j over the dlog
  exponents e_j of the residue key of a + b sqrt(d) (of 1 + x with
  ``shift``), with the weights w_j = unit_den * angle_j fixed per character;
* psi(c x), e(psis[i] / psi_den): (alpha a + beta b) mod p^k, with alpha and
  beta the residues of p^k tr(c psi_mult pi^v) and p^k tr(c psi_mult pi^v
  sqrt(d)), psi_den = p^k.

The kernel raises :class:`PrecisionError` where ``shell`` or ``frac_part``
would.  :func:`shell_cyc` counts the numerators into one exact ``Cyc`` on
integer exponents; every local integral of the two oracles is built from it
(:mod:`asailocal.tate`).  :func:`shell_sum`, the float Gauss sum of the
closed form, maps them through ``_num_exp`` in shell order, so each float
term, and the order of the sum, is the one an element-by-element loop of
``chi.value(x) * psi.value(x)`` gives.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Optional, Union

from .cyclotomic import Cyc, _make
from .padic import (
    EElement,
    Field,
    PAdicGround,
    PrecisionError,
    QuadExtension,
    is_extension,
)
from .unitgroups import unit_group


def _angle_exp(theta: Fraction) -> complex:
    return _num_exp(theta.numerator, theta.denominator)


def _num_exp(num: int, den: int) -> complex:
    """e(num/den).  num % den / den is the correctly rounded float of the
    rational angle mod 1, so the value does not depend on how num/den is
    reduced."""
    return cmath.exp(2j * cmath.pi * (num % den / den))


class Phase:
    """A complex scalar that remembers an exact root-of-unity angle when it has one."""

    __slots__ = ("angle", "_z")

    def __init__(self, angle: Optional[Fraction] = None, z: Optional[complex] = None):
        self.angle = Fraction(angle) % 1 if angle is not None else None
        self._z = complex(z) if z is not None else None

    @staticmethod
    def exact(angle) -> "Phase":
        return Phase(angle=Fraction(angle))

    @staticmethod
    def approx(z: complex) -> "Phase":
        return Phase(z=z)

    @staticmethod
    def one() -> "Phase":
        return Phase(angle=Fraction(0))

    @property
    def is_exact(self) -> bool:
        return self.angle is not None

    def value(self) -> complex:
        if self.angle is not None:
            return _angle_exp(self.angle)
        return self._z

    def __mul__(self, other: "Phase") -> "Phase":
        if self.angle is not None and other.angle is not None:
            return Phase(angle=self.angle + other.angle)
        return Phase(z=self.value() * other.value())

    def __pow__(self, k: int) -> "Phase":
        if self.angle is not None:
            return Phase(angle=self.angle * k)
        return Phase(z=self.value() ** k)

    def inv(self) -> "Phase":
        return self ** (-1)

    def __repr__(self):
        if self.angle is not None:
            return f"Phase(angle={self.angle})"
        return f"Phase(z={self._z})"


# ---------------------------------------------------------------------------
# additive characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AddChar:
    """psi(x) = e(frac_p(b x)) on F, or e(frac_p(tr(b x))) on E.

    The standard character psi0 (b = 1 on F) has conductor 0; every other
    additive character in scope is a multiplicative shift of it.
    """

    field: Field
    mult: Union[Fraction, int, EElement] = 1

    def __post_init__(self):
        # stored as an element of ``field`` from here on
        object.__setattr__(self, "mult", self.field.embed(self.mult))

    def angle(self, x) -> Fraction:
        """Exact angle in [0,1): psi(x) = e^(2 pi i angle)."""
        K = self.field
        return K.ground.frac_part(K.tr(self.mult * K.embed(x)))

    def value(self, x) -> complex:
        return _angle_exp(self.angle(x))

    def cyc(self, x) -> Cyc:
        return Cyc.root(self.angle(x))

    def shifted(self, a) -> "AddChar":
        """psi^a, i.e. x -> psi(a x)."""
        return AddChar(self.field, self.mult * self.field.embed(a))

    def to_json(self) -> dict:
        b = self.mult
        if is_extension(self.field):
            return {"field": "E", "mult": [str(b.a), str(b.b)]}
        return {"field": "F", "mult": str(b)}


@cache
def conductor_add(psi: AddChar) -> int:
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

    ``angles`` are the images (as angles) of the generators of ``group``,
    the unit group (O_K/pi^n)^x, n the minimal conductor.  ``lam`` is kept
    separate so the unitary data stays exact.
    """

    __slots__ = ("field", "n", "group", "angles", "t", "lam", "unit_den", "unit_weights")

    def __init__(self, field: Field, n: int, angles, t: Phase, lam=0):
        self.field = field
        self.n = n
        self.angles = tuple(Fraction(a) % 1 for a in angles)
        # angle_j = unit_weights[j] / unit_den: integer angles for dlog sums
        self.unit_den = math.lcm(*(a.denominator for a in self.angles))
        self.unit_weights = tuple(
            a.numerator * (self.unit_den // a.denominator) for a in self.angles
        )
        self.t = t
        self.lam = lam if isinstance(lam, Fraction) else (
            Fraction(lam) if isinstance(lam, int) else complex(lam)
        )
        self.group = unit_group(field, n)
        if len(self.angles) != len(self.group.gens):
            raise ValueError("angle vector does not match unit-group generators")

    # -- constructors ---------------------------------------------------------
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
        """Same character presented at its minimal conductor."""
        n = self.n
        while n >= 1:
            level_gens = self._one_unit_gens_at(n - 1)
            if all(self.unit_angle(g) == 0 for g in level_gens):
                n -= 1
            else:
                break
        if n == self.n:
            return self
        return MultChar(self.field, n, self._angles_at(self.field, n), self.t, self.lam)

    def _one_unit_gens_at(self, m: int):
        """Generators of (1+pi^m O)/(1+pi^n O) inside the level-n group."""
        return self.group.gens if m == 0 else self.group.one_unit_gens(m)

    @property
    def is_ramified(self) -> bool:
        return self.n >= 1

    def _angles_at(self, K: Field, level: int, f=None) -> tuple:
        """Unit angles of x -> chi(f(x)) on the generators of (O_K/pi^level)^x;
        f = None is the identity, and at chi's own level that is ``angles``."""
        if f is None and level == self.n:
            return self.angles
        gens = unit_group(K, level).gens
        return tuple(self.unit_angle(f(g) if f else g) for g in gens)

    # -- evaluation ----------------------------------------------------------------
    def unit_angle(self, u) -> Fraction:
        """Angle of the unit-part character at a valuation-0 element."""
        if self.n == 0:
            return Fraction(0)
        exps = self.group.dlog(u)
        return Fraction(self._unit_num(exps), self.unit_den)

    def _unit_num(self, exps) -> int:
        return sum(e * w for e, w in zip(exps, self.unit_weights)) % self.unit_den

    def _split(self, x):
        K = self.field
        x = K.embed(x)
        return K.val(x), K.unit_part(x)

    def value(self, x) -> complex:
        v, u = self._split(x)
        return self._value(v, _angle_exp(self.unit_angle(u)))

    def _value(self, v: int, unit_value: complex) -> complex:
        """Float value at an element of valuation v whose unit part has
        value ``unit_value``."""
        out = self.t.value() ** v * unit_value
        lam = self.lam
        if lam != 0:
            out *= self.field.q ** complex(-lam * v)
        return out

    def angle_at(self, x) -> Fraction:
        """Exact angle, defined when t is exact and lam = 0 (or x is a unit)."""
        v, u = self._split(x)
        if not self.t.is_exact:
            raise ValueError("character has no exact t")
        if self.lam != 0 and v != 0:
            raise ValueError("twist exponent breaks exactness")
        return (self.t.angle * v + self.unit_angle(u)) % 1

    def cyc(self, x) -> Cyc:
        """Exact value as a cyclotomic number (integer lam only)."""
        v, u = self._split(x)
        if not self.t.is_exact:
            raise ValueError("character has no exact t")
        lam = self.lam
        scale = Fraction(1)
        if lam != 0:
            if not isinstance(lam, Fraction) or lam.denominator != 1:
                raise ValueError("twist exponent breaks exactness")
            scale = Fraction(self.field.q) ** int(-lam * v)
        return Cyc.root(self.t.angle * v + self.unit_angle(u), scale)

    def t_full(self) -> complex:
        """Value at the uniformizer, twist included."""
        return self.t.value() * self.field.q ** complex(-self.lam)

    # -- algebra ----------------------------------------------------------------
    def mul(self, other: "MultChar") -> "MultChar":
        if is_extension(self.field) != is_extension(other.field):
            raise ValueError("characters live on different fields")
        K, n = self.field, max(self.n, other.n)
        angles = tuple(
            (a + b) % 1 for a, b in zip(self._angles_at(K, n), other._angles_at(K, n))
        )
        lam = _add_lam(self.lam, other.lam)
        return MultChar.from_angles(K, n, angles, self.t * other.t, lam)

    __mul__ = mul

    def inv(self) -> "MultChar":
        angles = tuple((-a) % 1 for a in self.angles)
        lam = -self.lam
        return MultChar(self.field, self.n, angles, self.t.inv(), lam)

    def twist_by_norm_power(self, w) -> "MultChar":
        """chi * |.|^w."""
        return MultChar(self.field, self.n, self.angles, self.t, _add_lam(self.lam, w))

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
            return self.t.angle == 0
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


def mult_char_from_json(obj: dict, field: Field) -> MultChar:
    t = obj.get("t", 1)
    if isinstance(t, dict):
        if "angle" not in t:
            raise ValueError("an exact 't' needs an 'angle' entry")
        phase = Phase.exact(Fraction(t["angle"]))
    elif isinstance(t, (list, tuple)):
        phase = Phase.approx(complex(t[0], t[1]))
    else:
        phase = Phase.approx(complex(t))
    lam = obj.get("lambda", 0)
    if isinstance(lam, str):
        lam = Fraction(lam)
    elif isinstance(lam, (list, tuple)):
        lam = complex(lam[0], lam[1])
        if lam.imag == 0 and lam.real == int(lam.real):
            lam = Fraction(int(lam.real))
    n = int(obj.get("conductor", 0))
    if n < 0:
        raise ValueError("conductor must be >= 0")
    angles = [Fraction(a) for a in obj.get("unit_part", [])]
    return MultChar.from_angles(field, n, angles, phase, lam)


# ---------------------------------------------------------------------------
# finite shell sums
# ---------------------------------------------------------------------------


class ShellAngles(NamedTuple):
    """Integer angles over the elements of ``K.shell_coords(v, m)``, in order."""

    units: list  # chi's unit part: e(units[i] / unit_den)
    unit_den: int
    psis: list  # psi(c x): e(psis[i] / psi_den)
    psi_den: int


def shell_angles(
    chi: Optional[MultChar], psi: AddChar, v: int, m: int, c=1, shift: bool = False
) -> ShellAngles:
    """The kernel of every finite character sum (see the module docstring).

    x runs over the shell ord x = v mod pi^(v+m) in ``K.shell`` order; chi's
    unit part is taken at x, or at the unit 1 + x with ``shift`` (v >= 1).
    ``chi=None`` gives unit angles 0.
    """
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
    psis = [(al * a + be * b) % P for a, b in coords]
    if chi is None or chi.n == 0:
        return ShellAngles([0] * len(coords), 1, psis, P)
    G = chi.group
    if shift:
        if v < 1:
            raise ValueError("the 1 + x shift needs ord x >= 1")
        # 1 + a e1 + b e2 in coordinates; e1, e2 are integral for v >= 1
        (r, s), (t, u) = (map(int, K.coords(e)) for e in (e1, e2))
        coords = [(1 + a * r + b * t, a * s + b * u) for a, b in coords]
    keys = G.keys(coords)
    logs = G.logs
    nums = {key: chi._unit_num(logs[key]) for key in set(keys)}
    return ShellAngles([nums[key] for key in keys], chi.unit_den, psis, P)


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


def shell_sum(chi: MultChar, psi: AddChar, v: int, m: int) -> complex:
    """The float ``shell_cyc(chi, psi, v, m)``: each term is
    chi.value(x) * psi.value(x), summed in shell order."""
    sa = shell_angles(chi, psi, v, m)
    pe = {s: _num_exp(s, sa.psi_den) for s in set(sa.psis)}
    ce = {u: chi._value(v, _num_exp(u, sa.unit_den)) for u in set(sa.units)}
    out = 0j
    for u, s in zip(sa.units, sa.psis):
        out += ce[u] * pe[s]
    return out


# ---------------------------------------------------------------------------
# restriction / extension / Galois operations
# ---------------------------------------------------------------------------


def _pullback(chi: MultChar, K: Field, level: int, f, v: int, lam) -> MultChar:
    """x -> chi(f(x)) |x|_K^lam on K^x, built at ``level`` and reduced, for
    a homomorphism f into chi's field taking units to units and pi_K to
    valuation v: chi(f(pi_K)) is t^v times chi at the unit part of f(pi_K)."""
    L = chi.field
    fpi = f(K.uniformizer())
    if L.val(fpi) != v:
        raise AssertionError(f"the uniformizer must map to valuation {v}")
    t = chi.t**v * Phase.exact(chi.unit_angle(L.unit_part(fpi)))
    return MultChar.from_angles(K, level, chi._angles_at(K, level, f), t, lam)


def restrict_to_F(chi: MultChar) -> MultChar:
    """chi|_{F^x} with the conductor recomputed by brute force."""
    E: QuadExtension = chi.field
    if not is_extension(E):
        raise ValueError("restriction needs a character of E^x")
    level = (chi.n + E.e - 1) // E.e
    return _pullback(chi, E.ground, level, E.embed, E.e, chi.lam * 2)


def sigma_conjugate(chi: MultChar) -> MultChar:
    """chi^sigma(x) = chi(x^sigma)."""
    E: QuadExtension = chi.field
    if not is_extension(E):
        raise ValueError("sigma conjugation needs a character of E^x")
    out = _pullback(chi, E, chi.n, EElement.conj, 1, chi.lam)
    if out.n != chi.n:
        raise AssertionError("sigma conjugation must preserve the conductor")
    return out


def compose_with_norm(chi: MultChar, E: QuadExtension) -> MultChar:
    """chi o N_{E/F} as a character of E^x."""
    if is_extension(chi.field):
        raise ValueError("compose_with_norm needs a character of F^x")
    return _pullback(chi, E, E.e * chi.n, EElement.norm, 2 // E.e, chi.lam)


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
    G = unit_group(E, M)
    MF = (M + E.e - 1) // E.e
    GF = unit_group(F, MF)
    orders = list(G.orders)
    # unit constraint: angles on G.gens must restrict to chi on the F-generator
    if GF.gens:
        gF = GF.gens[0]
        exps = G.dlog(E.embed(gF))
        target = chi.unit_angle(gF)
        ks = _solve_congruence(exps, orders, target)
    else:
        ks = [0] * len(orders)
    angles = [Fraction(k, d) for k, d in zip(ks, orders)]
    tmp = MultChar(E, M, angles, Phase.one(), 0)
    # uniformizer constraint: chi~(p) = chi(p) once the twist lam/2 is split off
    pi = E.uniformizer()
    u_p = E.embed(F.p) * (pi ** E.e).inv()
    resid = tmp.unit_angle(u_p)
    if chi.t.is_exact:
        # solutions form {base + k/e}; take the smallest angle in [0, 1/e)
        base = (chi.t.angle - resid) / E.e
        t = Phase.exact(base % Fraction(1, E.e))
        assert (t.angle * E.e + resid) % 1 == chi.t.angle % 1
    else:
        t = Phase.approx((chi.t.value() * _angle_exp(-resid)) ** (1.0 / E.e))
    lam = chi.lam / 2 if isinstance(chi.lam, Fraction) else complex(chi.lam) / 2
    out = MultChar.from_angles(E, M, angles, t, lam)
    return out


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
    resid = tmp.unit_angle(F.unit_part(n_sqrt_d))
    t = Phase.exact(-resid)
    return MultChar(F, 1, angles, t, 0)
