"""Symbolic L/eps/gamma factor expressions and their numeric evaluation.

Non-archimedean factors are rational in q^{-s}: a monomial c*q^{-m s} times
products of (1 - alpha q^{-(a s + b)})^{+-1}.  Archimedean factors are
constants times Gamma(a s + b)^mult and base^(u s + v) exponentials.
Equality of factors is decided numerically on a fixed grid of generic points;
Gamma identities make canonical symbolic normal forms impractical.  The
verify suites and :func:`approx_equal` reduce their deviations to one number
with :func:`worst_deviation`, so a deviation that is not a number fails, and
measure each with :func:`relative_deviation`, which has no floor.

The float range is decided where a value is formed.  Every product or power
of the p-adic layer built from character or shift data goes through
:func:`in_range` (:func:`power` for ``**``): a value that is inf or NaN, is
nonzero below the least normal float, or is 0 while none of its parts is,
raises :class:`FloatRangeError`.  So a factor, its constant ``c`` and its
value at s are normal floats or exact zeros, never the residue of an
under- or overflow.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .padic import Value, _set

DEFAULT_GRID = (0.7, 1.3, 2.1 + 0.5j, 0.4 - 0.8j, 1.05)
REL_TOL_NONARCH = 1e-8
REL_TOL_ARCH = 1e-6
PHI_INDEPENDENCE_TOL = 1e-10


def worst_deviation(devs: Iterable[float]) -> float:
    """The largest of ``devs`` itself (0.0 for none).  A NaN is the worst
    deviation: one NaN makes the result NaN, so ``worst < tol`` fails."""
    worst = 0.0
    for dev in devs:
        if dev > worst or math.isnan(dev):
            worst = dev
    return worst


class PoleError(ArithmeticError):
    """Evaluation hit a pole; carries the offending location."""

    def __init__(self, where):
        super().__init__(f"pole at s = {where}")
        self.where = where


class FloatRangeError(ArithmeticError):
    """A value left the float range (:func:`in_range`); carries the point s
    of the evaluation, as :class:`PoleError` does, or None for a value that
    does not depend on s."""

    def __init__(self, where=None):
        at = "" if where is None else f" at s = {where}"
        super().__init__(f"a value leaves the float range{at}")
        self.where = where


# 2^-1022, the least normal float
LEAST_NORMAL = sys.float_info.min


def in_range(z, *parts, where=None):
    """``z``, a product or power of ``parts``, once it is in the float range:
    ``FloatRangeError`` at ``where`` if it is inf or NaN, nonzero with modulus
    below :data:`LEAST_NORMAL`, or 0 although no part is 0.  Hot callers
    inline the test ``LEAST_NORMAL <= hypot(re, im) < inf`` and call this only
    when it fails."""
    try:
        r = math.hypot(z.real, z.imag)
    except OverflowError:  # an int or Fraction beyond the floats
        r = math.inf
    if LEAST_NORMAL <= r < math.inf or (r == 0 and 0 in parts):
        return z
    raise FloatRangeError(where)


def power(base, k):
    """``base ** k`` in its own type and bits, checked by :func:`in_range`.
    An OverflowError, of the power or of an exact power beyond the floats,
    is a ``FloatRangeError`` too, and so is the ZeroDivisionError of a
    complex power whose inverse underflowed."""
    try:
        z = base**k
        if LEAST_NORMAL <= math.hypot(z.real, z.imag) < math.inf:
            return z
    except (OverflowError, ZeroDivisionError) as exc:
        if not base:
            raise
        raise FloatRangeError() from exc
    return in_range(z, base)


def relative_deviation(got, want, scale) -> float:
    """|got - want| / scale, with no floor on the scale: two exact zeros
    deviate by 0, and anything else measured against a zero scale by inf."""
    diff = abs(got - want)
    if scale:
        return diff / scale
    return 0.0 if diff == 0 else math.inf


# ---------------------------------------------------------------------------
# complex log-Gamma (Lanczos, g = 7, n = 9)
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def loggamma(z: complex) -> complex:
    """log Gamma(z) via a 9-term Lanczos sum, reflected onto Re(z) >= 1/2.

    Accuracy is ~13 significant digits on the reflected half-plane, which is
    comfortably past the 12 digits the factor comparisons budget for.  An
    exact non-positive integer z is a ``PoleError``: sin(pi z) there is a
    rounding residue, exactly 0 only at z = 0.  Below -2^52, where every
    float is an integer, the reflected value is returned: its real part is
    about -|z| log|z|, so Gamma underflows there and callers report the
    point as out of the float range.
    """
    z = complex(z)
    if z.real < 0.5:
        if z.imag == 0 and z.real.is_integer() and z.real > -(2.0**52):
            raise PoleError(z)
        # Gamma(z) Gamma(1-z) = pi / sin(pi z); take the log with a branch
        # correction so exp(loggamma) is continuous where we evaluate.
        s = cmath.sin(cmath.pi * z)
        return cmath.log(cmath.pi) - cmath.log(s) - loggamma(1.0 - z)
    zz = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * math.log(2 * math.pi) + (zz + 0.5) * cmath.log(t) - t + cmath.log(acc)


def gammafn(z: complex) -> complex:
    return cmath.exp(loggamma(z))


# ---------------------------------------------------------------------------
# non-archimedean factors
# ---------------------------------------------------------------------------


class NonArchFactor(Value):
    """c * q^{-m s} * prod num (1 - alpha q^{-(a s + b)}) / prod den (...)."""

    __slots__ = _fields = ("q", "c", "m", "num", "den")

    def __init__(self, q: int, c: complex = 1.0 + 0j, m: int = 0, num: tuple = (), den: tuple = ()):
        _set(self, "q", q)
        _set(self, "c", c)
        _set(self, "m", m)
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "_key", (q, c, m, num, den))

    @staticmethod
    def one(q: int) -> "NonArchFactor":
        return NonArchFactor(q)

    @staticmethod
    def monomial(q: int, c: complex, m: int) -> "NonArchFactor":
        return NonArchFactor(q, c, m)

    @staticmethod
    def euler_inverse(q: int, alpha: complex) -> "NonArchFactor":
        """(1 - alpha q^{-s})^{-1}, the L-factor shape."""
        return NonArchFactor(q, den=((complex(alpha), 1, 0j),))

    # -- evaluation -------------------------------------------------------------
    def eval(self, s: complex) -> complex:
        """The value at s; ``PoleError`` at a pole, ``FloatRangeError`` where
        it, or a power of q on the way, leaves the float range (:func:`in_range`)."""

        def q_to(e: complex) -> complex:
            try:
                return self.q ** e
            except OverflowError as exc:
                raise FloatRangeError(s) from exc

        out = self.c * q_to(-self.m * s)
        for alpha, a, b in self.num:
            out *= 1 - alpha * q_to(-(a * s + b))
        for alpha, a, b in self.den:
            d = 1 - alpha * q_to(-(a * s + b))
            if math.hypot(d.real, d.imag) < 1e-14:  # abs(d) overflows for huge d
                raise PoleError(s)
            out /= d
        if LEAST_NORMAL <= math.hypot(out.real, out.imag) < math.inf:
            return out
        # 0 is a value only where c or a numerator factor is 0 at s
        zeros = (1 - alpha * q_to(-(a * s + b)) for alpha, a, b in self.num)
        return in_range(out, self.c, *zeros, where=s)

    # -- algebra ---------------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            c = in_range(self.c * other, self.c, other)
            return NonArchFactor(self.q, c, self.m, self.num, self.den)
        if self.q != other.q:
            raise ValueError("factors over different q; rebase first")
        num, den = _cancel(self.num + other.num, self.den + other.den)
        c = self.c * other.c
        if not LEAST_NORMAL <= math.hypot(c.real, c.imag) < math.inf:
            in_range(c, self.c, other.c)
        return NonArchFactor(self.q, c, self.m + other.m, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "NonArchFactor":
        return NonArchFactor(self.q, in_range(1 / self.c), -self.m, self.den, self.num)

    def __truediv__(self, other) -> "NonArchFactor":
        if isinstance(other, (int, float, complex)):
            c = in_range(self.c / other, self.c)
            return NonArchFactor(self.q, c, self.m, self.num, self.den)
        return self * other.inverse()

    def reflect(self) -> "NonArchFactor":
        """s -> 1 - s."""
        flip = lambda fs: tuple((alpha, -a, a + b) for alpha, a, b in fs)
        return NonArchFactor(
            self.q,
            in_range(self.c * power(self.q, -self.m), self.c),
            -self.m,
            flip(self.num),
            flip(self.den),
        )

    def rebase(self, q_new: int) -> "NonArchFactor":
        """Rewrite over a smaller base with q = q_new^f."""
        if q_new == self.q:
            return self
        f = round(math.log(self.q, q_new))
        if q_new**f != self.q:
            raise ValueError(f"{self.q} is not a power of {q_new}")
        scale = lambda fs: tuple((alpha, a * f, b * f) for alpha, a, b in fs)
        return NonArchFactor(q_new, self.c, self.m * f, scale(self.num), scale(self.den))

    def as_monomial(self) -> tuple[complex, int]:
        """(c, m) when the factor is a pure monomial; raises otherwise."""
        num, den = _cancel(self.num, self.den)
        if num or den:
            raise ValueError(f"factor is not a monomial: num={num} den={den}")
        return self.c, self.m

    def to_json(self) -> dict:
        enc = lambda fs: [
            {"alpha": [a.real, a.imag], "a": deg, "b": [b.real, b.imag]}
            for a, deg, b in fs
        ]
        return {
            "type": "nonarch",
            "q": self.q,
            "c": [complex(self.c).real, complex(self.c).imag],
            "m": self.m,
            "num": enc(self.num),
            "den": enc(self.den),
        }


def _cancel(num: tuple, den: tuple) -> tuple:
    """Drop each numerator entry that matches a denominator entry to 1e-10."""
    tol = 1e-10
    num, den = list(num), list(den)
    out_num = []
    for entry in num:
        alpha, a, b = entry
        hit = None
        for i, (al2, a2, b2) in enumerate(den):
            if a == a2 and abs(alpha - al2) <= tol * (1 + abs(alpha)) and abs(
                complex(b) - complex(b2)
            ) <= tol:
                hit = i
                break
        if hit is None:
            out_num.append(entry)
        else:
            den.pop(hit)
    return tuple(out_num), tuple(den)


# ---------------------------------------------------------------------------
# archimedean factors
# ---------------------------------------------------------------------------


class ArchFactor(Value):
    """c * prod Gamma(a s + b)^mult * prod base^(u s + v)."""

    __slots__ = _fields = ("c", "gammas", "expos")

    def __init__(self, c: complex = 1.0 + 0j, gammas: tuple = (), expos: tuple = ()):
        _set(self, "c", c)
        _set(self, "gammas", gammas)  # (a: Fraction, b: complex, mult: int)
        _set(self, "expos", expos)  # (base: float, u: complex, v: complex)
        _set(self, "_key", (c, gammas, expos))

    @staticmethod
    def zeta_R(shift: complex = 0) -> "ArchFactor":
        """pi^{-(s+shift)/2} Gamma((s+shift)/2)."""
        return ArchFactor(
            gammas=((Fraction(1, 2), complex(shift) / 2, 1),),
            expos=((math.pi, -0.5, -complex(shift) / 2),),
        )

    @staticmethod
    def zeta_C(shift: complex = 0) -> "ArchFactor":
        """2 (2 pi)^{-(s+shift)} Gamma(s+shift)."""
        return ArchFactor(
            c=2.0,
            gammas=((Fraction(1), complex(shift), 1),),
            expos=((2 * math.pi, -1.0, -complex(shift)),),
        )

    def eval(self, s: complex) -> complex:
        if self.c == 0:
            return 0j
        logv = cmath.log(self.c)
        for a, b, mult in self.gammas:
            z = complex(a) * s + b
            logv += mult * loggamma(z)
        for base, u, v in self.expos:
            logv += (complex(u) * s + complex(v)) * math.log(base)
        return cmath.exp(logv)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ArchFactor(self.c * other, self.gammas, self.expos)
        return ArchFactor(
            self.c * other.c, self.gammas + other.gammas, self.expos + other.expos
        )

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# grid comparison
# ---------------------------------------------------------------------------


def approx_equal(
    f,
    g,
    grid: Sequence[complex] = DEFAULT_GRID,
    tol: float = REL_TOL_NONARCH,
) -> tuple[bool, float]:
    """Worst relative deviation (:func:`worst_deviation`) of two factors (or
    callables) on a grid of s-values, each against the larger modulus."""
    if not grid:
        raise ValueError("empty comparison grid")
    at = lambda h, s: h.eval(s) if hasattr(h, "eval") else h(s)
    pairs = ((at(f, s), at(g, s)) for s in grid)
    worst = worst_deviation(relative_deviation(fv, gv, max(abs(fv), abs(gv))) for fv, gv in pairs)
    return worst < tol, worst


def eval_table(fct, grid: Sequence[complex] = DEFAULT_GRID) -> list:
    values = [fct.eval(s) for s in grid]
    return [[complex(s).real, complex(s).imag, v.real, v.imag] for s, v in zip(grid, values)]


def off_poles(grid: Sequence[complex], evals) -> tuple:
    """``grid`` with each point s at which one of ``evals`` raises ``PoleError``
    replaced by the first of s + i/4, s + i/2, s + 3i/4 that is a pole of none
    (poles are isolated).  A point that is no pole is kept as it is."""

    def is_pole(s) -> bool:
        try:
            for f in evals:
                f(s)
        except PoleError:
            return True
        return False

    moves = lambda s: (s, s + 0.25j, s + 0.5j, s + 0.75j)
    return tuple(next((z for z in moves(s) if not is_pole(z)), s) for s in grid)


def resolve_grid(grid, evals) -> tuple:
    """The points at which to evaluate ``evals``: ``grid`` as given, or for
    ``grid=None`` the ``DEFAULT_GRID`` moved off their poles (:func:`off_poles`).
    A point the caller chose stays where it is, pole or not."""
    return off_poles(DEFAULT_GRID, evals) if grid is None else tuple(grid)


def factor_from_json(obj: dict):
    if obj.get("type") == "nonarch":
        dec = lambda fs: tuple(
            (complex(e["alpha"][0], e["alpha"][1]), int(e["a"]), complex(e["b"][0], e["b"][1]))
            for e in fs
        )
        return NonArchFactor(
            int(obj["q"]),
            complex(obj["c"][0], obj["c"][1]),
            int(obj["m"]),
            dec(obj.get("num", [])),
            dec(obj.get("den", [])),
        )
    raise ValueError("unknown factor encoding")
