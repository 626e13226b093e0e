"""Symbolic L/eps/gamma factor expressions and their numeric evaluation.

Non-archimedean factors are rational in q^{-s}: a monomial c*q^{-m s} times
products of (1 - alpha q^{-(a s + b)})^{+-1}.  Archimedean factors are
constants times Gamma(a s + b)^mult and base^(u s + v) exponentials.
Equality of factors is decided numerically on a fixed grid of generic points;
Gamma identities make canonical symbolic normal forms impractical.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

from .padic import Value, _set

DEFAULT_GRID = (0.7, 1.3, 2.1 + 0.5j, 0.4 - 0.8j, 1.05)
REL_TOL_NONARCH = 1e-8
REL_TOL_ARCH = 1e-6
PHI_INDEPENDENCE_TOL = 1e-10


class PoleError(ArithmeticError):
    """Evaluation hit a pole; carries the offending location."""

    def __init__(self, where):
        super().__init__(f"pole at s = {where}")
        self.where = where


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
    comfortably past the 12 digits the factor comparisons budget for.
    """
    z = complex(z)
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z); take the log with a branch
        # correction so exp(loggamma) is continuous where we evaluate.
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise PoleError(z)
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
        qs = lambda a, b: self.q ** (-(a * s + b))
        out = self.c * self.q ** (-self.m * s)
        for alpha, a, b in self.num:
            out *= 1 - alpha * qs(a, b)
        for alpha, a, b in self.den:
            d = 1 - alpha * qs(a, b)
            if math.hypot(d.real, d.imag) < 1e-14:  # abs(d) overflows for huge d
                raise PoleError(s)
            out /= d
        return out

    # -- algebra ---------------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NonArchFactor(self.q, self.c * other, self.m, self.num, self.den)
        if self.q != other.q:
            raise ValueError("factors over different q; rebase first")
        num, den = _cancel(self.num + other.num, self.den + other.den)
        return NonArchFactor(self.q, self.c * other.c, self.m + other.m, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "NonArchFactor":
        return NonArchFactor(self.q, 1 / self.c, -self.m, self.den, self.num)

    def __truediv__(self, other) -> "NonArchFactor":
        if isinstance(other, (int, float, complex)):
            return NonArchFactor(self.q, self.c / other, self.m, self.num, self.den)
        return self * other.inverse()

    def reflect(self) -> "NonArchFactor":
        """s -> 1 - s."""
        flip = lambda fs: tuple((alpha, -a, a + b) for alpha, a, b in fs)
        return NonArchFactor(
            self.q,
            self.c * self.q ** (-self.m),
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
    """Relative deviation of two factors (or callables) on a grid of s-values."""
    if not grid:
        raise ValueError("empty comparison grid")
    worst = 0.0
    for s in grid:
        fv = f.eval(s) if hasattr(f, "eval") else f(s)
        gv = g.eval(s) if hasattr(g, "eval") else g(s)
        scale = max(abs(fv), abs(gv), 1e-30)
        worst = max(worst, abs(fv - gv) / scale)
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
