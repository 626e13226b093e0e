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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

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


@dataclass(frozen=True)
class NonArchFactor:
    """c * q^{-m s} * prod num (1 - alpha q^{-(a s + b)}) / prod den (...)."""

    q: int
    c: complex = 1.0 + 0j
    m: int = 0
    num: tuple = ()
    den: tuple = ()

    @staticmethod
    def one(q: int) -> "NonArchFactor":
        return NonArchFactor(q)

    @staticmethod
    def monomial(q: int, c: complex, m: int) -> "NonArchFactor":
        return NonArchFactor(q, c, m)

    @staticmethod
    def euler_inverse(q: int, alpha: complex, a: int = 1, b: complex = 0) -> "NonArchFactor":
        """(1 - alpha q^{-(a s + b)})^{-1}, the L-factor shape."""
        return NonArchFactor(q, den=((complex(alpha), a, complex(b)),))

    # -- evaluation -------------------------------------------------------------
    def eval(self, s: complex) -> complex:
        qs = lambda a, b: self.q ** (-(a * s + b))
        out = self.c * self.q ** (-self.m * s)
        for alpha, a, b in self.num:
            out *= 1 - alpha * qs(a, b)
        for alpha, a, b in self.den:
            d = 1 - alpha * qs(a, b)
            if abs(d) < 1e-14:
                raise PoleError(s)
            out /= d
        return out

    # -- algebra ---------------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return replace(self, c=self.c * other)
        if self.q != other.q:
            raise ValueError("factors over different q; rebase first")
        num, den = _cancel(self.num + other.num, self.den + other.den)
        return NonArchFactor(self.q, self.c * other.c, self.m + other.m, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "NonArchFactor":
        return NonArchFactor(self.q, 1 / self.c, -self.m, self.den, self.num)

    def __truediv__(self, other) -> "NonArchFactor":
        if isinstance(other, (int, float, complex)):
            return replace(self, c=self.c / other)
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


def _cancel(num: tuple, den: tuple, tol: float = 1e-10) -> tuple:
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


@dataclass(frozen=True)
class ArchFactor:
    """c * prod Gamma(a s + b)^mult * prod base^(u s + v)."""

    c: complex = 1.0 + 0j
    gammas: tuple = ()  # (a: Fraction, b: complex, mult: int)
    expos: tuple = ()  # (base: float, u: complex, v: complex)

    @staticmethod
    def one() -> "ArchFactor":
        return ArchFactor()

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
        logv = cmath.log(self.c) if self.c != 0 else None
        if self.c == 0:
            return 0j
        for a, b, mult in self.gammas:
            z = complex(a) * s + b
            logv += mult * loggamma(z)
        for base, u, v in self.expos:
            logv += (complex(u) * s + complex(v)) * math.log(base)
        return cmath.exp(logv)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return replace(self, c=self.c * other)
        return ArchFactor(
            self.c * other.c, self.gammas + other.gammas, self.expos + other.expos
        )

    __rmul__ = __mul__

    def inverse(self) -> "ArchFactor":
        return ArchFactor(
            1 / self.c,
            tuple((a, b, -m) for a, b, m in self.gammas),
            tuple((base, -u, -v) for base, u, v in self.expos),
        )

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return replace(self, c=self.c / other)
        return self * other.inverse()

    def reflect(self) -> "ArchFactor":
        """s -> 1 - s."""
        return ArchFactor(
            self.c,
            tuple((-a, complex(a) + b, m) for a, b, m in self.gammas),
            tuple((base, -u, complex(u) + v) for base, u, v in self.expos),
        )

    def to_json(self) -> dict:
        return {
            "type": "arch",
            "c": [complex(self.c).real, complex(self.c).imag],
            "gammas": [
                {"a": [complex(a).real, complex(a).imag], "b": [b.real, b.imag], "mult": m}
                for a, b, m in self.gammas
            ],
            "expos": [
                {"base": base, "u": [complex(u).real, complex(u).imag], "v": [v.real, v.imag]}
                for base, u, v in self.expos
            ],
        }


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
    return [[complex(s).real, complex(s).imag, fct.eval(s).real, fct.eval(s).imag] for s in grid]


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
    if obj.get("type") == "arch":
        gammas = tuple(
            (Fraction(e["a"][0]).limit_denominator(10**6), complex(e["b"][0], e["b"][1]), int(e["mult"]))
            for e in obj.get("gammas", [])
        )
        expos = tuple(
            (float(e["base"]), complex(e["u"][0], e["u"][1]), complex(e["v"][0], e["v"][1]))
            for e in obj.get("expos", [])
        )
        return ArchFactor(complex(obj["c"][0], obj["c"][1]), gammas, expos)
    raise ValueError("unknown factor encoding")
