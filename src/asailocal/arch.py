"""The archimedean theory for E = C over F = R: character parametrization,
the Whittaker basis W_{(a,b)}, closed-form Tate-type integrals, L/eps
assembly, the five explicit test-vector cases, and the Gamma-sum identity.

Conventions: psi(x) = e^{2 pi i a x} with standard a = 1, xi = sqrt(-1);
other (psi, xi) are reached through the change-of-variable scalings.  The
independent oracle is the trapezoidal rule on nested grids, applied to the
explicit Gaussian-monomial integrands; it calls none of the closed forms.

The quadrature runs in pure Python on one dyadic lattice: every node of
every grid is an integer multiple of TRAP_UNIT, and an integrand gives the
sum of its values over an arithmetic progression of lattice indices, so
each level of a row is one call.  A row is one integral, on its own window
and settled by its own test.

The Lemma's oracle is two such levels.  Its y-integral, one per Lemma
datum, is a quad_trapezoid_line row over log |y|; each of its nodes is a
quad_trapezoid row of the radial integral, which depends on |y| alone, so
W(y) and W(-y) share it.  At |y| = e^v the radial integrand factors as
P(v + u) Q(u), summed over the lattice nodes t = u + v/2; for an outer node
v, v/2 + t and t - v/2 are lattice nodes too, so a datum reads both factors
off memoized lattice tables, and a level of a radial row is one sum of
products of two list slices.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, perm
from operator import mul

from .factors import (
    DEFAULT_GRID,
    ArchFactor,
    PoleError,
    REL_TOL_ARCH,
    gammafn,
    loggamma,
    worst_deviation,
)
from .padic import Value, _set

QUAD_TOL = 1e-8


# ---------------------------------------------------------------------------
# characters of C^x and R^x
# ---------------------------------------------------------------------------


class CChar(Value):
    """z -> |z|_C^{lam - n/2} z^n."""

    __slots__ = _fields = ("lam", "n")

    def __init__(self, lam: complex, n: int):
        _set(self, "lam", lam)
        _set(self, "n", n)
        _set(self, "_key", (lam, n))

    def value(self, z):
        """chi(z) for a nonzero complex number z."""
        return abs(z) ** (2 * (complex(self.lam) - self.n / 2)) * z**self.n

    def inv(self) -> "CChar":
        return CChar(-complex(self.lam), -self.n)

    def mul(self, other: "CChar") -> "CChar":
        return CChar(complex(self.lam) + complex(other.lam), self.n + other.n)

    def sigma(self) -> "CChar":
        """z -> chi(conj(z)); same lam, opposite rotation number."""
        return CChar(self.lam, -self.n)

    def restrict_exponents(self) -> tuple[complex, int]:
        """(2 lam, eps) with chi|_{R^x} = sgn^eps |.|^{2 lam}."""
        return 2 * complex(self.lam), self.n % 2


class RChar(Value):
    """sgn^m |.|^lam on R^x."""

    __slots__ = _fields = ("lam", "m")

    def __init__(self, lam: complex, m: int):
        _set(self, "lam", lam)
        _set(self, "m", m)
        _set(self, "_key", (lam, m))

    def value(self, y):
        """chi(y) for a nonzero real number y."""
        return (-1.0) ** (self.m * (y < 0)) * abs(y) ** complex(self.lam)

    def inv(self) -> "RChar":
        return RChar(-complex(self.lam), self.m % 2)


# ---------------------------------------------------------------------------
# archimedean Tate factors (closed forms, validated by the quadrature oracle)
# ---------------------------------------------------------------------------


def lambda_C_R(a: float = 1.0) -> complex:
    """Langlands constant lambda_{C/R}(psi^a) = sgn(a) * i."""
    return (1j) if a > 0 else (-1j)


def tate_L_real(chi: RChar) -> ArchFactor:
    return ArchFactor.zeta_R(complex(chi.lam) + (chi.m % 2))


def tate_eps_real(chi: RChar, a: float = 1.0) -> ArchFactor:
    """eps(s, sgn^m |.|^lam, psi^a) = (sgn(a) i)^m |a|^{s + lam - 1/2}."""
    m = chi.m % 2
    const = (1j * math.copysign(1.0, a)) ** m
    if abs(abs(a) - 1.0) < 1e-15:
        return ArchFactor(c=const)
    return ArchFactor(c=const, expos=((abs(a), 1.0, complex(chi.lam) - 0.5),))


def tate_L_complex(chi: CChar) -> ArchFactor:
    return ArchFactor.zeta_C(complex(chi.lam) + abs(chi.n) / 2)


def tate_eps_complex(chi: CChar, b: complex = 1.0) -> ArchFactor:
    """eps(s, chi, psi_C^b) = chi(b) |b|_C^{s - 1/2} i^{|n|} for
    psi_C = (standard psi) o tr."""
    const = (1j) ** abs(chi.n)
    if b == 1:
        return ArchFactor(c=const)
    const *= chi.value(b)
    bb = abs(complex(b)) ** 2
    return ArchFactor(c=const, expos=((bb, 1.0, -0.5),))


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gl_nodes():
    """The G15 and G30 nodes on [-1, 1] as one 45-node array (G15 first),
    with the G15 and G30 weight vectors."""
    import numpy as np

    x15, w15 = np.polynomial.legendre.leggauss(15)
    x30, w30 = np.polynomial.legendre.leggauss(30)
    return np.concatenate((x15, x30)), w15, w30


def quad_gl(f, a, b, tol: float = QUAD_TOL, args: tuple = ()):
    """Adaptive Gauss-Legendre, breadth-first over whole arrays of panels.

    Row r is the integral of ``f`` over [a_r, b_r]: ``a``, ``b`` and each
    entry of ``args`` broadcast to one shape, the rows, and the result has
    that shape (a complex number when it is scalar).  Each row keeps its own
    panel tree: a panel is accepted when its G15-vs-G30 estimate meets the
    tolerance and is split in two otherwise; the tolerance shrinks by 1.4
    per level, and at depth 24 a panel is accepted within ten times it.
    The test is err <= tol * max(1, |fine|) on the panel's G30 value fine:
    relative for a panel above 1 and absolute below it, so an integral much
    smaller than 1 gets no relative accuracy.

    ``f(x, *row_args)`` maps a flat 1-D array of nodes to the array of its
    values (real or complex, the same shape); ``row_args`` are the entries
    of ``args`` gathered per node, so a parameterised integrand reads which
    integral each node belongs to.  At each depth one call evaluates every
    open panel of every row, 45 nodes each.  A value that is not finite, or
    a panel over ten times the tolerance at depth 24, raises ArithmeticError
    at once, naming the panel's interval.

    Only quad_real_line and the unit tests of the two reach it; both stay
    while bench/tracer.py counts their calls (ROADMAP item 15)."""
    import numpy as np

    x, w15, w30 = _gl_nodes()
    a, b, *args = np.broadcast_arrays(a, b, *args)
    shape = a.shape
    lo, hi = a.astype(float).ravel(), b.astype(float).ravel()
    args = [np.ravel(v) for v in args]
    row = np.arange(lo.size)
    total = np.zeros(lo.size, dtype=complex)
    level_tol = tol
    for depth in range(25):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        nodes = (mid[:, None] + half[:, None] * x).ravel()
        fx = f(nodes, *(np.repeat(v[row], len(x)) for v in args))
        if np.shape(fx) != nodes.shape:
            raise TypeError("the integrand must map the node array to an array of its shape")
        fx = fx.reshape(len(lo), len(x))
        coarse = half * (fx[:, :15] @ w15)
        fine = half * (fx[:, 15:] @ w30)
        del nodes, fx  # not held while the next level evaluates
        # every weight is positive, so a node value that is not finite leaves
        # its panel sum not finite
        bad = ~(np.isfinite(coarse) & np.isfinite(fine))
        if bad.any():
            i = np.argmax(bad)
            raise ArithmeticError(f"integrand is not finite on [{lo[i]}, {hi[i]}]")
        err = np.abs(fine - coarse)
        scale = np.maximum(1.0, np.abs(fine))
        done = err <= level_tol * scale
        if depth == 24:
            bad = err > 10 * level_tol * scale
            if bad.any():
                i = np.argmax(bad)
                raise ArithmeticError(
                    f"quadrature failed to converge on [{lo[i]}, {hi[i]}] (err ~ {err[i]:.2e})"
                )
            done[:] = True
        np.add.at(total, row[done], fine[done])
        if done.all():
            break
        lo, mid, hi, row = lo[~done], mid[~done], hi[~done], row[~done]
        lo, hi, row = np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.concatenate((row, row))
        level_tol /= 1.4
    return total.reshape(shape) if shape else complex(total[0])


def quad_real_line(f, tol: float = QUAD_TOL, L: float = 9.0, args: tuple = ()):
    """Integral over R of ``f``, one row per broadcast entry of ``args``, as
    for quad_gl.  Each row starts on [-L, L] and its window expands until
    that row's boundary panels are negligible; the two new boundary panels
    of every open row go to one quad_gl call.  Handles the
    doubly-exponential Gaussian ends as well as the plain-exponential decay
    near the origin end of d^x-substitutions.  A row whose window passes
    400 raises ArithmeticError at once.

    Only its own unit tests reach it, and bench/tracer.py counts its
    calls."""
    import numpy as np

    args = np.broadcast_arrays(*args)
    shape = args[0].shape if args else ()
    args = [np.ravel(v) for v in args]
    n = int(np.prod(shape))
    out = quad_gl(f, np.full(n, -L), np.full(n, L), tol, args)
    width, step = np.full(n, L), np.full(n, 4.0)
    open_ = np.arange(n)
    while open_.size:
        w, st = width[open_], step[open_]
        both = quad_gl(
            f,
            np.concatenate((w, -w - st)),
            np.concatenate((w + st, -w)),
            tol,
            [np.tile(v[open_], 2) for v in args],
        )
        extra = both[: open_.size] + both[open_.size :]
        out[open_] += extra
        open_ = open_[np.abs(extra) > 0.3 * tol * np.maximum(1.0, np.abs(out[open_]))]
        width[open_] += step[open_]
        step[open_] *= 1.3
        if (width[open_] > 400).any():
            w = width[open_].max()
            raise ArithmeticError(f"integrand tail does not decay beyond [{-w}, {w}]")
    return out.reshape(shape) if shape else complex(out[0])


# ---------------------------------------------------------------------------
# nested trapezoid sums on a dyadic lattice
# ---------------------------------------------------------------------------

# a row's first grid has step TRAP_H0 and at least 2 intervals; a row that
# has not settled after TRAP_HALVINGS halvings of it raises
TRAP_H0 = 0.5
TRAP_HALVINGS = 10
# every node of every level is a lattice node k * TRAP_UNIT, k an integer:
# TRAP_UNIT is the step after the last halving, and the product is exact
_SPAN = 1 << TRAP_HALVINGS  # lattice indices per TRAP_H0
TRAP_UNIT = TRAP_H0 / _SPAN
# a row whose last two sums are both below this in modulus settles: its
# values are subnormal or 0, and no relative test on them can pass
TRAP_UNDERFLOW = 1e-280
# a window ends where its integrand has fallen to e^-WINDOW_DROP of its peak
WINDOW_DROP = 40.0
# quad_trapezoid_line starts on [-LINE_START, LINE_START] at step TRAP_H0
# and grows an end by LINE_GROW at a time; both are multiples of TRAP_H0
LINE_START = 6.0
LINE_GROW = 4.0


def _not_finite(i0: int, i1: int) -> ArithmeticError:
    return ArithmeticError(f"integrand is not finite on [{i0 * TRAP_UNIT}, {i1 * TRAP_UNIT}]")


def _settle(f, i0: int, i1: int, total, tol: float) -> complex:
    """Refine ``total``, the trapezoid sum of ``f`` on the window [i0, i1]
    of lattice indices at step TRAP_H0, by halving the step until the sums
    settle.

    At each level ``f`` gives the sum of the new midpoints, and
    T_h = T_2h / 2 + h (that sum).  The sums settle when
    |T_h - T_2h| <= tol |T_h|, a relative test, or when both are below
    TRAP_UNDERFLOW in modulus.  A sum that is not finite, and so any value
    that is not finite, raises ArithmeticError naming the window at once,
    and so do sums still apart after TRAP_HALVINGS levels."""
    step, h = _SPAN, TRAP_H0
    for _ in range(TRAP_HALVINGS):
        half, h = step // 2, h / 2
        mids = f(i0 + half, i1, step)
        if not cmath.isfinite(mids):
            raise _not_finite(i0, i1)
        new = total / 2 + h * mids
        if abs(new - total) <= tol * abs(new) or max(abs(new), abs(total)) < TRAP_UNDERFLOW:
            return complex(new)
        total, step = new, half
    raise ArithmeticError(
        f"trapezoid sums did not settle on [{i0 * TRAP_UNIT}, {i1 * TRAP_UNIT}] in {TRAP_HALVINGS} halvings"
    )


def quad_trapezoid(f, lo: float, hi: float, tol: float = QUAD_TOL) -> complex:
    """The integral of an integrand over the window [lo, hi], widened to the
    lattice, by nested trapezoid sums.

    ``f(start, stop, step)`` is the sum of the integrand over the lattice
    nodes k * TRAP_UNIT, k in range(start, stop, step).  The window snaps
    outward to multiples of TRAP_H0, with at least 2 intervals; the first
    grid has step TRAP_H0, and the step halves until the sums settle (see
    _settle).  For an integrand analytic in a strip about the window and
    negligible at its ends the sums converge geometrically in 1/h
    (Trefethen and Weideman, SIAM Review 56, 2014), so a settled sum is far
    more accurate than ``tol``."""
    i0 = math.floor(lo / TRAP_H0) * _SPAN
    i1 = max(math.ceil(hi / TRAP_H0) * _SPAN, i0 + 2 * _SPAN)
    inner = f(i0 + _SPAN, i1, _SPAN)
    if not cmath.isfinite(inner):
        raise _not_finite(i0, i1)
    ends = f(i0, i1 + 1, i1 - i0)
    if not cmath.isfinite(ends):
        raise _not_finite(i0, i1)
    return _settle(f, i0, i1, TRAP_H0 * (inner + ends / 2), tol)


def quad_trapezoid_line(f, tol: float) -> complex:
    """The integral over R of an integrand, ``f`` as in quad_trapezoid, by
    nested trapezoid sums on a window grown from [-LINE_START, LINE_START].

    The first grid has step TRAP_H0, and ``f`` gives its values one node at
    a time.  While |f| at an end of the grid is above e^-WINDOW_DROP of the
    largest value sampled, that end moves out by LINE_GROW, and the grid
    takes the new nodes there.  A window that would pass [-400, 400] raises
    ArithmeticError, naming it.  Then the step halves as in quad_trapezoid."""

    def at(k: int):
        value = f(k, k + 1, 1)
        if not cmath.isfinite(value):
            raise _not_finite(lo, hi)
        return value

    hi = round(LINE_START / TRAP_H0) * _SPAN
    lo = -hi
    grow = round(LINE_GROW / TRAP_H0) * _SPAN
    values = [at(k) for k in range(lo, hi + 1, _SPAN)]
    peak = max(map(abs, values))
    while True:
        floor = math.exp(-WINDOW_DROP) * peak
        left, right = abs(values[0]) > floor, abs(values[-1]) > floor
        if not (left or right):
            break
        lo, hi = lo - grow * left, hi + grow * right
        if lo * TRAP_UNIT < -400 or hi * TRAP_UNIT > 400:
            raise ArithmeticError(f"integrand tail does not decay beyond [{lo * TRAP_UNIT}, {hi * TRAP_UNIT}]")
        new_left = [at(k) for k in range(lo, lo + grow, _SPAN)] if left else []
        new_right = [at(k) for k in range(hi - grow + _SPAN, hi + 1, _SPAN)] if right else []
        values = new_left + values + new_right
        peak = max(peak, *map(abs, new_left + new_right))
    total = TRAP_H0 * (sum(values[1:-1]) + (values[0] + values[-1]) / 2)
    return _settle(f, lo, hi, total, tol)


# ---------------------------------------------------------------------------
# Whittaker basis values and Tate-type integrals
# ---------------------------------------------------------------------------


def selection_rule_ok(idx_a, idx_b, mu: CChar, nu: CChar) -> bool:
    a1, a2 = idx_a
    b1, b2 = idx_b
    return a1 - a2 + mu.n == b1 - b2 + nu.n


# exp of a real part at or below EXP_UNDERFLOW is exactly 0.0 in double
# precision (it underflows below about -745.13), and above EXP_OVERFLOW it
# is past the float range
EXP_UNDERFLOW = -746.0
EXP_OVERFLOW = 709.78


def _gauss_exps(c: complex, sign: int, xs: list) -> list:
    """e^{c x - 2 pi e^{2 sign x}} (sign = +-1) at each x of ``xs``, as
    complex numbers.  Where the real part r of the exponent is at or below
    EXP_UNDERFLOW the value is exactly 0, which is what the exp gives there;
    above EXP_OVERFLOW it is inf, so that no OverflowError escapes and the
    quadrature names its window instead.  Otherwise it is e^r at the angle
    Im(c) x, as cmath.exp gives it."""
    a, b, two_pi, exp = c.real, c.imag, 2 * math.pi, math.exp
    under, over, rect = EXP_UNDERFLOW, EXP_OVERFLOW, cmath.rect
    # past sign x = 354, e^{2 sign x} alone nears the float range: r is far below 0
    rs = [a * x - two_pi * exp(2 * sign * x) if sign * x < 354 else under for x in xs]
    return [
        rect(exp(r), b * x) if under < r < over else 0j if r <= under else complex(math.inf)
        for r, x in zip(rs, xs)
    ]


class _LatticeTable:
    """g(k * TRAP_UNIT) at lattice indices k, memoized: for each spacing d
    (a power of two, at most TRAP_H0's), one list of g at the multiples of
    d over the indices asked for at that spacing, extended on demand.
    ``fill`` maps a list of points to the list of g's values there.  A
    node's value has the same bits in every list, since k * TRAP_UNIT is
    exact."""

    __slots__ = ("fill", "lists")

    def __init__(self, fill):
        self.fill = fill
        self.lists = {}  # spacing d -> [first index, values, end index]

    def run(self, start: int, stop: int, step: int) -> list:
        """g at the nodes k * TRAP_UNIT, k in range(start, stop, step)."""
        d = (start | step) & -(start | step)  # the largest power of two dividing every k
        if d > _SPAN:
            d = _SPAN
        entry = self.lists.get(d)
        if entry is None or start < entry[0] or stop > entry[2]:
            entry = self._cover(d, start, stop)
        first = entry[0]
        return entry[1][(start - first) // d : (stop - first + d - 1) // d : step // d]

    def _cover(self, d: int, start: int, stop: int) -> list:
        """The entry of spacing d, extended to hold every multiple of d in
        [start, stop)."""
        stop = start + (stop - start + d - 1) // d * d
        entry = self.lists.setdefault(d, [start, [], start])
        first, values, end = entry
        if start < first:
            values[:0] = self.fill([k * TRAP_UNIT for k in range(start, first, d)])
            entry[0] = start
        if stop > end:
            values += self.fill([k * TRAP_UNIT for k in range(end, stop, d)])
            entry[2] = stop
        return entry


def whittaker_window(ay: float, c: float) -> tuple:
    """The window (lo, hi) in u of the radial integrand at |y| = ``ay`` with
    c = Re(w) + A - B: where the real exponent
    phi(u) = c u - 2 pi (ay^2 e^{2u} + e^{-2u}) of its modulus, ay^A aside,
    is within WINDOW_DROP of its peak.

    phi is concave.  At its peak u0, P = ay^2 e^{2 u0} and Q = e^{-2 u0}
    solve P - Q = c / (4 pi) and P Q = ay^2: the larger of the two is the
    quadratic's root without cancellation, the smaller comes in log space,
    so a tiny ay overflows nothing.  With p = 2 pi P and q = 2 pi Q, the
    drop phi(u0) - phi(u0 + x) is d(x) = p (e^{2x} - 1) + q (e^{-2x} - 1)
    - c x, convex in x; each edge is an x with d(x) in [WINDOW_DROP,
    WINDOW_DROP + 1], found by Newton's method aimed at the middle of that
    band, aim = WINDOW_DROP + 1/2.  The
    right edge starts where p (e^{2x} - 1) = aim + q, or, for c < 0, where
    -c x = aim + q if that comes first (the left edge likewise): outside
    the band, as the other terms are at least -q, unless -c x shrinks on
    that side.  From inside, one Newton step along the tangent of the
    convex d lands outside (at the peak, where the slope is 0, a step of
    1/4 outward); from outside, Newton's method moves the edge
    monotonically inward into the band."""
    big = (math.hypot(c, 8 * math.pi * ay) + abs(c)) / (8 * math.pi)
    log_big = math.log(big)
    log_small = 2 * math.log(ay) - log_big
    lp, lq = (log_big, log_small) if c >= 0 else (log_small, log_big)
    p, q = 2 * math.pi * math.exp(lp), 2 * math.pi * math.exp(lq)

    two_pi, aim = 2 * math.pi, WINDOW_DROP + 0.5  # Newton aims at the middle of the band
    edges = []
    for s, log_near, near, far in ((-1, lq, q, p), (1, lp, p, q)):
        # near (e^{2 s x} - 1) = aim + far, near = 2 pi e^{log_near}
        x = s * (math.log((aim + far + near) / two_pi) - log_near) / 2
        if s * c < 0:
            x = s * min(s * x, (aim + far) / abs(c))
        while True:
            # the drop at x and its slope
            ep, eq = two_pi * math.exp(lp + 2 * x), two_pi * math.exp(lq - 2 * x)
            d, slope = (ep - p) + (eq - q) - c * x, 2 * (ep - eq) - c
            if d > WINDOW_DROP + 1 or d < WINDOW_DROP and s * slope > 0:
                x -= (d - aim) / slope
            elif d < WINDOW_DROP:
                x += s / 4  # at the peak, where the slope is 0
            else:
                break
        edges.append(x - lq / 2)  # u0 = -log(Q) / 2
    return tuple(edges)


def _factors(A: int, B: int, w: complex) -> tuple:
    """P(x) = e^{A x - 2 pi e^{2x}} and Q(u) = e^{(w - B) u - 2 pi e^{-2u}},
    each at every point of a list: the radial integrand at |y| = e^v is
    P(v + u) Q(u).  P is real but given as complex numbers, because Python
    multiplies a complex by a complex faster than a float by one."""
    return partial(_gauss_exps, complex(A), 1), partial(_gauss_exps, w - B, -1)


def _radial(ay: float, v: float, c: float, sums, tol: float) -> complex:
    """int_R P(v + u) Q(u) du at |y| = ``ay`` = e^v, c = Re(w) + A - B: one
    quad_trapezoid row over t = u + v/2 on the whittaker_window, where
    ``sums(start, stop, step)`` is the sum of P(v/2 + t) Q(t - v/2) over
    the lattice nodes t of a progression.

    At c = 0 the modulus of the integrand is symmetric about its peak, u =
    -v/2, which t puts on a node of the first grid.  About a point of the
    lattice two or more levels finer, the reflection would carry the nodes
    of one level onto the new midpoints of the next, the two sums would
    coincide, and the relative test would settle on a wrong sum."""
    lo, hi = whittaker_window(ay, c)
    return quad_trapezoid(sums, lo + v / 2, hi + v / 2, tol)


def _node_sums(v: float, A: int, B: int, w: complex):
    """``sums`` for _radial at |y| = e^v, P and Q computed node by node."""
    (p, q), half = _factors(A, B, w), v / 2

    def sums(start: int, stop: int, step: int) -> complex:
        ts = [k * TRAP_UNIT for k in range(start, stop, step)]
        return sum(map(mul, p([half + t for t in ts]), q([t - half for t in ts])))

    return sums


def whittaker_value_quadrature(
    y: float, idx_a, idx_b, mu: CChar, nu: CChar, tol: float = QUAD_TOL
) -> complex:
    """W_{(a,b)}(diag(y,1)) = 4 pi mu(y)|y| int_0^inf Psi_a(yt) Psi_b(1/t)
    mu nu^{-1}(t) d t/t, by nested trapezoid sums on t = e^u, for a finite
    nonzero y.

    With mu nu^{-1}(t) = t^w for t > 0, A = a1 + a2, B = b1 + b2 and
    |y| = e^v, the radial integrand is P(v + u) Q(u) (see _factors), one
    _radial row.  v is off the lattice, so P and Q are computed node by
    node.  ``tol`` is quad_trapezoid's, relative, so the value keeps its
    relative accuracy however small |W| is, down to TRAP_UNDERFLOW."""
    if not (y and math.isfinite(y)):
        raise ValueError("y must be finite and nonzero")
    if not selection_rule_ok(idx_a, idx_b, mu, nu):
        return 0j
    A, B = sum(idx_a), sum(idx_b)
    w = 2 * (complex(mu.lam) - complex(nu.lam))
    v = math.log(abs(y))
    radial = _radial(abs(y), v, w.real + A - B, _node_sums(v, A, B, w), tol)
    return 4 * math.pi * mu.value(y) * abs(y) * math.copysign(1.0, y) ** A * radial


def zeta_whittaker_closed(s: complex, idx_a, idx_b, chi: RChar, mu: CChar, nu: CChar) -> complex:
    """Closed form of zeta(s, W_{(a,b)}, chi) for chi = sgn^m |.|^lam:
    a parity factor times (2 pi)-powers and two Gamma values; exact zeros
    when the rotation selection rule or the parity vanishes."""
    if not selection_rule_ok(idx_a, idx_b, mu, nu):
        return 0j
    a1, a2 = idx_a
    b1, b2 = idx_b
    m = chi.m % 2
    if (mu.n + m + a1 + a2) % 2 != 0:
        return 0j
    lam = complex(chi.lam)
    l1, l2 = complex(mu.lam), complex(nu.lam)
    A, B = a1 + a2, b1 + b2
    expo = s + lam + l1 + l2 - 1 + Fraction(A + B, 2)
    g1 = loggamma((s + lam + 2 * l1 + A) / 2)
    g2 = loggamma((s + lam + 2 * l2 + B) / 2)
    return cmath.exp(
        -complex(expo) * math.log(2 * math.pi) + g1 + g2
    )


def zeta_whittaker_quadrature(s: complex, data) -> list:
    """2-D quadrature of zeta(s, W_{(a,b)}, chi) for each Lemma datum
    (idx_a, idx_b, chi, mu, nu) of ``data``: the y-integral over R^x of the
    quadrature Whittaker value; the independent oracle for the Lemma.  Both
    integrals are nested trapezoid sums to the relative tolerance 1e-11.

    A datum's y-integral is one quad_trapezoid_line row over v = log |y|;
    each of its nodes takes the radial integral at |y| = e^v, its own
    _radial row, for both y = +-e^v.  The row's factors P(v/2 + t) and
    Q(t - v/2) sit at lattice nodes, so a datum reads them off two lattice
    tables that all its radial rows share (P, which depends on A alone, is
    shared by the data of equal A), and each level of a radial row is one
    sum of products of two slices.  A table holds each node's own value, so
    a datum gets the same bits alone or among others.  A datum off the
    selection rule is an exact 0."""
    p_tables: dict = {}
    return [_lemma_integral(s, datum, p_tables, 1e-11) for datum in data]


def _lemma_integral(s: complex, datum, p_tables: dict, tol: float) -> complex:
    """int_R (W(e^v) chi(e^v) + W(-e^v) chi(-e^v)) e^{(s - 1) v} dv for one
    Lemma datum, |y|^{s-1} d^x y with y = +-e^v; ``p_tables`` holds the
    table of P for each A."""
    idx_a, idx_b, chi, mu, nu = datum
    if not selection_rule_ok(idx_a, idx_b, mu, nu):
        return 0j
    A, B = sum(idx_a), sum(idx_b)
    w = 2 * (complex(mu.lam) - complex(nu.lam))
    p, q = _factors(A, B, w)
    P, Q = p_tables.setdefault(A, _LatticeTable(p)), _LatticeTable(q)
    c, s1 = w.real + A - B, complex(s - 1)

    def node(k: int) -> complex:
        v = k * TRAP_UNIT
        y = math.exp(v)
        if k % 2:  # v/2 is off the lattice, at the last level of an outer row
            sums = _node_sums(v, A, B, w)
        else:
            m = k // 2  # v/2 = m TRAP_UNIT

            def sums(start: int, stop: int, step: int) -> complex:
                return sum(map(mul, P.run(start + m, stop + m, step), Q.run(start - m, stop - m, step)))

        # W(+-y) = 4 pi mu(+-y) y (+-1)^A times the one radial integral
        radial = 4 * math.pi * y * _radial(y, v, c, sums, tol)
        w_p, w_m = mu.value(y) * radial, (-1) ** A * mu.value(-y) * radial
        return (w_p * chi.value(y) + w_m * chi.value(-y)) * cmath.exp(s1 * v)

    return quad_trapezoid_line(lambda a, b, step: sum(map(node, range(a, b, step))), tol)


# ---------------------------------------------------------------------------
# Fourier transforms of the Phi basis (Bargmann monomials)
# ---------------------------------------------------------------------------


def phi_hat_monomial(c1: int, c2: int) -> dict:
    """Transform of Phi_{(c1,c2)}(x,y) = (x+iy)^{c1} (x-iy)^{c2} e^{-pi r^2}
    under the symplectic convention at the standard psi: a dict
    {(c1', c2'): coefficient} over the same basis."""
    M = max(c1, c2)
    mn = min(c1, c2)
    # p(j) = (M + j)_mn, a falling factorial, expands in the falling
    # factorials j^(m) with beta_m = Delta^m p(0) / m! = C(mn, m) (M)_(mn-m),
    # and sum_j x^j/j! j^(m) = x^m e^x collapses the Bargmann series to a
    # polynomial times the Gaussian
    base = (-1.0) ** (M - c1) * math.pi ** (M - c1 - c2)
    coeff = lambda m: base * float(comb(mn, m) * perm(M, mn - m)) * (-math.pi) ** m
    return {(M - c2 + m, M - c1 + m): coeff(m) for m in range(mn + 1)}


def phi_hat(phi: dict) -> dict:
    """Transform of a combination {(c1,c2): coeff} of Phi-monomials."""
    out: dict = {}
    for (c1, c2), coef in phi.items():
        for key, val in phi_hat_monomial(c1, c2).items():
            out[key] = out.get(key, 0.0) + coef * val
    return {k: v for k, v in out.items() if abs(v) > 1e-15}


def phi_tate_integral(phi: dict, s: complex, omega_exponent: complex) -> complex:
    """int_0^inf Phi((0,t)) t^{2 omega_exponent} t^{2s} dt/t for Phi given on
    the monomial basis; omega_exponent is the |.|-exponent of the central
    character factor."""
    out = 0j
    for (c1, c2), coef in phi.items():
        c = c1 + c2
        rot = (1j) ** ((c1 - c2) % 4)
        arg = s + omega_exponent + Fraction(c, 2)
        out += coef * rot * 0.5 * cmath.exp(-complex(arg) * math.log(math.pi) + loggamma(complex(arg)))
    return out


# ---------------------------------------------------------------------------
# L / eps on the Galois side
# ---------------------------------------------------------------------------


def _normalized(mu: CChar, nu: CChar) -> tuple[CChar, CChar]:
    """Order so that n1 >= n2 (Ind(mu,nu) ~ Ind(nu,mu))."""
    if mu.n >= nu.n:
        return mu, nu
    return nu, mu


def _gal_constituents_arch(mu: CChar, nu: CChar) -> tuple[RChar, RChar, CChar]:
    """mu|_R, nu|_R and mu nu^sigma, after ordering n1 >= n2."""
    mu, nu = _normalized(mu, nu)
    t1, e1 = mu.restrict_exponents()
    t2, e2 = nu.restrict_exponents()
    return RChar(t1, e1), RChar(t2, e2), mu.mul(nu.sigma())


def _omega0(mu: CChar, nu: CChar) -> RChar:
    """omega_0 = (mu nu)|_{R^x}, the central character on R^x."""
    t1, e1 = mu.restrict_exponents()
    t2, e2 = nu.restrict_exponents()
    return RChar(t1 + t2, (e1 + e2) % 2)


def l_gal_arch(mu: CChar, nu: CChar, dual: bool = False) -> ArchFactor:
    """L_Gal(s, As pi) = L(s, mu|_R) L(s, nu|_R) L(s, mu nu^sigma); with
    ``dual``, of the inverse constituents (the contragredient)."""
    r1, r2, c = _gal_constituents_arch(mu, nu)
    if dual:
        r1, r2, c = r1.inv(), r2.inv(), c.inv()
    return tate_L_real(r1) * tate_L_real(r2) * tate_L_complex(c)


def eps_gal_arch(mu: CChar, nu: CChar, a: float = 1.0) -> ArchFactor:
    """eps_Gal = lambda_{C/R}(psi^a) eps(mu|_R) eps(nu|_R) eps(mu nu^sigma, psi_C^a).

    At a = 1 this is the constant i^{1 + e1 + e2 + n0}."""
    r1, r2, c = _gal_constituents_arch(mu, nu)
    out = tate_eps_real(r1, a) * tate_eps_real(r2, a) * tate_eps_complex(c, a)
    return out * lambda_C_R(a)


# ---------------------------------------------------------------------------
# the five cases
# ---------------------------------------------------------------------------


class CaseDatum(Value):
    __slots__ = _fields = ("case_id", "w_terms", "phi", "c_const", "c_dual_const", "eps_rs")

    def __init__(
        self, case_id: int, w_terms: tuple, phi: tuple, c_const: complex,
        c_dual_const: complex, eps_rs: complex,
    ):
        _set(self, "case_id", case_id)
        _set(self, "w_terms", w_terms)  # ((coeff, (a1,a2), (b1,b2)), ...)
        _set(self, "phi", phi)  # ((c1,c2), ...) -> dict in assembly
        _set(self, "c_const", c_const)
        _set(self, "c_dual_const", c_dual_const)
        _set(self, "eps_rs", eps_rs)
        _set(self, "_key", (case_id, w_terms, phi, c_const, c_dual_const, eps_rs))


def _pair_vector_terms(n0: int, pow_plus: int, pow_minus: int) -> tuple:
    """Coefficients of <W_vec, (X+iY)^p (X-iY)^q>: the X^j Y^{n0-j} expansion
    paired against the binomial Whittaker combination."""
    gam = [0j] * (n0 + 1)
    for k in range(pow_plus + 1):
        for l in range(pow_minus + 1):
            gam[k + l] += (
                comb(pow_plus, k)
                * comb(pow_minus, l)
                * (1j ** (pow_plus - k))
                * ((-1j) ** (pow_minus - l))
            )
    terms = []
    for ell in range(n0 + 1):
        coeff = (-1) ** ell * gam[n0 - ell]
        if coeff != 0:
            terms.append((coeff, (0, ell), (n0 - ell, 0)))
    return tuple(terms)


def case_table(mu: CChar, nu: CChar) -> CaseDatum:
    """The paper-tabulated (W, Phi, constants) datum for the parity class of
    (n0, n1) after normalizing n1 >= n2."""
    mu, nu = _normalized(mu, nu)
    n1, n2 = mu.n, nu.n
    n0 = n1 - n2
    pi = math.pi
    if n0 % 2 == 0 and n1 % 2 == 0:
        terms = _pair_vector_terms(n0, n0 // 2, n0 // 2)
        return CaseDatum(1, terms, ((0, 0),), pi / 2, pi / 2, 1 + 0j)
    if n0 % 2 == 0 and n0 >= 2 and n1 % 2 == 1:
        terms = _pair_vector_terms(n0, n0 // 2 + 1, n0 // 2 - 1)
        return CaseDatum(2, terms, ((0, 2),), 1j * pi, 1j * pi, 1 + 0j)
    if n0 % 2 == 1 and n1 % 2 == 0:
        terms = _pair_vector_terms(n0, (n0 + 1) // 2, (n0 - 1) // 2)
        return CaseDatum(3, terms, ((0, 1),), pi / (2j), pi / 2, 1j)
    if n0 % 2 == 1 and n1 % 2 == 1:
        terms = _pair_vector_terms(n0, (n0 + 1) // 2, (n0 - 1) // 2)
        return CaseDatum(4, terms, ((0, 1),), -pi / 2, 1j * pi / 2, -1j)
    # n0 = 0, n1 odd: the type-2 vector paired with X^2 + Y^2
    terms = ((-1 + 0j, (0, 1), (0, 1)), (-1 + 0j, (1, 0), (1, 0)))
    return CaseDatum(5, terms, ((0, 0),), -pi / 2, -pi / 2, 1 + 0j)


def zeta_integral_case(mu: CChar, nu: CChar, grid=DEFAULT_GRID) -> dict:
    """Assemble Z(s, W, Phi) and the dual integral for the case datum; check
    that Z / L_Gal is the tabulated constant on the grid, extract eps_RS, and
    check the relation to eps_Gal, each to ``REL_TOL_ARCH``."""
    mu, nu = _normalized(mu, nu)
    datum = case_table(mu, nu)
    Lam = complex(mu.lam) + complex(nu.lam)
    phi = {c: 1.0 for c in datum.phi}
    phihat = phi_hat(phi)
    L = l_gal_arch(mu, nu)
    Ld = l_gal_arch(mu, nu, dual=True)
    trivial, omega0_inv = RChar(0, 0), _omega0(mu, nu).inv()

    def Z(s: complex, chi: RChar, phi_: dict, lam: complex) -> complex:
        zw = sum(
            coeff * zeta_whittaker_closed(s, ia, ib, chi, mu, nu)
            for coeff, ia, ib in datum.w_terms
        )
        return zw * phi_tate_integral(phi_, s, lam)

    ratios, ratios_dual = [], []
    for s in grid:
        try:
            ratios.append(Z(s, trivial, phi, Lam) / L.eval(s))
            ratios_dual.append(Z(1 - s, omega0_inv, phihat, -Lam) / Ld.eval(1 - s))
        except PoleError as exc:
            # a Gamma argument or 1 - s hit the pole: it is s's fault
            raise PoleError(s) from exc

    def mean_and_spread(rs: list) -> tuple[complex, float]:
        m = sum(rs) / len(rs)
        return m, worst_deviation(abs(r - m) for r in rs) / max(abs(m), 1e-30)

    cbar, spread = mean_and_spread(ratios)
    cbar_d, spread_d = mean_and_spread(ratios_dual)
    spread = worst_deviation((spread, spread_d))
    ratio_dev = worst_deviation((
        abs(cbar - datum.c_const) / abs(datum.c_const),
        abs(cbar_d - datum.c_dual_const) / abs(datum.c_dual_const),
    ))
    eps_rs = cbar_d / cbar
    eps_gal = eps_gal_arch(mu, nu).eval(0.5)
    # relation: omega^{-1}(xi) |xi|_C^{-s+1/2} lambda(psi) eps_RS = eps_Gal
    omega_xi = mu.value(1j) * nu.value(1j)
    relation_lhs = (1 / omega_xi) * lambda_C_R(1.0) * eps_rs
    relation_dev = abs(relation_lhs - eps_gal) / abs(eps_gal)
    return {
        "case": datum.case_id,
        "c": cbar,
        "c_expected": datum.c_const,
        "c_dual": cbar_d,
        "c_dual_expected": datum.c_dual_const,
        "spread": spread,
        "ratio_dev": ratio_dev,
        "eps_rs": eps_rs,
        "eps_rs_expected": datum.eps_rs,
        "eps_gal": eps_gal,
        "relation_dev": relation_dev,
        "ok": all(
            dev < REL_TOL_ARCH
            for dev in (spread, ratio_dev, abs(eps_rs - datum.eps_rs), relation_dev)
        ),
    }


def eps_rs_arch(mu: CChar, nu: CChar, b: float = 1.0, c_xi: float = 1.0) -> ArchFactor:
    """eps_RS(s, As pi, psi^b, c_xi * i) via the tabulated constant and the
    change-of-variable rule omega(b^2 c)|b^2 c|^{2s-1}."""
    mu, nu = _normalized(mu, nu)
    arg = b * b * c_xi
    scale = _omega0(mu, nu).value(arg)
    return ArchFactor(c=case_table(mu, nu).eps_rs * scale, expos=((abs(arg), 2.0, -1.0),))


# ---------------------------------------------------------------------------
# the combinatorial Gamma identity
# ---------------------------------------------------------------------------


def combinatorial_identity(N: int, z: complex, w: complex) -> tuple[complex, complex, float]:
    """lhs = sum_l C(N,l) Gamma(z+l) Gamma(w-l); rhs = Gamma(z) Gamma(w-N)
    Gamma(z+w) / Gamma(z+w-N); returns (lhs, rhs, relative deviation)."""
    lhs = sum(comb(N, ell) * gammafn(z + ell) * gammafn(w - ell) for ell in range(N + 1))
    rhs = cmath.exp(
        loggamma(z) + loggamma(w - N) + loggamma(z + w) - loggamma(z + w - N)
    )
    dev = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return lhs, rhs, dev
