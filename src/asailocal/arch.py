"""The archimedean theory for E = C over F = R: character parametrization,
the Whittaker basis W_{(a,b)}, closed-form Tate-type integrals, L/eps
assembly, the five explicit test-vector cases, and the Gamma-sum identity.

Conventions: psi(x) = e^{2 pi i a x} with standard a = 1, xi = sqrt(-1);
other (psi, xi) are reached through the change-of-variable scalings.  The
independent oracle is the trapezoidal rule on nested grids, applied to the
explicit Gaussian-monomial integrands; it calls none of the closed forms.

The quadrature is breadth-first over rows: one quad_trapezoid call computes
a batch of integrals, one per row, each on its own window and its own grid,
and at each level evaluates the integrand once, on a flat array of the new
midpoints of every row that has not settled.  An integrand maps that node
array to the array of its values; a parameterised one also receives its
per-row parameters gathered per node, so it knows which integral each node
belongs to.  A single integral is one row, and an integrand of the nodes
alone is the whole interface.

The Lemma's oracle is two such levels.  Its y-integrals, one per Lemma
datum, are the rows of one quad_trapezoid_line call over log |y|; every
level of it hands all its nodes, over every datum, as the rows of inner
quad_trapezoid calls of the radial integral.  That integral depends on |y|
alone, so W(y) and W(-y) share one radial row.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import comb, perm

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
        """chi(z) for a number, or elementwise for a numpy array."""
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
        """chi(y) for a real number, or elementwise for a numpy array."""
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
# nested trapezoid sums
# ---------------------------------------------------------------------------

# a row's first grid has a step of about TRAP_H0 and at least 2 intervals;
# a row that has not settled after TRAP_HALVINGS halvings of it raises
TRAP_H0 = 0.5
TRAP_HALVINGS = 10
# a row whose last two sums are both below this in modulus settles: its
# values are subnormal or 0, and no relative test on them can pass
TRAP_UNDERFLOW = 1e-280
# a window ends where its integrand has fallen to e^-WINDOW_DROP of its peak
WINDOW_DROP = 40.0
# quad_trapezoid_line starts on [-LINE_START, LINE_START] at step TRAP_H0
# and grows an end by LINE_GROW at a time; both are multiples of TRAP_H0
LINE_START = 6.0
LINE_GROW = 4.0


def _grid_values(f, rows, lo, hi, n, shift, args):
    """One call of ``f`` on the points lo_r + (k + shift) (hi_r - lo_r) / n_r
    of every row r in ``rows``, with that row's ``args`` gathered per point:
    k = 0..n_r for shift 0 (the whole grid), k < n_r for shift 1/2 (its
    midpoints).  Returns the values, row after row, and where each row's
    values start.  A value that is not finite raises ArithmeticError at
    once, naming its row's interval."""
    import numpy as np

    count = n[rows] + (shift == 0)
    row = np.repeat(rows, count)
    start = np.cumsum(count) - count
    k = np.arange(row.size) - np.repeat(start, count) + shift
    x = lo[row] + k * ((hi - lo) / n)[row]
    fx = f(x, *(v[row] for v in args))
    if np.shape(fx) != x.shape:
        raise TypeError("the integrand must map the node array to an array of its shape")
    bad = ~np.isfinite(fx)
    if bad.any():
        r = row[np.argmax(bad)]
        raise ArithmeticError(f"integrand is not finite on [{lo[r]}, {hi[r]}]")
    return fx, start


def _halve_until_settled(f, lo, hi, n, total, tol, args):
    """Refine the trapezoid sums ``total``, row r on n_r equal intervals of
    [lo_r, hi_r], by halving every open row's step until it settles.

    Each level is one _grid_values call on the new midpoints of every open
    row, and T_h = T_2h / 2 + h (sum of those values).  A row settles when
    |T_h - T_2h| <= tol |T_h|, a relative test, or when both sums are below
    TRAP_UNDERFLOW in modulus.  A row still open after TRAP_HALVINGS levels
    raises ArithmeticError naming its interval.  Updates ``n`` and
    ``total`` in place and returns ``total``."""
    import numpy as np

    open_ = np.arange(lo.size)
    for _ in range(TRAP_HALVINGS):
        fx, start = _grid_values(f, open_, lo, hi, n, 0.5, args)
        n[open_] *= 2
        prev = total[open_]
        new = prev / 2 + (hi - lo)[open_] / n[open_] * np.add.reduceat(fx, start)
        total[open_] = new
        settled = np.abs(new - prev) <= tol * np.abs(new)
        settled |= np.maximum(np.abs(new), np.abs(prev)) < TRAP_UNDERFLOW
        open_ = open_[~settled]
        if not open_.size:
            return total
    r = open_[0]
    raise ArithmeticError(
        f"trapezoid sums did not settle on [{lo[r]}, {hi[r]}] in {TRAP_HALVINGS} halvings"
    )


def quad_trapezoid(f, lo, hi, tol: float = QUAD_TOL, args: tuple = ()):
    """Nested trapezoid sums, breadth-first over rows, each row on its own
    fixed window.

    Row r is the integral of ``f`` over [lo_r, hi_r]; ``lo``, ``hi`` and
    each entry of ``args`` broadcast to one shape, the rows, and the result
    has that shape (a complex number when it is scalar).  ``f`` is called as
    in quad_gl, once per level: first on every row's grid of step about
    TRAP_H0, then on the new midpoints of every row not yet settled (see
    _halve_until_settled).  For an integrand analytic in a strip about the
    window and negligible at its ends the sums converge geometrically in
    1/h (Trefethen and Weideman, SIAM Review 56, 2014), so a settled row is
    far more accurate than ``tol``."""
    import numpy as np

    lo, hi, *args = np.broadcast_arrays(lo, hi, *args)
    shape = lo.shape
    lo, hi = lo.astype(float).ravel(), hi.astype(float).ravel()
    args = [np.ravel(v) for v in args]
    n = np.maximum(2, np.ceil((hi - lo) / TRAP_H0)).astype(int)
    fx, start = _grid_values(f, np.arange(lo.size), lo, hi, n, 0.0, args)
    ends = (fx[start] + fx[start + n]) / 2
    total = ((hi - lo) / n * (np.add.reduceat(fx, start) - ends)).astype(complex)
    total = _halve_until_settled(f, lo, hi, n, total, tol, args)
    return total.reshape(shape) if shape else complex(total[0])


def quad_trapezoid_line(f, tol: float, args: tuple = ()):
    """The integral over R of ``f``, nested trapezoid sums, one row per
    broadcast entry of ``args`` (one row without them), each on a window
    grown from [-LINE_START, LINE_START]; the result has the rows' shape (a
    complex number when it is scalar).  ``f`` is called as in quad_trapezoid.

    Every row's first grid has step TRAP_H0.  While |f| at an end of a row's
    grid is above e^-WINDOW_DROP of the largest value sampled in that row,
    that end moves out by LINE_GROW, so each row grows its own window; one
    call of ``f`` takes the new points at every growing end of every row.  A
    window that would pass [-400, 400] raises ArithmeticError, naming it.
    Then the rows' steps halve together, as in quad_trapezoid."""
    import numpy as np

    args = np.broadcast_arrays(*args)
    shape = args[0].shape if args else ()
    args = [np.ravel(v) for v in args]
    rows = math.prod(shape)
    lo, hi = np.full(rows, -LINE_START), np.full(rows, LINE_START)
    n = np.full(rows, round(2 * LINE_START / TRAP_H0))
    fx, start = _grid_values(f, np.arange(rows), lo, hi, n, 0.0, args)
    fx = np.split(fx, start[1:])  # each row's values, its grid left to right
    peak = np.array([np.abs(v).max() for v in fx])
    points = round(LINE_GROW / TRAP_H0)  # new points at each growing end
    # strip 2r is the left end of row r, strip 2r + 1 its right end
    strip_args = [np.repeat(v, 2) for v in args]
    while True:
        ends = np.abs([(v[0], v[-1]) for v in fx])
        grow = ends > (math.exp(-WINDOW_DROP) * peak)[:, None]
        if not grow.any():
            break
        lo -= LINE_GROW * grow[:, 0]
        hi += LINE_GROW * grow[:, 1]
        if (beyond := (lo < -400) | (hi > 400)).any():
            r = np.argmax(beyond)
            raise ArithmeticError(f"integrand tail does not decay beyond [{lo[r]}, {hi[r]}]")
        # the new points of each growing end: the whole grid of its strip,
        # [lo, lo + LINE_GROW - TRAP_H0] or [hi - LINE_GROW + TRAP_H0, hi]
        first = np.stack((lo, hi - LINE_GROW + TRAP_H0), axis=1).ravel()
        strips = np.flatnonzero(grow)
        last, n_strip = first + LINE_GROW - TRAP_H0, np.full(first.size, points - 1)
        new, start = _grid_values(f, strips, first, last, n_strip, 0.0, strip_args)
        for strip, piece in zip(strips, np.split(new, start[1:])):
            r, right = divmod(int(strip), 2)
            fx[r] = np.concatenate((fx[r], piece) if right else (piece, fx[r]))
            peak[r] = max(peak[r], np.abs(piece).max())
    n = np.array([v.size - 1 for v in fx])
    total = np.array([TRAP_H0 * (v.sum() - (v[0] + v[-1]) / 2) for v in fx])
    total = _halve_until_settled(f, lo, hi, n, total, tol, args)
    return total.reshape(shape) if shape else complex(total[0])


# ---------------------------------------------------------------------------
# Whittaker basis values and Tate-type integrals
# ---------------------------------------------------------------------------


def selection_rule_ok(idx_a, idx_b, mu: CChar, nu: CChar) -> bool:
    a1, a2 = idx_a
    b1, b2 = idx_b
    return a1 - a2 + mu.n == b1 - b2 + nu.n


# exp of a real part at or below this is exactly 0.0 in double precision
# (it underflows below about -745.13)
EXP_UNDERFLOW = -746.0


def _runs(n: int, *keys) -> list:
    """The maximal runs of n nodes on which every key, a number or an array
    of one entry per node, is constant: (start, stop, *the keys there) of
    each run, the keys as Python numbers."""
    import numpy as np

    cut = np.zeros(max(n - 1, 0), dtype=bool)
    for key in keys:
        if np.ndim(key):
            cut |= key[1:] != key[:-1]
    edges = [0, *(np.flatnonzero(cut) + 1).tolist(), n]
    return [
        (start, stop, *(key[start].item() if np.ndim(key) else key for key in keys))
        for start, stop in zip(edges, edges[1:])
        if stop > start
    ]


def whittaker_integrand(u, ay, w, A, B):
    """(yt)^A t^{-B} t^w e^{-2 pi ((yt)^2 + t^{-2})} at t = e^u, node by node,
    for the nodes ``u`` and the row parameters ``ay`` = |y|, ``w``, ``A`` and
    ``B``, each a number or gathered per node.

    Only the live nodes, where the real part Re(w) u - 2 pi ((yt)^2 + t^{-2})
    of the exponent is above EXP_UNDERFLOW (or NaN), get the complex exp and
    the powers; every other node is an exact 0, which is what the exp gives
    there, and when every node is live none is gathered.  On a live node the
    value is that of the single-y integrand, op for op; folding the powers
    into one exp would round them at the scale of the exponent, 4 pi |y|,
    about 1e-14 of the value at |y| = 6.  The integer powers are taken on
    each run of nodes with equal A and B with that run's exponent as a
    scalar: numpy's scalar x ** 2 and x ** -1 are a square and a reciprocal,
    which an array exponent rounds differently.  It works in place: its
    arrays hold the new nodes of every open row of a level, for a block of
    outer nodes of zeta_whittaker_quadrature."""
    import numpy as np

    t = np.exp(u)
    yt = ay * t
    g = yt * yt
    g += 1 / (t * t)
    g *= 2 * math.pi
    re = w.real * u
    re -= g
    live = ~(re <= EXP_UNDERFLOW)
    every = live.all()
    if not every:
        u, t, yt, g = u[live], t[live], yt[live], g[live]
        w, A, B = (v[live] if np.ndim(v) else v for v in (w, A, B))
    z = w * u
    z -= g
    np.exp(z, out=z)
    for start, stop, a, b in _runs(u.size, A, B):
        yt[start:stop] **= a
        t[start:stop] **= -b
    yt *= t
    z *= yt
    if every:
        return z
    out = np.zeros(live.shape, dtype=complex)
    out[live] = z
    return out


def whittaker_window(ay, c):
    """The window (lo, hi) of each row of whittaker_integrand at |y| = ``ay``
    (any shape) and c = Re(w) + A - B, a number or one per row: where the
    real exponent phi(u) = c u - 2 pi (ay^2 e^{2u} + e^{-2u}) of its modulus,
    ay^A aside, is within WINDOW_DROP of its peak.

    phi is concave.  At its peak u0, P = ay^2 e^{2 u0} and Q = e^{-2 u0}
    solve P - Q = c / (4 pi) and P Q = ay^2: the larger of the two is the
    quadratic's root without cancellation, the smaller comes in log space,
    so a tiny ay overflows nothing.  The drop phi(u0) - phi(u0 + x) is
    2 pi (P (e^{2x} - 1) + Q (e^{-2x} - 1)) - c x, convex in x.  Each edge
    starts where the exponential term of its side alone, 2 pi P e^{2x} or
    2 pi Q e^{-2x}, reaches WINDOW_DROP (or at the peak), and is bracketed by
    steps of 1/4, 1/2, 1, ... outward; then Newton's method runs from outside
    the window, which moves it monotonically inward, until the row's drop is
    within 1 of WINDOW_DROP."""
    import numpy as np

    big = (np.hypot(c, 8 * math.pi * ay) + np.abs(c)) / (8 * math.pi)
    log_big = np.log(big)
    log_small = 2 * np.log(ay) - log_big
    lp, lq = np.where(c >= 0, log_big, log_small), np.where(c >= 0, log_small, log_big)
    p, q = np.exp(lp), np.exp(lq)

    def drop(x):
        ep, eq = np.exp(lp + 2 * x), np.exp(lq - 2 * x)
        return 2 * math.pi * ((ep - p) + (eq - q)) - c * x, 4 * math.pi * (ep - eq) - c

    # both edges of every row at once: row 0 left of the peak, row 1 right
    reach = math.log(WINDOW_DROP / (2 * math.pi))
    x = np.stack((-np.maximum(0.0, (reach - lq) / 2), np.maximum(0.0, (reach - lp) / 2)))
    step = np.multiply.outer([-0.25, 0.25], np.ones(np.shape(ay)))
    while (short := drop(x)[0] < WINDOW_DROP).any():
        x = np.where(short, x + step, x)
        step = np.where(short, 2 * step, step)
    while (far := (d := drop(x))[0] > WINDOW_DROP + 1).any():
        x = np.where(far, x - (d[0] - WINDOW_DROP) / d[1], x)
    return x - lq / 2  # u0 = -log(Q) / 2


def _radial_rows(ay, w, A, B, tol: float):
    """int_R whittaker_integrand du of each row, at |y| = ``ay`` with the
    exponents ``w``, ``A`` and ``B``, each a number or one per row (rows of
    equal A and B adjacent, so the integrand takes few runs): one
    quad_trapezoid call, each row on its whittaker_window."""
    lo, hi = whittaker_window(ay, w.real + A - B)
    return quad_trapezoid(whittaker_integrand, lo, hi, tol, args=(ay, w, A, B))


def _whittaker_from_radial(y, mu: CChar, A: int, radial):
    """W(diag(y, 1)) = 4 pi mu(y) |y| sgn(y)^A times the radial integral of
    |y|, which W(y) and W(-y) share; ``radial`` broadcasts against ``y``."""
    import numpy as np

    return 4 * math.pi * mu.value(y) * np.abs(y) * np.sign(y) ** A * radial


def whittaker_value_quadrature(
    y, idx_a, idx_b, mu: CChar, nu: CChar, tol: float = QUAD_TOL
):
    """W_{(a,b)}(diag(y,1)) = 4 pi mu(y)|y| int_0^inf Psi_a(yt) Psi_b(1/t)
    mu nu^{-1}(t) d t/t, by nested trapezoid sums on t = e^u.  ``y`` is a
    finite nonzero number or an array of them; the result has the shape of
    ``y``.

    The radial integral is whittaker_integrand on its whittaker_window and
    depends on |y| alone, so each distinct |y| is one quadrature row, and
    every y of that modulus takes its sign's prefactor mu(y) sgn(y)^A to the
    one sum.  ``tol`` is quad_trapezoid's, relative per row, so a row keeps
    its relative accuracy however small |W| is, down to TRAP_UNDERFLOW."""
    import numpy as np

    y = np.asarray(y, dtype=float)
    if not (np.all(y) and np.isfinite(y).all()):
        raise ValueError("y must be finite and nonzero")
    if not selection_rule_ok(idx_a, idx_b, mu, nu):
        return np.zeros(y.shape, dtype=complex) if y.ndim else 0j
    A, B = sum(idx_a), sum(idx_b)
    w = 2 * (complex(mu.lam) - complex(nu.lam))  # mu nu^{-1}(t) = t^w for t > 0
    ay, row = np.unique(np.abs(y).ravel(), return_inverse=True)
    radial = _radial_rows(ay, w, A, B, tol)[row].reshape(y.shape)
    return _whittaker_from_radial(y, mu, A, radial)


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


# an inner quad_trapezoid call of zeta_whittaker_quadrature takes at most
# this many outer nodes as its radial rows: at about 90 inner nodes a row it
# bounds the arrays of one inner level, and so the oracle's peak memory, near
# those of one Lemma datum alone, while most outer levels of the verify suite
# still fit in one call
LEMMA_BLOCK = 128


def zeta_whittaker_quadrature(s: complex, data) -> list:
    """2-D quadrature of zeta(s, W_{(a,b)}, chi) for each Lemma datum
    (idx_a, idx_b, chi, mu, nu) of ``data``: the y-integral over R^x of the
    quadrature Whittaker value; the independent oracle for the Lemma.  Both
    integrals are nested trapezoid sums to the relative tolerance 1e-11.

    The data are the rows of one computation.  The y-integral is one
    quad_trapezoid_line call over log |y|, a row per datum; each of its
    levels takes the radial integrals of all its nodes, in blocks of at most
    LEMMA_BLOCK, as the rows of inner quad_trapezoid calls, one row for
    y = +-e^v.  A row's sums depend on its own datum alone, so each value
    has the bits it has when its datum is computed by itself.  A datum off
    the selection rule is an exact 0."""
    import numpy as np

    tol = 1e-11
    ok = [selection_rule_ok(ia, ib, mu, nu) for ia, ib, _, mu, nu in data]
    rows = list(itertools.compress(data, ok))
    # each row's mu nu^{-1}(t) = t^w for t > 0, and its degrees A and B
    w = np.array([2 * (complex(mu.lam) - complex(nu.lam)) for *_, mu, nu in rows])
    A = np.array([sum(ia) for ia, *_ in rows])
    B = np.array([sum(ib) for _, ib, *_ in rows])

    # |y|^{s-1} d^x y with y = +-e^v: each row's nodes are one run, in row
    # order, and so are their radial rows, block after block
    def full(v: np.ndarray, k: np.ndarray) -> np.ndarray:
        y = np.exp(v)
        per_node = (y, w[k], A[k], B[k])
        radial = np.concatenate([
            _radial_rows(*(a[i : i + LEMMA_BLOCK] for a in per_node), tol)
            for i in range(0, v.size, LEMMA_BLOCK)
        ])
        out = np.empty(v.size, dtype=complex)
        for start, stop, r in _runs(v.size, k):
            idx_a, _, chi, mu, _ = rows[r]
            yr = y[start:stop]
            y_pm = np.stack((yr, -yr))
            w_p, w_m = _whittaker_from_radial(y_pm, mu, sum(idx_a), radial[start:stop])
            out[start:stop] = w_p * chi.value(yr) + w_m * chi.value(-yr)
        out *= np.exp(complex(s - 1) * v)
        return out

    values = quad_trapezoid_line(full, tol, args=(np.arange(len(rows)),)).tolist() if rows else []
    values = iter(values)
    return [next(values) if on else 0j for on in ok]


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
