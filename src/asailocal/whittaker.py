"""Brute-force non-archimedean Whittaker functions and Rankin-Selberg zeta
integrals: the oracle side of the factor identities.

Sections of an induced representation are specified by their restriction to
the lower-unipotent big cell; values elsewhere come from the Bruhat
decomposition and B-equivariance.  Whittaker values are exact: every integral
reduces to finitely many character-coset sums (exact roots of unity) plus
geometric tails summed in closed form, so the closed-form identities can be
tested with zero deviation.

There is one value backend: every section value is a :class:`Cyc`.  The
half-integral powers q^(k+1/2) that |det|^(1/2) and self-dual volumes bring
in stay exact too, because sqrt(p) is a quadratic Gauss sum; ``to_complex()``
gives the floating value.  The spherical zeta integral, the oracle for
unramified gamma_RS, is evaluated in floating point from its closed-form
tails.

The shell and coset integrals, and the cached q-powers they use, are the
Tate oracle's (:mod:`asailocal.tate`).  They take psi and a
multiplier s and sum psi(-s t) against the self-dual measure of psi; the
conductor of t -> psi(-s t) is c(psi) - ord s, so the big-cell integral
never builds a shifted additive character.  The averaged families write
their matrices out directly (no matrix products), from elements of E
embedded once per family, and an x-average sums the one level of points
that is proven exact.  Every matrix of both families has det = a, so a
family sums the big-cell integrals and takes mu(det) |det|^{1/2} once.  The
w1 rows of the GL2(O_F)-average differ by a unipotent on the left, so the
family computes one of their big-cell integrals and sums psi_xi over the
translates (:func:`w_case2`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .characters import (
    AddChar,
    MultChar,
    conductor_add,
    psi_to_E,
    restrict_to_F,
)
from .cyclotomic import Cyc
from .factors import PoleError
from .padic import QuadExtension, Value, _set
from .tate import _qpow, _vol_O, coset_integral, shell_integral


# ---------------------------------------------------------------------------
# the big-cell integral
# ---------------------------------------------------------------------------


def bigcell_integral(chi: MultChar, C_aff: tuple, D_aff: tuple, psi: AddChar) -> Cyc:
    """int_E chi(C(t)) |C(t)|^{-1} 1[ord D(t) >= ord C(t)] psi(-t) dt for
    affine C(t) = alpha + beta t, D(t) = delta + eps t, with coefficients
    in E (``EElement``s).

    This is the t-integral behind every Whittaker value of an h = 1_O
    section; the Gauss/geometric structure makes all shell sums finite.
    For beta != 0 the substitution t -> (t - alpha)/beta leaves the shell
    sums of chi against psi(-s t), s = 1/beta: they take the multiplier s
    and the conductor c(psi) + ord beta, and no shifted character is built.
    """
    K = chi.field
    q = K.q
    (alpha, beta), (delta, epsv) = C_aff, D_aff
    c = conductor_add(psi)
    if beta != 0:
        s = beta.inv()
        alpha_s = alpha * s
        vbeta = K.val(beta)
        b2 = epsv * s
        a2 = delta - epsv * alpha_s
        if a2 == 0:
            raise ValueError("degenerate section matrix (a' = 0 needs det = 0)")
        c2 = c + vbeta
        n = chi.n
        total = Cyc.zero()
        if b2 == 0 or K.val(b2) >= 0:
            U = K.val(a2)
            if n >= 1:
                jstar = c2 - n
                if jstar <= U:
                    total = total + _qpow(q, jstar) * shell_integral(chi, jstar, psi, s)
            else:
                for j in range(c2 - 1, U + 1):
                    total = total + _qpow(q, j) * shell_integral(chi, j, psi, s)
        else:
            vb2 = K.val(b2)
            T1 = K.val(a2) - vb2
            L = T1 - vb2
            t1 = -(a2 / b2)
            # ord(a2 + b2 t) >= ord t means ord(t - t1) > ord t, so ord t =
            # ord t1 = T1: the coset is the whole support
            total = _qpow(q, T1) * coset_integral(chi, t1, L, psi, s)
        if not total.nums:  # zero: no prefactor psi(alpha/beta) q^(ord beta) to build
            return total
        return psi.cyc(alpha_s) * _qpow(q, vbeta) * total
    # constant C(t) = alpha
    if epsv == 0:
        raise ValueError("degenerate section matrix (C and D both constant)")
    j0 = K.val(alpha)
    L2 = j0 - K.val(epsv)
    t2 = -(delta / epsv)
    if L2 < c:
        return Cyc.zero()
    ball = psi.cyc(-t2) * _vol_O(psi) * _qpow(q, -L2)
    return chi.cyc(alpha) * _qpow(q, j0) * ball


# ---------------------------------------------------------------------------
# sections and Whittaker values
# ---------------------------------------------------------------------------


class InducedSection(Value):
    """A section of Ind(mu, nu) with big-cell profile h = 1_{O_E}:
    f(u_-(x)) = (nu/mu)(x) |x|^{-1} 1_{|x| >= 1}(x) in the paper's
    parametrization (for nu = 1 this is the level-c(mu) test section)."""

    _fields = ("E", "mu", "nu", "psi_xi")
    __slots__ = _fields + ("chi_ratio",)

    def __init__(self, E: QuadExtension, mu: MultChar, nu: MultChar, psi_xi: AddChar):
        _set(self, "E", E)
        _set(self, "mu", mu)
        _set(self, "nu", nu)
        _set(self, "psi_xi", psi_xi)
        _set(self, "_key", (E, mu, nu, psi_xi))
        # nu / mu, computed once per section
        _set(self, "chi_ratio", nu.mul(mu.inv()))


def _det_factor(sec: InducedSection, det) -> Cyc:
    """mu(det) |det|^{1/2}: the part of W_f(M) that sees M only through det,
    a nonzero root of unity times a power of sqrt(q)."""
    if det.is_zero():
        raise ValueError("singular matrix")
    E = sec.E
    return sec.mu.cyc(det) * _qpow(E.q, Fraction(-E.val(det), 2))


def whittaker_value(sec: InducedSection, M: tuple) -> Cyc:
    """W_{psi_xi, f}(M) for the h = 1_O section, M = ((A,B),(C,D)) over E.

    Computed as mu(det) |det|^{1/2} times the big-cell t-integral; exact.
    The entries are embedded in E once, here.
    """
    (A, B), (Cm, Dm) = M
    A, B, Cm, Dm = map(sec.E.embed, (A, B, Cm, Dm))
    pref = _det_factor(sec, A * Dm - B * Cm)
    return pref * bigcell_integral(sec.chi_ratio, (A, Cm), (B, Dm), sec.psi_xi)


# -- the paper's averaged test vectors ---------------------------------------
#
# The averaged families need two matrix shapes, written out directly:
#   diag(a,1) u_-(x)         = ((a, 0), (x, 1)),
#   diag(a,1) w1 u_-(u)      = ((-a u, -a), (1, 0)),   w1 = ((0, -1), (1, 0)).


def w_averaged_lower(sec: InducedSection, a, c_level: int, scale_exp: int) -> Cyc:
    """W of g = q^{scale_exp} * int_{pi^c O_F} rho(u_-(x)) f dx at diag(a,1),
    as one exact sum at a proven level.

    With chi = nu/mu and n = n(chi), the profile h(x) = chi(x) |x|^{-1}
    1_{|x| >= 1} has h(x + y) = h(x) for every x once ord_E y >= max(1, n):
    where |x| >= 1, x + y = x (1 + y/x) with ord(y/x) >= max(1, n), and
    where |x| < 1 both sides are 0.  So f(g u_-(y)) = f(g) on the dense big
    cell B u_-(E), hence everywhere, and W(g u_-(y)) = W(g).  For y in F,
    ord_E y = e ord_F y, so x -> W(diag(a,1) u_-(x)) has period p^k O_F,
    k = ceil(max(1, n) / e), and the integral over p^c O_F is exactly
    q^{-(c + m)} times the sum over x = p^c j, j < p^m, m = max(0, k - c).
    The level depends on neither a nor c(psi_xi): the period comes from the
    right-invariance of f, and psi_xi enters W only through the left
    t-integral, which commutes with right translation.  Every point has
    det = a, so mu(a) |a|^{1/2} multiplies the summed big-cell integrals.
    """
    E = sec.E
    F = E.ground
    chi = sec.chi_ratio
    m = max(0, -(-max(1, chi.n) // E.e) - c_level)
    step = E.embed(F.p) ** c_level
    a, zero, one = E.embed(a), E.zero(), E.one()
    raw = Cyc.sum(bigcell_integral(chi, (a, step * j), (zero, one), sec.psi_xi) for j in range(F.p**m))
    return _det_factor(sec, a) * raw * _qpow(F.q, scale_exp - c_level - m)


def w_case1(sec: InducedSection, a) -> Cyc:
    """The (averaged) vector of the mu|F-ramified case: g = |pi|^{-r} int f.

    Returns W_{psi_xi, g}(diag(a,1)); the closed form is |a| 1_{pi^(c-r) O}(a).
    """
    E = sec.E
    mu = sec.mu
    r = -(-mu.n // E.e)
    c_mu = restrict_to_F(mu).n
    return w_averaged_lower(sec, a, c_mu, scale_exp=r)


def w_case2(sec: InducedSection, a) -> Cyc:
    """The GL2(O_F)-averaged vector h of the mu|F-unramified case.

    h = sum_{u in O/pi^{r-1}} rho(u_-(pi u)) f + sum_{u in O/pi^r} rho(w1 u_-(u)) f;
    the closed form is (E:mu(a)|a| mu(pi)^r + |a|)-shaped with box supports.
    Every matrix of the family has det = a: the big-cell integrals are
    summed, and mu(a) |a|^{1/2} multiplies the sum once.

    The w1 rows share one integral: diag(a,1) w1 u_-(u) = n(-a u) diag(a,1)
    w1, so the row at u is psi_xi(-a u) times the row at u = 0, exactly (the
    substitution t -> t + a u, by which :func:`bigcell_integral` takes out
    psi(alpha/beta)).  That integral is computed once, by brute force, and
    multiplies sum_u psi_xi(-a u) unless it is 0.
    """
    E = sec.E
    p = E.ground.p
    chi, psi = sec.chi_ratio, sec.psi_xi
    r = -(-sec.mu.n // E.e)
    a, zero, one = E.embed(a), E.zero(), E.one()
    # (C(t), D(t)) coefficient pairs of ((a, 0), (p u, 1)) and, at u = 0, ((0, -a), (1, 0))
    rows = [((a, E.elem(p * u)), (zero, one)) for u in range(p ** max(r - 1, 0))]
    core = Cyc.sum(bigcell_integral(chi, C, D, psi) for C, D in rows)
    w1 = bigcell_integral(chi, (zero, one), (-a, zero), psi)
    if w1.nums:
        core = core + w1 * Cyc.sum(psi.cyc(-a * u) for u in range(p**r))
    return _det_factor(sec, a) * core


# ---------------------------------------------------------------------------
# the spherical zeta integral and the gamma oracle
# ---------------------------------------------------------------------------


def _spherical_series(mu: MultChar, nu: MultChar, E: QuadExtension):
    """(s, eta(pi), box level) -> Z(s, W, Phi) for the pair (mu, nu), with
    the checks, t_mu, t_nu and omega(pi) taken once, for every s."""
    if mu.n or nu.n:
        raise ValueError("spherical oracle needs unramified mu, nu")
    if conductor_add(psi_to_E(AddChar(E.ground, 1), E, E.xi())) != 0:
        raise AssertionError("canonical psi_xi must have conductor 0")
    q, e, qE = E.ground.q, E.e, E.q
    t_nu = nu.t_full()
    x = mu.t_full() / t_nu
    p = E.embed(E.ground.p)
    omega_p = mu.value(p) * nu.value(p)

    def zeta(s: complex, eta_p, box_level: int) -> complex:
        R = omega_p * eta_p**2 * q ** (-2 * s)
        D = t_nu**e * eta_p * q ** (-s) * 1.0
        for r in (R, D, D * x**e):
            if abs(r - 1) < 1e-13:
                raise PoleError(s)
        t2_series = R**box_level / (1 - R)
        if abs(x - 1) > 1e-12:
            A = (1 - x / qE) / (1 - x)
            v_series = A * (1 / (1 - D) - x / (1 - D * x**e))
        else:
            v_series = (1 - 1 / qE) * (e * D / (1 - D) ** 2 + 1 / (1 - D))
        return t2_series * v_series

    return zeta


def spherical_zeta(
    s: complex,
    mu: MultChar,
    nu: MultChar,
    E: QuadExtension,
    eta: Optional[MultChar] = None,
    box_level: int = 0,
) -> complex:
    """Z(s, W, Phi) for the spherical Whittaker vector and the radial box
    Phi = 1[max(|x|,|y|) <= q^{-box_level}], by Iwasawa reduction to a double
    shell series whose tails are geometric and summed in closed form.

    The closed form is the meromorphic continuation.  W is not normalized:
    W(1) = 1 - (mu/nu)(pi)/q_E.
    """
    eta_p = eta.value(Fraction(E.ground.p)) if eta is not None else 1.0
    return _spherical_series(mu, nu, E)(s, eta_p, box_level)


def spherical_gamma_oracle(grid, mu: MultChar, nu: MultChar, E: QuadExtension, box_level: int = 0) -> list:
    """Z(1-s, W (x) omega0^{-1}, Phi^) / Z(s, W, Phi) at each s of ``grid``:
    the functional-equation ratio that gamma_RS must reproduce (Phi the
    radial box).  What does not depend on s, omega0^{-1}(pi) included, is
    computed once for the grid, as :func:`tate.fe_ratio` does."""
    zeta = _spherical_series(mu, nu, E)
    eta_p = restrict_to_F(mu.mul(nu)).inv().value(Fraction(E.ground.p))
    scale = E.ground.q ** (-2.0 * box_level)
    return [zeta(1 - s, eta_p, -box_level) * scale / zeta(s, 1.0, box_level) for s in grid]
