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

The shell and coset integrals, and the cached q-powers and chi(x) they use,
are the Tate oracle's (:mod:`asailocal.tate`).  They take psi and a
multiplier s and sum psi(-s t), whose conductor is c(psi) - ord s, so the
big-cell integral never builds a shifted additive character.  The averaged
families write their matrices out directly (no matrix products), and an
x-average only evaluates the points a refinement adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .characters import (
    AddChar,
    MultChar,
    conductor_add,
    psi_to_E,
    restrict_to_F,
    shell_cyc,
)
from .cyclotomic import Cyc
from .factors import PoleError
from .padic import QuadExtension
from .tate import _chi_cyc, _qpow, _vol_O, coset_integral, shell_integral


class StabilizationError(AssertionError):
    """A truncated shell sum failed to stabilize where it must."""


# ---------------------------------------------------------------------------
# the stability probe
# ---------------------------------------------------------------------------


def shell_integral_enumerated(chi: MultChar, j: int, psi: AddChar, cvol=None) -> Cyc:
    """Same shell integral by honest enumeration at a modulus one step finer;
    used for stabilization checks."""
    K = chi.field
    q = K.q
    c = conductor_add(psi)
    V = _vol_O(psi, cvol)
    m = max(chi.n, c - j, 1) + 1
    return shell_cyc(chi, psi, j, m, -1) * _qpow(q, -(j + m)) * V


# ---------------------------------------------------------------------------
# the big-cell integral
# ---------------------------------------------------------------------------


def bigcell_integral(
    chi: MultChar,
    C_aff: tuple,
    D_aff: tuple,
    psi: AddChar,
    verify_stability=False,
) -> Cyc:
    """int_E chi(C(t)) |C(t)|^{-1} 1[ord D(t) >= ord C(t)] psi(-t) dt for
    affine C(t) = alpha + beta t, D(t) = delta + eps t.

    This is the t-integral behind every Whittaker value of an h = 1_O
    section; the Gauss/geometric structure makes all shell sums finite.
    For beta != 0 the substitution t -> (t - alpha)/beta leaves the shell
    sums of chi against psi(-s t), s = 1/beta: they take the multiplier s
    and the conductor c(psi) + ord beta, and no shifted character is built
    (the stability probes, which enumerate, get psi(s .) explicitly).
    """
    K = chi.field
    q = K.q
    alpha, beta, delta, epsv = map(K.embed, C_aff + D_aff)
    c = conductor_add(psi)
    cvol = Fraction(c, 2)
    V = _vol_O(psi, cvol)
    if beta != 0:
        s = 1 / beta
        alpha_s = alpha * s
        pref = psi.cyc(alpha_s) * _qpow(q, K.val(beta))
        b2 = epsv * s
        a2 = delta - epsv * alpha_s
        if a2 == 0:
            raise ValueError("degenerate section matrix (a' = 0 needs det = 0)")
        c2 = c + K.val(beta)
        n = chi.n
        total = Cyc.zero()
        if b2 == 0 or K.val(b2) >= 0:
            U = K.val(a2)
            if n >= 1:
                jstar = c2 - n
                if jstar <= U:
                    total = total + _qpow(q, jstar) * shell_integral(chi, jstar, psi, cvol, s)
                edges = [c2 - n - 1, c2 - n + 1] if verify_stability else []
            else:
                for j in range(c2 - 1, U + 1):
                    total = total + _qpow(q, j) * shell_integral(chi, j, psi, cvol, s)
                edges = [c2 - 2] if verify_stability else []
            for j in edges:
                if j <= U and not shell_integral_enumerated(
                    chi, j, psi.shifted(s), cvol=cvol
                ).is_zero():
                    raise StabilizationError(f"shell {j} failed to vanish")
        else:
            vb2 = K.val(b2)
            T1 = K.val(a2) - vb2
            L = T1 - vb2
            t1 = -(a2 / b2)
            # ord(a2 + b2 t) >= ord t means ord(t - t1) > ord t, so ord t =
            # ord t1 = T1: the coset is the whole support, and no other shell
            # is left for a stability probe to check
            total = _qpow(q, T1) * coset_integral(chi, t1, L, psi, cvol, s)
        return pref * total
    # constant C(t) = alpha
    if epsv == 0:
        raise ValueError("degenerate section matrix (C and D both constant)")
    j0 = K.val(alpha)
    L2 = j0 - K.val(epsv)
    t2 = -(delta / epsv)
    if L2 < c:
        return Cyc.zero()
    ball = psi.cyc(-t2) * V * _qpow(q, -L2)
    return chi.cyc(alpha) * _qpow(q, j0) * ball


# ---------------------------------------------------------------------------
# sections and Whittaker values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedSection:
    """A section of Ind(mu, nu) with big-cell profile h = 1_{O_E}:
    f(u_-(x)) = (nu/mu)(x) |x|^{-1} 1_{|x| >= 1}(x) in the paper's
    parametrization (for nu = 1 this is the level-c(mu) test section)."""

    E: QuadExtension
    mu: MultChar
    nu: MultChar
    psi_xi: AddChar

    @cached_property
    def chi_ratio(self) -> MultChar:
        """nu / mu, computed once per section."""
        return self.nu.mul(self.mu.inv())


def whittaker_value(sec: InducedSection, M: tuple, verify_stability=False) -> Cyc:
    """W_{psi_xi, f}(M) for the h = 1_O section, M = ((A,B),(C,D)) over E.

    Computed as mu(det) |det|^{1/2} times the big-cell t-integral; exact.
    """
    E = sec.E
    (A, B), (Cm, Dm) = M
    A, B, Cm, Dm = map(E.embed, (A, B, Cm, Dm))
    det = A * Dm - B * Cm
    if det.is_zero():
        raise ValueError("singular matrix")
    core = bigcell_integral(sec.chi_ratio, (A, Cm), (B, Dm), sec.psi_xi, verify_stability)
    pref = _chi_cyc(sec.mu, det) * _qpow(E.q, Fraction(-E.val(det), 2))
    return pref * core


# -- the paper's averaged test vectors ---------------------------------------
#
# The averaged families need two matrix shapes, written out directly:
#   diag(a,1) u_-(x)         = ((a, 0), (x, 1)),
#   diag(a,1) w1 u_-(u)      = ((-a u, -a), (1, 0)),   w1 = ((0, -1), (1, 0)).


def w_averaged_lower(sec: InducedSection, a, c_level: int, scale_exp: int) -> Cyc:
    """W of g = q^{scale_exp} * int_{pi^c O_F} rho(u_-(x)) f dx at diag(a,1).

    The x-integral is discretized exactly; the discretization level is
    refined until two consecutive levels agree exactly.  The points
    x = p^c k, k < p^m, of level m are the first points of level m + 1, so
    each refinement only adds the values at the new points.
    """
    F = sec.E.ground
    step = Fraction(F.p) ** c_level

    def points(lo: int, hi: int) -> Cyc:
        """sum of W(diag(a,1) u_-(p^c k)) over lo <= k < hi."""
        return Cyc.sum(whittaker_value(sec, ((a, 0), (step * k, 1))) for k in range(lo, hi))

    m = max(1, sec.mu.n)
    raw = points(0, F.p**m)
    prev = raw * _qpow(F.q, -(c_level + m))
    for _ in range(4):
        raw = raw + points(F.p**m, F.p ** (m + 1))
        m += 1
        cur = raw * _qpow(F.q, -(c_level + m))
        if (prev - cur).is_zero():
            return prev * _qpow(F.q, scale_exp)
        prev = cur
    raise StabilizationError("x-average failed to stabilize")


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
    """
    E = sec.E
    p = E.ground.p
    r = -(-sec.mu.n // E.e)
    mats = [((a, 0), (p * u, 1)) for u in range(p ** max(r - 1, 0))]
    mats += [((-a * u, -a), (1, 0)) for u in range(p**r)]
    return Cyc.sum(whittaker_value(sec, M) for M in mats)


# ---------------------------------------------------------------------------
# the spherical zeta integral and the gamma oracle
# ---------------------------------------------------------------------------


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
    if mu.n or nu.n:
        raise ValueError("spherical oracle needs unramified mu, nu")
    if conductor_add(psi_to_E(AddChar(E.ground, 1), E, E.xi())) != 0:
        raise AssertionError("canonical psi_xi must have conductor 0")
    F = E.ground
    q = F.q
    e = E.e
    qE = E.q
    t_mu = mu.t_full()
    t_nu = nu.t_full()
    x = t_mu / t_nu
    eta_p = eta.value(Fraction(F.p)) if eta is not None else 1.0
    omega_p = mu.value(E.embed(F.p)) * nu.value(E.embed(F.p))
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


def spherical_gamma_oracle(
    s: complex, mu: MultChar, nu: MultChar, E: QuadExtension, box_level: int = 0
) -> complex:
    """Z(1-s, W (x) omega0^{-1}, Phi^) / Z(s, W, Phi): the functional-equation
    ratio that gamma_RS must reproduce (Phi the radial box)."""
    q = E.ground.q
    omega0_inv = restrict_to_F(mu.mul(nu)).inv()
    num = spherical_zeta(1 - s, mu, nu, E, eta=omega0_inv, box_level=-box_level)
    num *= q ** (-2.0 * box_level)
    den = spherical_zeta(s, mu, nu, E, box_level=box_level)
    return num / den
