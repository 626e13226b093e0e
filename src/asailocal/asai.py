"""Non-archimedean Asai factors: gamma_RS / eps_RS / L via multiplicativity,
the Galois-side comparison, the twisted (rank-2) factor, and the dichotomy
sign.

Everything here is assembled from Tate constituents, and each side is
assembled once:

- the zeta-integral side, :func:`gamma_rs`, absorbs chi into mu and nu
  through an explicit extension of chi to E^x, assembles the three Tate
  gammas at the normalized (psi0, xi_can) and transports them to (psi, xi)
  by the dependence monomial;
- the Galois side, :func:`eps_gal` and :func:`gamma_gal`, multiplies
  lambda_{E/F}(psi) by the Tate factors of the three Weil-Deligne
  constituents mu0 chi, nu0 chi and mu nu^sigma (chi o N), which only
  :func:`_gal_constituents` builds;
- :func:`l_rs` is the Tate L product over those same constituents.

The two routes to the same factor are separate code paths on purpose:
gamma_rs never reads the Galois constituents and the Galois side never calls
gamma_rs.  Their agreement is the content of the theorems and is what the
verification suites check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .characters import (
    AddChar,
    MultChar,
    compose_with_norm,
    extend_from_F,
    omega_quadratic,
    psi_to_E,
    restrict_to_F,
    sigma_conjugate,
)
from .factors import DEFAULT_GRID, NonArchFactor, REL_TOL_NONARCH, approx_equal
from .padic import EElement, PAdicGround, QuadExtension
from .tate import eps_from_gamma, l_product, langlands_constant, tate_eps, tate_gamma


@dataclass(frozen=True)
class TwistedPair:
    """The rank-2 twist tau = Ind(mu2 |.|^{v2}, nu2 |.|^{-v2}) of Theorem B."""

    mu2: MultChar
    nu2: MultChar
    v2: complex = 0.0

    def plus(self) -> MultChar:
        return self.mu2.twist_by_norm_power(_as_lam(self.v2))

    def minus(self) -> MultChar:
        return self.nu2.twist_by_norm_power(_as_lam(-self.v2))


def _as_lam(v):
    if isinstance(v, Fraction):
        return v
    z = complex(v)
    if z.imag == 0 and float(z.real).is_integer():
        return Fraction(int(z.real))
    return z


@dataclass(frozen=True)
class AsaiInput:
    """(mu, nu on E^x; psi on F; xi trace-zero; optional chi twist, tau)."""

    E: QuadExtension
    mu: MultChar
    nu: MultChar
    psi: AddChar
    xi: EElement
    chi: Optional[MultChar] = None
    tau: Optional[TwistedPair] = None

    def __post_init__(self):
        if self.xi.trace() != 0:
            raise ValueError("xi must have trace zero")

    def with_twist(self, chi: Optional[MultChar]) -> "AsaiInput":
        return AsaiInput(self.E, self.mu, self.nu, self.psi, self.xi, chi, self.tau)

    def omega_pi(self) -> MultChar:
        """Central character of pi = Ind(mu, nu), restricted to F^x,
        twist included."""
        om = restrict_to_F(self.mu.mul(self.nu))
        if self.chi is not None:
            om = om.mul(self.chi).mul(self.chi)
        return om

    def omega_total(self) -> MultChar:
        """omega = omega_pi|_F * omega_tau (Theorem B normalization)."""
        if self.tau is None:
            raise ValueError("no rank-2 twist attached")
        return self.omega_pi().mul(self.tau.mu2).mul(self.tau.nu2)


# ---------------------------------------------------------------------------
# normalization to c(psi) = c(psi_xi) = 0
# ---------------------------------------------------------------------------


def _normalization(inp: AsaiInput):
    """Split (psi, xi) as (psi0^{a0}, a1 * xi_can) with the canonical xi_can.

    Returns (a0, a1, xi_can).  Theorem A's hypothesis c(psi)=c(psi_xi)=0 is a
    normalization, not a restriction: the dependence identities transport the
    factors back.
    """
    E = inp.E
    a0 = Fraction(inp.psi.mult)
    xi_can = E.xi()
    ratio = inp.xi * xi_can.inv()
    if not ratio.in_F():
        raise ValueError("xi is not an F-multiple of the canonical trace-zero element")
    a1 = ratio.as_F()
    return a0, a1, xi_can


def _dependence_monomial(omega0: MultChar, a0: Fraction, a1: Fraction) -> NonArchFactor:
    """omega^2(a0)|a0|^{4s-2} * omega(a1)|a1|^{2s-1} as a monomial in s."""
    F: PAdicGround = omega0.field
    q = F.q
    w0, w1 = (F.val(a0) if a0 != 1 else 0), (F.val(a1) if a1 != 1 else 0)
    const = omega0.value(a0) ** 2 * omega0.value(a1)
    const *= q ** (2 * w0 + w1)
    m = 4 * w0 + 2 * w1
    return NonArchFactor.monomial(q, const, m)


# ---------------------------------------------------------------------------
# Theorem A: gamma_RS and friends
# ---------------------------------------------------------------------------


def _twisted_chars(inp: AsaiInput):
    """(mu', nu') with the F-twist absorbed through an explicit extension."""
    if inp.chi is None:
        return inp.mu, inp.nu
    chit = extend_from_F(inp.chi, inp.E)
    return inp.mu.mul(chit), inp.nu.mul(chit)


def gamma_rs(inp: AsaiInput, check: bool = True) -> NonArchFactor:
    """gamma_RS(s, As pi (x) chi, psi, xi) for pi = Ind(mu, nu).

    Assembled per the multiplicativity theorem at the normalized (psi0,
    xi_can) and transported to the given (psi, xi) by the dependence laws.
    """
    E = inp.E
    q = E.ground.q
    mu, nu = _twisted_chars(inp)
    a0, a1, xi_can = _normalization(inp)
    psi0 = AddChar(E.ground, 1)
    psix = psi_to_E(psi0, E, xi_can)
    g1 = tate_gamma(restrict_to_F(mu), psi0, check=check)
    g2 = tate_gamma(restrict_to_F(nu), psi0, check=check)
    g3 = tate_gamma(mu.mul(sigma_conjugate(nu)), psix, check=check).rebase(q)
    core = (g1 * g2 * g3) * nu.value(E.elem(-1))
    omega0 = restrict_to_F(mu.mul(nu))
    return _dependence_monomial(omega0, a0, a1) * core


def _gal_constituents(inp: AsaiInput):
    """The three Tate characters of the Weil-Deligne decomposition, with
    twist folded in on the Galois side (no extension involved)."""
    E = inp.E
    mu0, nu0 = restrict_to_F(inp.mu), restrict_to_F(inp.nu)
    third = inp.mu.mul(sigma_conjugate(inp.nu))
    if inp.chi is not None:
        mu0, nu0 = mu0.mul(inp.chi), nu0.mul(inp.chi)
        third = third.mul(compose_with_norm(inp.chi, E))
    return mu0, nu0, third


def l_rs(inp: AsaiInput) -> NonArchFactor:
    """L_RS(s, As pi (x) chi) = L(s, mu0 chi) L(s, nu0 chi) L(s, mu nu^sigma (chi o N))."""
    return l_product(_gal_constituents(inp), inp.E.ground.q)


def eps_rs(inp: AsaiInput, check: bool = True) -> NonArchFactor:
    """eps_RS = gamma_RS * L_RS(s) / L_RS(1-s, dual); structurally a monomial.
    The dual data (mu^{-1}, nu^{-1}, chi^{-1}) has the inverse constituents."""
    gam = gamma_rs(inp, check=check)
    return eps_from_gamma(gam, _gal_constituents(inp), inp.E.ground.q)


def _gal_product(inp: AsaiInput, constituents, tate_factor) -> NonArchFactor:
    """lambda_{E/F}(psi) f(mu0 chi, psi) f(nu0 chi, psi) f(mu nu^sigma (chi o N),
    psi o tr) for the Tate factor f = ``tate_factor`` (tate_eps or
    tate_gamma), uncertified, on the :func:`_gal_constituents` of ``inp``."""
    E, psi = inp.E, inp.psi
    mu0, nu0, third = constituents
    out = tate_factor(mu0, psi, check=False) * tate_factor(nu0, psi, check=False)
    out = out * tate_factor(third, psi_to_E(psi, E), check=False).rebase(E.ground.q)
    return out * langlands_constant(E, psi)


def eps_gal(inp: AsaiInput) -> NonArchFactor:
    """eps_Gal(s, As pi (x) chi, psi) = lambda_{E/F}(psi) eps(mu0 chi) eps(nu0 chi)
    eps(mu nu^sigma (chi o N), psi o tr)."""
    return _gal_product(inp, _gal_constituents(inp), tate_eps)


def gamma_gal(inp: AsaiInput) -> NonArchFactor:
    """gamma version of :func:`eps_gal` (same lambda normalization)."""
    return _gal_product(inp, _gal_constituents(inp), tate_gamma)


def eps_gal_comparison(
    inp: AsaiInput, grid=DEFAULT_GRID, tol: float = REL_TOL_NONARCH
) -> dict:
    """Check eps_RS = omega(xi) |xi^2|^{s-1/2} lambda^{-1} eps_Gal on the grid.

    Returns a report with the deviation and a per-constituent breakdown.
    The Galois constituents are built once, for eps_RS's L-factors and for
    eps_Gal."""
    E = inp.E
    q = E.ground.q
    constituents = _gal_constituents(inp)
    lhs = eps_from_gamma(gamma_rs(inp, check=False), constituents, q)
    lam = langlands_constant(E, inp.psi)
    mu, nu = _twisted_chars(inp)
    omega_xi = mu.value(inp.xi) * nu.value(inp.xi)
    xi_sq = inp.xi * inp.xi
    w = E.ground.val(xi_sq.as_F())
    prefactor = NonArchFactor.monomial(
        q, omega_xi * q ** Fraction(w, 2) / lam, w
    )
    gal = _gal_product(inp, constituents, tate_eps)
    ok, dev = approx_equal(lhs, prefactor * gal, grid, tol)
    return {
        "ok": ok,
        "max_deviation": dev,
        "eps_rs": lhs.to_json(),
        "eps_gal": gal.to_json(),
        "lambda": [lam.real, lam.imag],
        "omega_xi": [omega_xi.real, omega_xi.imag],
        "xi_square_val": w,
    }


# ---------------------------------------------------------------------------
# Theorem B: the twisted factor, two independent assemblies
# ---------------------------------------------------------------------------


def gamma_psr(
    inp: AsaiInput, grid=DEFAULT_GRID, tol: float = REL_TOL_NONARCH
) -> tuple[NonArchFactor, dict]:
    """gamma_PSR via the zeta-integral assembly; asserts grid equality with
    the Galois-side assembly and reports the deviation.

    assembly-1 = omega(4 xi^4)^{-1} |4 xi^4|^{-2s+1} gamma_RS(+) gamma_RS(-)
    assembly-2 = omega(4 xi^2)^{-1} |4 xi^2|^{-2s+1} omega_{E/F}(-1)
                 gamma_Gal(+) gamma_Gal(-)
    """
    if inp.tau is None:
        raise ValueError("gamma_psr needs the rank-2 twist tau")
    E = inp.E
    F = E.ground
    q = F.q
    omega = inp.omega_total()
    xi_sq = (inp.xi * inp.xi).as_F()
    four_xi2 = 4 * xi_sq
    four_xi4 = 4 * xi_sq * xi_sq
    chi_p, chi_m = inp.tau.plus(), inp.tau.minus()

    def prefac(x, slope=2):
        wv = F.val(x)
        const = 1 / omega.value(x) * q ** float(-wv)
        return NonArchFactor.monomial(q, const, -slope * wv)

    a1 = (
        prefac(four_xi4)
        * gamma_rs(inp.with_twist(chi_p), check=False)
        * gamma_rs(inp.with_twist(chi_m), check=False)
    )
    a2 = (
        prefac(four_xi2)
        * omega_quadratic(E).value(-1)
        * gamma_gal(inp.with_twist(chi_p))
        * gamma_gal(inp.with_twist(chi_m))
    )
    ok, dev = approx_equal(a1, a2, grid, tol)
    report = {
        "ok": ok,
        "max_deviation": dev,
        "assembly1": a1.to_json(),
        "assembly2": a2.to_json(),
    }
    if not ok:
        report["detail"] = "zeta-integral and Galois assemblies disagree"
    return a1, report


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------


def dichotomy_sign(inp: AsaiInput, tol: float = 1e-8) -> int:
    """omega_{E/F}(-1) * eps_Gal(1/2, As pi (x) tau), rounded to +-1.

    Requires omega = omega_pi|_F * omega_tau trivial.
    """
    if inp.tau is None:
        raise ValueError("dichotomy needs the rank-2 twist tau")
    omega = inp.omega_total()
    if not omega.is_trivial():
        raise ValueError("dichotomy sign requires trivial omega")
    val = omega_quadratic(inp.E).value(-1)
    for chi in (inp.tau.plus(), inp.tau.minus()):
        val *= eps_gal(inp.with_twist(chi)).eval(0.5)
    if abs(val - 1) < tol:
        return 1
    if abs(val + 1) < tol:
        return -1
    raise AssertionError(f"central eps value {val} is not a sign")


# ---------------------------------------------------------------------------
# split case E = F x F (simulated with two copies)
# ---------------------------------------------------------------------------


def split_eps_check(
    mu1: MultChar,
    nu1: MultChar,
    mu2: MultChar,
    nu2: MultChar,
    psi: AddChar,
    xi0: Fraction,
    grid=DEFAULT_GRID,
    tol: float = REL_TOL_NONARCH,
) -> dict:
    """For E = F x F with xi = (xi0, -xi0): check that the multiplicativity
    assembly equals omega(xi) |xi|_E^{s-1/2} times the four-fold Tate product
    for eps(s, pi1 x pi2, psi)."""
    F: PAdicGround = mu1.field
    q = F.q
    psi_p = psi.shifted(xi0)
    psi_mx = psi.shifted(-xi0)

    chars = (mu1.mul(mu2), nu1.mul(nu2), mu1.mul(nu2), mu2.mul(nu1))
    g1, g2, g3, g4 = (
        tate_gamma(ch, ps, check=False) for ch, ps in zip(chars, (psi, psi, psi_p, psi_mx))
    )
    pref = nu1.value(-1) * nu2.value(-1)
    eps_lhs = eps_from_gamma(g1 * g2 * g3 * g4 * pref, chars, q)

    e = [tate_eps(ch, psi, check=False) for ch in chars]
    eps_pair = e[0] * e[2] * e[3] * e[1]  # mu1 mu2, mu1 nu2, nu1 mu2, nu1 nu2
    omega_xi = (
        mu1.value(xi0) * nu1.value(xi0) * mu2.value(-xi0) * nu2.value(-xi0)
    )
    w = 2 * F.val(xi0)
    pref_rhs = NonArchFactor.monomial(q, omega_xi * q ** Fraction(w, 2), w)
    rhs = pref_rhs * eps_pair
    ok, dev = approx_equal(eps_lhs, rhs, grid, tol)
    return {"ok": ok, "max_deviation": dev}
