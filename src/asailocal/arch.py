"""The archimedean theory for E = C over F = R: character parametrization,
the Whittaker basis W_{(a,b)}, closed-form Tate-type integrals, L/eps
assembly, the five explicit test-vector cases, and the Gamma-sum identity.

Conventions: psi(x) = e^{2 pi i a x} with standard a = 1, xi = sqrt(-1);
other (psi, xi) are reached through the change-of-variable scalings.  The
independent oracle is adaptive Gauss-Legendre quadrature of the explicit
Gaussian-monomial integrands; it calls none of the closed forms.

The quadrature is breadth-first over rows: one quad_gl or quad_real_line
call computes a batch of integrals, one per row, each on its own panel tree,
and at each depth evaluates the integrand once, on a flat array of the nodes
of every open panel of every row.  An integrand maps that node array to the
array of its values; a parameterised one also receives its per-row
parameters gathered per node, so it knows which integral each node belongs
to.  A single integral is one row, and an integrand of the nodes alone is
the whole interface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .factors import DEFAULT_GRID, ArchFactor, REL_TOL_ARCH, gammafn, loggamma

QUAD_TOL = 1e-8


# ---------------------------------------------------------------------------
# characters of C^x and R^x
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CChar:
    """z -> |z|_C^{lam - n/2} z^n."""

    lam: complex
    n: int

    def value(self, z):
        """chi(z) for a complex number, or elementwise for an array."""
        import numpy as np

        zz = np.asarray(z, dtype=complex)
        out = np.abs(zz) ** (2 * (complex(self.lam) - self.n / 2)) * zz**self.n
        return out if out.ndim else complex(out)

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


@dataclass(frozen=True)
class RChar:
    """sgn^m |.|^lam on R^x."""

    lam: complex
    m: int

    def value(self, y):
        """chi(y) for a real number, or elementwise for an array."""
        import numpy as np

        yy = np.asarray(y, dtype=float)
        sign = np.where(yy < 0, (-1.0) ** (self.m % 2), 1.0)
        out = sign * np.abs(yy) ** complex(self.lam)
        return out if out.ndim else complex(out)

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
    at once, naming the panel's interval."""
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
    400 raises ArithmeticError at once."""
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
# Whittaker basis values and Tate-type integrals
# ---------------------------------------------------------------------------


def selection_rule_ok(idx_a, idx_b, mu: CChar, nu: CChar) -> bool:
    a1, a2 = idx_a
    b1, b2 = idx_b
    return a1 - a2 + mu.n == b1 - b2 + nu.n


# exp of a real part at or below this is exactly 0.0 in double precision
# (it underflows below about -745.13)
EXP_UNDERFLOW = -746.0


def whittaker_integrand(u, ay, w: complex, A: int, B: int):
    """(yt)^A t^{-B} t^w e^{-2 pi ((yt)^2 + t^{-2})} at t = e^u, node by node,
    for the nodes ``u`` and the row parameter ``ay`` = |y| gathered per node.

    Only the live nodes, where the real part Re(w) u - 2 pi ((yt)^2 + t^{-2})
    of the exponent is above EXP_UNDERFLOW (or NaN), get the complex exp and
    the powers; every other node is an exact 0, which is what the exp gives
    there.  On a live node the value is that of the single-y integrand, op
    for op; folding the powers into one exp would round them at the scale of
    the exponent, 4 pi |y|, about 1e-14 of the value at |y| = 6.  It works in
    place: its arrays hold every open panel of up to 90 rows."""
    import numpy as np

    t = np.exp(u)
    yt = ay * t
    g = yt * yt
    g += 1 / (t * t)
    g *= 2 * math.pi
    re = w.real * u
    re -= g
    live = ~(re <= EXP_UNDERFLOW)
    t, yt = t[live], yt[live]
    z = w * u[live]
    z -= g[live]
    np.exp(z, out=z)
    yt **= A
    t **= -B
    yt *= t
    z *= yt
    out = np.zeros(u.shape, dtype=complex)
    out[live] = z
    return out


def whittaker_value_quadrature(
    y, idx_a, idx_b, mu: CChar, nu: CChar, tol: float = QUAD_TOL
):
    """W_{(a,b)}(diag(y,1)) = 4 pi mu(y)|y| int_0^inf Psi_a(yt) Psi_b(1/t)
    mu nu^{-1}(t) d t/t, by adaptive quadrature on t = e^u.  ``y`` is a
    nonzero number or an array of them, one quadrature row each; the result
    has the shape of ``y``.

    The radial integrand is whittaker_integrand at |y|, the row parameter;
    sgn(y)^A is applied per row.  ``tol`` is quad_gl's, which is absolute
    for integrals below 1: W has no relative accuracy where |W| << 1.  For
    trivial mu = nu, W(1.3) at the default tol is off by about 1e-4
    relative, and for |y| >= 3 (|W| < 1e-15) every tol accepts the first
    panels."""
    import numpy as np

    y = np.asarray(y, dtype=float)
    if not np.all(y):
        raise ValueError("y must be nonzero")
    if not selection_rule_ok(idx_a, idx_b, mu, nu):
        return np.zeros(y.shape, dtype=complex) if y.ndim else 0j
    a1, a2 = idx_a
    b1, b2 = idx_b
    A, B = a1 + a2, b1 + b2
    w = 2 * (complex(mu.lam) - complex(nu.lam))  # mu nu^{-1}(t) = t^w for t > 0
    ay = np.abs(y)
    radial = quad_real_line(lambda u, ay_: whittaker_integrand(u, ay_, w, A, B), tol, args=(ay,))
    return 4 * math.pi * mu.value(y) * ay * np.sign(y) ** A * radial


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


def zeta_whittaker_quadrature(
    s: complex, idx_a, idx_b, chi: RChar, mu: CChar, nu: CChar, tol: float = 1e-11
) -> complex:
    """2-D quadrature of zeta(s, W_{(a,b)}, chi): the y-integral over R^x of
    the quadrature Whittaker value; the independent oracle for the Lemma."""
    import numpy as np

    # |y|^{s-1} d^x y with y = +-e^v.  Each 45 nodes (one outer panel) at
    # both signs are the 90 rows of one inner call; all open outer panels in
    # one call would multiply the inner arrays, and peak memory, by their
    # number and save no time.
    def full(vs: np.ndarray) -> np.ndarray:
        y = np.exp(vs)
        w_p, w_m = np.concatenate(
            [
                whittaker_value_quadrature(np.stack((yp, -yp)), idx_a, idx_b, mu, nu, tol)
                for yp in np.split(y, range(45, len(y), 45))
            ],
            axis=1,
        )
        return (w_p * chi.value(y) + w_m * chi.value(-y)) * np.exp(complex(s - 1) * vs)

    return quad_real_line(full, tol, L=6.0)


# ---------------------------------------------------------------------------
# Fourier transforms of the Phi basis (Bargmann monomials)
# ---------------------------------------------------------------------------


def phi_hat_monomial(c1: int, c2: int) -> dict:
    """Transform of Phi_{(c1,c2)}(x,y) = (x+iy)^{c1} (x-iy)^{c2} e^{-pi r^2}
    under the symplectic convention at the standard psi: a dict
    {(c1', c2'): coefficient} over the same basis."""
    M = max(c1, c2)
    mn = min(c1, c2)
    # p(j) = prod_{i<mn} (M + j - i); beta_m = Delta^m p(0) / m! gives the
    # falling-factorial expansion, and sum_j x^j/j! j^(m) = x^m e^x collapses
    # the Bargmann series to a polynomial times the Gaussian
    vals = []
    for j in range(mn + 2):
        acc = Fraction(1)
        for i in range(mn):
            acc *= M + j - i
        vals.append(acc)
    betas = []
    cur = vals[:]
    for m in range(mn + 1):
        betas.append(cur[0] / Fraction(factorial(m)))
        cur = [cur[i + 1] - cur[i] for i in range(len(cur) - 1)]
    out = {}
    base = (-1.0) ** (M - c1) * math.pi ** (M - c1 - c2)
    for m, beta in enumerate(betas):
        coeff = base * float(beta) * (-math.pi) ** m
        out[(M - c2 + m, M - c1 + m)] = coeff
    return out


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


@dataclass(frozen=True)
class CaseDatum:
    case_id: int
    w_terms: tuple  # ((coeff, (a1,a2), (b1,b2)), ...)
    phi: tuple  # ((c1,c2), ...) -> dict in assembly
    c_const: complex
    c_dual_const: complex
    eps_rs: complex


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


def zeta_integral_case(mu: CChar, nu: CChar, grid=DEFAULT_GRID, tol=REL_TOL_ARCH) -> dict:
    """Assemble Z(s, W, Phi) and the dual integral for the case datum; check
    that Z / L_Gal is the tabulated constant on the grid, extract eps_RS, and
    check the relation to eps_Gal."""
    mu_, nu_ = _normalized(mu, nu)
    datum = case_table(mu_, nu_)
    Lam = complex(mu_.lam) + complex(nu_.lam)
    t1, e1 = mu_.restrict_exponents()
    t2, e2 = nu_.restrict_exponents()
    omega0 = RChar(t1 + t2, (e1 + e2) % 2)
    phi = {c: 1.0 for c in datum.phi}
    phihat = phi_hat(phi)
    L = l_gal_arch(mu_, nu_)
    Ld = l_gal_arch(mu_, nu_, dual=True)

    def Z(s: complex) -> complex:
        zw = sum(
            coeff * zeta_whittaker_closed(s, ia, ib, RChar(0, 0), mu_, nu_)
            for coeff, ia, ib in datum.w_terms
        )
        return zw * phi_tate_integral(phi, s, Lam)

    def Zdual(s1ms: complex) -> complex:
        zw = sum(
            coeff * zeta_whittaker_closed(s1ms, ia, ib, omega0.inv(), mu_, nu_)
            for coeff, ia, ib in datum.w_terms
        )
        return zw * phi_tate_integral(phihat, s1ms, -Lam)

    ratios, ratios_dual = [], []
    for s in grid:
        ratios.append(Z(s) / L.eval(s))
        ratios_dual.append(Zdual(1 - s) / Ld.eval(1 - s))
    cbar = sum(ratios) / len(ratios)
    cbar_d = sum(ratios_dual) / len(ratios_dual)
    spread = max(abs(r - cbar) for r in ratios) / max(abs(cbar), 1e-30)
    spread_d = max(abs(r - cbar_d) for r in ratios_dual) / max(abs(cbar_d), 1e-30)
    eps_rs = cbar_d / cbar
    n0 = mu_.n - nu_.n
    eps_gal = eps_gal_arch(mu_, nu_).eval(0.5)
    # relation: omega^{-1}(xi) |xi|_C^{-s+1/2} lambda(psi) eps_RS = eps_Gal
    omega_xi = mu_.value(1j) * nu_.value(1j)
    relation_lhs = (1 / omega_xi) * lambda_C_R(1.0) * eps_rs
    return {
        "case": datum.case_id,
        "c": cbar,
        "c_expected": datum.c_const,
        "c_dual": cbar_d,
        "c_dual_expected": datum.c_dual_const,
        "spread": max(spread, spread_d),
        "ratio_dev": max(
            abs(cbar - datum.c_const) / abs(datum.c_const),
            abs(cbar_d - datum.c_dual_const) / abs(datum.c_dual_const),
        ),
        "eps_rs": eps_rs,
        "eps_rs_expected": datum.eps_rs,
        "eps_gal": eps_gal,
        "relation_dev": abs(relation_lhs - eps_gal) / abs(eps_gal),
        "ok": max(spread, spread_d) < tol
        and abs(cbar - datum.c_const) / abs(datum.c_const) < tol
        and abs(eps_rs - datum.eps_rs) < tol
        and abs(relation_lhs - eps_gal) / abs(eps_gal) < tol,
    }


def eps_rs_arch(mu: CChar, nu: CChar, b: float = 1.0, c_xi: float = 1.0) -> ArchFactor:
    """eps_RS(s, As pi, psi^b, c_xi * i) via the tabulated constant and the
    change-of-variable rule omega(b^2 c)|b^2 c|^{2s-1}."""
    datum = case_table(*_normalized(mu, nu))
    base = ArchFactor(c=datum.eps_rs)
    mu_, nu_ = _normalized(mu, nu)
    t1, e1 = mu_.restrict_exponents()
    t2, e2 = nu_.restrict_exponents()
    omega0 = RChar(t1 + t2, (e1 + e2) % 2)
    arg = b * b * c_xi
    scale = ArchFactor(c=omega0.value(arg), expos=((abs(arg), 2.0, -1.0),))
    return base * scale


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
