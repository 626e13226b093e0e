import cmath
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asailocal.arch as arch

from asailocal.arch import (
    CChar,
    RChar,
    case_table,
    combinatorial_identity,
    eps_gal_arch,
    eps_rs_arch,
    lambda_C_R,
    l_gal_arch,
    phi_hat,
    phi_hat_monomial,
    quad_gl,
    quad_real_line,
    tate_eps_complex,
    tate_eps_real,
    tate_L_complex,
    tate_L_real,
    whittaker_value_quadrature,
    zeta_integral_case,
    zeta_whittaker_closed,
    zeta_whittaker_quadrature,
)
from asailocal.factors import DEFAULT_GRID, ArchFactor, PoleError, loggamma

# -- the depth-first scalar quadrature, kept as the reference -----------------


def reference_quad_gl(f, a, b, tol=arch.QUAD_TOL, depth=0, panels=None):
    """Recursive adaptive Gauss-Legendre on one interval, one panel per call
    (appended to ``panels`` when given): the rule quad_gl applies per row."""
    if panels is not None:
        panels.append((a, b))
    x, w15, w30 = arch._gl_nodes()
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    fx = f(mid + half * x)
    coarse = complex(half * np.dot(w15, fx[:15]))
    fine = complex(half * np.dot(w30, fx[15:]))
    if not (cmath.isfinite(coarse) and cmath.isfinite(fine)):
        raise ArithmeticError(f"integrand is not finite on [{a}, {b}]")
    err = abs(fine - coarse)
    if err <= tol * max(1.0, abs(fine)) or depth >= 24:
        if depth >= 24 and err > 10 * tol * max(1.0, abs(fine)):
            raise ArithmeticError(f"quadrature failed to converge (err ~ {err:.2e})")
        return fine
    return reference_quad_gl(f, a, mid, tol / 1.4, depth + 1, panels) + reference_quad_gl(
        f, mid, b, tol / 1.4, depth + 1, panels
    )


def reference_quad_real_line(f, tol=arch.QUAD_TOL, L=9.0, panels=None):
    out = reference_quad_gl(f, -L, L, tol, panels=panels)
    step = 4.0
    while True:
        extra = reference_quad_gl(f, L, L + step, tol, panels=panels) + reference_quad_gl(
            f, -L - step, -L, tol, panels=panels
        )
        out += extra
        if abs(extra) <= 0.3 * tol * max(1.0, abs(out)):
            return out
        L += step
        step *= 1.3
        if L > 400:
            raise ArithmeticError("integrand tail does not decay")


def reference_whittaker(y, idx_a, idx_b, mu, nu, tol, panels):
    """One Whittaker value by the scalar integrand and the scalar quadrature."""
    A, B = sum(idx_a), sum(idx_b)
    w = 2 * (complex(mu.lam) - complex(nu.lam))

    def integrand(u):
        t = np.exp(u)
        yt = y * t
        return yt**A * t ** (-B) * np.exp(w * u - 2 * math.pi * (yt * yt + 1 / (t * t)))

    zz = complex(y)
    mu_y = abs(zz) ** (2 * (complex(mu.lam) - mu.n / 2)) * zz**mu.n
    return 4 * math.pi * mu_y * abs(y) * reference_quad_real_line(integrand, tol, panels=panels)


def reference_whittaker_integrand(u, ay, w, A, B):
    """The radial Whittaker integrand with the complex exp on every node."""
    t = np.exp(u)
    yt = ay * t
    g = yt * yt
    g += 1 / (t * t)
    g *= 2 * math.pi
    z = w * u
    z -= g
    np.exp(z, out=z)
    yt **= A
    t **= -B
    yt *= t
    z *= yt
    return z


def _dead_edge(ay, w):
    """The u > 0 where the real part of the exponent, Re(w) u - 2 pi ((ay
    e^u)^2 + e^(-2u)), falls to arch.EXP_UNDERFLOW (it decreases there)."""

    def re(u):
        return w.real * u - 2 * math.pi * ((ay * math.exp(u)) ** 2 + math.exp(-2 * u))

    lo, hi = 0.0, 12.0
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if re(mid) > arch.EXP_UNDERFLOW else (lo, mid)
    return lo


@st.composite
def integrand_nodes(draw):
    """Nodes that straddle the underflow cutoff on both sides of the peak and
    within 0.01 of it (where the exponent runs through [-761, -731]), with
    1-3 rows of |y| in [0.05, 8] gathered per node, A, B <= 4, |w| <= 0.8."""
    ays = draw(st.lists(st.floats(0.05, 8.0), min_size=1, max_size=3))
    w = cmath.rect(draw(st.floats(0.0, 0.8)), draw(st.floats(-math.pi, math.pi)))
    A, B = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    u, ay = [], []
    for r in ays:
        edge = _dead_edge(r, w)
        near = draw(st.lists(st.floats(-0.01, 0.01), min_size=1, max_size=20))
        far = draw(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=20))
        u += [edge + d for d in near] + far + [-10.0, 0.0, edge + 1.0]
        ay += [r] * (len(near) + len(far) + 3)
    return np.array(u), np.array(ay), w, A, B


@settings(max_examples=200, deadline=None)
@given(integrand_nodes())
def test_whittaker_integrand_equals_the_all_nodes_reference(case):
    # exact zeros below the cutoff are what the complex exp gives there
    u, ay, w, A, B = case
    got = arch.whittaker_integrand(u, ay, w, A, B)
    want = reference_whittaker_integrand(u.copy(), ay, w, A, B)
    assert (got == want).all()
    live = w.real * u - 2 * math.pi * ((ay * np.exp(u)) ** 2 + np.exp(-2 * u)) > arch.EXP_UNDERFLOW
    assert live.any() and not live.all()


def count_nodes_per_row(nodes_per_row, row_param):
    for v, n in zip(*np.unique(row_param, return_counts=True)):
        nodes_per_row[v] = nodes_per_row.get(v, 0) + n


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.3, 3.0), min_size=1, max_size=6, unique=True))
def test_quad_real_line_rows_match_the_scalar_reference(cs):
    # plain-exponential tails take each row through its own window steps
    nodes_per_row = {}

    def f(x, c):
        count_nodes_per_row(nodes_per_row, c)
        return np.exp(-(c + 1j) * np.abs(x))

    got = quad_real_line(f, args=(np.array(cs),))
    for c, g in zip(cs, got):
        panels = []
        want = reference_quad_real_line(lambda x: np.exp(-(c + 1j) * np.abs(x)), panels=panels)
        assert abs(g - want) <= 1e-14 * abs(want)
        assert nodes_per_row[c] == 45 * len(panels)


@st.composite
def whittaker_rows(draw):
    """Distinct |y| in [0.05, 8] at random signs, A = a1 + a2 and B = b1 + b2
    at most 4, mu, nu on the selection rule with w = 2(lam_mu - lam_nu),
    |w| <= 0.8, and the default tolerance or the oracle's."""
    ay = draw(st.lists(st.floats(0.05, 8.0), min_size=1, max_size=5, unique=True))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(ay), max_size=len(ay)))
    A, B = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a1, b1 = draw(st.integers(0, A)), draw(st.integers(0, B))
    w = cmath.rect(draw(st.floats(0.0, 0.8)), draw(st.floats(-math.pi, math.pi)))
    nu = CChar(0, draw(st.integers(-1, 1)))
    mu = CChar(w / 2, (2 * b1 - B) - (2 * a1 - A) + nu.n)
    tol = draw(st.sampled_from([arch.QUAD_TOL, 1e-11]))
    return np.array(ay) * np.array(signs), (a1, A - a1), (b1, B - b1), mu, nu, tol


@settings(max_examples=40, deadline=None)
@given(whittaker_rows())
def test_batched_whittaker_rows_match_the_scalar_reference(case):
    # each row of the breadth-first call is the depth-first scalar quadrature
    # of its own y, on the same panels
    y, idx_a, idx_b, mu, nu, tol = case
    nodes_per_row = {}

    def counting_quad_gl(f, a, b, tol=arch.QUAD_TOL, args=()):
        def g(x, ay):
            count_nodes_per_row(nodes_per_row, ay)
            return f(x, ay)

        return quad_gl(g, a, b, tol, args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arch, "quad_gl", counting_quad_gl)
        got = whittaker_value_quadrature(y, idx_a, idx_b, mu, nu, tol)
    assert got.shape == y.shape
    for yr, g in zip(y, got):
        panels = []
        want = reference_whittaker(float(yr), idx_a, idx_b, mu, nu, tol, panels)
        assert abs(g - want) <= 1e-14 * abs(want)
        assert nodes_per_row[abs(yr)] == 45 * len(panels)



def test_zeta_closed_reference_value():
    # mu = nu = 1, idx = 0: (2 pi)^{1-s} Gamma(s/2)^2
    mu = nu = CChar(0, 0)
    s = 1.7 + 0.3j
    got = zeta_whittaker_closed(s, (0, 0), (0, 0), RChar(0, 0), mu, nu)
    want = (2 * math.pi) ** (1 - s) * cmath.exp(2 * loggamma(s / 2))
    assert abs(got - want) / abs(want) < 1e-13


def test_selection_rule_zeros():
    mu = nu = CChar(0, 0)
    # rotation mismatch
    assert zeta_whittaker_closed(1.5, (1, 0), (0, 0), RChar(0, 0), mu, nu) == 0
    # parity vanishing: n1 + m + a1 + a2 odd
    assert zeta_whittaker_closed(1.5, (1, 1), (0, 0), RChar(0, 1), mu, nu) == 0
    assert abs(whittaker_value_quadrature(1.0, (1, 0), (0, 0), mu, nu)) < 1e-12


def test_whittaker_parity_under_sign_flip():
    # y -> -y multiplies W by the sign content of mu and the monomial degree
    mu, nu = CChar(0.1, 2), CChar(-0.05, 0)
    idx_a, idx_b = (0, 0), (0, 2)  # a1-a2+n1 = 2 = b1-b2+n2? 0-0+2 = 2, 0-2+0 = -2 -> violates
    idx_a, idx_b = (0, 1), (1, 0)  # -1+2 = 1, 1+0 = 1 ok
    wp = whittaker_value_quadrature(1.3, idx_a, idx_b, mu, nu)
    wm = whittaker_value_quadrature(-1.3, idx_a, idx_b, mu, nu)
    # mu(-1) = (-1)^{n1}, monomial parity = a1+a2
    assert abs(wm - (-1) ** (mu.n + 0 + 1) * wp) < 1e-9 * max(1, abs(wp))


def test_closed_vs_quadrature_random():
    rng = random.Random(9)
    for _ in range(3):
        n1, n2 = rng.randint(-1, 2), rng.randint(-1, 1)
        mu = CChar(complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1)), n1)
        nu = CChar(complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1)), n2)
        a1, a2 = rng.randint(0, 2), rng.randint(0, 1)
        diff = a1 - a2 + n1 - n2
        b1, b2 = (diff, 0) if diff >= 0 else (0, -diff)
        s = 2.3 + 0.1j
        closed = zeta_whittaker_closed(s, (a1, a2), (b1, b2), RChar(0, 0), mu, nu)
        quad = zeta_whittaker_quadrature(s, (a1, a2), (b1, b2), RChar(0, 0), mu, nu)
        if abs(closed) < 1e-12:
            assert abs(quad) < 1e-8
        else:
            assert abs(closed - quad) / abs(closed) < 1e-6


# -- the archimedean Tate closed forms and their quadrature oracle, kept as
# test references: the oracle pins the eps conventions of tate_eps_real and
# tate_eps_complex, and no verify suite runs it


def tate_gamma_real(chi: RChar, a: float = 1.0) -> ArchFactor:
    return tate_eps_real(chi, a) * tate_L_real(chi.inv()).reflect() / tate_L_real(chi)


def tate_gamma_complex(chi: CChar, b: complex = 1.0) -> ArchFactor:
    return (
        tate_eps_complex(chi, b)
        * tate_L_complex(chi.inv()).reflect()
        / tate_L_complex(chi)
    )


def tate_fe_oracle_real(chi: RChar, s: complex, tol=arch.QUAD_TOL) -> complex:
    """gamma(s, chi, psi) = Z(1-s, chi^{-1}, f^) / Z(s, chi, f) by quadrature,
    f = x^m e^{-pi x^2} with m matching the sign character.

    Both integrals converge only in the strip 0 < Re(s + lam) < 1, and near
    its edges their tails decay so slowly that quad_real_line widens its
    window past 400 and raises."""
    m = chi.m % 2

    def f(x: np.ndarray) -> np.ndarray:
        return x**m * np.exp(-math.pi * x * x)

    def fhat(x: np.ndarray) -> np.ndarray:
        return (1j**m) * x**m * np.exp(-math.pi * x * x)

    def z(fn, sv, ch):
        # ch(+-y) = (+-1)^m y^lam for y > 0
        lam, sign = complex(ch.lam), (-1) ** (ch.m % 2)

        def integrand(u: np.ndarray) -> np.ndarray:
            y = np.exp(u)
            return (fn(y) + sign * fn(-y)) * y**lam * np.exp(complex(sv) * u)

        return quad_real_line(integrand, tol, L=6.0)

    return z(fhat, 1 - s, chi.inv()) / z(f, s, chi)


def tate_fe_oracle_complex(chi: CChar, s: complex, tol=arch.QUAD_TOL) -> complex:
    """Same oracle over C with f = conj(z)^n e^{-2 pi |z|^2} (n >= 0) or its
    conjugate; psi_C = standard psi o tr, measure twice Lebesgue.  The same
    strip 0 < Re(s + lam) < 1 bounds where it converges."""
    n = chi.n

    def f(z: np.ndarray) -> np.ndarray:
        if n >= 0:
            return np.conj(z) ** n * np.exp(-2 * math.pi * np.abs(z) ** 2)
        return z ** (-n) * np.exp(-2 * math.pi * np.abs(z) ** 2)

    def fhat(z: np.ndarray) -> np.ndarray:
        mono = z**n if n >= 0 else np.conj(z) ** (-n)
        return (1j ** abs(n)) * mono * np.exp(-2 * math.pi * np.abs(z) ** 2)

    K = 64
    rotations = np.exp(2j * math.pi * np.arange(K) / K)

    def z_int(fn, sv, ch):
        # ch(z) = |z|_C^{lam - n/2} z^n with |z|_C = |z|^2
        lam, n_ch = complex(ch.lam), ch.n

        # polar: z = r e^{i theta}, d^x z = 2 dr dtheta / r; the theta-integral
        # is the K-point rectangle rule, one row of angles per node
        def radial(u: np.ndarray) -> np.ndarray:
            r = np.exp(u)
            zz = r[:, None] * rotations
            vals = fn(zz) * np.abs(zz) ** (2 * (lam - n_ch / 2)) * zz**n_ch
            acc = vals.sum(axis=1) * (2 * math.pi / K)
            return acc * 2 * (r**2) ** complex(sv)

        return quad_real_line(radial, tol, L=5.0)

    return z_int(fhat, 1 - s, chi.inv()) / z_int(f, s, chi)


def phi_value(phi: dict, x, y):
    """Phi at (x, y); x and y are floats or arrays that broadcast together."""
    z = x + 1j * y
    out = 0j
    for (c1, c2), coef in phi.items():
        out += coef * z**c1 * np.conj(z) ** c2
    return out * np.exp(-math.pi * (x * x + y * y))


def test_phi_hat_eigenfunctions():
    # Phi_{(0,0)} is self-dual; Phi_{(0,1)} is anti-self-dual; (0,2) self-dual
    assert phi_hat_monomial(0, 0) == {(0, 0): 1.0}
    got = phi_hat_monomial(0, 1)
    assert set(got) == {(0, 1)} and abs(got[(0, 1)] + 1.0) < 1e-14
    got = phi_hat_monomial(0, 2)
    assert set(got) == {(0, 2)} and abs(got[(0, 2)] - 1.0) < 1e-14


def test_phi_hat_against_numeric_transform():
    # check the Bargmann-derived transform by direct 2-D quadrature
    phi = {(1, 1): 1.0}
    hat = phi_hat(phi)

    def numeric_hat(x, y):
        def inner_u(u):
            val = quad_gl(
                lambda v: phi_value(phi, u, v) * np.exp(2j * math.pi * (u * y - v * x)),
                -6.0,
                6.0,
                1e-10,
            )
            return val

        return quad_gl(lambda us: np.array([inner_u(u) for u in us]), -6.0, 6.0, 1e-10)

    for x, y in [(0.3, -0.2), (0.0, 0.7)]:
        lhs = numeric_hat(x, y)
        rhs = phi_value(hat, x, y)
        assert abs(lhs - rhs) < 1e-7


def test_case_table_classification():
    cases = {
        (2, 0): 1,
        (3, 1): 2,
        (2, 1): 3,
        (3, 0): 4,
        (1, 1): 5,
        (0, 0): 1,
        (0, -3): 3,
        (-1, -1): 5,
    }
    for (n1, n2), want in cases.items():
        datum = case_table(CChar(0.1, n1), CChar(0.0, n2))
        assert datum.case_id == want, (n1, n2)


def test_zeta_integral_cases_all_pass():
    for n1, n2 in [(2, 0), (3, 1), (2, 1), (3, 0), (1, 1)]:
        rep = zeta_integral_case(CChar(0.13 + 0.07j, n1), CChar(-0.11 + 0.02j, n2))
        assert rep["ok"], rep
        assert abs(rep["eps_rs"] - rep["eps_rs_expected"]) < 1e-8


def test_zeta_integral_case_pole_names_the_grid_point():
    # at s = 1.5 the dual integral, taken at 1 - s = -0.5, hits a Gamma
    # pole; the error names s, not the Gamma argument
    with pytest.raises(PoleError) as exc:
        zeta_integral_case(CChar(0, 2), CChar(0, 1), grid=(2 + 0.5j, 1.5))
    assert exc.value.where == 1.5


def test_l_gal_dual_symmetry():
    # L for the contragredient is the lam -> -lam substitution
    mu, nu = CChar(0.2 + 0.1j, 3), CChar(-0.1, 1)
    Ld = l_gal_arch(mu, nu, dual=True)
    Ld2 = l_gal_arch(mu.inv(), nu.inv())
    for s in DEFAULT_GRID:
        assert abs(Ld.eval(s) - Ld2.eval(s)) < 1e-10 * max(1, abs(Ld.eval(s)))


def test_eps_gal_constant():
    # eps_Gal = i^{1+e1+e2+n0} at the standard character
    mu, nu = CChar(0.0, 0), CChar(0.0, 0)
    assert abs(eps_gal_arch(mu, nu).eval(0.5) - 1j) < 1e-12
    mu, nu = CChar(0.0, 1), CChar(0.0, 0)
    assert abs(eps_gal_arch(mu, nu).eval(0.5) - 1j ** (1 + 1 + 0 + 1)) < 1e-12


def test_l_factors_reference_shapes():
    from asailocal.arch import tate_L_complex, tate_L_real, tate_eps_real
    from asailocal.factors import ArchFactor, approx_equal

    # trivial char over R: L = zeta_R(s), eps = 1
    L, = (tate_L_real(RChar(0, 0)),)
    ok, dev = approx_equal(L, ArchFactor.zeta_R(), [0.7, 1.6], 1e-12)
    assert ok
    assert abs(tate_eps_real(RChar(0, 0)).eval(1.1) - 1) < 1e-14
    # z/|z| over C: L = zeta_C(s + 1/2)
    L = tate_L_complex(CChar(0.0, 1))
    ok, dev = approx_equal(L, ArchFactor.zeta_C(0.5), [0.7, 1.6], 1e-12)
    assert ok
    # mu = nu = 1: L_Gal = zeta_R(s)^2 zeta_C(s)
    L = l_gal_arch(CChar(0, 0), CChar(0, 0))
    want = ArchFactor.zeta_R() * ArchFactor.zeta_R() * ArchFactor.zeta_C()
    ok, dev = approx_equal(L, want, [0.7, 1.6, 2.1 + 0.5j], 1e-12)
    assert ok


def test_lambda_C_R_signs():
    assert lambda_C_R(1.0) == 1j
    assert lambda_C_R(-2.5) == -1j
    # lambda = eps(1/2, sgn, psi): at the center gamma = eps since the two
    # L-values coincide, so the quadrature oracle pins the sign of i
    oracle = tate_fe_oracle_real(RChar(0, 1), 0.5)
    assert abs(oracle - 1j) < 1e-7
    assert abs(tate_gamma_real(RChar(0, 1)).eval(0.5) - 1j) < 1e-12


def test_real_and_complex_tate_oracles():
    for m in (0, 1):
        chi = RChar(0.08 - 0.03j, m)
        for s in (0.45, 0.7):
            got = tate_fe_oracle_real(chi, s)
            want = tate_gamma_real(chi).eval(s)
            assert abs(got - want) / abs(want) < 1e-6
    for n in (-2, 0, 1):
        chi = CChar(0.05 + 0.02j, n)
        got = tate_fe_oracle_complex(chi, 0.8)
        want = tate_gamma_complex(chi).eval(0.8)
        assert abs(got - want) / abs(want) < 1e-6


def test_arch_relation_under_scalings():
    for b, cxi in [(2.0, 1.0), (-1.0, 3.0), (0.5, -2.0)]:
        for n1, n2 in [(2, 0), (2, 1), (3, 0), (1, 1)]:
            mu = CChar(0.05 + 0.02j, n1)
            nu = CChar(-0.03 - 0.01j, n2)
            ers = eps_rs_arch(mu, nu, b, cxi)
            eg = eps_gal_arch(mu, nu, a=b)
            omega_xi = mu.value(cxi * 1j) * nu.value(cxi * 1j)
            for s in (0.7, 1.3, 2.1 + 0.5j):
                lhs = (1 / omega_xi) * (cxi * cxi) ** (-s + 0.5) * lambda_C_R(b) * ers.eval(s)
                assert abs(lhs - eg.eval(s)) / abs(eg.eval(s)) < 1e-9


def test_combinatorial_identity_examples():
    lhs, rhs, dev = combinatorial_identity(0, 1.7 + 0.2j, 3.3)
    assert dev < 1e-14
    lhs, rhs, dev = combinatorial_identity(1, 2.0, 3.0)
    # Gamma(2)Gamma(3) + Gamma(3)Gamma(2) = 1*2 + 2*1 = 4
    assert abs(lhs - 4) < 1e-12 and dev < 1e-12
    lhs, rhs, dev = combinatorial_identity(6, 1.3 + 0.4j, 5.7)
    assert dev < 1e-9


def test_quad_gl_one_panel_is_exact_for_low_degree():
    # G15 and G30 are both exact for x^28, so the first panel is accepted
    calls = []

    def f(x):
        calls.append(len(x))
        return x**28

    assert abs(quad_gl(f, -1.0, 1.0) - 2 / 29) < 1e-14
    assert calls == [45]


def test_quad_real_line_gaussian():
    assert abs(quad_real_line(lambda x: np.exp(-math.pi * x * x)) - 1) < 1e-12


def test_quad_rows_broadcast_to_the_result_shape():
    # int_0^b x^2 dx = b^3 / 3 per row; a scalar call returns a complex number
    b = np.array([1.0, 2.0, 3.0])
    got = quad_gl(lambda x: x * x, 0.0, b)
    assert got.shape == (3,) and np.allclose(got, b**3 / 3, rtol=1e-14, atol=0)
    assert isinstance(quad_gl(lambda x: x * x, 0.0, 1.0), complex)
    # int_R e^{-pi c x^2} dx = c^{-1/2}, rows shaped (2, 2) by the parameter
    c = np.array([[1.0, 2.0], [0.5, 4.0]])
    got = quad_real_line(lambda x, cx: np.exp(-math.pi * cx * x * x), args=(c,))
    assert got.shape == (2, 2) and np.allclose(got, c**-0.5, rtol=1e-12, atol=0)


def test_quad_gl_refuses_nan_at_once():
    calls = []

    def f(x):
        calls.append(1)
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(ArithmeticError, match=r"not finite on \[0\.0, 1\.0\]"):
        quad_gl(f, 0.0, 1.0)
    assert len(calls) == 1


def test_quad_gl_refuses_nan_in_one_row_at_once():
    calls = []

    def f(x, c):
        calls.append(len(x))
        return np.where(x > c, np.nan, 1.0)

    with pytest.raises(ArithmeticError, match=r"not finite on \[2\.0, 3\.0\]"):
        quad_gl(f, np.array([0.0, 2.0, 0.0]), np.array([1.0, 3.0, 1.0]), args=(np.array([5.0, 2.5, 5.0]),))
    assert calls == [3 * 45]


def test_quad_gl_depth_24_raises_naming_the_panel():
    # a unit jump at 1/3 leaves one panel over the tolerance at every level;
    # the rows without a jump are done after the first call
    calls = []

    def f(x, c):
        calls.append(len(x))
        return np.where(x > c, 1.0, 0.0)

    with pytest.raises(ArithmeticError, match=r"failed to converge on \[0\.33333331\d*, 0\.33333337\d*\]"):
        quad_gl(f, 0.0, 1.0, args=(np.array([2.0, 1 / 3, 2.0]),))
    assert calls == [3 * 45] + [2 * 45] * 24


def test_quad_real_line_tail_raises_naming_the_window():
    # a constant has no tail decay: its row's window grows until it passes
    # 400, and the Gaussian rows beside it are done after one extension
    L, step, stages = 9.0, 4.0, 0
    while L <= 400:
        L, step, stages = L + step, step * 1.3, stages + 1
    calls = []

    def f(x, bad):
        calls.append(len(x))
        return np.where(bad, 1.0, np.exp(-math.pi * x * x))

    window = re.escape(f"[{-L}, {L}]")
    with pytest.raises(ArithmeticError, match=r"tail does not decay beyond " + window):
        quad_real_line(f, args=(np.array([False, True, False]),))
    # each extension of a constant is exact on its two boundary panels
    assert calls[-stages:] == [3 * 2 * 45] + [2 * 45] * (stages - 1)


def test_quad_gl_refuses_scalar_integrand():
    with pytest.raises(TypeError):
        quad_gl(lambda x: 1.0, 0.0, 1.0)


def test_oracles_call_no_closed_form(monkeypatch):
    def closed_form(*args, **kwargs):
        raise AssertionError("the quadrature oracle called a closed form")

    # the Tate oracles and their closed forms live in this module
    here = sys.modules[__name__]
    for name in ("zeta_whittaker_closed", "loggamma", "gammafn"):
        monkeypatch.setattr(arch, name, closed_form)
    for name in ("tate_gamma_real", "tate_gamma_complex", "loggamma"):
        monkeypatch.setattr(here, name, closed_form)
    mu, nu = CChar(0.1, 1), CChar(-0.05, 0)
    values = [
        zeta_whittaker_quadrature(2.3 + 0.1j, (0, 0), (1, 0), RChar(0, 1), mu, nu),
        whittaker_value_quadrature(1.3, (0, 0), (1, 0), mu, nu),
        tate_fe_oracle_real(RChar(0.08, 1), 0.7),
        tate_fe_oracle_complex(CChar(0.05, -1), 0.8),
    ]
    assert all(cmath.isfinite(v) and v != 0 for v in values)
