import cmath
import math
import random

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
    phi_value,
    quad_gl,
    tate_fe_oracle_complex,
    tate_fe_oracle_real,
    tate_gamma_complex,
    tate_gamma_real,
    whittaker_value_quadrature,
    zeta_integral_case,
    zeta_whittaker_closed,
    zeta_whittaker_quadrature,
)
from asailocal.factors import DEFAULT_GRID, loggamma


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
                lambda v: phi_value(phi, u, v) * cmath.exp(2j * math.pi * (u * y - v * x)),
                -6.0,
                6.0,
                1e-10,
            )
            return val

        return quad_gl(lambda u: inner_u(u), -6.0, 6.0, 1e-10)

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
