import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asailocal.asai import AsaiInput, gamma_rs, l_rs
from asailocal.characters import (
    MultChar,
    Phase,
    conductor_add,
    psi_to_E,
    restrict_to_F,
    shell_cyc,
    standard_psi,
)
from asailocal.cyclotomic import Cyc
from asailocal.factors import DEFAULT_GRID
from asailocal.padic import EXTENSION_TYPES, PAdicGround, QuadExtension, RAMIFIED_P, UNRAMIFIED
from asailocal.tate import _qpow, coset_integral, shell_integral
from asailocal.unitgroups import unit_group
from asailocal.verify import suite_whittaker_closed_forms
from asailocal import whittaker
from asailocal.whittaker import (
    InducedSection,
    spherical_gamma_oracle,
    spherical_zeta,
    w_case1,
    w_case2,
    whittaker_value,
)

from certified_tate import certified_eps


# -- 2x2 matrices over E as products: the stability-probe test builds the w1
# shape from these, independently of the shapes whittaker.py writes out


def _mat_mul(E: QuadExtension, M1, M2):
    (a, b), (c, d) = M1
    (e, f), (g, h) = M2
    a, b, c, d, e, f, g, h = map(E.embed, (a, b, c, d, e, f, g, h))
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def w1_matrix(E: QuadExtension):
    return ((E.elem(0), E.elem(-1)), (E.elem(1), E.elem(0)))


def lower_unipotent(E: QuadExtension, x):
    return ((E.one(), E.zero()), (E.embed(x), E.one()))


def diag_matrix(E: QuadExtension, a, d=1):
    return ((E.embed(a), E.zero()), (E.zero(), E.embed(d)))


def find_char(E, lvl, ramified_restriction, t_angle=Fraction(1, 3)):
    G = unit_group(E, lvl)
    for ks in itertools.product(*[range(d) for d in G.orders]):
        if all(k == 0 for k in ks):
            continue
        mu = MultChar.from_angles(
            E, lvl, [Fraction(k, d) for k, d in zip(ks, G.orders)], Phase.exact(t_angle)
        )
        if mu.n == lvl and (restrict_to_F(mu).n >= 1) == ramified_restriction:
            return mu
    return None


def make_section(p, ext, lvl, ramified_restriction):
    F = PAdicGround(p)
    psi = standard_psi(F)
    E = QuadExtension(F, ext)
    psix = psi_to_E(psi, E, E.xi())
    mu = find_char(E, lvl, ramified_restriction)
    if mu is None:
        return None
    return InducedSection(E, mu, MultChar.trivial(E), psix)


def test_closed_form_case1_exact_p3():
    # W_g(diag(a,1)) = |a| 1_{pi^(c_mu - r) O}(a), exactly
    for ext in EXTENSION_TYPES:
        for lvl in (1, 2):
            sec = make_section(3, ext, lvl, True)
            if sec is None:
                continue
            E, mu = sec.E, sec.mu
            r = -(-mu.n // E.e)
            c_mu = restrict_to_F(mu).n
            for va in range(c_mu - r - 2, 2):
                for ua in (1, 2):
                    a = Fraction(3) ** va * ua
                    got = w_case1(sec, a)
                    want = Cyc.rational(Fraction(3) ** (-va)) if va >= c_mu - r else Cyc.zero()
                    assert (got - want).is_zero(), (ext, lvl, a)


def test_closed_form_case2_exact_p3():
    # W_h(diag(a,1)) = mu(a)|a| mu(pi)^r 1_{pi^-r O}(a) + |a| 1_{pi^(1-r) O}(a)
    for ext in EXTENSION_TYPES:
        for lvl in (1, 2) if ext == UNRAMIFIED else (2,):
            sec = make_section(3, ext, lvl, False)
            if sec is None:
                continue
            E, mu = sec.E, sec.mu
            r = -(-mu.n // E.e)
            for va in range(-r - 2, 2):
                for ua in (1, 2):
                    a = Fraction(3) ** va * ua
                    got = w_case2(sec, a)
                    want = Cyc.zero()
                    if va >= -r:
                        want = want + mu.cyc(E.embed(a)) * Fraction(3) ** (-va) * mu.cyc(
                            E.embed(3)
                        ) ** r
                    if va >= 1 - r:
                        want = want + Cyc.rational(Fraction(3) ** (-va))
                    assert (got - want).is_zero(), (ext, lvl, a)


def test_rho_w1_shape():
    # rho(w1) W_f at [[y,0],[x,1]]: support 1_O(pi^c y), modulus
    # |pi^c y|^{1/2}, and a constant equal to the Tate-constituent
    # eps(1/2, mu, psi_xi) up to the omega(-1) sign that separates the two
    # standard pi-level epsilon normalizations (here it lands on mu(-1))
    for ext, lvl in [(UNRAMIFIED, 1), (RAMIFIED_P, 2)]:
        sec = make_section(3, ext, lvl, True)
        E, mu = sec.E, sec.mu
        c = mu.n
        eps_val = certified_eps(mu, sec.psi_xi).eval(0.5)
        pi_E = E.uniformizer()
        consts = []
        for x in (E.zero(), E.one(), E.elem(1, 1)):
            for vy in range(-c - 2, 2):
                y = pi_E**vy
                # rho(w1) W at ((y, 0), (x, 1)) is W at ((y, 0), (x, 1)) w1
                got = whittaker_value(sec, ((0, -y), (1, -x))).to_complex()
                ny = E.val(y)
                if ny + c >= 0:
                    scale = mu.value(y) * E.q ** (-Fraction(c + ny, 2) * 1.0)
                    consts.append(got / scale)
                else:
                    assert abs(got) < 1e-12, (ext, x, vy, got)
        # constant across the support, unimodular, Tate value up to mu(-1)
        assert max(abs(v - consts[0]) for v in consts) < 1e-10
        assert abs(abs(consts[0]) - 1) < 1e-10
        sign = mu.value(E.elem(-1))
        assert abs(consts[0] - sign * eps_val) < 1e-8


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_exact_half_integer_powers(p):
    # q^(1/2) is exact (sqrt(p) as a quadratic Gauss sum), for p = 1 and 3 mod 4
    root = _qpow(p, Fraction(1, 2))
    assert root * root == Cyc.rational(p)
    assert abs(root.to_complex() - math.sqrt(p)) < 1e-12
    assert _qpow(p, Fraction(-3, 2)) * Cyc.rational(p**2) == root
    assert _qpow(p * p, Fraction(1, 2)) == Cyc.rational(p)


def test_whittaker_from_section_support():
    # the unaveraged h = 1_O section has W(diag(a,1)) = |a|_E^{1/2} 1_O(a)
    # shape scaled by the big-cell Fourier mass
    sec = make_section(3, UNRAMIFIED, 1, True)
    E = sec.E
    v0 = whittaker_value(sec, ((E.one(), 0), (0, 1)))
    assert not v0.is_zero()
    v_neg = whittaker_value(sec, ((E.uniformizer().inv(), 0), (0, 1)))
    assert v_neg.is_zero()


def enumerated_shell(chi, j, psi, s):
    """int_{ord t = j} chi(t) psi(-s t) dt, dt self-dual for psi, by honest
    enumeration of the shell at a modulus one step finer than the integrand
    needs, against the explicitly shifted character t -> psi(s t)."""
    q = chi.field.q
    psi_s = psi.shifted(s)
    m = max(chi.n, conductor_add(psi_s) - j, 1) + 1
    vol_O = _qpow(q, Fraction(conductor_add(psi), 2))
    return shell_cyc(chi, psi_s, j, m, -1) * _qpow(q, -(j + m)) * vol_O


def test_stability_probes_run_on_the_w1_shape(monkeypatch):
    # diag(a,1) w1 u_-(u), the second sum of w_case2, reaches the big-cell
    # branch with beta != 0 and b2 = 0, which sums only the shells where
    # chi(t) psi(-s t) can integrate to non-zero: the shell c - ord s - n of
    # a ramified chi, the shells from c - ord s - 1 on of an unramified one.
    # Each summed shell must equal its enumeration, and the shells next to
    # the stable ones, enumerated, must be zero
    summed = []
    real = whittaker.shell_integral

    def recording(chi, j, psi, s):
        summed.append((chi, j, psi, s))
        return real(chi, j, psi, s)

    monkeypatch.setattr(whittaker, "shell_integral", recording)
    matrices = 0
    for ext in EXTENSION_TYPES:
        for lvl, restricted in ((1, True), (1, False), (2, True), (2, False)):
            sec = make_section(3, ext, lvl, restricted)
            if sec is None:
                continue
            E = sec.E
            for va in range(-2, 2):
                a = E.uniformizer() ** va * 2
                for u in range(3):
                    M = _mat_mul(E, diag_matrix(E, a), _mat_mul(E, w1_matrix(E), lower_unipotent(E, u)))
                    whittaker_value(sec, M)
                    matrices += 1
    assert matrices == 120
    probed = 0
    for chi, j, psi, s in dict.fromkeys(summed):
        assert (enumerated_shell(chi, j, psi, s) - real(chi, j, psi, s)).is_zero(), (chi, j)
        c_s = conductor_add(psi) - chi.field.val(s)
        for edge in (j - 1, j + 1) if chi.n else (c_s - 2,):
            assert enumerated_shell(chi, edge, psi, s).is_zero(), (chi, j, edge)
            probed += 1
    assert probed > 0


def test_whittaker_closed_forms_at_p7():
    # both closed forms, every extension type, at the next prime up
    out = suite_whittaker_closed_forms(ps=(7,))
    assert out["ok"], out["detail"]
    assert out["max_deviation"] == 0.0


def test_whittaker_closed_forms_at_p11():
    # both closed forms, every extension type, at p = 11
    out = suite_whittaker_closed_forms(ps=(11,))
    assert out["ok"], out["detail"]
    assert out["max_deviation"] == 0.0


# -- psi(s .) as a multiplier against the explicitly shifted character ---------


@st.composite
def multiplier_cases(draw):
    """F or E over p in {3, 5, 7}, a character of conductor <= 2, the
    standard psi (psi_xi on E) and a multiplier s = pi^v * unit, v in
    [-2, 2]."""
    p = draw(st.sampled_from([3, 5, 7]))
    ext = draw(st.sampled_from((None,) + EXTENSION_TYPES))
    F = PAdicGround(p)
    if ext is None:
        K, psi = F, standard_psi(F)
    else:
        K = QuadExtension(F, ext)
        psi = psi_to_E(standard_psi(F), K, K.xi())
    n = draw(st.integers(0, 2))
    G = unit_group(K, n)
    angles = [Fraction(draw(st.integers(0, d - 1)), d) for d in G.orders]
    chi = MultChar.from_angles(K, n, angles, Phase.exact(Fraction(draw(st.integers(0, 11)), 12)))

    def unit():
        a = draw(st.sampled_from([1, 2, -1]))
        return Fraction(a) if ext is None else K.elem(a, draw(st.sampled_from([0, 1, p])))

    s = K.uniformizer() ** draw(st.integers(-2, 2)) * unit()
    t0 = K.uniformizer() ** draw(st.integers(-2, 2)) * unit()
    return K, chi, psi, s, t0, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(multiplier_cases())
def test_multiplier_equals_shifted_character(case):
    # the production route takes psi and s; the reference route builds
    # x -> psi(s x) as its own character, with its conductor found by
    # brute force, and must give the same exact value once moved from the
    # self-dual measure of psi(s .) to that of psi
    K, chi, psi, s, t0, J = case
    psi_s = psi.shifted(s)
    c_s = conductor_add(psi_s)
    assert c_s == conductor_add(psi) - K.val(s)
    # both measures are self-dual, for psi and for psi_s
    rescale = _qpow(K.q, Fraction(conductor_add(psi) - c_s, 2))
    for j in range(c_s - chi.n - 2, c_s - chi.n + 2):
        got = shell_integral(chi, j, psi, s)
        want = shell_integral(chi, j, psi_s, 1) * rescale
        assert (got - want).is_zero(), (j, got, want)
    L = K.val(t0) + J
    got = coset_integral(chi, t0, L, psi, s)
    want = coset_integral(chi, t0, L, psi_s, 1) * rescale
    assert (got - want).is_zero(), (got, want)


def test_spherical_zeta_matches_euler_product():
    rng = random.Random(1)
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            mu = MultChar.unramified(E, Phase.exact(Fraction(rng.randrange(1, 24), 24)))
            nu = MultChar.unramified(E, Phase.exact(Fraction(rng.randrange(1, 24), 24)))
            L = l_rs(AsaiInput(E, mu, nu, psi, E.xi()))
            w1 = 1 - (mu.t_full() / nu.t_full()) / E.q  # W(1) = 1 - (mu/nu)(pi)/q_E
            for s in (0.9, 1.4):
                z = spherical_zeta(s, mu, nu, E) / w1
                assert abs(z - L.eval(s)) / abs(L.eval(s)) < 1e-10


def test_spherical_zeta_rational_function_fit():
    # values at 8 sample points determine the rational function; 2 more
    # points must then be consistent (validates the continuation)
    import numpy as np

    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    mu = MultChar.unramified(E, Phase.exact(Fraction(1, 5)))
    nu = MultChar.unramified(E, Phase.exact(Fraction(2, 7)))
    samples = [1.1, 1.35, 1.6, 1.85, 2.1, 2.35, 2.6, 2.85]
    extras = [0.7, 3.4 + 0.5j]
    deg_num, deg_den = 3, 4
    rows, rhs = [], []
    for s in samples:
        X = 3.0 ** (-s)
        Z = spherical_zeta(s, mu, nu, E)
        row = [X**k for k in range(deg_num + 1)]
        row += [-Z * X**k for k in range(1, deg_den + 1)]
        rows.append(row)
        rhs.append(Z)
    coef, *_ = np.linalg.lstsq(np.array(rows, dtype=complex), np.array(rhs, dtype=complex), rcond=None)
    P = coef[: deg_num + 1]
    Q = np.concatenate([[1.0], coef[deg_num + 1 :]])
    for s in extras:
        X = 3.0 ** (-s)
        Z = spherical_zeta(s, mu, nu, E)
        fit = sum(P[k] * X**k for k in range(len(P))) / sum(
            Q[k] * X**k for k in range(len(Q))
        )
        assert abs(fit - Z) / abs(Z) < 1e-7


def test_gamma_oracle_matches_gamma_rs_and_is_box_robust():
    rng = random.Random(2)
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            mu = MultChar.unramified(E, Phase.exact(Fraction(rng.randrange(1, 24), 24)))
            nu = MultChar.unramified(E, Phase.exact(Fraction(rng.randrange(1, 24), 24)))
            gam = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi()))
            for s in DEFAULT_GRID:
                lhs = spherical_gamma_oracle(s, mu, nu, E)
                assert abs(lhs - gam.eval(s)) / abs(gam.eval(s)) < 1e-8
            # same ratio from the shrunken K-invariant box pair
            lhs = spherical_gamma_oracle(0.7, mu, nu, E, box_level=1)
            assert abs(lhs - gam.eval(0.7)) / abs(gam.eval(0.7)) < 1e-8
