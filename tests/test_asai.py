import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asailocal.asai as asai_mod
import asailocal.tate as tate_mod
from asailocal.asai import (
    AsaiInput,
    TwistedPair,
    central_value,
    dichotomy_sign,
    eps_gal,
    eps_gal_comparison,
    eps_rs,
    gamma_gal,
    gamma_psr,
    gamma_rs,
    l_rs,
    split_eps_check,
)
from asailocal.characters import (
    MultChar,
    Phase,
    extend_from_F,
    omega_quadratic,
    restrict_to_F,
    standard_psi,
)
from asailocal.factors import DEFAULT_GRID, approx_equal
from asailocal.padic import EXTENSION_TYPES, PAdicGround, QuadExtension, UNRAMIFIED
from asailocal.unitgroups import unit_group
from asailocal.verify import suite_theorem_b

from certified_tate import certified_gamma
from random_chars import rand_char, unit_angle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_gamma_rs_trivial_decomposes_into_tate_factors():
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    psi = standard_psi(F)
    from asailocal.characters import psi_to_E

    triv_E = MultChar.trivial(E)
    inp = AsaiInput(E, triv_E, triv_E, psi, E.xi())
    gam = gamma_rs(inp, check=True)
    trivF = MultChar.trivial(F)
    want = certified_gamma(trivF, psi) * certified_gamma(trivF, psi) * certified_gamma(
        triv_E, psi_to_E(psi, E, E.xi())
    ).rebase(3)
    ok, dev = approx_equal(gam, want, DEFAULT_GRID, 1e-10)
    assert ok, dev


def test_xi_must_be_trace_zero():
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    with pytest.raises(ValueError):
        AsaiInput(E, MultChar.trivial(E), MultChar.trivial(E), standard_psi(F), E.elem(1, 1))


def test_eps_rs_is_monomial_and_matches_corollary():
    rng = random.Random(10)
    for k in range(6):
        p = rng.choice([3, 5])
        F = PAdicGround(p)
        E = QuadExtension(F, EXTENSION_TYPES[k % 3])
        psi = standard_psi(F).shifted(Fraction(rng.choice([1, 2, p])))
        xi = E.xi() * E.embed(Fraction(rng.choice([1, 2, p])))
        mu, nu = rand_char(E, 2, rng), rand_char(E, 2, rng)
        chi = rand_char(F, 1, rng) if k % 2 else None
        inp = AsaiInput(E, mu, nu, psi, xi, chi)
        eps_rs(inp).as_monomial()  # raises if not monomial
        rep = eps_gal_comparison(inp)
        assert rep["ok"], rep["max_deviation"]


def test_eps_comparison_fully_unramified_is_one():
    # unramified everything, xi a unit (E unramified), c(psi) = 0: both the
    # zeta-side and Galois-side epsilon are 1
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    psi = standard_psi(F)
    mu = MultChar.unramified(E, Phase.exact(Fraction(1, 8)))
    nu = MultChar.unramified(E, Phase.exact(Fraction(5, 12)))
    inp = AsaiInput(E, mu, nu, psi, E.xi())
    eps = eps_rs(inp)
    c, m = eps.as_monomial()
    assert m == 0 and abs(c - 1) < 1e-12
    rep = eps_gal_comparison(inp)
    assert rep["ok"]
    cg, mg = eps_gal(inp).as_monomial()
    assert mg == 0 and abs(cg - 1) < 1e-12


def test_downstream_eps_monomial_matches_log_slope():
    # structural (c, m) of a downstream eps agrees with the numeric
    # slope/intercept of log eval
    import cmath
    import math

    rng = random.Random(18)
    F = PAdicGround(3)
    E = QuadExtension(F, EXTENSION_TYPES[1])
    psi = standard_psi(F)
    mu, nu = rand_char(E, 2, rng), rand_char(E, 1, rng)
    eps = eps_rs(AsaiInput(E, mu, nu, psi, E.xi()))
    c, m = eps.as_monomial()
    v0, v1 = eps.eval(0), eps.eval(1)
    m_hat = -(cmath.log(v1) - cmath.log(v0)).real / math.log(3)
    assert abs(m_hat - m) < 1e-9
    assert abs(v0 - c) < 1e-9 * max(1, abs(c))


def test_gamma_rs_dual_involution():
    # gamma_RS(s, pi) gamma_RS(1-s, pi-dual) = 1
    rng = random.Random(11)
    p = 3
    F = PAdicGround(p)
    psi = standard_psi(F)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        mu, nu = rand_char(E, 1, rng), rand_char(E, 1, rng)
        g = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi()))
        gd = gamma_rs(AsaiInput(E, mu.inv(), nu.inv(), psi.shifted(-1), E.xi()))
        for s in (0.7, 1.3, 0.4 - 0.8j):
            assert abs(g.eval(s) * gd.eval(1 - s) - 1) < 1e-9


def _relative_kernel_char(E: QuadExtension, model: MultChar) -> MultChar:
    """A nontrivial character of E^x that is trivial on F^x, at the level of
    ``model`` or above."""
    level = max(model.n, E.e)
    G = unit_group(E, level)
    F = E.ground
    MF = (level + E.e - 1) // E.e
    GF = unit_group(F, MF)
    g_exps = G.dlog(E.embed(GF.gens[0])) if GF.gens else tuple(0 for _ in G.gens)
    # search a small nonzero angle vector vanishing on the F-unit generator
    for i in range(len(G.gens)):
        for k in range(1, G.orders[i]):
            angles = [Fraction(0)] * len(G.gens)
            angles[i] = Fraction(k, G.orders[i])
            tot = sum(e * a for e, a in zip(g_exps, angles)) % 1
            if tot == 0:
                eta = MultChar(E, level, angles, Phase.one(), 0).reduced()
                # fix eta(p) = 1 through the uniformizer value
                pi = E.uniformizer()
                u_p = E.embed(F.p) * (pi ** E.e).inv()
                resid = unit_angle(eta, u_p)
                t = Phase.exact((-resid) / E.e)
                eta = MultChar(E, eta.n, eta.angles, t, 0)
                if abs(eta.value(E.embed(F.p)) - 1) < 1e-12 and not (
                    eta.n == 0 and eta.t.angle == 0
                ):
                    return eta
    # fall back: unramified character killed by the norm index (e = 1 only)
    if E.e == 1:
        return MultChar.unramified(E, Phase.exact(Fraction(1, 2)))
    raise AssertionError("no relative kernel character found")


def test_twist_extension_independence():
    # gamma_RS(mu, nu, chi) = gamma_RS(mu eta, nu eta, chi) for eta trivial on
    # F^x: the factor does not depend on how chi is extended to E^x
    rng = random.Random(12)
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            mu, nu = rand_char(E, 1, rng), rand_char(E, 1, rng)
            chi = rand_char(F, 1, rng)
            eta = _relative_kernel_char(E, extend_from_F(chi, E))
            assert not eta.is_trivial() and restrict_to_F(eta).is_trivial()
            gA = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi(), chi))
            gB = gamma_rs(AsaiInput(E, mu.mul(eta), nu.mul(eta), psi, E.xi(), chi))
            ok, dev = approx_equal(gA, gB, DEFAULT_GRID, 1e-8)
            assert ok, (p, ext, dev)


def test_l_rs_unramified_euler_product():
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    psi = standard_psi(F)
    mu = MultChar.unramified(E, Phase.exact(Fraction(1, 8)))
    nu = MultChar.unramified(E, Phase.exact(Fraction(5, 8)))
    L = l_rs(AsaiInput(E, mu, nu, psi, E.xi()))
    s = 1.1
    a, b = mu.t_full(), nu.t_full()
    # mu|F(p) = mu(p) = a, nu|F(p) = b, and (mu nu^sigma)(pi_E) = a b over q_E = 9
    want = 1 / ((1 - a * 3 ** (-s)) * (1 - b * 3 ** (-s)) * (1 - a * b * 9 ** (-s)))
    assert abs(L.eval(s) - want) < 1e-12
    # ramified third constituent drops out
    mu_r = rand_char(E, 1, random.Random(1))
    L2 = l_rs(AsaiInput(E, mu_r, nu, psi, E.xi()))
    assert len(L2.den) <= 2


def test_theorem_b_assemblies_agree():
    rng = random.Random(13)
    for k in range(6):
        p = rng.choice([3, 5])
        F = PAdicGround(p)
        E = QuadExtension(F, EXTENSION_TYPES[k % 3])
        psi = standard_psi(F)
        mu, nu = rand_char(E, 1, rng), rand_char(E, 1, rng)
        v2 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        tau = TwistedPair(rand_char(F, 1, rng), rand_char(F, 1, rng), v2)
        _, rep = gamma_psr(AsaiInput(E, mu, nu, psi, E.xi(), None, tau))
        assert rep["ok"], rep["max_deviation"]


def test_theorem_b_specialization_trivial_twist():
    # tau = 1 boxplus 1: gamma_PSR = |4 xi^4|^{-2s+1} gamma_RS(s)^2 when omega|F = 1
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    psi = standard_psi(F)
    mu = MultChar.unramified(E, Phase.exact(Fraction(1, 8)))
    nu = mu.inv()  # omega_pi = 1
    triv = MultChar.trivial(F)
    tau = TwistedPair(triv, triv, 0.0)
    inp = AsaiInput(E, mu, nu, psi, E.xi(), None, tau)
    g_psr, rep = gamma_psr(inp)
    assert rep["ok"]
    g_rs = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi()))
    xi4 = (E.xi() ** 2).as_F() ** 2 * 4
    w = F.val(xi4)
    from asailocal.factors import NonArchFactor

    pref = NonArchFactor.monomial(3, 3.0 ** float(-w), -2 * w)
    want = pref * g_rs * g_rs
    ok, dev = approx_equal(g_psr, want, DEFAULT_GRID, 1e-9)
    assert ok, dev


def test_dichotomy_requires_trivial_omega():
    rng = random.Random(14)
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    psi = standard_psi(F)
    mu, nu = rand_char(E, 1, rng), rand_char(E, 1, rng)
    om = restrict_to_F(mu.mul(nu))
    good = TwistedPair(MultChar.trivial(F), om.inv(), 0.0)
    sgn = dichotomy_sign(AsaiInput(E, mu, nu, psi, E.xi(), None, good))
    assert sgn == 1  # forced for omega = 1
    bad = TwistedPair(MultChar(F, 1, (Fraction(1, 2),), Phase.one()), om.inv(), 0.0)
    if not restrict_to_F(mu.mul(nu)).mul(bad.mu2).mul(bad.nu2).is_trivial():
        with pytest.raises(ValueError):
            dichotomy_sign(AsaiInput(E, mu, nu, psi, E.xi(), None, bad))


def test_dichotomy_all_trivial_is_plus_one():
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    psi = standard_psi(F)
    triv_E, triv_F = MultChar.trivial(E), MultChar.trivial(F)
    inp = AsaiInput(E, triv_E, triv_E, psi, E.xi(), None, TwistedPair(triv_F, triv_F, 0.0))
    assert dichotomy_sign(inp) == 1
    assert abs(central_value(inp) - 1) < 1e-12


# -- Asai-level properties over p <= 13 ----------------------------------------


def _drawn_char(draw, K, max_n=2):
    """A character of K^x of conductor at most ``max_n``, t a 12th root of unity."""
    n = draw(st.integers(0, max_n))
    angles = [Fraction(draw(st.integers(0, d - 1)), d) for d in unit_group(K, n).orders]
    return MultChar.from_angles(K, n, angles, Phase.exact(Fraction(draw(st.integers(0, 11)), 12)))


@st.composite
def asai_inputs(draw, twisted=False):
    """p <= 13, any extension, mu and nu of conductor <= 2; an optional chi
    on F^x (untwisted), or a rank-2 tau of conductors <= 2 (twisted)."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    F = PAdicGround(p)
    E = QuadExtension(F, draw(st.sampled_from(EXTENSION_TYPES)))
    mu, nu = _drawn_char(draw, E), _drawn_char(draw, E)
    if twisted:
        v2 = complex(draw(st.sampled_from([0.0, 0.25, -0.4])), draw(st.sampled_from([0.0, 0.3])))
        tau = TwistedPair(_drawn_char(draw, F), _drawn_char(draw, F), v2)
        return AsaiInput(E, mu, nu, standard_psi(F), E.xi(), None, tau)
    chi = _drawn_char(draw, F) if draw(st.booleans()) else None
    a, b = (Fraction(draw(st.sampled_from([1, 2, p]))) for _ in range(2))
    return AsaiInput(E, mu, nu, standard_psi(F).shifted(a), E.xi() * E.embed(b), chi)


@settings(max_examples=40, deadline=None)
@given(asai_inputs())
def test_eps_corollary_holds_over_p_up_to_13(inp):
    # criterion 5: eps_RS = omega(xi) |xi^2|^{s-1/2} lambda^{-1} eps_Gal
    rep = eps_gal_comparison(inp, tol=1e-8)
    assert rep["ok"], rep["max_deviation"]


@settings(max_examples=40, deadline=None)
@given(asai_inputs(twisted=True))
def test_theorem_b_assemblies_agree_over_p_up_to_13(inp):
    # criterion 9: the zeta-integral and Galois assemblies of gamma_PSR agree
    _, rep = gamma_psr(inp, tol=1e-8)
    assert rep["ok"], rep["max_deviation"]


@st.composite
def law_inputs(draw, E):
    """mu and nu of conductor <= 2 on E^x, tau of conductors <= 1 with
    v2 = 0.2, and a scale a in {2, p, 2p}."""
    F = E.ground
    mu, nu = _drawn_char(draw, E), _drawn_char(draw, E)
    tau = TwistedPair(_drawn_char(draw, F, 1), _drawn_char(draw, F, 1), 0.2)
    return mu, nu, tau, Fraction(draw(st.sampled_from([2, F.p, 2 * F.p])))


@pytest.mark.parametrize("ext", EXTENSION_TYPES)
@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_dependence_laws_over_p_up_to_13(p, ext, data):
    # criterion 10: a factor under psi^a or a xi is omega(a)^k |a|^(k(2s-1))
    # times the factor at (psi, xi), for gamma_RS and gamma_PSR alike
    F = PAdicGround(p)
    E = QuadExtension(F, ext)
    mu, nu, tau, a = data.draw(law_inputs(E))
    w, psi = F.val(a), standard_psi(F)

    def factors(psi_k, xi):
        inp = AsaiInput(E, mu, nu, psi_k, xi, None, tau)
        return gamma_rs(AsaiInput(E, mu, nu, psi_k, xi)), gamma_psr(inp)[0]

    (g0, G0), (ga, Ga), (gx, Gx) = (
        factors(psi, E.xi()),
        factors(psi.shifted(a), E.xi()),
        factors(psi, E.xi() * E.embed(a)),
    )
    omega0 = restrict_to_F(mu.mul(nu))
    omega_t = AsaiInput(E, mu, nu, psi, E.xi(), None, tau).omega_total()
    laws = ((ga, omega0, 2, g0), (gx, omega0, 1, g0), (Ga, omega_t, 4, G0), (Gx, omega_t, -2, G0))
    for s in DEFAULT_GRID:
        for got, omega, k, base in laws:
            rhs = omega.value(a) ** k * p ** (-w * k * (2 * s - 1)) * base.eval(s)
            assert abs(got.eval(s) - rhs) <= 1e-8 * abs(rhs), (k, s)


@st.composite
def omega_one_bundles(draw, E):
    """mu and nu of conductor <= 2 on E^x, mu2 of conductor <= 1, nu2 chosen
    so that omega = (mu nu)|_F mu2 nu2 is trivial, and a in {2, p}."""
    F = E.ground
    mu, nu, mu2 = _drawn_char(draw, E), _drawn_char(draw, E), _drawn_char(draw, F, 1)
    nu2 = restrict_to_F(mu.mul(nu)).mul(mu2).inv()
    tau = TwistedPair(mu2, nu2, draw(st.sampled_from([0.0, 0.25])))
    return mu, nu, tau, Fraction(draw(st.sampled_from([2, F.p])))


@pytest.mark.parametrize("ext", EXTENSION_TYPES)
@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_dichotomy_is_plus_one_over_p_up_to_13(p, ext, data):
    # criterion 11: an omega = 1 bundle has central sign +1, also with psi
    # or xi rescaled
    F = PAdicGround(p)
    E = QuadExtension(F, ext)
    mu, nu, tau, a = data.draw(omega_one_bundles(E))
    psi = standard_psi(F)
    for psi_k, xi in ((psi, E.xi()), (psi.shifted(a), E.xi()), (psi, E.xi() * E.embed(a))):
        inp = AsaiInput(E, mu, nu, psi_k, xi, None, tau)
        assert abs(central_value(inp) - 1) < 1e-8
        assert dichotomy_sign(inp) == 1


def test_split_case_identity():
    rng = random.Random(15)
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        for _ in range(3):
            chars = [rand_char(F, rng.randint(0, 1), rng) for _ in range(4)]
            rep = split_eps_check(*chars, psi, Fraction(rng.choice([1, 2, p])))
            assert rep["ok"], rep


def test_dependence_laws_on_grid():
    rng = random.Random(16)
    p = 5
    F = PAdicGround(p)
    E = QuadExtension(F, UNRAMIFIED)
    psi = standard_psi(F)
    mu, nu = rand_char(E, 1, rng), rand_char(E, 1, rng)
    om = restrict_to_F(mu.mul(nu))
    g0 = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi()))
    for a in (Fraction(2), Fraction(p), Fraction(3 * p)):
        w = F.val(a)
        ga = gamma_rs(AsaiInput(E, mu, nu, psi.shifted(a), E.xi()))
        gx = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi() * E.embed(a)))
        for s in DEFAULT_GRID:
            rhs = om.value(a) ** 2 * p ** (-w * (4 * s - 2)) * g0.eval(s)
            assert abs(ga.eval(s) - rhs) / abs(rhs) < 1e-10
            rhs = om.value(a) * p ** (-w * (2 * s - 1)) * g0.eval(s)
            assert abs(gx.eval(s) - rhs) / abs(rhs) < 1e-10


def test_gamma_gal_equals_gamma_rs_up_to_corollary_factor():
    # the gamma version of the Corollary, including a twist
    rng = random.Random(17)
    F = PAdicGround(3)
    psi = standard_psi(F)
    from asailocal.tate import langlands_constant
    from asailocal.asai import _twisted_chars

    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        mu, nu = rand_char(E, 1, rng), rand_char(E, 1, rng)
        chi = rand_char(F, 1, rng)
        inp = AsaiInput(E, mu, nu, psi, E.xi(), chi)
        g_rs = gamma_rs(inp)
        g_gal = gamma_gal(inp)
        lam = langlands_constant(E, psi)
        mu_t, nu_t = _twisted_chars(inp)
        omega_xi = mu_t.value(inp.xi) * nu_t.value(inp.xi)
        w = F.val((inp.xi * inp.xi).as_F())
        for s in DEFAULT_GRID:
            pref = omega_xi * 3.0 ** (-w * (s - 0.5)) / lam
            assert abs(g_rs.eval(s) - pref * g_gal.eval(s)) / abs(g_rs.eval(s)) < 1e-9


def test_unit_group_builds_on_the_theorem_b_suite():
    # a count guard, not a timing gate: the unit groups the criterion-9 suite
    # builds from cold, in a fresh interpreter so that no other test's
    # caches count; the twists extend at level e n, where chi o N lives
    code = (
        "from asailocal import verify\n"
        "from asailocal.unitgroups import unit_group\n"
        "assert verify.suite_theorem_b()['ok']\n"
        "print(unit_group.cache_info().misses)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert int(proc.stdout) == 28


def test_theorem_b_assemblies_agree_at_p7():
    # the criterion-9 suite at the next prime up: its twists of conductor at
    # most 2 extend at level e n, so to the ramified unit groups of level 4
    # at p = 7
    out = suite_theorem_b(ps=(7,))
    assert out["ok"], out["max_deviation"]


@pytest.mark.parametrize("ext", EXTENSION_TYPES)
def test_twists_of_conductor_4_and_5_certify_at_p3(ext, certified):
    # conductors 4 and up, certified: each gamma_RS(check=True) certifies its
    # three Tate gammas against the exact zeta integrals, whose whole-group
    # sums walk chi o N's unit group (level 4-5 unramified, 8-10 ramified)
    F = PAdicGround(3)
    E = QuadExtension(F, ext)
    rng = random.Random(f"conductor-4-5-{ext}")
    for n in (4, 5):
        order = unit_group(F, n).orders[0]
        k = rng.choice([j for j in range(1, order) if j % 3])
        chi = MultChar.from_angles(F, n, [Fraction(k, order)], Phase.exact(Fraction(1, 3)))
        assert chi.n == n
        inp = AsaiInput(E, rand_char(E, 1, rng), rand_char(E, 1, rng), standard_psi(F), E.xi(), chi)
        before = len(certified)
        gamma_rs(inp, check=True)
        assert len(certified) == before + 3
        assert eps_gal_comparison(inp)["ok"]


def _twisted_input(p=3, ext=UNRAMIFIED, seed=20):
    rng = random.Random(seed)
    F = PAdicGround(p)
    E = QuadExtension(F, ext)
    mu, nu = rand_char(E, 1, rng), rand_char(E, 1, rng)
    return AsaiInput(E, mu, nu, standard_psi(F), E.xi(), rand_char(F, 1, rng))


def test_eps_gal_comparison_builds_eps_gal_and_lambda_once(monkeypatch, certified):
    # three Galois-side tate_eps calls (one eps_Gal), none of them certified,
    # and one lambda_{E/F}(psi), whose gamma(s, omega_{E/F}, psi) is certified
    gal_calls = []
    tate_eps = asai_mod.tate_eps

    def counting(chi, psi):
        gal_calls.append(chi)
        return tate_eps(chi, psi)

    monkeypatch.setattr(asai_mod, "tate_eps", counting)
    inp = _twisted_input()
    rep = eps_gal_comparison(inp)
    assert rep["ok"], rep["max_deviation"]
    assert list(map(repr, gal_calls)) == list(map(repr, asai_mod._gal_constituents(inp)))
    assert list(map(repr, certified)) == [repr(omega_quadratic(inp.E))]


def test_eps_gal_comparison_builds_the_galois_constituents_once(monkeypatch):
    # eps_RS's L-factors and eps_Gal read the same constituents
    calls = []
    build = asai_mod._gal_constituents

    def counting(inp):
        calls.append(inp)
        return build(inp)

    inp = _twisted_input()
    want = eps_gal_comparison(inp)
    monkeypatch.setattr(asai_mod, "_gal_constituents", counting)
    got = eps_gal_comparison(inp)
    assert calls == [inp]
    assert got == want


def test_split_eps_check_multiplies_each_pair_once(monkeypatch):
    rng = random.Random(15)
    F = PAdicGround(5)
    chars = [rand_char(F, 1, rng) for _ in range(4)]
    want = split_eps_check(*chars, standard_psi(F), Fraction(5))
    calls = []
    mul = MultChar.mul

    def counting(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(MultChar, "mul", counting)
    got = split_eps_check(*chars, standard_psi(F), Fraction(5))
    assert len(calls) == 4
    assert repr(got) == repr(want)


def test_gamma_rs_never_builds_the_galois_constituents(monkeypatch):
    def forbidden(inp):
        raise AssertionError("gamma_rs reached the Galois constituents")

    inp = _twisted_input(5, EXTENSION_TYPES[1])
    want = gamma_rs(inp)
    monkeypatch.setattr(asai_mod, "_gal_constituents", forbidden)
    # a cold assembly, so the patched call really assembles gamma_RS
    asai_mod._assembly.cache_clear()
    got = gamma_rs(inp, check=True)
    assert asai_mod._assembly.cache_info().misses == 1
    assert got.to_json() == want.to_json()


def test_galois_side_never_calls_gamma_rs(monkeypatch):
    def forbidden(inp):
        raise AssertionError("the Galois side reached gamma_rs")

    inp = _twisted_input(3, EXTENSION_TYPES[2])
    want = eps_gal(inp)
    monkeypatch.setattr(asai_mod, "gamma_rs", forbidden)
    monkeypatch.setattr(asai_mod, "_assembly", forbidden)
    # cold Galois-side caches, so the patched calls really recompute
    tate_mod.tate_eps.cache_clear()
    assert eps_gal(inp).to_json() == want.to_json()
    gamma_gal(inp)
    assert tate_mod.tate_eps.cache_info().misses == 3


@pytest.mark.parametrize("ext", EXTENSION_TYPES)
def test_factors_never_reach_the_functional_equation_oracle(ext, monkeypatch):
    # tate_gamma, tate_eps and gamma_rs(inp) are closed forms: only
    # certify_gamma evaluates zeta integrals
    def forbidden(*args):
        raise AssertionError("a closed form reached tate.fe_ratio")

    from asailocal.characters import psi_to_E

    inp = _twisted_input(3, ext)
    E, F = inp.E, inp.E.ground
    psi_E = psi_to_E(inp.psi, E, inp.xi)
    chars = [(inp.chi, inp.psi), (MultChar.trivial(F), inp.psi)]
    chars += [(inp.mu, psi_E), (MultChar.trivial(E), psi_E)]
    monkeypatch.setattr(tate_mod, "fe_ratio", forbidden)
    # cold caches, so every closed form below is really computed
    tate_mod.tate_eps.cache_clear()
    asai_mod._assembly.cache_clear()
    for chi, psi in chars:
        tate_mod.tate_gamma(chi, psi)
        tate_mod.tate_eps(chi, psi)
    gamma_rs(inp)
    gamma_rs(inp.with_twist(None))
    assert tate_mod.tate_eps.cache_info().misses == len(set(chars))
    assert asai_mod._assembly.cache_info().misses == 2
    # the assembly is cached now, and check=True still reaches the oracle
    with pytest.raises(AssertionError, match="fe_ratio"):
        gamma_rs(inp, check=True)
    assert asai_mod._assembly.cache_info().hits == 1


def test_gamma_rs_certifies_on_every_call_cached_or_not(certified):
    # two value-equal inputs built apart share one assembly, and each
    # check=True call certifies its three Tate gammas
    asai_mod._assembly.cache_clear()
    a, b = _twisted_input(5, EXTENSION_TYPES[0]), _twisted_input(5, EXTENSION_TYPES[0])
    assert a is not b and a == b
    got_a, got_b = gamma_rs(a, check=True), gamma_rs(b, check=True)
    assert got_b is got_a
    assert asai_mod._assembly.cache_info()[:2] == (1, 1)  # hits, misses
    chars = [chi for _, chi, _ in asai_mod._assembly(a)[1]]
    assert list(map(repr, certified)) == list(map(repr, chars * 2))


def test_a_cached_assembly_still_fails_its_certification(monkeypatch):
    def failing(fac, chi, psi):
        raise tate_mod.ConsistencyError("gamma oracle mismatch")

    inp = _twisted_input(3, EXTENSION_TYPES[1])
    want = gamma_rs(inp, check=True)
    monkeypatch.setattr(asai_mod, "certify_gamma", failing)
    hits = asai_mod._assembly.cache_info().hits
    with pytest.raises(tate_mod.ConsistencyError):
        gamma_rs(inp, check=True)
    assert asai_mod._assembly.cache_info().hits == hits + 1
    assert gamma_rs(inp) is want


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("ext", EXTENSION_TYPES)
def test_cached_factors_equal_their_recomputation(p, ext):
    # gamma_RS read from the cache by a value-equal input equals a cold
    # recomputation, and the two inputs have equal Galois constituents
    F = PAdicGround(p)
    E = QuadExtension(F, ext)
    for level in (0, 1, 2):

        def build():
            rng = random.Random(f"cache-{p}-{ext}-{level}")
            mu, nu = rand_char(E, level, rng), rand_char(E, level, rng)
            return AsaiInput(E, mu, nu, standard_psi(F), E.xi(), rand_char(F, level, rng))

        first, again = build(), build()
        gamma_rs(first)
        hits = asai_mod._assembly.cache_info().hits
        cached = gamma_rs(again).to_json()
        consts = asai_mod._gal_constituents(first)
        assert asai_mod._assembly.cache_info().hits == hits + 1
        asai_mod._assembly.cache_clear()
        assert gamma_rs(again).to_json() == cached
        assert list(map(repr, asai_mod._gal_constituents(again))) == list(map(repr, consts))
