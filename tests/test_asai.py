import random
from fractions import Fraction

import pytest

import asailocal.asai as asai_mod
import asailocal.tate as tate_mod
from asailocal.asai import (
    AsaiInput,
    TwistedPair,
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
    restrict_to_F,
    standard_psi,
)
from asailocal.factors import DEFAULT_GRID, approx_equal
from asailocal.padic import EXTENSION_TYPES, PAdicGround, QuadExtension, UNRAMIFIED
from asailocal.tate import tate_gamma
from asailocal.unitgroups import unit_group
from asailocal.verify import suite_theorem_b


def rand_char(K, n, rng, t_den=12):
    G = unit_group(K, n)
    angles = [Fraction(rng.randrange(d), d) for d in G.orders]
    return MultChar.from_angles(K, n, angles, Phase.exact(Fraction(rng.randrange(t_den), t_den)))


def test_gamma_rs_trivial_decomposes_into_tate_factors():
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    psi = standard_psi(F)
    from asailocal.characters import psi_to_E

    triv_E = MultChar.trivial(E)
    inp = AsaiInput(E, triv_E, triv_E, psi, E.xi())
    gam = gamma_rs(inp)
    trivF = MultChar.trivial(F)
    want = tate_gamma(trivF, psi) * tate_gamma(trivF, psi) * tate_gamma(
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
        eps_rs(inp, check=False).as_monomial()  # raises if not monomial
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
    eps = eps_rs(inp, check=False)
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
    eps = eps_rs(AsaiInput(E, mu, nu, psi, E.xi()), check=False)
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
        g = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi()), check=False)
        gd = gamma_rs(
            AsaiInput(E, mu.inv(), nu.inv(), psi.shifted(-1), E.xi()), check=False
        )
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
                resid = eta.unit_angle(u_p)
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
            gA = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi(), chi), check=False)
            gB = gamma_rs(AsaiInput(E, mu.mul(eta), nu.mul(eta), psi, E.xi(), chi), check=False)
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
    g_rs = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi()), check=False)
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
    assert sgn in (1, -1)
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
    g0 = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi()), check=False)
    for a in (Fraction(2), Fraction(p), Fraction(3 * p)):
        w = F.val(a)
        ga = gamma_rs(AsaiInput(E, mu, nu, psi.shifted(a), E.xi()), check=False)
        gx = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi() * E.embed(a)), check=False)
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
        g_rs = gamma_rs(inp, check=False)
        g_gal = gamma_gal(inp)
        lam = langlands_constant(E, psi)
        mu_t, nu_t = _twisted_chars(inp)
        omega_xi = mu_t.value(inp.xi) * nu_t.value(inp.xi)
        w = F.val((inp.xi * inp.xi).as_F())
        for s in DEFAULT_GRID:
            pref = omega_xi * 3.0 ** (-w * (s - 0.5)) / lam
            assert abs(g_rs.eval(s) - pref * g_gal.eval(s)) / abs(g_rs.eval(s)) < 1e-9


def test_theorem_b_assemblies_agree_at_p7():
    # the criterion-9 suite at the next prime up: extend_from_F builds the
    # ramified unit groups up to level 6 at p = 7
    out = suite_theorem_b(ps=(7,))
    assert out["ok"], out["max_deviation"]


def _twisted_input(p=3, ext=UNRAMIFIED, seed=20):
    rng = random.Random(seed)
    F = PAdicGround(p)
    E = QuadExtension(F, ext)
    mu, nu = rand_char(E, 1, rng), rand_char(E, 1, rng)
    return AsaiInput(E, mu, nu, standard_psi(F), E.xi(), rand_char(F, 1, rng))


def test_eps_gal_comparison_builds_eps_gal_and_lambda_once(monkeypatch):
    # three Galois-side tate_eps calls (one eps_Gal) and one lambda_{E/F}(psi),
    # which is still the certified tate_eps of omega_{E/F}
    gal_calls, lam_checks = [], []

    def counting(calls, orig):
        def run(chi, psi, check=True):
            calls.append(check)
            return orig(chi, psi, check)

        return run

    monkeypatch.setattr(asai_mod, "tate_eps", counting(gal_calls, tate_mod.tate_eps))
    monkeypatch.setattr(tate_mod, "tate_eps", counting(lam_checks, tate_mod.tate_eps))
    tate_mod.langlands_constant.cache_clear()
    try:
        rep = eps_gal_comparison(_twisted_input())
    finally:
        tate_mod.langlands_constant.cache_clear()
    assert rep["ok"], rep["max_deviation"]
    assert gal_calls == [False] * 3
    assert lam_checks == [True]


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
    want = gamma_rs(inp, check=False)
    monkeypatch.setattr(asai_mod, "_gal_constituents", forbidden)
    got = gamma_rs(inp, check=True)
    assert got.to_json() == want.to_json()


def test_galois_side_never_calls_gamma_rs(monkeypatch):
    def forbidden(inp, check=True):
        raise AssertionError("the Galois side reached gamma_rs")

    inp = _twisted_input(3, EXTENSION_TYPES[2])
    want = eps_gal(inp)
    monkeypatch.setattr(asai_mod, "gamma_rs", forbidden)
    assert eps_gal(inp).to_json() == want.to_json()
    gamma_gal(inp)
