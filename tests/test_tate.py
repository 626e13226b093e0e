import cmath
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asailocal.tate as tate_mod
from asailocal.characters import (
    MultChar,
    Phase,
    alpha_chi,
    conductor_add,
    omega_quadratic,
    psi_to_E,
    restrict_to_F,
    shell_cyc,
    standard_psi,
)
from asailocal.cli import main
from asailocal.cyclotomic import Cyc, _make
from asailocal.factors import DEFAULT_GRID, PHI_INDEPENDENCE_TOL, REL_TOL_NONARCH, PoleError
from asailocal.padic import EXTENSION_TYPES, PAdicGround, PrecisionError, QuadExtension, UNRAMIFIED
from asailocal.tate import (
    ConsistencyError,
    box_fourier,
    certify_gamma,
    fe_ratio,
    gauss_sum,
    langlands_constant,
    tate_L,
    tate_eps,
    tate_gamma,
)
from asailocal.unitgroups import unit_group
from asailocal.verify import suite_gauss_modulus

from certified_tate import certified_eps, certified_gamma
from random_chars import rand_char, unit_angle


def test_L_factor_shapes():
    F3 = PAdicGround(3)
    triv = MultChar.trivial(F3)
    L = tate_L(triv)
    assert abs(L.eval(1) - 1.5) < 1e-12  # (1 - 3^{-s})^{-1} at s=1
    F5 = PAdicGround(5)
    ram = MultChar(F5, 1, (Fraction(1, 2),), Phase.one())
    assert tate_L(ram).as_monomial() == (1.0, 0)
    unram_i = MultChar.unramified(F5, Phase.exact(Fraction(1, 4)))  # t = i
    assert abs(tate_L(unram_i).eval(0.5) - 1 / (1 - 1j * 5 ** (-0.5))) < 1e-12


def test_gamma_trivial_char():
    F = PAdicGround(3)
    g = certified_gamma(MultChar.trivial(F), standard_psi(F))
    for s in (0.7, 1.3, 0.4 - 0.8j):
        want = (1 - 3 ** (-s)) / (1 - 3 ** (s - 1))
        assert abs(g.eval(s) - want) < 1e-12


def test_legendre_gauss_sums():
    F5, F3 = PAdicGround(5), PAdicGround(3)
    leg5 = MultChar(F5, 1, (Fraction(1, 2),), Phase.one())
    leg3 = MultChar(F3, 1, (Fraction(1, 2),), Phase.one())
    assert abs(gauss_sum(leg5, standard_psi(F5)) - math.sqrt(5)) < 1e-12
    assert abs(gauss_sum(leg3, standard_psi(F3)) - 1j * math.sqrt(3)) < 1e-12
    # exact forms square to +-p: the shell c(psi) - n = -1 mod pi^0, n = 1
    g5 = shell_cyc(leg5.inv(), standard_psi(F5), -1, 1)
    g3 = shell_cyc(leg3.inv(), standard_psi(F3), -1, 1)
    assert (g5 * g5) == Cyc.rational(5)
    assert (g3 * g3) == Cyc.rational(-3)


def test_gauss_modulus_at_p11_p13():
    # the widened gauss suite: every primitive character of conductor <= 3
    # over Q_11 and Q_13, all sharing one shell frame per (p, n)
    rep = suite_gauss_modulus(ps=(11, 13))
    assert rep["ok"], rep
    assert rep["detail"] == "3236 primitive characters over p in (11, 13)"


def test_gauss_sum_rejects_unramified():
    F = PAdicGround(5)
    with pytest.raises(ValueError):
        gauss_sum(MultChar.trivial(F), standard_psi(F))


def test_eps_center_is_unitary():
    rng = random.Random(0)
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        for _ in range(6):
            chi = rand_char(F, rng.randint(0, 2), rng)
            eps = certified_eps(chi, psi)
            c, m = eps.as_monomial()
            assert abs(abs(eps.eval(0.5)) - 1) < 1e-10
            # ramified chi mod p: m = c(chi) when c(psi) = 0
            assert m == chi.n


def test_eps_psi_shift_law():
    rng = random.Random(1)
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        chi = rand_char(F, 2, rng)
        e0 = certified_eps(chi, psi)
        for a in (Fraction(2), Fraction(p), Fraction(2 * p * p)):
            e1 = certified_eps(chi, psi.shifted(a))
            for s in (0.7, 1.3, 0.4 - 0.8j):
                rhs = chi.value(a) * p ** (-F.val(a) * (s - 0.5)) * e0.eval(s)
                assert abs(e1.eval(s) - rhs) / abs(rhs) < 1e-10


def test_gamma_functional_involution():
    # gamma(s, chi, psi) gamma(1-s, chi^{-1}, psi^-) = 1 at 5 s-points for 10
    # random characters
    rng = random.Random(2)
    grid = (0.7, 1.3, 2.1 + 0.5j, 0.4 - 0.8j, 1.05)
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        for _ in range(5):
            chi = rand_char(F, rng.randint(0, 2), rng)
            g1 = certified_gamma(chi, psi)
            g2 = certified_gamma(chi.inv(), psi.shifted(-1))
            for s in grid:
                assert abs(g1.eval(s) * g2.eval(1 - s) - 1) < 1e-9


def test_deligne_unramified_twist_shape():
    # for unramified chi and psi of level -r: eps = chi(pi)^r q^{-r(s-1/2)}
    F = PAdicGround(5)
    chi = MultChar.unramified(F, Phase.exact(Fraction(1, 3)))
    for r in (1, 2):
        psi = standard_psi(F).shifted(Fraction(5**r))
        eps = certified_eps(chi, psi)
        for s in (0.7, 1.3):
            want = chi.value(5) ** r * 5 ** (-r * (s - 0.5))
            assert abs(eps.eval(s) - want) / abs(want) < 1e-10


def test_paper_unramified_restriction_eps_over_E():
    # mu ramified on E with mu|_F unramified, c(psi_xi)=0:
    # eps(s, mu, psi_xi) = mu(pi_F)^r |pi_F|^{r(2s-1)}
    import itertools

    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            psix = psi_to_E(psi, E, E.xi())
            lvl = 1 if ext == UNRAMIFIED else 2
            G = unit_group(E, lvl)
            mu = None
            for ks in itertools.product(*[range(d) for d in G.orders]):
                if all(k == 0 for k in ks):
                    continue
                cand = MultChar.from_angles(
                    E, lvl, [Fraction(k, d) for k, d in zip(ks, G.orders)],
                    Phase.exact(Fraction(1, 3)),
                )
                if cand.n == lvl and restrict_to_F(cand).n == 0:
                    mu = cand
                    break
            assert mu is not None
            r = -(-mu.n // E.e)
            eps = certified_eps(mu, psix)
            for s in (0.7, 1.3):
                want = mu.value(E.embed(p)) ** r * p ** (-r * (2 * s - 1))
                assert abs(eps.eval(s) - want) / abs(want) < 1e-9


def test_langlands_constants():
    for p in (3, 5, 7):
        F = PAdicGround(p)
        psi = standard_psi(F)
        E = QuadExtension(F, UNRAMIFIED)
        assert abs(langlands_constant(E, psi) - 1) < 1e-10
        for ext in EXTENSION_TYPES[1:]:
            E = QuadExtension(F, ext)
            lam = langlands_constant(E, psi)
            assert abs(abs(lam) - 1) < 1e-10
            # lambda^2 = omega_{E/F}(-1)
            om = omega_quadratic(E)
            assert abs(lam * lam - om.value(-1)) < 1e-10


def _field(p, ext):
    F = PAdicGround(p)
    K = F if ext is None else QuadExtension(F, ext)
    psi = standard_psi(F) if ext is None else psi_to_E(standard_psi(F), K, K.xi())
    return K, psi


def _chars_over_E():
    """(psi, chi) over the unramified E at p = 3: chi unramified, then ramified."""
    E, psi = _field(3, UNRAMIFIED)
    unram = MultChar.unramified(E, Phase.exact(Fraction(1, 3)))
    angles = [Fraction(1, d) for d in unit_group(E, 1).orders]
    ram = MultChar.from_angles(E, 1, angles, Phase.exact(Fraction(1, 5)))
    assert ram.n == 1
    return [(psi, unram), (psi, ram)]


def test_gamma_certification_catches_wrong_constant():
    # sabotage the closed form and watch the oracle reject it, naming s and Phi
    F = PAdicGround(3)
    cases = [(standard_psi(F), MultChar(F, 1, (Fraction(1, 2),), Phase.one()))]
    for psi, chi in cases + _chars_over_E():
        good = certified_gamma(chi, psi)
        bad = good * 1.000001
        with pytest.raises(ConsistencyError, match=r"at s=0\.7 \(Phi=ModBox\("):
            certify_gamma(bad, chi, psi)


def test_gamma_certification_refuses_twice_a_gamma_far_below_1e_30():
    # gamma is about 1e-80 on the check grid; under a floor of 1e-30 on the
    # deviation's scale, 2 gamma was certified
    F = PAdicGround(3)
    chi = MultChar(F, 1, (Fraction(1, 2),), Phase.approx(1e-40))
    psi = standard_psi(F).shifted(3)
    gamma = tate_gamma(chi, psi)
    certify_gamma(gamma, chi, psi)
    with pytest.raises(ConsistencyError):
        certify_gamma(2 * gamma, chi, psi)


def test_gamma_certification_refuses_a_nan_deviation(monkeypatch):
    # `dev > tol` is false for a NaN; the oracle must not certify it
    F = PAdicGround(5)
    chi, psi = MultChar(F, 1, (Fraction(1, 2),), Phase.one()), standard_psi(F)
    monkeypatch.setattr(tate_mod, "fe_ratio", lambda chi, psi, box, grid: [math.nan] * len(grid))
    with pytest.raises(ConsistencyError, match=r"^gamma oracle mismatch: dev=nan at s=0\.7 \(Phi="):
        certify_gamma(tate_gamma(chi, psi), chi, psi)


README_TATE_RAMIFIED = [
    "tate", "--field", '{"p":3,"ext":"ramified-p"}',
    "--char", '{"field":"E","conductor":1,"unit_part":["1/2"],"t":{"angle":"1/3"}}',
]


@pytest.mark.parametrize("which", [0, 1, "readme-tate"])
def test_certified_gamma_calls_fe_ratio_once_per_test_function(monkeypatch, capsys, which):
    calls = []

    def counting(chi, psi, box, grid):
        calls.append(tuple(grid))
        return fe_ratio(chi, psi, box, grid)

    monkeypatch.setattr(tate_mod, "fe_ratio", counting)
    if which == "readme-tate":
        # the CLI certifies gamma once and derives eps from it
        assert main(README_TATE_RAMIFIED) == 0
    else:
        psi, chi = _chars_over_E()[which]
        certified_gamma(chi, psi)
    assert calls == [tate_mod._CHECK_GRID] * 3


# The former per-s oracle: every shell and coset sum is redone at each s.
# The grid fe_ratio must give the same floats, bit for bit.


def _valuation_piece(chi, v, integral, *args):
    """A shell or coset integral of chi on valuation v: the exact integral of
    chi's unit part, times chi(pi)^v."""
    unit = tate_mod._unit_part(chi.field, chi.n, chi.unit_den, chi.unit_weights)
    return integral(unit, *args).to_complex() * chi._values(v, (1,))[0]


def reference_tate_zeta_value(chi, psi, box, s):
    """Z(s, chi, Phi) = int chi(x) |x|^s Phi(x) d^x x for Phi a modulated
    box; d^x x = zeta_K(1) dx / |x|, dx self-dual for psi.

    Geometric tails are summed in closed form, which is also the meromorphic
    continuation outside the convergence half-plane.
    """
    K = chi.field
    q = K.q
    c = conductor_add(psi)
    vol_O = float(q ** Fraction(c, 2))
    zeta1 = 1.0 / (1.0 - 1.0 / q)
    total = 0j
    a, n, m0 = K.embed(box.center), box.level, K.embed(box.mult)
    if a == 0 or K.val(a) >= n:
        # box is the ideal pi^n O: sum over shells v >= n
        if chi.is_ramified:
            if m0 == 0:
                return total
            v = conductor_add(psi) - K.val(m0) - chi.n
            if v < n:
                return total
            shell_val = _valuation_piece(chi, v, tate_mod.shell_integral, v, psi, -m0)
            total += box.coef * zeta1 * q ** (-v * (s - 1)) * shell_val
        else:
            t = chi.t_full()
            c_eff = None if m0 == 0 else conductor_add(psi) - K.val(m0)
            start = n if c_eff is None else max(n, c_eff)
            # geometric part: sum_{v >= start} q^{-v(s-1)} t^v vol q^{-v}(1-1/q)
            r = t * q ** (-s)
            if abs(r - 1) < 1e-13:
                raise PoleError(s)
            geom = r**start / (1 - r)
            total += box.coef * zeta1 * vol_O * (1 - 1.0 / q) * geom
            if c_eff is not None and c_eff - 1 >= n:
                v = c_eff - 1
                shell_val = _valuation_piece(chi, v, tate_mod.shell_integral, v, psi, -m0)
                total += box.coef * zeta1 * q ** (-v * (s - 1)) * shell_val
    else:
        v0 = K.val(a)
        inner = _valuation_piece(chi, v0, tate_mod.coset_integral, a, n, psi, -m0)
        total += box.coef * zeta1 * q ** (-v0 * (s - 1)) * inner
    return total


def reference_fe_ratio(chi, psi, box, s):
    """Z(1-s, chi^{-1}, Phi^) / Z(s, chi, Phi)."""
    num = reference_tate_zeta_value(chi.inv(), psi, box_fourier(box, psi), 1 - s)
    den = reference_tate_zeta_value(chi, psi, box, s)
    if den == 0:
        raise ZeroDivisionError("test function has vanishing zeta integral")
    return num / den


@st.composite
def fe_cases(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    ext = draw(st.sampled_from((None,) + tuple(EXTENSION_TYPES)))
    K, psi = _field(p, ext)
    n = draw(st.integers(0, 2))
    angles = [Fraction(draw(st.integers(0, d - 1)), d) for d in unit_group(K, n).orders]
    chi = MultChar(K, n, angles, Phase.exact(Fraction(draw(st.integers(0, 11)), 12)))
    box = draw(st.sampled_from(tate_mod._default_test_functions(chi.field, chi.n)))
    re = st.floats(-1.5, 2.5, allow_nan=False)
    point = st.one_of(re, st.builds(complex, re, st.floats(-3, 3)))
    grid = draw(st.lists(point, min_size=1, max_size=4))
    return chi, psi, box, grid


@settings(max_examples=80, deadline=None)
@given(fe_cases())
def test_grid_fe_ratio_matches_the_per_point_reference_bit_for_bit(case):
    chi, psi, box, grid = case
    try:
        want = [reference_fe_ratio(chi, psi, box, s) for s in grid]
    except (PoleError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            fe_ratio(chi, psi, box, grid)
        assert got.value.args == exc.args
        return
    assert fe_ratio(chi, psi, box, grid) == want


def _primitive_char(K, n, rng, t, lam=0):
    """A character of conductor exactly n with the given t and lam."""
    G = unit_group(K, n)
    while True:
        angles = [Fraction(rng.randrange(d), d) for d in G.orders]
        chi = MultChar.from_angles(K, n, angles, t, lam)
        if chi.n == n:
            return chi


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("ext", (None,) + tuple(EXTENSION_TYPES))
def test_gamma_certifies_characters_with_float_t_and_complex_lam(p, ext):
    # a CLI "t": [re, im] and a complex lam (a Theorem B twist) are not
    # exact: the oracle integrates the exact unit part and multiplies each
    # shell and coset by chi(pi)^v
    K, psi = _field(p, ext)
    rng = random.Random(f"{p}-{ext}")
    t = Phase.approx(0.8 * cmath.exp(1.1j))
    for n in (0, 1, 2):
        chi = _primitive_char(K, n, rng, t, complex(0.15, -0.3))
        fac = tate_gamma(chi, psi)
        worst = max(dev for _, _, dev in tate_mod.phi_deviations(fac, chi, psi))
        assert worst < PHI_INDEPENDENCE_TOL, (n, worst)


def test_fe_ratio_never_calls_the_closed_form(monkeypatch):
    def forbidden(chi, psi):
        raise AssertionError("the oracle reached gauss_sum")

    monkeypatch.setattr(tate_mod, "gauss_sum", forbidden)
    rng = random.Random(7)
    for ext in (None,) + tuple(EXTENSION_TYPES):
        K, psi = _field(3, ext)
        for n in (1, 2):
            chi = _primitive_char(K, n, rng, Phase.exact(Fraction(1, 3)))
            with pytest.raises(AssertionError, match="gauss_sum"):
                tate_gamma(chi, psi)  # the closed form does call it
            for box in tate_mod._default_test_functions(chi.field, chi.n):
                assert len(fe_ratio(chi, psi, box, tate_mod._CHECK_GRID)) == 3


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("ext", EXTENSION_TYPES)
def test_cached_tate_eps_and_coset_integrals_equal_their_recomputation(p, ext):
    # each lookup by a value-equal character built apart is a cache hit,
    # and equals a cold recomputation: eps by its JSON, a coset integral
    # exactly
    K, psi = _field(p, ext)
    one, u, pi = K.one(), K.shell(0, 1)[-1], K.uniformizer()
    for level in (0, 1, 2):

        def char():
            return rand_char(K, level, random.Random(f"cache-{p}-{ext}-{level}"))

        first, again = char(), char()
        cosets = [(t0, L, s) for t0 in (one, u, pi * u) for L in (K.val(t0) + 1, level + 2)
                  for s in (K.zero(), one, pi.inv()) if L > K.val(t0)]

        def integrals(chi):
            return [tate_mod.coset_integral(chi, t0, L, psi, s) for t0, L, s in cosets]

        tate_eps(first, psi)
        integrals(first)
        hits = tate_eps.cache_info().hits, tate_mod.coset_integral.cache_info().hits
        eps, cached = tate_eps(again, psi).to_json(), integrals(again)
        after = tate_eps.cache_info().hits, tate_mod.coset_integral.cache_info().hits
        assert after == (hits[0] + 1, hits[1] + len(cosets))
        tate_eps.cache_clear()
        tate_mod.coset_integral.cache_clear()
        assert tate_eps(again, psi).to_json() == eps
        for args, a, b in zip(cosets, cached, integrals(again)):
            assert (a - b).is_zero(), args


def test_fe_ratio_raises_at_the_pole_on_the_grid():
    F = PAdicGround(3)
    psi = standard_psi(F)
    base = tate_mod._default_test_functions(F, 0)[0]
    assert len(fe_ratio(MultChar.trivial(F), psi, base, (0.7, 1.3))) == 2
    # Z(s, 1, 1_O) has its pole at s = 0, so Z(1-s, 1, 1_O^) has one at s = 1
    for grid in ((0.7, 0.0), (1.0, 0.7)):
        with pytest.raises(PoleError, match="pole at s = 0.0$"):
            fe_ratio(MultChar.trivial(F), psi, base, grid)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.sampled_from((None,) + tuple(EXTENSION_TYPES)),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
)
def test_gamma_functional_equation_involution_same_psi(p, ext, n, rng):
    # gamma(s, chi, psi) gamma(1-s, chi^{-1}, psi) = chi(-1)
    K, psi = _field(p, ext)
    chi = rand_char(K, n, rng)
    g1 = certified_gamma(chi, psi)
    g2 = certified_gamma(chi.inv(), psi)
    sign = chi.value(-1)
    for s in (0.7, 1.3, 2.1 + 0.5j, 0.4 - 0.8j, 1.05):
        assert abs(g1.eval(s) * g2.eval(1 - s) - sign) < 1e-9


def test_check_grid_moves_only_its_poles():
    F = PAdicGround(5)
    psi = standard_psi(F)
    regular = MultChar(F, 0, (), Phase.one(), Fraction(1, 7))
    grid = tate_mod._check_grid(certified_gamma(regular, psi), regular)
    assert grid == tate_mod._CHECK_GRID
    assert [type(s) for s in grid] == [type(s) for s in tate_mod._CHECK_GRID]
    # lambda = -3/10: gamma's denominator 1 - 5^{s - 13/10} vanishes at s = 1.3, and
    # Z(1-s, chi^-1) has its pole there; lambda = 3/10 puts both poles on 0.7
    cases = ((Fraction(-3, 10), (0.7, 1.3 + 0.25j)), (Fraction(3, 10), (0.7 + 0.25j, 1.3)))
    for lam, moved in cases:
        chi = MultChar(F, 0, (), Phase.one(), lam)
        fac = certified_gamma(chi, psi)  # certifies at the moved point
        assert tate_mod._check_grid(fac, chi) == (*moved, 0.4 - 0.8j)
        base = tate_mod._default_test_functions(chi.field, chi.n)[0]
        with pytest.raises(PoleError):
            fe_ratio(chi, psi, base, tate_mod._CHECK_GRID)


# -- the stationary-phase Gauss sum ------------------------------------------------


def _shell_size(K, n):
    return (K.q - 1) * K.q ** (n - 1)


def _shifted_psi(K, p, u, e, xi):
    """psi0 shifted by the unit u and by p^e, then psi o tr (times xi) on E."""
    base = standard_psi(K.ground).shifted(Fraction(u) * Fraction(p) ** e)
    if K is K.ground:
        return base
    return psi_to_E(base, K, K.xi() if xi else None)


@st.composite
def stationary_cases(draw):
    """A character of conductor 2 <= n <= 5 on F or E, p <= 13, whose shell
    holds at most 3,000 elements; exact or float t, Fraction or complex lam;
    and psi shifted by a unit and by a power of p."""
    n = draw(st.integers(2, 5))
    fields = [
        (p, ext)
        for p in (3, 5, 7, 11, 13)
        for ext in (None,) + tuple(EXTENSION_TYPES)
        if _shell_size(_field(p, ext)[0], n) <= 3000
    ]
    p, ext = draw(st.sampled_from(fields))
    K, _ = _field(p, ext)
    rng = random.Random(draw(st.integers(0, 2**16)))
    t = draw(st.sampled_from([Phase.exact(Fraction(rng.randrange(12), 12)), Phase.approx(0.8 - 0.9j)]))
    lam = draw(st.sampled_from([Fraction(0), Fraction(-2, 3), complex(0.25, -0.5)]))
    chi = _primitive_char(K, n, rng, t, lam)
    u = draw(st.sampled_from([1, -1, 2, p - 2]))
    psi = _shifted_psi(K, p, u, draw(st.integers(-2, 2)), draw(st.booleans()))
    return chi, psi


@settings(max_examples=50, deadline=None)
@given(stationary_cases())
def test_stationary_gauss_sum_equals_the_exact_shell_sum(case):
    # the exact sum over the shell of the unit part, times chi^{-1}(pi^v),
    # v = c - n: the shell's one valuation, where t and lam enter
    chi, psi = case
    K, n = chi.field, chi.n
    v = conductor_add(psi) - n
    unit = MultChar._from_weights(K, n, chi.unit_den, chi.unit_weights, Phase.one(), 0)
    at_pi = chi.inv().value(K.uniformizer() ** v)
    exact = shell_cyc(unit.inv(), psi, v, n).to_complex() * at_pi
    assert abs(gauss_sum(chi, psi) - exact) <= 1e-13 * K.q ** (n / 2) * abs(at_pi)


def _ideal_mod(K, k, n):
    """p^k mod p^n: 0 and the shells k <= v < n."""
    return [K.zero()] + [x for v in range(k, n) for x in K.shell(v, n - v)]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("ext", (None,) + tuple(EXTENSION_TYPES))
def test_alpha_chi_represents_chi_on_the_upper_half(p, ext):
    # chi(1 + x) = psi(alpha x) on every x of p^k mod p^n, k = ceil(n/2)
    K, _ = _field(p, ext)
    rng = random.Random(f"alpha-{p}-{ext}")
    for n in (2, 3, 4):
        chi = _primitive_char(K, n, rng, Phase.exact(Fraction(1, 5)))
        for psi in (_shifted_psi(K, p, 1, 0, False), _shifted_psi(K, p, 2, -1, True)):
            alpha = alpha_chi(chi, psi)
            assert K.val(alpha) == conductor_add(psi) - n
            xs = _ideal_mod(K, (n + 1) // 2, n)
            assert len(xs) == K.q ** (n // 2)
            for x in xs:
                assert unit_angle(chi, K.one() + x) == psi.angle(alpha * x)
    with pytest.raises(ValueError):
        alpha_chi(_primitive_char(K, 1, rng, Phase.one()), psi)


@pytest.mark.parametrize("ext", (None,) + tuple(EXTENSION_TYPES))
def test_gauss_sum_refuses_where_the_shell_sum_did(ext):
    # at precision 8 every level unit_group allows, where the shell is small
    # enough to sum or the oracle's shell sum refuses its modulus up front
    F = PAdicGround(3, precision=8)
    K = F if ext is None else QuadExtension(F, ext)
    psi = standard_psi(F) if ext is None else psi_to_E(standard_psi(F), K, K.xi())
    rng = random.Random(f"precision-{ext}")
    refused = []
    for n in range(1, K.e * F.precision + 1):
        if n <= F.precision and _shell_size(K, n) > 2000:
            continue
        chi = _primitive_char(K, n, rng, Phase.one())
        outcomes = []
        for route in (lambda: shell_cyc(chi.inv(), psi, conductor_add(psi) - n, n),
                      lambda: gauss_sum(chi, psi)):
            try:
                route()
                outcomes.append("ok")
            except PrecisionError:
                outcomes.append("refused")
        assert outcomes[0] == outcomes[1], (n, outcomes)
        refused.append(outcomes[1] == "refused")
    # only ramified E has levels past the window: ceil(n/2) digits for n <= 16
    assert any(refused) == (K.e == 2)


@pytest.mark.parametrize("ext", (None,) + tuple(EXTENSION_TYPES))
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_stationary_gauss_sum_builds_no_shell_frame(monkeypatch, ext, n):
    # the closed form reads no whole-shell frame at any conductor: with every
    # frame function made to raise, gauss_sum, tate_gamma and tate_eps still
    # give the values of a cold call (the mirror of
    # test_fe_ratio_never_calls_the_closed_form)
    import asailocal.characters as characters_mod
    from asailocal.unitgroups import UnitGroup

    K, psi = _field(5 if ext is None else 3, ext)
    rng = random.Random(f"guard-{ext}-{n}")
    chi = _primitive_char(K, n, rng, Phase.exact(Fraction(2, 7)), Fraction(1, 3))
    routes = (tate_gamma, tate_eps) + ((gauss_sum,) if n else ())
    tate_eps.cache_clear()
    want = [route(chi, psi) for route in routes]

    def frame(*args, **kwargs):
        raise AssertionError("a whole-shell frame was built")

    for name in ("shell_cyc", "_dlog_frame", "_psi_coeffs"):
        monkeypatch.setattr(characters_mod, name, frame)
    monkeypatch.setattr(UnitGroup, "walk", frame)
    tate_eps.cache_clear()
    tate_mod._stationary_line.cache_clear()
    assert [route(chi, psi) for route in routes] == want
    assert tate_eps.cache_info().misses == 1


@st.composite
def deligne_cases(draw):
    """chi and eta on F (standard psi) or on E (psi o tr), p in {3, 5}, with
    a(eta) >= 1, a(chi) >= 2 a(eta) and a(chi) <= 5."""
    p = draw(st.sampled_from([3, 5]))
    ext = draw(st.sampled_from((None,) + tuple(EXTENSION_TYPES)))
    F = PAdicGround(p)
    K = F if ext is None else QuadExtension(F, ext)
    psi = standard_psi(F) if ext is None else psi_to_E(standard_psi(F), K)
    m = draw(st.integers(1, 2))
    n = draw(st.integers(2 * m, 5))
    rng = random.Random(draw(st.integers(0, 2**16)))
    chi = _primitive_char(K, n, rng, Phase.exact(Fraction(rng.randrange(12), 12)))
    eta = _primitive_char(K, m, rng, Phase.exact(Fraction(rng.randrange(12), 12)), Fraction(1, 3))
    return chi, eta, psi


@settings(max_examples=40, deadline=None)
@given(deligne_cases())
def test_deligne_twist_formula(case):
    # eps(s, chi eta, psi) = eta(alpha_chi)^{-1} eps(s, chi, psi) once
    # a(chi) >= 2 a(eta) (Deligne, Antwerp II, LNM 349, 4)
    chi, eta, psi = case
    alpha = alpha_chi(chi, psi)
    twisted, base = tate_eps(chi.mul(eta), psi), tate_eps(chi, psi)
    scale = 1 / eta.value(alpha)
    for s in DEFAULT_GRID:
        want = scale * base.eval(s)
        assert abs(twisted.eval(s) - want) <= REL_TOL_NONARCH * abs(want)


@pytest.mark.parametrize("ext", (None,) + tuple(EXTENSION_TYPES))
def test_gauss_sum_above_the_conductor_is_zero(ext):
    # a character presented at a level n >= 2 above its conductor: its sum
    # over the level-n shell vanishes, and alpha has no class in the shell
    K, psi = _field(3, ext)
    rng = random.Random(f"above-{ext}")
    for low, n in ((0, 2), (1, 2), (1, 3), (2, 3)):
        chi = _primitive_char(K, low, rng, Phase.exact(Fraction(1, 4)))
        above = MultChar._from_weights(
            K, n, chi.unit_den, chi._weights_at(K, n, "identity"), chi.t, chi.lam
        )
        assert above.reduced() == chi
        assert shell_cyc(above.inv(), psi, conductor_add(psi) - n, n).is_zero()
        assert gauss_sum(above, psi) == 0j


def test_cached_q_powers_are_the_expressions_they_replace():
    # same type and same bits as the expressions tate_gamma, zeta_terms and
    # box_fourier used to rebuild on every call, at both parities of c
    from asailocal.tate import _half_power, _ramified_scale, _vol

    for q in (3, 5, 9, 11, 25, 49, 121, 169):
        for c in range(-5, 6):
            for m in range(-3, 5):
                pairs = [
                    (_half_power(q, c), q ** Fraction(c, 2)),
                    (_vol(q, c), float(q ** Fraction(c, 2))),
                    (_vol(q, c, m), float(q ** Fraction(c, 2) * Fraction(q) ** (-m))),
                ]
                if m >= 1:
                    pairs.append((_ramified_scale(q, c, m), q ** (m - c) * q ** (-m + Fraction(c, 2))))
                for got, expr in pairs:
                    assert type(got) is type(expr) and repr(got) == repr(expr), (q, c, m)


def _recording(monkeypatch, name, seen):
    """Patch tate.<name> with a pass-through that records what it returns."""
    inner = getattr(tate_mod, name)

    def record(*args):
        out = inner(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(tate_mod, name, record)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("ext", [None, *EXTENSION_TYPES])
def test_cached_integrals_keep_the_float_of_a_fresh_sum(p, ext, monkeypatch):
    # a warm certification reads the cached shell and coset integrals, the
    # same objects as the cold one, and each keeps its to_complex: the float
    # of a fresh value made of the same numerators, by repr
    K, psi = _field(p, ext)
    cold, warm = [], []
    for level in (0, 1, 2):
        chi = rand_char(K, level, random.Random(f"memo-{p}-{ext}-{level}"))
        fac = tate_gamma(chi, psi)
        for seen in (cold, warm):
            with monkeypatch.context() as m:
                _recording(m, "shell_integral", seen)
                _recording(m, "coset_integral", seen)
                certify_gamma(fac, chi, psi)
    assert cold and len(cold) == len(warm)
    for a, b in zip(cold, warm):
        assert a is b and a._z is not None
        fresh = _make(a.n, a.den, dict(a.nums))
        assert fresh._z is None
        assert repr(a.to_complex()) == repr(fresh.to_complex())


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("ext", [None, *EXTENSION_TYPES])
def test_cached_box_fourier_equals_a_fresh_transform(p, ext):
    K, psi = _field(p, ext)
    for c in (0, 1, 2):
        for shifted in (psi, psi.shifted(p), psi.shifted(Fraction(1, p))):
            for box in tate_mod._default_test_functions(K, c):
                cached = box_fourier(box, shifted)
                assert box_fourier(box, shifted) is cached
                fresh = box_fourier.__wrapped__(box, shifted)
                assert fresh == cached and repr(fresh) == repr(cached)


class _OffAt:
    """A closed form that is ``fac`` everywhere but at the point ``at``."""

    def __init__(self, fac, at):
        self.fac, self.at = fac, at

    def eval(self, s):
        return self.fac.eval(s) * (1.001 if s == self.at else 1)


def test_a_warm_certification_still_fails_a_wrong_closed_form():
    # every term the oracle keeps per value is cached by now, and it still
    # compares every point: a closed form wrong at the last point of the
    # check grid alone fails there, on the first box
    K, psi = _field(3, UNRAMIFIED)
    for level in (0, 1, 2):
        chi = rand_char(K, level, random.Random(f"warm-{level}"))
        fac = tate_gamma(chi, psi)
        certify_gamma(fac, chi, psi)
        wrong = _OffAt(fac, tate_mod._check_grid(fac, chi)[-1])
        hits = box_fourier.cache_info().hits
        with pytest.raises(ConsistencyError, match=re.escape(f"at s={wrong.at} ")):
            certify_gamma(wrong, chi, psi)
        assert box_fourier.cache_info().hits == hits + 1
        certify_gamma(fac, chi, psi)
