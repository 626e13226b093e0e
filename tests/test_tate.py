import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asailocal.tate as tate_mod
from asailocal.characters import (
    MultChar,
    Phase,
    conductor_add,
    omega_quadratic,
    psi_to_E,
    restrict_to_F,
    shell_cyc,
    standard_psi,
)
from asailocal.cli import main
from asailocal.cyclotomic import Cyc
from asailocal.factors import PHI_INDEPENDENCE_TOL, PoleError
from asailocal.padic import EXTENSION_TYPES, PAdicGround, QuadExtension, UNRAMIFIED
from asailocal.tate import (
    ConsistencyError,
    box_fourier,
    fe_ratio,
    gauss_sum,
    langlands_constant,
    tate_L,
    tate_eps,
    tate_gamma,
)
from asailocal.unitgroups import unit_group


def rand_char(K, n, rng, t_den=12):
    G = unit_group(K, n)
    angles = [Fraction(rng.randrange(d), d) for d in G.orders]
    return MultChar.from_angles(K, n, angles, Phase.exact(Fraction(rng.randrange(t_den), t_den)))


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
    g = tate_gamma(MultChar.trivial(F), standard_psi(F))
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
            eps = tate_eps(chi, psi)
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
        e0 = tate_eps(chi, psi)
        for a in (Fraction(2), Fraction(p), Fraction(2 * p * p)):
            e1 = tate_eps(chi, psi.shifted(a))
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
            g1 = tate_gamma(chi, psi)
            g2 = tate_gamma(chi.inv(), psi.shifted(-1))
            for s in grid:
                assert abs(g1.eval(s) * g2.eval(1 - s) - 1) < 1e-9


def test_deligne_unramified_twist_shape():
    # for unramified chi and psi of level -r: eps = chi(pi)^r q^{-r(s-1/2)}
    F = PAdicGround(5)
    chi = MultChar.unramified(F, Phase.exact(Fraction(1, 3)))
    for r in (1, 2):
        psi = standard_psi(F).shifted(Fraction(5**r))
        eps = tate_eps(chi, psi)
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
            eps = tate_eps(mu, psix)
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
        good = tate_gamma(chi, psi, check=True)
        bad = replace(good, c=good.c * 1.000001)
        with pytest.raises(ConsistencyError, match=r"at s=0\.7 \(Phi=\[ModBox"):
            tate_mod._certify_gamma(bad, chi, psi)


README_TATE_RAMIFIED = [
    "tate", "--field", '{"p":3,"ext":"ramified-p"}',
    "--char", '{"field":"E","conductor":1,"unit_part":["1/2"],"t":{"angle":"1/3"}}',
]


@pytest.mark.parametrize("which", [0, 1, "readme-tate"])
def test_certified_gamma_calls_fe_ratio_once_per_test_function(monkeypatch, capsys, which):
    calls = []

    def counting(chi, psi, pieces, grid):
        calls.append(tuple(grid))
        return fe_ratio(chi, psi, pieces, grid)

    monkeypatch.setattr(tate_mod, "fe_ratio", counting)
    if which == "readme-tate":
        # the CLI certifies gamma once and derives eps from it
        assert main(README_TATE_RAMIFIED) == 0
    else:
        psi, chi = _chars_over_E()[which]
        tate_gamma(chi, psi)
    assert calls == [tate_mod._CHECK_GRID] * 3


# The former per-s oracle: every shell and coset sum is redone at each s.
# The grid fe_ratio must give the same floats, bit for bit.


def _valuation_piece(chi, v, integral, *args):
    """A shell or coset integral of chi on valuation v: the exact integral of
    chi's unit part, times chi(pi)^v."""
    unit = tate_mod._unit_part(chi.field, chi.n, chi.angles)
    return integral(unit, *args).to_complex() * chi._value(v, 1)


def reference_tate_zeta_value(chi, psi, pieces, s):
    """Z(s, chi, Phi) = int chi(x) |x|^s Phi(x) d^x x for Phi a list of
    modulated boxes; d^x x = zeta_K(1) dx / |x|, dx self-dual for psi.

    Geometric tails are summed in closed form, which is also the meromorphic
    continuation outside the convergence half-plane.
    """
    K = chi.field
    q = K.q
    c = conductor_add(psi)
    vol_O = float(q ** Fraction(c, 2))
    zeta1 = 1.0 / (1.0 - 1.0 / q)
    total = 0j
    for piece in pieces:
        a, n, m0 = K.embed(piece.center), piece.level, K.embed(piece.mult)
        if a == 0 or K.val(a) >= n:
            # box is the ideal pi^n O: sum over shells v >= n
            if chi.is_ramified:
                if m0 == 0:
                    continue
                v = conductor_add(psi) - K.val(m0) - chi.n
                if v < n:
                    continue
                shell_val = _valuation_piece(chi, v, tate_mod.shell_integral, v, psi, None, -m0)
                total += piece.coef * zeta1 * q ** (-v * (s - 1)) * shell_val
            else:
                t = chi.t_full()
                c_eff = None if m0 == 0 else conductor_add(psi) - K.val(m0)
                start = n if c_eff is None else max(n, c_eff)
                # geometric part: sum_{v >= start} q^{-v(s-1)} t^v vol q^{-v}(1-1/q)
                r = t * q ** (-s)
                if abs(r - 1) < 1e-13:
                    raise PoleError(s)
                geom = r**start / (1 - r)
                total += piece.coef * zeta1 * vol_O * (1 - 1.0 / q) * geom
                if c_eff is not None and c_eff - 1 >= n:
                    v = c_eff - 1
                    shell_val = _valuation_piece(chi, v, tate_mod.shell_integral, v, psi, None, -m0)
                    total += piece.coef * zeta1 * q ** (-v * (s - 1)) * shell_val
        else:
            v0 = K.val(a)
            inner = _valuation_piece(chi, v0, tate_mod.coset_integral, a, n, psi, None, -m0)
            total += piece.coef * zeta1 * q ** (-v0 * (s - 1)) * inner
    return total


def reference_fe_ratio(chi, psi, pieces, s):
    """Z(1-s, chi^{-1}, Phi^) / Z(s, chi, Phi)."""
    hat = [box_fourier(p, psi) for p in pieces]
    num = reference_tate_zeta_value(chi.inv(), psi, hat, 1 - s)
    den = reference_tate_zeta_value(chi, psi, pieces, s)
    if abs(den) < 1e-30:
        raise ZeroDivisionError("test function has vanishing zeta integral")
    return num / den


@st.composite
def fe_cases(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    ext = draw(st.sampled_from((None,) + tuple(EXTENSION_TYPES)))
    K, psi = _field(p, ext)
    n = draw(st.integers(0, 2))
    angles = [Fraction(draw(st.integers(0, d - 1)), d) for d in unit_group(K, n).orders]
    chi = MultChar(K, n, angles, Phase.exact(Fraction(draw(st.integers(0, 11)), 12)))
    pieces = draw(st.sampled_from(tate_mod._default_test_functions(chi, psi)))
    re = st.floats(-1.5, 2.5, allow_nan=False)
    point = st.one_of(re, st.builds(complex, re, st.floats(-3, 3)))
    grid = draw(st.lists(point, min_size=1, max_size=4))
    return chi, psi, pieces, grid


@settings(max_examples=80, deadline=None)
@given(fe_cases())
def test_grid_fe_ratio_matches_the_per_point_reference_bit_for_bit(case):
    chi, psi, pieces, grid = case
    try:
        want = [reference_fe_ratio(chi, psi, pieces, s) for s in grid]
    except (PoleError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            fe_ratio(chi, psi, pieces, grid)
        assert got.value.args == exc.args
        return
    assert fe_ratio(chi, psi, pieces, grid) == want


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
        fac = tate_gamma(chi, psi)  # raises ConsistencyError on a mismatch
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
            for pieces in tate_mod._default_test_functions(chi, psi):
                assert len(fe_ratio(chi, psi, pieces, tate_mod._CHECK_GRID)) == 3


def test_fe_ratio_raises_at_the_pole_on_the_grid():
    F = PAdicGround(3)
    psi = standard_psi(F)
    base = tate_mod._default_test_functions(MultChar.trivial(F), psi)[0]
    assert len(fe_ratio(MultChar.trivial(F), psi, base, (0.7, 1.3))) == 2
    # Z(s, 1, 1_O) has its pole at s = 0, so Z(1-s, 1, 1_O^) has one at s = 1
    for grid in ((0.7, 0.0), (1.0, 0.7)):
        with pytest.raises(PoleError, match="pole at s = 0.0$"):
            fe_ratio(MultChar.trivial(F), psi, base, grid)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.sampled_from((None,) + tuple(EXTENSION_TYPES)),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
)
def test_gamma_functional_equation_involution_same_psi(p, ext, n, rng):
    # gamma(s, chi, psi) gamma(1-s, chi^{-1}, psi) = chi(-1)
    K, psi = _field(p, ext)
    chi = rand_char(K, n, rng)
    g1 = tate_gamma(chi, psi)
    g2 = tate_gamma(chi.inv(), psi)
    sign = chi.value(-1)
    for s in (0.7, 1.3, 2.1 + 0.5j, 0.4 - 0.8j, 1.05):
        assert abs(g1.eval(s) * g2.eval(1 - s) - sign) < 1e-9
