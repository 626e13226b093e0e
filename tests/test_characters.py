import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asailocal.characters import (
    AddChar,
    MultChar,
    Phase,
    compose_with_norm,
    conductor_add,
    extend_from_F,
    omega_quadratic,
    psi_to_E,
    restrict_to_F,
    sigma_conjugate,
    standard_psi,
)
from asailocal.cyclotomic import Cyc
from asailocal.padic import (
    EXTENSION_TYPES,
    PAdicGround,
    QuadExtension,
    RAMIFIED_P,
    UNRAMIFIED,
    is_extension,
)
from asailocal.unitgroups import unit_group


def rand_char(K, n, rng, t_den=12):
    G = unit_group(K, n)
    angles = [Fraction(rng.randrange(d), d) for d in G.orders]
    return MultChar.from_angles(K, n, angles, Phase.exact(Fraction(rng.randrange(t_den), t_den)))


# -- additive characters ------------------------------------------------------


def test_standard_psi_values():
    F = PAdicGround(3)
    psi = standard_psi(F)
    assert psi.angle(Fraction(1, 3)) == Fraction(1, 3)
    for x in (1, 5, Fraction(7, 2)):
        assert psi.angle(x) == 0  # c(psi0) = 0 on integers
    assert abs(abs(psi.value(Fraction(2, 9))) - 1) < 1e-15


def test_psi_is_additive():
    F = PAdicGround(5)
    psi = standard_psi(F).shifted(Fraction(2, 5))
    rng = random.Random(0)
    for _ in range(40):
        x = Fraction(rng.randrange(-50, 50), 5 ** rng.randrange(3))
        y = Fraction(rng.randrange(-50, 50), 5 ** rng.randrange(3))
        assert psi.angle(x + y) == (psi.angle(x) + psi.angle(y)) % 1


def test_conductor_add_shift_law():
    F = PAdicGround(3)
    psi = standard_psi(F)
    assert conductor_add(psi) == 0
    assert conductor_add(psi.shifted(3)) == -1
    for a in (Fraction(1, 3), Fraction(9), Fraction(2, 9), Fraction(5)):
        assert conductor_add(psi.shifted(a)) == -F.val(a)


def test_psi_xi_conductor_zero_all_types():
    for p in (3, 5, 7):
        F = PAdicGround(p)
        psi = standard_psi(F)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            assert conductor_add(psi_to_E(psi, E, E.xi())) == 0
            # psi o tr picks up the different
            assert conductor_add(psi_to_E(psi, E)) == -E.different_exponent


def test_theta_normalization():
    # psi_xi(a + b theta) = psi(b), the ring-generator pinning of the proof
    F = PAdicGround(3)
    psi = standard_psi(F)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        psix = psi_to_E(psi, E, E.xi())
        th = E.theta
        for a, b in [(1, 1), (2, Fraction(1, 3)), (0, Fraction(2, 9)), (Fraction(1, 3), 5)]:
            assert psix.angle(E.elem(a) + th * E.elem(b)) == psi.angle(b)


# -- multiplicative characters ---------------------------------------------------


def test_multiplicativity_100_trials():
    rng = random.Random(1)
    F = PAdicGround(5)
    for K in (F, QuadExtension(F, UNRAMIFIED), QuadExtension(F, RAMIFIED_P)):
        chi = rand_char(K, 2, rng)
        pool = [x for v in (-1, 0, 2) for x in K.shell(v, 2)[:12]]
        for _ in range(100):
            x, y = rng.choice(pool), rng.choice(pool)
            assert abs(chi.value(x * y) - chi.value(x) * chi.value(y)) < 1e-12


def test_conductor_is_minimal():
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    G = unit_group(E, 2)
    # angles living only on the Teichmueller generator have conductor 1
    chi = MultChar.from_angles(E, 2, [Fraction(1, G.orders[0])] + [0] * (len(G.orders) - 1), Phase.one())
    assert chi.n == 1
    triv = MultChar.from_angles(E, 2, [0] * len(G.orders), Phase.exact(Fraction(1, 2)))
    assert triv.n == 0


def test_restrict_then_extend_round_trip():
    rng = random.Random(2)
    for p in (3, 5):
        F = PAdicGround(p)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            chi = rand_char(F, rng.randint(0, 2), rng)
            ext_chi = extend_from_F(chi, E)
            back = restrict_to_F(ext_chi)
            probes = F.shell(0, 2) + [Fraction(p), Fraction(1, p), Fraction(2 * p)]
            for x in probes:
                assert abs(back.value(x) - chi.value(x)) < 1e-12


def test_extension_of_unramified_twist():
    # chi = |.|^lam extends with chi~(p) = chi(p)
    F = PAdicGround(5)
    E = QuadExtension(F, UNRAMIFIED)
    chi = MultChar.unramified(F, Phase.one(), Fraction(2))
    chit = extend_from_F(chi, E)
    assert abs(chit.value(E.embed(5)) - chi.value(5)) < 1e-12
    for u in (2, 3, 7):
        assert abs(chit.value(E.embed(u)) - chi.value(u)) < 1e-12


def test_restriction_conductor_example():
    # over unramified E/Q3, a conductor-1 character restricts to a ramified or
    # unramified character according to its order on the subfield units
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    G = unit_group(E, 1)
    d = G.orders[0]  # 8
    chi8 = MultChar(E, 1, (Fraction(1, d),), Phase.one())
    # F^x units land in the order-(p-1) subgroup; the order-8 character is
    # nontrivial there iff its restriction has conductor 1
    rest = restrict_to_F(chi8)
    gen_angle = chi8.unit_angle(E.embed(2))
    assert (rest.n == 1) == (gen_angle != 0)
    # the order-2 character of F_9^x kills every F_3 unit (all are squares in F_9)
    chi2 = MultChar(E, 1, (Fraction(1, 2),), Phase.one())
    rest2 = restrict_to_F(chi2)
    # chi2 = quadratic character of F_9^x; restriction to F_3^x is trivial
    # because every F_3 unit is a square in F_9
    assert rest2.n == 0


def test_sigma_conjugate_involution_and_conductor():
    rng = random.Random(3)
    F = PAdicGround(5)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        chi = rand_char(E, 2, rng)
        sig = sigma_conjugate(chi)
        assert sig.n == chi.n
        sig2 = sigma_conjugate(sig)
        for x in E.shell(0, 2)[:10] + [E.uniformizer(), E.elem(1, 1)]:
            assert abs(sig2.value(x) - chi.value(x)) < 1e-12
            assert abs(sig.value(x) - chi.value(x.conj())) < 1e-12


def test_sigma_commutes_with_products_and_inverses():
    rng = random.Random(8)
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    c1, c2 = rand_char(E, 1, rng), rand_char(E, 2, rng)
    lhs = sigma_conjugate(c1.mul(c2))
    rhs = sigma_conjugate(c1).mul(sigma_conjugate(c2))
    lhs_i = sigma_conjugate(c1.inv())
    rhs_i = sigma_conjugate(c1).inv()
    for x in E.shell(0, 2)[:8] + [E.uniformizer(), E.elem(2, 1)]:
        assert abs(lhs.value(x) - rhs.value(x)) < 1e-12
        assert abs(lhs_i.value(x) - rhs_i.value(x)) < 1e-12


def test_sigma_on_ramified_uniformizer():
    F = PAdicGround(3)
    E = QuadExtension(F, RAMIFIED_P)
    rng = random.Random(4)
    chi = rand_char(E, 1, rng)
    # chi^sigma(sqrt(p)) = chi(-sqrt(p))
    assert abs(sigma_conjugate(chi).value(E.sqrt_d()) - chi.value(-E.sqrt_d())) < 1e-12


def test_omega_quadratic_properties():
    rng = random.Random(5)
    for p in (3, 5, 7):
        F = PAdicGround(p)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            om = omega_quadratic(E)
            assert om.mul(om).is_trivial()
            if ext == UNRAMIFIED:
                assert om.n == 0 and abs(om.value(p) + 1) < 1e-15
            else:
                assert om.n == 1
            for _ in range(20):
                x = rng.choice(E.shell(rng.randint(-2, 2), 2))
                assert abs(om.value(x.norm()) - 1) < 1e-12


def test_is_trivial_is_exact_on_exact_data_and_tolerant_on_floats():
    F = PAdicGround(5)
    tiny = Fraction(1, 10**12)
    # exact data is decided exactly: no angle or exponent is small enough
    assert MultChar.trivial(F).is_trivial()
    assert not MultChar.unramified(F, Phase.exact(tiny)).is_trivial()
    assert not MultChar.unramified(F, Phase.one(), tiny).is_trivial()
    assert not MultChar(F, 1, (Fraction(1, 4),), Phase.one()).is_trivial()
    # float data carries rounding and is decided within 1e-9
    assert MultChar.unramified(F, Phase.one(), 1e-17 + 1e-17j).is_trivial()
    assert MultChar.unramified(F, Phase.approx(1 + 1e-13)).is_trivial()
    assert not MultChar.unramified(F, Phase.one(), 1e-6).is_trivial()
    assert not MultChar.unramified(F, Phase.approx(1 + 1e-6)).is_trivial()


def test_omega_minus_one_ramified():
    # omega_{E/F}(-1) = Legendre(-1, p) for ramified E
    from asailocal.padic import legendre

    for p in (3, 5, 7, 11):
        F = PAdicGround(p)
        om = omega_quadratic(QuadExtension(F, RAMIFIED_P))
        assert abs(om.value(-1) - legendre(-1, p)) < 1e-12


def test_compose_with_norm_matches_pointwise():
    rng = random.Random(6)
    F = PAdicGround(3)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        chi = rand_char(F, 2, rng)
        chiN = compose_with_norm(chi, E)
        pool = [x for v in (-1, 0, 1) for x in E.shell(v, 2)[:8]]
        for x in pool:
            assert abs(chiN.value(x) - chi.value(x.norm())) < 1e-12


# -- the transports, exactly ----------------------------------------------------


def rand_elem(K, rng):
    """pi^v u with v in -1..2 and u a random unit with coordinates below p^6."""
    p = K.ground.p
    while True:
        a, b = rng.randrange(p**6), rng.randrange(p**6)
        u = K.elem(a, b) if is_extension(K) else K.elem(a)
        if K.val(u) == 0:
            return u * K.uniformizer() ** rng.randint(-1, 2)


def assert_minimal(chi):
    """chi is nontrivial on 1 + pi^(n-1) O (on the units when n = 1)."""
    K, n = chi.field, chi.n
    if n == 0:
        return
    units = K.shell(0, 1) if n == 1 else [1 + x for x in K.shell(n - 1, 1)]
    assert any(chi.angle_at(u) != 0 for u in units), chi


@pytest.mark.parametrize("ext", EXTENSION_TYPES)
@pytest.mark.parametrize("p", (3, 5, 7))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32), levels=st.lists(st.integers(0, 3), min_size=5, max_size=5))
def test_transports_are_exact_pullbacks_at_minimal_conductor(p, ext, seed, levels):
    # every transport equals chi o f by angle_at, with no tolerance
    E = QuadExtension(PAdicGround(p), ext)
    F, rng = E.ground, random.Random(seed)
    n1, n2, n3, n4, n5 = levels
    chi, chi2, chiF = rand_char(E, n1, rng), rand_char(E, n2, rng), rand_char(F, n3, rng)
    G = unit_group(E, n4)
    raw = MultChar(E, n4, [Fraction(rng.randrange(d), d) for d in G.orders], Phase.one())
    GF = unit_group(F, n5)
    rawF = MultChar(F, n5, [Fraction(rng.randrange(d), d) for d in GF.orders], Phase.one())
    rest, sig = restrict_to_F(chi), sigma_conjugate(chi)
    nrm, red, redF = compose_with_norm(chiF, E), raw.reduced(), rawF.reduced()
    prod, prodF = chi.mul(chi2), chiF.mul(rawF)
    for out in (rest, sig, nrm, prod, prodF, red, redF):
        assert_minimal(out)
    for _ in range(6):
        x, y = rand_elem(E, rng), rand_elem(F, rng)
        assert rest.angle_at(y) == chi.angle_at(E.embed(y))
        assert sig.angle_at(x) == chi.angle_at(x.conj())
        assert nrm.angle_at(x) == chiF.angle_at(x.norm())
        assert prod.angle_at(x) == (chi.angle_at(x) + chi2.angle_at(x)) % 1
        assert prodF.angle_at(y) == (chiF.angle_at(y) + rawF.angle_at(y)) % 1
        assert red.angle_at(x) == raw.angle_at(x)
        assert redF.angle_at(y) == rawF.angle_at(y)


def test_exact_values_are_cyclotomic():
    F = PAdicGround(5)
    chi = MultChar(F, 1, (Fraction(1, 4),), Phase.exact(Fraction(1, 3)))
    v = chi.cyc(Fraction(10))
    assert isinstance(v, Cyc)
    assert abs(v.to_complex() - chi.value(Fraction(10))) < 1e-12


def test_char_json_roundtrip():
    from asailocal.characters import mult_char_from_json

    F = PAdicGround(5)
    E = QuadExtension(F, UNRAMIFIED)
    rng = random.Random(7)
    for K in (F, E):
        chi = rand_char(K, 2, rng)
        back = mult_char_from_json(chi.to_json(), K)
        for x in K.shell(0, 2)[:8]:
            assert abs(back.value(x) - chi.value(x)) < 1e-12
