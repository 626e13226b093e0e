import math
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
    mult_char_from_json,
    omega_quadratic,
    psi_to_E,
    restrict_to_F,
    sigma_conjugate,
    standard_psi,
    _num_exp,
)
from asailocal.cyclotomic import Cyc
from asailocal.padic import (
    EXTENSION_TYPES,
    PAdicGround,
    PrecisionError,
    QuadExtension,
    RAMIFIED_P,
    UNRAMIFIED,
    is_extension,
)
from asailocal.tate import tate_gamma
from asailocal.unitgroups import unit_group

from random_chars import rand_char, unit_angle


# -- additive characters ------------------------------------------------------


def test_standard_psi_values():
    F = PAdicGround(3)
    psi = standard_psi(F)
    assert psi.angle(Fraction(1, 3)) == Fraction(1, 3)
    for x in (1, 5, Fraction(7, 2)):
        assert psi.angle(x) == 0  # c(psi0) = 0 on integers
    assert abs(abs(psi.value(Fraction(2, 9))) - 1) < 1e-15


def _reference_frac_part(p, t):
    """The k/p^m in [0, 1) with t - k/p^m p-integral, and m."""
    m = 0
    while (t * p**m).denominator % p == 0:
        m += 1
    y, P = t * p**m, p**m
    return Fraction(y.numerator * pow(y.denominator, -1, P) % P, P), m


# rationals with powers of 3, 5 and 7 on either side; a product of two
# denominators 3^5 or 5^5 needs more digits than precision 8
_rationals = st.builds(
    Fraction,
    st.integers(-343, 343),
    st.sampled_from([1, 2, 3, 5, 7, 9, 25, 49, 27 * 49, 3**5, 5**5]),
) | st.builds(lambda k, e: Fraction(k * 3**e), st.integers(-20, 20), st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.sampled_from([None, *EXTENSION_TYPES]),
    _rationals.filter(bool),
    _rationals,
    _rationals,
    _rationals,
)
def test_psi_angle_matches_the_trace_formula(p, ext, ma, mb, xa, xb):
    # psi(x) = e(frac_p(tr(mult x))) from the Fraction formulas, for the angle,
    # the float value and the exact value alike
    F = PAdicGround(p, precision=8)
    K = F if ext is None else QuadExtension(F, ext)
    mult, x = (ma, xa) if ext is None else (K.elem(ma, mb), K.elem(xa, xb))
    psi = AddChar(K, mult)
    want, m = _reference_frac_part(p, K.tr(mult * x))
    if m > F.precision:
        with pytest.raises(PrecisionError):
            psi.angle(x)
        return
    got = psi.angle(x)
    assert got == want and type(got) is Fraction
    assert psi.value(x) == _num_exp(want.numerator, want.denominator)
    assert psi.cyc(x) == Cyc.root(want)
    assert (psi.cyc(x).n, psi.cyc(x).nums) == (want.denominator, {want.numerator: 1})


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
            # the same unit part with a float t, |t| != 1, and a complex lam
            drift = MultChar(F, chi.n, chi.angles, Phase.approx(0.9 + 1.2j), 0.25 - 0.5j)
            for c in (chi, drift):
                back = restrict_to_F(extend_from_F(c, E))
                probes = F.shell(0, 2) + [Fraction(p), Fraction(1, p), Fraction(2 * p)]
                for x in probes:
                    assert abs(back.value(x) - c.value(x)) < 1e-12


def _char_of_conductor(F, n, rng):
    """A random exact character of F^x of conductor exactly n."""
    while True:
        chi = rand_char(F, n, rng)
        if chi.n == n:
            return chi


@pytest.mark.parametrize("p", (3, 5, 7))
def test_extension_at_level_e_n_restricts_back_by_value(p):
    # extend_from_F solves its unit constraint at level e n, n = a(chi):
    # the extension has conductor at most e n and restricts to chi exactly,
    # unit data, t and lambda compared by value; lambda = 1 extends to 1/2
    rng = random.Random(40 + p)
    F = PAdicGround(p)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        for n in range(4):
            for _ in range(3):
                chi = _char_of_conductor(F, n, rng)
                for c in (chi, chi.twist_by_norm_power(1)):
                    chit = extend_from_F(c, E)
                    assert chit.n <= E.e * n, (ext, n, chit)
                    assert restrict_to_F(chit) == c, (ext, n, c)


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
    gen_angle = unit_angle(chi8, E.embed(2))
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


def assert_integer_core(chi):
    """The unit part is reduced integers, ``angles`` reads them as
    Fractions, and the --char JSON round trip gives the same JSON and repr."""
    den, ws = chi.unit_den, chi.unit_weights
    assert all(0 <= w < den for w in ws), chi
    assert math.gcd(den, *ws) == 1, chi
    assert chi.angles == tuple(Fraction(w, den) for w in ws)
    back = mult_char_from_json(chi.to_json(), chi.field)
    assert back.to_json() == chi.to_json() and repr(back) == repr(chi)


@pytest.mark.parametrize("ext", EXTENSION_TYPES)
@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
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
    w = rng.choice((-2, -1, 1, 2))
    inv, tw, ext = chi.inv(), chi.twist_by_norm_power(Fraction(w)), extend_from_F(chiF, E)
    back = restrict_to_F(ext)
    for out in (rest, sig, nrm, prod, prodF, red, redF, inv, tw, ext, back):
        assert_minimal(out)
        assert_integer_core(out)
    assert tw.lam == chi.lam + w
    for _ in range(6):
        x, y = rand_elem(E, rng), rand_elem(F, rng)
        assert rest.angle_at(y) == chi.angle_at(E.embed(y))
        assert sig.angle_at(x) == chi.angle_at(x.conj())
        assert nrm.angle_at(x) == chiF.angle_at(x.norm())
        assert prod.angle_at(x) == (chi.angle_at(x) + chi2.angle_at(x)) % 1
        assert prodF.angle_at(y) == (chiF.angle_at(y) + rawF.angle_at(y)) % 1
        assert red.angle_at(x) == raw.angle_at(x)
        assert redF.angle_at(y) == rawF.angle_at(y)
        assert inv.angle_at(x) == -chi.angle_at(x) % 1
        # |x|^w is 1 on units, and chi * |.|^w * |.|^-w is chi again
        assert tw.angle_at(E.unit_part(x)) == chi.angle_at(E.unit_part(x))
        assert tw.twist_by_norm_power(Fraction(-w)).angle_at(x) == chi.angle_at(x)
        assert back.angle_at(y) == chiF.angle_at(y)


# -- value semantics -------------------------------------------------------------


def assert_phase_reduced(t):
    assert t.is_exact and 0 <= t.num < t.den and math.gcd(t.num, t.den) == 1, t


def assert_same_value(a, b):
    assert a == b and hash(a) == hash(b), (a, b)


@pytest.mark.parametrize("ext", EXTENSION_TYPES)
@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32), levels=st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_characters_compare_and_hash_by_value(p, ext, seed, levels):
    E = QuadExtension(PAdicGround(p), ext)
    F, rng = E.ground, random.Random(seed)
    mu, nu, chiF = rand_char(E, levels[0], rng), rand_char(E, levels[1], rng), rand_char(F, levels[2], rng)
    # two op paths to one character
    assert_same_value(restrict_to_F(mu.mul(nu)), restrict_to_F(mu).mul(restrict_to_F(nu)))
    assert_same_value(sigma_conjugate(sigma_conjugate(mu)), mu)
    assert_same_value(mu.inv().inv(), mu)
    # built again from its JSON: equal, and the cached pullback is shared
    back = mult_char_from_json(mu.to_json(), E)
    assert back is not mu
    assert_same_value(back, mu)
    assert restrict_to_F(back) is restrict_to_F(mu)
    assert sigma_conjugate(back) is sigma_conjugate(mu)
    # equality holds exactly when the JSON is equal
    pool = [mu, nu, chiF, back, mu.mul(nu), mu.inv(), sigma_conjugate(mu), restrict_to_F(mu)]
    pool += [compose_with_norm(chiF, E), extend_from_F(chiF, E), mu.twist_by_norm_power(Fraction(1))]
    pool += [mu.twist_by_norm_power(0j), MultChar.trivial(E), MultChar.trivial(F)]
    for a in pool:
        for b in pool:
            assert (a == b) == (a.to_json() == b.to_json()), (a, b)
    # float data never equals exact data, though Fraction(0) == 0j
    assert mu.twist_by_norm_power(0j) != mu
    assert MultChar.unramified(F, Phase.one(), 0j) != MultChar.trivial(F)
    assert MultChar.unramified(F, Phase.approx(1)) != MultChar.trivial(F)
    k = rng.randrange(12)
    t = Phase.exact(Fraction(k, 12))
    assert MultChar.unramified(F, Phase.approx(t.value())) != MultChar.unramified(F, t)
    # every exact phase is reduced
    phases = [chi.t for chi in pool] + [mu.t * nu.t, mu.t ** -5, mu.t.inv(), chiF.t ** 12]
    for t in phases:
        assert_phase_reduced(t)


def _count_fractions(monkeypatch) -> list:
    """From here until ``monkeypatch.undo()``, the arguments of every
    Fraction built go into the list returned."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return built


def test_phase_ops_build_no_fraction(monkeypatch):
    a, b = Phase.exact(Fraction(5, 12)), Phase.exact(Fraction(3, 8))
    built = _count_fractions(monkeypatch)
    c = (a * b) ** 7
    values = [a.value(), c.value(), c.inv().value(), Phase.one().value()]
    ops = len(built)
    angle = c.angle  # read as a Fraction: the one built here
    monkeypatch.undo()
    assert ops == 0 and len(built) == 1
    # 7 (5/12 + 3/8) = 133/24 = 13/24 mod 1, and value() is e(angle)
    assert (c.num, c.den) == (13, 24) and angle == Fraction(13, 24)
    assert values[1:3] == [_num_exp(13, 24), _num_exp(11, 24)]


def test_evaluation_builds_no_fraction(monkeypatch):
    # value and cyc read integers only; angle_at builds its return value
    rng = random.Random(23)
    F = PAdicGround(5)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        angles = [Fraction(rng.randrange(d), d) for d in unit_group(E, 2).orders]
        chi = MultChar(E, 2, angles, Phase.exact(Fraction(5, 12)))
        xs = [x for v in (-1, 0, 3) for x in E.shell(v, 2)[:4]]
        built = _count_fractions(monkeypatch)
        per_call = []
        for evaluate in (chi.value, chi.cyc, chi.angle_at):
            before = len(built)
            for x in xs:
                evaluate(x)
            per_call.append((len(built) - before) / len(xs))
        monkeypatch.undo()
        assert per_call == [0, 0, 1], ext


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


def test_json_numbers_and_the_integer_lambda_rule():
    from asailocal.characters import as_lam, json_complex, mult_char_from_json

    assert json_complex([1, 2]) == 1 + 2j and json_complex(0.5) == 0.5
    for bad in ([float("inf"), 0], float("nan"), [1], [1, 2, 3], "x", 10**400, None):
        with pytest.raises(ValueError):
            json_complex(bad)
    # one rule, for a --tau v2 and a descriptor's [re, im] lambda alike
    assert as_lam(2.0) == 2 and type(as_lam(2.0)) is int
    assert as_lam(-3 + 0j) == -3 and type(as_lam(-3 + 0j)) is int
    assert as_lam(0.5) == 0.5 and isinstance(as_lam(0.5), complex)
    F = PAdicGround(5)
    assert type(mult_char_from_json({"lambda": [2.0, 0.0]}, F).lam) is int
    # a JSON float lambda stays complex, as it always was
    assert isinstance(mult_char_from_json({"lambda": 2.0}, F).lam, complex)
    # the residue units of Z_5 are cyclic of order 4: 1/3 is no character's angle
    with pytest.raises(ValueError, match="order 4 is not an integer"):
        mult_char_from_json({"conductor": 1, "unit_part": ["1/3"]}, F)
    assert mult_char_from_json({"conductor": 1, "unit_part": ["3/4"]}, F).n == 1


# exact lambdas as the ops meet them: integers, halves from extend_from_F,
# and one of each kind of complex, with a signed zero among the imaginary parts
_MIXED_LAMS = [0, 1, -2, Fraction(1, 2), Fraction(-3, 2)]
_COMPLEX_LAMS = [0j, 1 + 0j, complex(-2.0, -0.0), 0.25 - 0.5j, complex(-0.0, 0.0), 1e300 + 0j]


def test_mixed_lambda_addition_is_the_complex_sum_bit_for_bit():
    # mul and twist_by_norm_power add lambdas with +, which must give what
    # complex(a) + complex(b) gives whenever one side is complex
    for a in _MIXED_LAMS:
        for b in _COMPLEX_LAMS:
            assert repr(a + b) == repr(complex(a) + complex(b)), (a, b)
            assert repr(b + a) == repr(complex(b) + complex(a)), (a, b)
    for a in _COMPLEX_LAMS:
        for b in _COMPLEX_LAMS:
            assert repr(a + b) == repr(complex(a) + complex(b)), (a, b)


def _chi_with_lam(chi: MultChar, lam) -> MultChar:
    return MultChar._from_weights(chi.field, chi.n, chi.unit_den, chi.unit_weights, chi.t, lam)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 11, 13]),
    ext=st.sampled_from([None, *EXTENSION_TYPES]),
    n=st.integers(0, 2),
    k=st.integers(-3, 3),
    seed=st.integers(0, 2**32),
)
def test_an_integral_lambda_has_one_representation(p, ext, n, k, seed):
    F, rng = PAdicGround(p), random.Random(seed)
    E = QuadExtension(F, ext or UNRAMIFIED)
    K = F if ext is None else E
    psi = standard_psi(F) if ext is None else psi_to_E(standard_psi(F), E, E.xi())
    base = rand_char(K, n, rng)
    # an int, a Fraction and a JSON string give one character, stored with an int
    forms = [_chi_with_lam(base, k), _chi_with_lam(base, Fraction(k))]
    forms.append(mult_char_from_json({**base.to_json(), "lambda": str(k)}, K))
    xs = [x for v in (-1, 0, 2) for x in K.shell(v, max(n, 1))[:3]]
    first = forms[0]
    for chi in forms:
        assert type(chi.lam) is int
        assert chi == first and hash(chi) == hash(first)
        assert chi.to_json() == first.to_json()
        assert [repr(chi.value(x)) for x in xs] == [repr(first.value(x)) for x in xs]
        assert [repr(chi.cyc(x)) for x in xs] == [repr(first.cyc(x)) for x in xs]
        assert repr(tate_gamma(chi, psi).eval(0.7)) == repr(tate_gamma(first, psi).eval(0.7))
    # every op keeps an integral lambda an int; halving an odd one makes a Fraction
    other = _chi_with_lam(rand_char(K, n, rng), rng.randrange(-2, 3))
    outs = [first.inv(), first.mul(other), first.twist_by_norm_power(Fraction(1)), first.twist_by_norm_power(-2)]
    if ext is None:
        outs.append(compose_with_norm(first, E))
        half = extend_from_F(first, E)
        assert half.lam == Fraction(k, 2)
        assert type(half.lam) is (int if k % 2 == 0 else Fraction)
        outs.append(restrict_to_F(half))
    else:
        outs += [restrict_to_F(first), sigma_conjugate(first)]
    for out in outs:
        assert type(out.lam) is int, out
    # a complex lambda stays complex through every op, even at an integral value
    for z in (complex(k), k + 0.25j):
        chi = _chi_with_lam(base, z)
        outs = [chi, chi.inv(), chi.mul(first), first.mul(chi), chi.twist_by_norm_power(1)]
        if ext is None:
            outs += [compose_with_norm(chi, E), extend_from_F(chi, E)]
        else:
            outs += [restrict_to_F(chi), sigma_conjugate(chi)]
        for out in outs:
            assert isinstance(out.lam, complex), out
