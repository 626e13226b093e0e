import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asailocal.padic import (
    EXTENSION_TYPES,
    EElement,
    PAdicGround,
    PrecisionError,
    QuadExtension,
    RAMIFIED_P,
    UNRAMIFIED,
    ZeroValuationError,
    field_from_json,
)


def test_valuation_normalization():
    F = PAdicGround(3)
    assert F.val(3) == 1
    Er = QuadExtension(F, RAMIFIED_P)
    assert Er.val(Er.sqrt_d()) == 1


def test_valuation_unramified_inverse():
    # 1/(2 sqrt(d)) in the unramified extension is a unit
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    x = (E.sqrt_d() * 2).inv()
    assert E.val(x) == 0
    assert F.val(x.norm()) == 0


def test_valuation_of_zero_raises():
    F = PAdicGround(5)
    E = QuadExtension(F, UNRAMIFIED)
    with pytest.raises(ZeroValuationError):
        F.val(0)
    with pytest.raises(ZeroValuationError):
        E.val(E.zero())


@pytest.mark.parametrize("ext", [None, *EXTENSION_TYPES])
def test_valuation_accepts_elements_of_the_ground_field(ext):
    # E.val embeds an element of F first, as F.val takes ints and Fractions
    F = PAdicGround(5)
    K = F if ext is None else QuadExtension(F, ext)
    e = 1 if ext in (None, UNRAMIFIED) else 2
    assert K.val(1) == 0
    assert K.val(Fraction(5, 3)) == e
    assert K.val(Fraction(2, 25)) == -2 * e
    assert K.val(-10) == K.val(K.embed(-10)) == e
    with pytest.raises(ZeroValuationError):
        K.val(0)


def test_trace_norm_sigma():
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    a = E.elem(Fraction(7, 2))
    assert a.trace() == 7 and a.norm() == Fraction(49, 4) and a.conj() == a
    xi = E.xi()
    assert xi.trace() == 0
    assert xi.norm() == -E.d * xi.b**2
    assert xi.conj() == -xi
    z = E.elem(1, 1)
    assert z.trace() == 2 and z.norm() == 1 - E.d and z.conj() == E.elem(1, -1)


def test_sigma_is_field_involution():
    F = PAdicGround(5)
    rng = random.Random(0)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        xs = E.shell(0, 2)
        for _ in range(25):
            x, y = rng.choice(xs), rng.choice(xs)
            assert (x + y).conj() == x.conj() + y.conj()
            assert (x * y).conj() == x.conj() * y.conj()
            assert x.conj().conj() == x


def test_ord_add_mul_laws():
    F = PAdicGround(3)
    rng = random.Random(1)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        pool = [e for v in (-2, -1, 0, 1, 2) for e in E.shell(v, 2)[:4]]
        for _ in range(60):
            x, y = rng.choice(pool), rng.choice(pool)
            assert E.val(x * y) == E.val(x) + E.val(y)
            if not (x + y).is_zero():
                assert E.val(x + y) >= min(E.val(x), E.val(y))
                if E.val(x) != E.val(y):
                    assert E.val(x + y) == min(E.val(x), E.val(y))


def test_norm_absolute_value_compatibility():
    # |N(x)|_F = |x|_E, i.e. ord_F(N x) * e = ... tested via exponents
    F = PAdicGround(5)
    rng = random.Random(2)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        for v in (-2, 0, 1, 3):
            for x in rng.sample(E.shell(v, 2), 5):
                # q_F^{-ord_F(Nx)} must equal q_E^{-ord_E(x)}
                assert F.q ** F.val(x.norm()) == E.q ** E.val(x)


def test_shell_counts_and_examples():
    F3 = PAdicGround(3)
    assert F3.shell(0, 1) == [Fraction(1), Fraction(2)]
    F5 = PAdicGround(5)
    sh = F5.shell(-1, 2)
    assert len(sh) == 20
    assert all(F5.val(x) == -1 for x in sh)
    Er = QuadExtension(F3, RAMIFIED_P)
    sh = Er.shell(1, 1)
    assert sh == [Er.sqrt_d(), Er.sqrt_d() * 2]
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F3, ext)
        for m in (1, 2):
            assert len(E.shell(0, m)) == (E.q - 1) * E.q ** (m - 1)


def test_shell_partition():
    # shells of valuation -1..1 tile the annulus exactly once mod pi^(v+m)
    F = PAdicGround(3)
    E = QuadExtension(F, UNRAMIFIED)
    m = 1
    seen = set()
    for v in (-1, 0, 1):
        for x in E.shell(v, m):
            key = (v + 0, E.residue(x * E.uniformizer() ** (-v), m))
            assert key not in seen
            seen.add(key)
    assert len(seen) == 3 * (E.q - 1)


FIELDS = [(p, ext) for p in (3, 5, 7) for ext in (None, *EXTENSION_TYPES)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(-2, 2), st.integers(1, 2))
def test_shells_partition_their_annulus(field, v, m):
    # pi^v times a complete set of unit representatives mod pi^m, each once
    p, ext = field
    F = PAdicGround(p)
    K = F if ext is None else QuadExtension(F, ext)
    shell = K.shell(v, m)
    assert all(K.val(x) == v for x in shell)
    assert len({K.residue(K.unit_part(x), m) for x in shell}) == len(shell)
    assert len(shell) == (K.q - 1) * K.q ** (m - 1)


def _reference_val(E, x):
    """ord_E as the minimum over the coordinates: ord_F on unramified E; on
    ramified E, sqrt(d) has valuation 1."""
    F = E.ground
    e = 1 if E.ext_type == UNRAMIFIED else 2
    vals = [e * F.val(x.a)] if x.a else []
    if x.b:
        vals.append(e * F.val(x.b) + e - 1)
    return min(vals)


def _reference_mul(E, x, y):
    return EElement(E, x.a * y.a + E.d * x.b * y.b, x.a * y.b + x.b * y.a)


def _reference_inv(E, x):
    n = x.a * x.a - E.d * x.b * x.b
    return EElement(E, x.a / n, -x.b / n)


def _same(x, y):
    return (x.a, x.b) == (y.a, y.b) and all(type(c) is Fraction for c in (x.a, x.b))


# ints and Fractions, with powers of 3, 5 and 7 on either side
coords = st.integers(-343, 343) | st.builds(
    Fraction, st.integers(-343, 343), st.sampled_from([1, 2, 3, 5, 7, 9, 25, 49])
)
sqrt_d_coords = st.just(0) | coords  # b = 0: elements of the ground field


def _reference_unit_part(E, x, v):
    """x / pi^v: by p^v on unramified E; on ramified E by d^floor(v/2), and
    for odd v once more by sqrt(d), (a + b sqrt d) / sqrt d = b + (a/d) sqrt d."""
    if E.ext_type == UNRAMIFIED:
        s = Fraction(E.p) ** -v
        return EElement(E, x.a * s, x.b * s)
    s = Fraction(E.d) ** -(v // 2)
    if v % 2:
        return EElement(E, x.b * s, x.a * s / E.d)
    return EElement(E, x.a * s, x.b * s)


def _reference_residue(E, x, m):
    """(a mod p^ma, b mod p^mb) from the Fraction coordinates; None when a
    coordinate that needs digits is not p-integral."""
    out = []
    for c, k in zip((x.a, x.b), E.residue_digits(m)):
        if k and c.denominator % E.p == 0:
            return None
        out.append(c.numerator * pow(c.denominator, -1, E.p**k) % E.p**k if k else 0)
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.sampled_from(EXTENSION_TYPES),
    coords,
    sqrt_d_coords,
    coords,
    sqrt_d_coords,
    st.integers(1, 4),
)
def test_element_arithmetic_matches_the_generic_formulas(p, ext, a, b, c, d, m):
    E = QuadExtension(PAdicGround(p), ext)
    x, y = E.elem(a, b), E.elem(c, d)
    assert _same(x, EElement(E, Fraction(a), Fraction(b)))
    assert _same(x * y, _reference_mul(E, x, y))
    assert _same(x + y, EElement(E, x.a + y.a, x.b + y.b))
    assert _same(x - y, EElement(E, x.a - y.a, x.b - y.b))
    assert _same(-x, EElement(E, -x.a, -x.b))
    assert _same(x.conj(), EElement(E, x.a, -x.b))
    assert x.trace() == E.tr(x) == 2 * x.a and type(x.trace()) is Fraction
    assert x.norm() == x.a * x.a - E.d * x.b * x.b and type(x.norm()) is Fraction
    for z in (x, y):
        if not z.is_zero():
            assert _same(z.inv(), _reference_inv(E, z))
            v = _reference_val(E, z)
            assert E.val(z) == v
            assert _same(E.unit_part(z), _reference_unit_part(E, z, v))
        want = _reference_residue(E, z, m)
        if want is None:
            with pytest.raises(ValueError):
                E.residue(z, m)
        else:
            assert E.residue(z, m) == want
    if not y.is_zero():
        assert _same(x / y, _reference_mul(E, x, _reference_inv(E, y)))
    # one element, reached by different ints, Fractions and operations: equal
    # and of equal hash
    same = [(x + y) - y, -(-x), x.conj().conj(), EElement(E, Fraction(a), b)]
    if not y.is_zero():
        same.append(x * y / y)
    for z in same:
        assert z == x and hash(z) == hash(x) and _same(z, x)
    if not b:
        assert x == a and x.in_F() and x.as_F() == a


@pytest.mark.parametrize("ext", EXTENSION_TYPES)
def test_elements_of_F_hash_as_the_numbers_they_equal(ext):
    F = PAdicGround(5)
    E = QuadExtension(F, ext)
    for x in (0, 1, -1, 5, Fraction(1, 3)):
        assert E.elem(x) == x and hash(E.elem(x)) == hash(x)
        assert len({E.elem(x), x}) == 1


def test_precision_guard():
    F = PAdicGround(3, precision=8)
    with pytest.raises(PrecisionError):
        F.shell(0, 9)
    E = QuadExtension(F, UNRAMIFIED)
    with pytest.raises(PrecisionError):
        E.shell(0, 9)


def test_field_json_roundtrip():
    for ext in (None,) + EXTENSION_TYPES:
        obj = {"p": 7, "ext": ext, "precision": 10}
        K = field_from_json(obj)
        assert K.to_json()["p"] == 7
        assert K.to_json()["ext"] == ext
        assert K.to_json()["precision"] == 10


def test_xi_is_canonical_and_trace_zero():
    F = PAdicGround(3)
    for ext in EXTENSION_TYPES:
        E = QuadExtension(F, ext)
        xi = E.xi()
        assert xi.trace() == 0
        assert xi.conj() == -xi
        assert E.val(xi) == -E.different_exponent


@pytest.mark.parametrize("ext", [None, *EXTENSION_TYPES])
def test_shared_element_api(ext):
    F = PAdicGround(5)
    K = F if ext is None else QuadExtension(F, ext)
    x = K.elem(3)
    assert K.embed(x) is x
    assert K.embed(3) == x
    assert K.zero() == 0 and K.one() == 1
    assert K.one() + K.zero() == K.one()
    assert K.val(K.uniformizer()) == 1
    assert K.ground is F
    assert K.different_exponent == (0 if ext in (None, UNRAMIFIED) else 1)
    # tr is the trace down to F: the identity on F, 2a on a + b sqrt(d)
    assert K.tr(x) == (3 if ext is None else 6)
    assert K.tr(K.one()) == (1 if ext is None else 2)


def test_primality_check_stops_at_the_square_root():
    # 5 * 10**5 odd trial divisors up to the square root; trying every k < p
    # would take hours
    PAdicGround(1_000_000_000_039)
    for p in (3, 5, 7, 11, 13):
        PAdicGround(p)
    for composite in (1, 9, 15, 25, 49):
        with pytest.raises(ValueError):
            PAdicGround(composite)
