import random
from fractions import Fraction

import pytest

from asailocal.padic import (
    EXTENSION_TYPES,
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
