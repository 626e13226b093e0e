"""Normal-form Cyc arithmetic against the normalising construction it
replaced, the zero test against the dense reduction modulo Phi_N it
replaced, and the shared cached values staying untouched."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asailocal.cyclotomic import Cyc, cyclotomic_poly
from asailocal.padic import legendre
from asailocal.whittaker import _qpow, _sqrt_prime

DENS = [1, 2, 3, 4, 5, 6, 9, 12, 25]


@st.composite
def raw_terms(draw, most=4):
    """A dict angle -> coefficient as a caller might write it: angles outside
    [0, 1), repeated residues and zero coefficients included.  Few
    denominators, so products and sums collide and cancel often."""
    out = {}
    for _ in range(draw(st.integers(0, most))):
        den = draw(st.sampled_from(DENS))
        ang = Fraction(draw(st.integers(-2 * den, 2 * den)), den)
        out[ang] = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3])))
    return out


normal_cycs = raw_terms().map(Cyc)
scalars = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=6).filter(lambda x: abs(x) < 4))


# -- the normalising construction: raw dicts, reduced by the public Cyc(dict)


def _old_add(x, y):
    out = dict(x.terms)
    for a, c in y.terms.items():
        out[a] = out.get(a, Fraction(0)) + c
    return Cyc(out)


def _old_neg(x):
    return Cyc({a: -c for a, c in x.terms.items()})


def _old_mul(x, y):
    out = {}
    for a1, c1 in x.terms.items():
        for a2, c2 in y.terms.items():
            a = (a1 + a2) % 1
            out[a] = out.get(a, Fraction(0)) + c1 * c2
    return Cyc(out)


def _old_scale(x, k):
    return Cyc({a: c * k for a, c in x.terms.items()})


def reference_is_zero(x):
    """Whether x vanishes, by the dense reduction of sum c_k X^k modulo Phi_N
    at N = the lcm of the angle denominators, in Fraction arithmetic."""
    terms = x.terms
    if not terms:
        return True
    n = lcm(*(a.denominator for a in terms))
    coeffs = [Fraction(0)] * n
    for a, c in terms.items():
        coeffs[int(a * n) % n] += c
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    # X^k for k >= deg is reduced with X^deg = -phi[:deg]
    for k in range(n - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            coeffs[k] = Fraction(0)
            for i in range(deg):
                coeffs[k - deg + i] -= c * phi[i]
    return all(c == 0 for c in coeffs[:deg])


def _assert_normal_and_equal(got, want):
    assert all(isinstance(a, Fraction) and 0 <= a < 1 for a in got.terms)
    assert all(isinstance(c, Fraction) and c != 0 for c in got.terms.values())
    assert got.terms == Cyc(got.terms).terms
    assert got.terms == want.terms


def test_constructor_normalises():
    x = Cyc({Fraction(5, 4): 1, Fraction(1, 4): 2, Fraction(-1, 2): 3, Fraction(1, 2): -3, 0: 0})
    assert x.terms == {Fraction(1, 4): Fraction(3)}
    assert Cyc.rational(0).terms == {} and Cyc.root(Fraction(3, 2), 0).terms == {}
    assert Cyc.root(Fraction(-1, 3), 2).terms == {Fraction(2, 3): Fraction(2)}


@settings(max_examples=100, deadline=None)
@given(normal_cycs, normal_cycs, scalars)
def test_ring_operations_stay_normal(x, y, k):
    _assert_normal_and_equal(x + y, _old_add(x, y))
    _assert_normal_and_equal(x - y, _old_add(x, _old_neg(y)))
    _assert_normal_and_equal(x - x, Cyc())
    _assert_normal_and_equal(-x, _old_neg(x))
    _assert_normal_and_equal(x * y, _old_mul(x, y))
    _assert_normal_and_equal(y * x, _old_mul(x, y))
    _assert_normal_and_equal(x * k, _old_scale(x, k))
    _assert_normal_and_equal(k * x, _old_scale(x, k))
    _assert_normal_and_equal(x + k, _old_add(x, Cyc({0: k})))
    _assert_normal_and_equal(Cyc.sum([x, y, -x, y]), _old_add(_old_add(_old_add(x, y), _old_neg(x)), y))


@settings(max_examples=100, deadline=None)
@given(normal_cycs, raw_terms(most=1).map(Cyc))
def test_products_with_a_monomial(x, m):
    # one factor c0 e(a0) only scales and rotates the other
    _assert_normal_and_equal(x * m, _old_mul(x, m))
    _assert_normal_and_equal(m * x, _old_mul(x, m))


# conductors with square factors, where Phi_N(X) = Phi_rad(N)(X^(N / rad N))
# has gaps, and a few squarefree ones
CONDUCTORS = [4, 8, 9, 12, 18, 25, 49, 72, 100, 6, 15, 30]


@st.composite
def cycs_at(draw, n):
    """A value whose angles have denominators dividing n."""
    out = {}
    for _ in range(draw(st.integers(1, 6))):
        out[Fraction(draw(st.integers(0, n - 1)), n)] = Fraction(
            draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 5]))
        )
    return Cyc(out)


def _root_sum(ell, shift):
    """e(shift) * (1 + e(1/ell) + ... + e((ell-1)/ell)) = 0 for ell > 1."""
    return Cyc({shift + Fraction(j, ell): 1 for j in range(ell)})


@st.composite
def zero_test_cases(draw):
    """(value, whether it was built to be zero)."""
    n = draw(st.sampled_from(CONDUCTORS))
    x, y = draw(cycs_at(n)), draw(cycs_at(n))
    kind = draw(st.sampled_from(["commutator", "root-sum", "sqrt-p", "random"]))
    if kind == "commutator":
        return x * y - y * x, True
    if kind == "root-sum":
        ell = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
        zero = x * _root_sum(ell, Fraction(draw(st.integers(0, n - 1)), n))
        if draw(st.booleans()):
            return zero + y, None  # zero exactly when y is
        return zero, True
    if kind == "sqrt-p":
        p = draw(st.sampled_from([3, 5, 7]))
        g = Cyc({Fraction(a, p): legendre(a, p) for a in range(1, p)})
        sign = 1 if p % 4 == 1 else -1  # the Gauss sum squared is (-1/p) p
        which = draw(st.sampled_from([g * g - sign * p, _sqrt_prime(p) ** 2 - p]))
        return which * draw(cycs_at(draw(st.sampled_from([1, 4, 8, 9])))), True
    return x - y, None


@settings(max_examples=150, deadline=None)
@given(zero_test_cases())
def test_is_zero_agrees_with_the_dense_reduction(case):
    value, built_zero = case
    want = reference_is_zero(value)
    assert value.is_zero() == want
    if built_zero:
        assert want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cached_qpow_is_not_mutated(p):
    shared = [_qpow(p, Fraction(1, 2)), _qpow(p, -1), _qpow(p * p, Fraction(3, 2))]
    snapshots = [dict(v.terms) for v in shared]
    other = Cyc({Fraction(1, p): 2, Fraction(0): -1})
    for v in shared:
        [v + other, other + v, v - v, -v, v * other, other * v, v * v, v * 3, Cyc.sum([v, v, other])]
    assert _qpow(p, Fraction(1, 2)) is shared[0]
    assert [dict(v.terms) for v in shared] == snapshots
