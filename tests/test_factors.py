import cmath
import math
import random
from fractions import Fraction

import pytest

from asailocal.factors import (
    ArchFactor,
    DEFAULT_GRID,
    FloatRangeError,
    NonArchFactor,
    PoleError,
    approx_equal,
    factor_from_json,
    gammafn,
    in_range,
    loggamma,
    power,
    relative_deviation,
    worst_deviation,
)


def test_eval_examples():
    # zeta_F(1) over Q3 = (1 - 1/3)^{-1} = 1.5
    zf = NonArchFactor.euler_inverse(3, 1.0)
    assert abs(zf.eval(1) - 1.5) < 1e-12
    assert abs(ArchFactor.zeta_R().eval(2) - 1 / math.pi) < 1e-12
    assert abs(ArchFactor.zeta_C().eval(1) - 1 / math.pi) < 1e-12


def test_eval_homomorphism():
    rng = random.Random(0)
    f = NonArchFactor(5, c=2 - 1j, m=3, num=((0.5 + 0.2j, 1, 0j),), den=((1.5j, -1, 1 + 0j),))
    g = NonArchFactor(5, c=0.3j, m=-1, num=((0.1, 2, 1 + 0j),))
    for _ in range(5):
        s = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
        assert abs((f * g).eval(s) - f.eval(s) * g.eval(s)) < 1e-10
        assert abs(f.inverse().eval(s) - 1 / f.eval(s)) < 1e-10


def test_pole_is_signalled():
    zf = NonArchFactor.euler_inverse(3, 1.0)
    with pytest.raises(PoleError):
        zf.eval(0)  # 1 - 3^0 = 0


def test_reflect_involution_and_semantics():
    f = NonArchFactor(5, c=2 - 1j, m=3, num=((0.5 + 0.2j, 1, 0j),), den=((1.5j, -1, 1 + 0j),))
    s = 0.8 + 0.3j
    assert abs(f.reflect().eval(s) - f.eval(1 - s)) < 1e-12
    ok, dev = approx_equal(f, f.reflect().reflect(), DEFAULT_GRID, 1e-12)
    assert ok, dev


def test_shift_and_rebase():
    f = NonArchFactor(9, c=1, m=2, den=((0.3 + 0.1j, 1, 0j),))
    s = 0.8 + 0.3j
    fb = f.rebase(3)
    assert fb.q == 3
    assert abs(fb.eval(s) - f.eval(s)) < 1e-12
    with pytest.raises(ValueError):
        f.rebase(2)


def test_monomial_detection():
    mono = NonArchFactor.monomial(3, 2j, 4)
    assert mono.as_monomial() == (2j, 4)
    notmono = NonArchFactor(3, num=((0.5, 1, 0j),))
    with pytest.raises(ValueError):
        notmono.as_monomial()
    # exact cancellation across num/den
    f = NonArchFactor(3, num=((0.5, 1, 0j),), den=((0.5, 1, 0j),))
    assert f.as_monomial() == (1.0, 0)


def test_monomial_matches_log_slope():
    # structural (c, m) of a monomial equals the slope/intercept of log eval
    mono = NonArchFactor.monomial(5, 1.7 - 0.4j, 3)
    v0, v1 = mono.eval(0), mono.eval(1)
    m_hat = -(cmath.log(v1) - cmath.log(v0)).real / math.log(5)
    assert abs(m_hat - mono.m) < 1e-9
    assert abs(v0 - mono.c) < 1e-12


def test_duplication_formula_oracle():
    # Gamma(s) Gamma(s+1/2) = 2^{1-2s} sqrt(pi) Gamma(2s)
    f = ArchFactor(gammas=((Fraction(1), 0j, 1), (Fraction(1), 0.5 + 0j, 1)))
    g = ArchFactor(
        c=math.sqrt(math.pi),
        gammas=((Fraction(2), 0j, 1),),
        expos=((2.0, -2.0, 1.0 + 0j),),
    )
    ok, dev = approx_equal(f, g, [0.7, 1.3, 2.1 + 0.5j], 1e-9)
    assert ok, dev


def test_loggamma_poles_are_the_non_positive_integers():
    # sin(pi z) is exactly 0 at z = 0 alone; the other poles are exact too
    for k in (0, -1, -2, -7, -10, -99, -(2**51)):
        for z in (float(k), complex(k, -0.0)):
            with pytest.raises(PoleError):
                loggamma(z)
    for z in (-0.5, -7 + 1e-9j, -3.000000001, -(2**51) + 0.5):
        assert cmath.isfinite(loggamma(z))


def test_loggamma_accuracy():
    for x in (0.5, 1.0, 3.7, 10.2, 23.0):
        assert abs(loggamma(x).real - math.lgamma(x)) < 5e-13
    for z in (0.3 + 0.4j, -2.3 + 1.1j, -7.8 - 0.6j, 4.0 + 9.0j):
        # functional equation as an independent accuracy probe
        assert abs(gammafn(z + 1) - z * gammafn(z)) < 1e-11 * max(1, abs(gammafn(z + 1)))


def test_approx_equal_rejects_empty_grid():
    f = NonArchFactor.one(3)
    with pytest.raises(ValueError):
        approx_equal(f, f, [], 1e-8)


def test_worst_deviation_is_nan_once_one_deviation_is():
    assert worst_deviation([]) == 0.0
    for devs in ([math.nan, 1.0, 2.0], [1.0, math.nan, 0.5], [3.0, math.inf, math.nan]):
        assert math.isnan(worst_deviation(devs)), devs
    assert worst_deviation([0.1, math.inf, 2.0]) == math.inf


def test_approx_equal_fails_a_nan_and_keeps_a_finite_deviation():
    ok, dev = approx_equal(NonArchFactor(5), lambda s: complex("nan"))
    assert ok is False and math.isnan(dev)
    f = NonArchFactor(5, c=2 - 1j, m=3, num=((0.5 + 0.2j, 1, 0j),))
    g = f * (1 + 1e-9)
    want = max(
        abs(f.eval(s) - g.eval(s)) / max(abs(f.eval(s)), abs(g.eval(s)), 1e-30)
        for s in DEFAULT_GRID
    )
    assert approx_equal(f, g) == (True, want)


def test_a_relative_deviation_has_no_floor():
    # under a floor of 1e-30 on the scale, a relative check passed anything
    ok, dev = approx_equal(NonArchFactor(5, c=1e-40), NonArchFactor(5, c=2e-40))
    assert ok is False and dev == pytest.approx(0.5)
    assert relative_deviation(0j, 0j, 0.0) == 0.0
    assert relative_deviation(1e-300, 0.0, 0.0) == math.inf


def test_in_range_refuses_a_value_that_left_the_float_range():
    for z in (math.inf, complex(math.nan, 1.0), 1e-310, 0.0, complex(1.5e308, 1.5e308), 10**400):
        with pytest.raises(FloatRangeError):
            in_range(z, 2.0)
    assert in_range(0j, 3.0, 0.0) == 0  # a part is 0
    assert in_range(1e-300) == 1e-300
    # 5 ** -600 underflows to 0.0, a complex square overflows, and the
    # inverse of an underflowed square divides by zero
    for base, k in ((5, -600), (1e200 + 0j, 2), (1e-200 + 0j, -2)):
        with pytest.raises(FloatRangeError):
            power(base, k)
    assert power(5, 3) == 125 and type(power(5, 3)) is int
    with pytest.raises(FloatRangeError, match="at s = 0.7$"):
        NonArchFactor(5, c=1e-300, m=600).eval(0.7)


def test_factor_json_roundtrip():
    f = NonArchFactor(5, c=2 - 1j, m=3, num=((0.5 + 0.2j, 1, 0j),), den=((1.5j, -1, 1 + 0j),))
    g = factor_from_json(f.to_json())
    ok, dev = approx_equal(f, g, DEFAULT_GRID, 1e-12)
    assert ok, dev
    # no command emits an archimedean factor, so there is no encoding of one
    with pytest.raises(ValueError, match="unknown factor encoding"):
        factor_from_json({"type": "arch", "c": [1.0, 0.0]})
