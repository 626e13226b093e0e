import cmath
import math
import os
import random
import re
import subprocess
import sys
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asailocal.arch as arch

from asailocal.arch import (
    CChar,
    RChar,
    case_table,
    combinatorial_identities,
    eps_gal_arch,
    eps_rs_arch,
    lambda_C_R,
    l_gal_arch,
    phi_hat,
    phi_hat_monomial,
    quad_gl,
    quad_real_line,
    quad_trapezoid,
    quad_trapezoid_line,
    tate_eps_complex,
    tate_eps_real,
    tate_L_complex,
    tate_L_real,
    whittaker_value_quadrature,
    zeta_integral_case,
    zeta_whittaker_closed,
    zeta_whittaker_quadrature,
)
from asailocal.factors import DEFAULT_GRID, FloatRangeError, PoleError, gammafn, loggamma

# -- the depth-first scalar quadrature, kept as the reference -----------------


def reference_quad_gl(f, a, b, tol=arch.QUAD_TOL, depth=0, panels=None):
    """Recursive adaptive Gauss-Legendre on one interval, one panel per call
    (appended to ``panels`` when given): the rule quad_gl applies per row."""
    if panels is not None:
        panels.append((a, b))
    x, w15, w30 = arch._gl_nodes()
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    fx = f(mid + half * x)
    coarse = complex(half * np.dot(w15, fx[:15]))
    fine = complex(half * np.dot(w30, fx[15:]))
    if not (cmath.isfinite(coarse) and cmath.isfinite(fine)):
        raise ArithmeticError(f"integrand is not finite on [{a}, {b}]")
    err = abs(fine - coarse)
    if err <= tol * max(1.0, abs(fine)) or depth >= 24:
        if depth >= 24 and err > 10 * tol * max(1.0, abs(fine)):
            raise ArithmeticError(f"quadrature failed to converge (err ~ {err:.2e})")
        return fine
    return reference_quad_gl(f, a, mid, tol / 1.4, depth + 1, panels) + reference_quad_gl(
        f, mid, b, tol / 1.4, depth + 1, panels
    )


def reference_quad_real_line(f, tol=arch.QUAD_TOL, L=9.0, panels=None):
    out = reference_quad_gl(f, -L, L, tol, panels=panels)
    step = 4.0
    while True:
        extra = reference_quad_gl(f, L, L + step, tol, panels=panels) + reference_quad_gl(
            f, -L - step, -L, tol, panels=panels
        )
        out += extra
        if abs(extra) <= 0.3 * tol * max(1.0, abs(out)):
            return out
        L += step
        step *= 1.3
        if L > 400:
            raise ArithmeticError("integrand tail does not decay")


def count_nodes_per_row(nodes_per_row, row_param):
    for v, n in zip(*np.unique(row_param, return_counts=True)):
        nodes_per_row[v] = nodes_per_row.get(v, 0) + n


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.3, 3.0), min_size=1, max_size=6, unique=True))
def test_quad_real_line_rows_match_the_scalar_reference(cs):
    # plain-exponential tails take each row through its own window steps
    nodes_per_row = {}

    def f(x, c):
        count_nodes_per_row(nodes_per_row, c)
        return np.exp(-(c + 1j) * np.abs(x))

    got = quad_real_line(f, args=(np.array(cs),))
    for c, g in zip(cs, got):
        panels = []
        want = reference_quad_real_line(lambda x: np.exp(-(c + 1j) * np.abs(x)), panels=panels)
        assert abs(g - want) <= 1e-14 * abs(want)
        assert nodes_per_row[c] == 45 * len(panels)


def lattice_sums(g):
    """The lattice engine's integrand for ``g``, a function of a numpy array
    of nodes: f(start, stop, step) is the array of g's values at the nodes
    k * TRAP_UNIT, k in range(start, stop, step)."""

    def f(start, stop, step):
        return g(np.arange(start, stop, step) * arch.TRAP_UNIT)

    return f


def k_half_integer(n, z):
    """K_{n+1/2}(z) = sqrt(pi/2z) e^{-z} sum_k (n+k)!/(k!(n-k)!) (2z)^{-k}."""
    terms = sum(
        factorial(n + k) / (factorial(k) * factorial(n - k)) * (2 * z) ** -k for k in range(n + 1)
    )
    return math.sqrt(math.pi / (2 * z)) * math.exp(-z) * terms


@st.composite
def odd_order_rows(draw):
    """w in {-1, 0, 1} and A, B <= 6 with w + A - B odd, mu and nu on the
    selection rule sharing a random complex lam (so w is still their
    exponent difference), 1-4 rows of y in [0.05, 8], and the default
    tolerance or the oracle's."""
    w = draw(st.sampled_from([-1, 0, 1]))
    A = draw(st.integers(0, 6))
    B = draw(st.sampled_from([b for b in range(7) if (w + A - b) % 2]))
    a1, b1 = draw(st.integers(0, A)), draw(st.integers(0, B))
    lam = complex(draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2)))
    nu = CChar(lam, draw(st.integers(-1, 1)))
    mu = CChar(lam + w / 2, (2 * b1 - B) - (2 * a1 - A) + nu.n)
    y = draw(st.lists(st.floats(0.05, 8.0), min_size=1, max_size=4))
    tol = draw(st.sampled_from([arch.QUAD_TOL, 1e-11]))
    return y, (a1, A - a1), (b1, B - b1), mu, nu, tol


@settings(max_examples=60, deadline=None)
@given(odd_order_rows())
def test_whittaker_value_at_odd_order_is_the_half_integer_bessel_form(case):
    # with order = w + A - B, the radial integral
    # int t^{order-1} y^A e^{-2 pi (y^2 t^2 + t^{-2})} dt is
    # y^A y^{-order/2} K_{order/2}(4 pi y), elementary at odd order; |W|
    # runs down to about 1e-40 at y = 8
    y, idx_a, idx_b, mu, nu, tol = case
    A, B = sum(idx_a), sum(idx_b)
    order = round(2 * (complex(mu.lam) - complex(nu.lam)).real) + A - B
    for yr in y:
        g = whittaker_value_quadrature(yr, idx_a, idx_b, mu, nu, tol)
        k = k_half_integer((abs(order) - 1) // 2, 4 * math.pi * yr)
        want = 4 * math.pi * mu.value(yr) * yr * yr**A * yr ** (-order / 2) * k
        assert abs(g - want) <= 1e-12 * abs(want)


def radial_exponent(u, ay, c):
    return c * u - 2 * math.pi * (ay * ay * np.exp(2 * u) + np.exp(-2 * u))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-60.0, 6.0), min_size=1, max_size=4), st.floats(-8.0, 8.0))
def test_whittaker_window_edges_drop_40_to_41_below_the_peak(log_ays, c):
    # log |y| from -60 to 6: past both ends of the outer window's reach
    # (-22 to 6 on the arch-quadrature suite) and past |y| = 60, where
    # every value underflows
    for ay in map(math.exp, log_ays):
        lo, hi = arch.whittaker_window(ay, c)
        u = np.linspace(lo, hi, 2001)
        i = int(np.argmax(radial_exponent(u, ay, c)))
        u = np.linspace(u[max(i - 1, 0)], u[min(i + 1, u.size - 1)], 2001)
        peak = radial_exponent(u, ay, c).max()
        for edge in (lo, hi):
            drop = peak - radial_exponent(edge, ay, c)
            assert arch.WINDOW_DROP - 1e-6 <= drop <= arch.WINDOW_DROP + 1


def test_zeta_closed_reference_value():
    # mu = nu = 1, idx = 0: (2 pi)^{1-s} Gamma(s/2)^2
    mu = nu = CChar(0, 0)
    s = 1.7 + 0.3j
    got = zeta_whittaker_closed(s, (0, 0), (0, 0), RChar(0, 0), mu, nu)
    want = (2 * math.pi) ** (1 - s) * cmath.exp(2 * loggamma(s / 2))
    assert abs(got - want) / abs(want) < 1e-13


def test_selection_rule_zeros():
    mu = nu = CChar(0, 0)
    # rotation mismatch
    assert zeta_whittaker_closed(1.5, (1, 0), (0, 0), RChar(0, 0), mu, nu) == 0
    # parity vanishing: n1 + m + a1 + a2 odd
    assert zeta_whittaker_closed(1.5, (1, 1), (0, 0), RChar(0, 1), mu, nu) == 0
    assert whittaker_value_quadrature(1.0, (1, 0), (0, 0), mu, nu) == 0


def test_whittaker_value_refuses_y_not_finite():
    # a window computed from log |y| has no meaning there
    one = CChar(0, 0)
    for y in (math.inf, -math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="finite and nonzero"):
            whittaker_value_quadrature(y, (0, 0), (0, 0), one, one)


def test_whittaker_parity_under_sign_flip():
    # y -> -y multiplies W by mu(-1) = (-1)^{n1} and the monomial's
    # (-1)^{a1 + a2}; W(y) and W(-y) share the radial row of |y|, so the
    # law holds bit for bit
    mu, nu = CChar(0.1, 2), CChar(-0.05, 0)
    idx_a, idx_b = (0, 1), (1, 0)  # selection rule: -1 + 2 = 1 + 0
    wp, wm = (whittaker_value_quadrature(y, idx_a, idx_b, mu, nu) for y in (1.3, -1.3))
    assert wp != 0 and wm == (-1) ** (mu.n + sum(idx_a)) * wp


def test_closed_vs_quadrature_random():
    rng = random.Random(9)
    for _ in range(3):
        n1, n2 = rng.randint(-1, 2), rng.randint(-1, 1)
        mu = CChar(complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1)), n1)
        nu = CChar(complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1)), n2)
        a1, a2 = rng.randint(0, 2), rng.randint(0, 1)
        diff = a1 - a2 + n1 - n2
        b1, b2 = (diff, 0) if diff >= 0 else (0, -diff)
        s = 2.3 + 0.1j
        closed = zeta_whittaker_closed(s, (a1, a2), (b1, b2), RChar(0, 0), mu, nu)
        quad = zeta_whittaker_quadrature(s, [((a1, a2), (b1, b2), RChar(0, 0), mu, nu)])[0]
        if abs(closed) < 1e-12:
            assert abs(quad) < 1e-12
        else:
            assert abs(closed - quad) / abs(closed) < 1e-11


@st.composite
def lemma_data(draw):
    """The ranges of verify.suite_closed_vs_quadrature: n1, n2 in [-2, 2],
    lam parts in [-0.2, 0.2], a1, a2 <= 2, b from the selection rule, and
    chi = sgn^m with the parity that keeps the Lemma's value nonzero."""
    n1, n2 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    mu, nu = (
        CChar(complex(draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))), n)
        for n in (n1, n2)
    )
    a1, a2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    diff = a1 - a2 + n1 - n2
    b1, b2 = (diff, 0) if diff >= 0 else (0, -diff)
    return (a1, a2), (b1, b2), RChar(0.0, (n1 + a1 + a2) % 2), mu, nu


@settings(max_examples=25, deadline=None)
@given(lemma_data())
def test_quadrature_matches_the_lemma_over_the_suite_ranges(case):
    s = 2.4 + 0.2j
    closed = zeta_whittaker_closed(s, *case)
    (quad,) = zeta_whittaker_quadrature(s, [case])
    assert abs(closed - quad) <= 1e-11 * abs(closed)


@settings(max_examples=6, deadline=None)
@given(st.lists(lemma_data(), min_size=2, max_size=4))
def test_lemma_data_computed_together_equal_each_computed_alone(data):
    # data of equal A share the table of P, which holds each node's own
    # value; no row's sums depend on the others, so the batch changes no bit
    s = 2.4 + 0.2j
    together = zeta_whittaker_quadrature(s, data)
    alone = [zeta_whittaker_quadrature(s, [datum])[0] for datum in data]
    assert list(map(repr, together)) == list(map(repr, alone))


@settings(max_examples=6, deadline=None)
@given(lemma_data())
def test_batched_whittaker_rows_equal_the_rows_called_alone(case):
    # the Lemma oracle reads each radial row's P and Q off lattice tables
    # that all the rows of a datum share; every row has the bits it gets
    # alone at the same error allowance, P and Q computed node by node, and
    # at allowance 0 whittaker_value_quadrature has them too where v =
    # log |y| is itself on the lattice, as it is when log(exp(v)) gives v
    # back
    idx_a, idx_b, _, mu, nu = case
    A, B = sum(idx_a), sum(idx_b)
    w = 2 * (complex(mu.lam) - complex(nu.lam))
    rows = []
    radial = arch._radial

    def recording(ay, v, c, sums, tol, allowance=0.0):
        rows.append((ay, v, c, tol, allowance, radial(ay, v, c, sums, tol, allowance)))
        return rows[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arch, "_radial", recording)
        zeta_whittaker_quadrature(2.4 + 0.2j, [case])
    on_lattice = 0
    for ay, v, c, tol, allowance, got in rows[::5]:
        assert repr(radial(ay, v, c, arch._node_sums(v, A, B, w), tol, allowance)) == repr(got), v
        if math.log(ay) == v:
            on_lattice += 1
            alone = radial(ay, v, c, arch._node_sums(v, A, B, w), tol)
            want = 4 * math.pi * mu.value(ay) * abs(ay) * math.copysign(1.0, ay) ** A * alone
            assert repr(whittaker_value_quadrature(ay, idx_a, idx_b, mu, nu, tol)) == repr(want)
    assert on_lattice >= len(rows[::5]) / 2


# -- the archimedean Tate closed forms and their quadrature oracle, kept as
# test references: the oracle pins the eps conventions of tate_eps_real and
# tate_eps_complex, and no verify suite runs it


def tate_gamma_real(chi: RChar, s: complex) -> complex:
    """gamma(s, chi, psi) = eps(s, chi, psi) L(1 - s, chi^{-1}) / L(s, chi)."""
    return (
        tate_eps_real(chi).eval(s)
        * tate_L_real(chi.inv()).eval(1 - s)
        / tate_L_real(chi).eval(s)
    )


def tate_gamma_complex(chi: CChar, s: complex) -> complex:
    return (
        tate_eps_complex(chi).eval(s)
        * tate_L_complex(chi.inv()).eval(1 - s)
        / tate_L_complex(chi).eval(s)
    )


def tate_fe_oracle_real(chi: RChar, s: complex, tol=1e-11) -> complex:
    """gamma(s, chi, psi) = Z(1-s, chi^{-1}, f^) / Z(s, chi, f) by quadrature,
    f = x^m e^{-pi x^2} with m matching the sign character; each integral is
    one quad_trapezoid_line row in u = log |x|.

    Both integrals converge only in the strip 0 < Re(s + lam) < 1, and near
    its edges their tails decay so slowly that quad_trapezoid_line widens its
    window past 400 and raises."""
    m = chi.m % 2

    def f(x: np.ndarray) -> np.ndarray:
        return x**m * np.exp(-math.pi * x * x)

    def fhat(x: np.ndarray) -> np.ndarray:
        return (1j**m) * x**m * np.exp(-math.pi * x * x)

    def z(fn, sv, ch):
        # ch(+-y) = (+-1)^m y^lam for y > 0
        lam, sign = complex(ch.lam), (-1) ** (ch.m % 2)

        def integrand(u: np.ndarray) -> np.ndarray:
            y = np.exp(u)
            return (fn(y) + sign * fn(-y)) * y**lam * np.exp(complex(sv) * u)

        return quad_trapezoid_line(lattice_sums(integrand), tol)

    return z(fhat, 1 - s, chi.inv()) / z(f, s, chi)


def tate_fe_oracle_complex(chi: CChar, s: complex, tol=1e-11) -> complex:
    """Same oracle over C with f = conj(z)^n e^{-2 pi |z|^2} (n >= 0) or its
    conjugate; psi_C = standard psi o tr, measure twice Lebesgue.  The same
    strip 0 < Re(s + lam) < 1 bounds where it converges."""
    n = chi.n

    def f(z: np.ndarray) -> np.ndarray:
        if n >= 0:
            return np.conj(z) ** n * np.exp(-2 * math.pi * np.abs(z) ** 2)
        return z ** (-n) * np.exp(-2 * math.pi * np.abs(z) ** 2)

    def fhat(z: np.ndarray) -> np.ndarray:
        mono = z**n if n >= 0 else np.conj(z) ** (-n)
        return (1j ** abs(n)) * mono * np.exp(-2 * math.pi * np.abs(z) ** 2)

    K = 64
    rotations = np.exp(2j * math.pi * np.arange(K) / K)

    def z_int(fn, sv, ch):
        # ch(z) = |z|_C^{lam - n/2} z^n with |z|_C = |z|^2
        lam, n_ch = complex(ch.lam), ch.n

        # polar: z = r e^{i theta}, d^x z = 2 dr dtheta / r; the theta-integral
        # is the K-point rectangle rule, one row of angles per node
        def radial(u: np.ndarray) -> np.ndarray:
            r = np.exp(u)
            zz = r[:, None] * rotations
            vals = fn(zz) * np.abs(zz) ** (2 * (lam - n_ch / 2)) * zz**n_ch
            acc = vals.sum(axis=1) * (2 * math.pi / K)
            return acc * 2 * (r**2) ** complex(sv)

        return quad_trapezoid_line(lattice_sums(radial), tol)

    return z_int(fhat, 1 - s, chi.inv()) / z_int(f, s, chi)


def phi_value(phi: dict, x, y):
    """Phi at (x, y); x and y are floats or arrays that broadcast together."""
    z = x + 1j * y
    out = 0j
    for (c1, c2), coef in phi.items():
        out += coef * z**c1 * np.conj(z) ** c2
    return out * np.exp(-math.pi * (x * x + y * y))


def test_phi_hat_eigenfunctions():
    # Phi_{(0,0)} is self-dual; Phi_{(0,1)} is anti-self-dual; (0,2) self-dual
    assert phi_hat_monomial(0, 0) == {(0, 0): 1.0}
    got = phi_hat_monomial(0, 1)
    assert set(got) == {(0, 1)} and abs(got[(0, 1)] + 1.0) < 1e-14
    got = phi_hat_monomial(0, 2)
    assert set(got) == {(0, 2)} and abs(got[(0, 2)] - 1.0) < 1e-14


def test_phi_hat_is_an_involution():
    # the symplectic transform is its own inverse; worst error 4.0e-12
    for c1 in range(9):
        for c2 in range(9):
            got = phi_hat(phi_hat({(c1, c2): 1.0}))
            for key in set(got) | {(c1, c2)}:
                want = 1.0 if key == (c1, c2) else 0.0
                assert abs(got.get(key, 0.0) - want) < 1e-11, (c1, c2, key)


def test_phi_hat_against_numeric_transform():
    # check the Bargmann-derived transform by direct 2-D quadrature
    phi = {(1, 1): 1.0}
    hat = phi_hat(phi)

    def numeric_hat(x, y):
        # the v-integral at each node u of the outer integral
        def row(u):
            inner = lambda v: phi_value(phi, u, v) * np.exp(2j * math.pi * (u * y - v * x))
            return quad_trapezoid(lattice_sums(inner), -6.0, 6.0, 1e-11)

        rows = lambda us: np.array([row(u) for u in us])
        return quad_trapezoid(lattice_sums(rows), -6.0, 6.0, 1e-11)

    for x, y in [(0.3, -0.2), (0.0, 0.7)]:
        lhs = numeric_hat(x, y)
        rhs = phi_value(hat, x, y)
        assert abs(lhs - rhs) < 1e-12


def test_case_table_classification():
    cases = {
        (2, 0): 1,
        (3, 1): 2,
        (2, 1): 3,
        (3, 0): 4,
        (1, 1): 5,
        (0, 0): 1,
        (0, -3): 3,
        (-1, -1): 5,
    }
    for (n1, n2), want in cases.items():
        datum = case_table(CChar(0.1, n1), CChar(0.0, n2))
        assert datum.case_id == want, (n1, n2)


def test_zeta_integral_cases_all_pass():
    for n1, n2 in [(2, 0), (3, 1), (2, 1), (3, 0), (1, 1)]:
        rep = zeta_integral_case(CChar(0.13 + 0.07j, n1), CChar(-0.11 + 0.02j, n2))
        assert rep["ok"], rep
        assert abs(rep["eps_rs"] - rep["eps_rs_expected"]) < 1e-8


def test_zeta_integral_case_pole_names_the_grid_point():
    # at s = 1.5 the dual integral, taken at 1 - s = -0.5, hits a Gamma
    # pole; the error names s, not the Gamma argument
    with pytest.raises(PoleError) as exc:
        zeta_integral_case(CChar(0, 2), CChar(0, 1), grid=(2 + 0.5j, 1.5))
    assert exc.value.where == 1.5


def test_zeta_integral_case_float_range_names_the_grid_point(monkeypatch):
    # an overflow at s, an L-factor that underflows to 0 at s, and an
    # overflow in the dual integral at 1 - s all name s
    mu, nu = CChar(0, 2), CChar(0, 1)
    for s in (1e300, -1e300):
        with pytest.raises(FloatRangeError) as exc:
            zeta_integral_case(mu, nu, grid=(0.7, s))
        assert exc.value.where == s
    real = arch.phi_tate_integral

    def overflow_at_the_dual(phi, s, lam):
        if s == 1 - 2.5:
            raise OverflowError("math range error")
        return real(phi, s, lam)

    monkeypatch.setattr(arch, "phi_tate_integral", overflow_at_the_dual)
    with pytest.raises(FloatRangeError) as exc:
        zeta_integral_case(mu, nu, grid=(0.7, 2.5))
    assert exc.value.where == 2.5


def test_zeta_integral_case_keeps_a_nan_deviation(monkeypatch):
    # a NaN dual L-factor makes the dual ratios NaN; spread and ratio_dev
    # must report it, not the finite deviations of the other side
    l_gal = arch.l_gal_arch

    class NanFactor:
        def eval(self, s):
            return complex("nan")

    def l_gal_nan_dual(mu, nu, dual=False):
        return NanFactor() if dual else l_gal(mu, nu)

    monkeypatch.setattr(arch, "l_gal_arch", l_gal_nan_dual)
    rep = zeta_integral_case(CChar(0.13 + 0.07j, 2), CChar(-0.11 + 0.02j, 0))
    assert math.isnan(rep["spread"]) and math.isnan(rep["ratio_dev"]), rep
    assert not rep["ok"]


def test_l_gal_dual_symmetry():
    # L for the contragredient is the lam -> -lam substitution
    mu, nu = CChar(0.2 + 0.1j, 3), CChar(-0.1, 1)
    Ld = l_gal_arch(mu, nu, dual=True)
    Ld2 = l_gal_arch(mu.inv(), nu.inv())
    for s in DEFAULT_GRID:
        assert abs(Ld.eval(s) - Ld2.eval(s)) < 1e-10 * max(1, abs(Ld.eval(s)))


def test_eps_gal_constant():
    # eps_Gal = i^{1+e1+e2+n0} at the standard character
    mu, nu = CChar(0.0, 0), CChar(0.0, 0)
    assert abs(eps_gal_arch(mu, nu).eval(0.5) - 1j) < 1e-12
    mu, nu = CChar(0.0, 1), CChar(0.0, 0)
    assert abs(eps_gal_arch(mu, nu).eval(0.5) - 1j ** (1 + 1 + 0 + 1)) < 1e-12


def test_l_factors_reference_shapes():
    from asailocal.arch import tate_L_complex, tate_L_real, tate_eps_real
    from asailocal.factors import ArchFactor, approx_equal

    # trivial char over R: L = zeta_R(s), eps = 1
    L, = (tate_L_real(RChar(0, 0)),)
    ok, dev = approx_equal(L, ArchFactor.zeta_R(), [0.7, 1.6], 1e-12)
    assert ok
    assert abs(tate_eps_real(RChar(0, 0)).eval(1.1) - 1) < 1e-14
    # z/|z| over C: L = zeta_C(s + 1/2)
    L = tate_L_complex(CChar(0.0, 1))
    ok, dev = approx_equal(L, ArchFactor.zeta_C(0.5), [0.7, 1.6], 1e-12)
    assert ok
    # mu = nu = 1: L_Gal = zeta_R(s)^2 zeta_C(s)
    L = l_gal_arch(CChar(0, 0), CChar(0, 0))
    want = ArchFactor.zeta_R() * ArchFactor.zeta_R() * ArchFactor.zeta_C()
    ok, dev = approx_equal(L, want, [0.7, 1.6, 2.1 + 0.5j], 1e-12)
    assert ok


def test_lambda_C_R_signs():
    assert lambda_C_R(1.0) == 1j
    assert lambda_C_R(-2.5) == -1j
    # lambda = eps(1/2, sgn, psi): at the center gamma = eps since the two
    # L-values coincide, so the quadrature oracle pins the sign of i
    oracle = tate_fe_oracle_real(RChar(0, 1), 0.5)
    assert abs(oracle - 1j) < 1e-12
    assert abs(tate_gamma_real(RChar(0, 1), 0.5) - 1j) < 1e-12


def test_real_and_complex_tate_oracles():
    for m in (0, 1):
        chi = RChar(0.08 - 0.03j, m)
        for s in (0.45, 0.7):
            got = tate_fe_oracle_real(chi, s)
            want = tate_gamma_real(chi, s)
            assert abs(got - want) / abs(want) < 1e-12
    for n in (-2, 0, 1):
        chi = CChar(0.05 + 0.02j, n)
        got = tate_fe_oracle_complex(chi, 0.8)
        want = tate_gamma_complex(chi, 0.8)
        assert abs(got - want) / abs(want) < 1e-12


def test_arch_relation_under_scalings():
    for b, cxi in [(2.0, 1.0), (-1.0, 3.0), (0.5, -2.0)]:
        for n1, n2 in [(2, 0), (2, 1), (3, 0), (1, 1)]:
            mu = CChar(0.05 + 0.02j, n1)
            nu = CChar(-0.03 - 0.01j, n2)
            ers = eps_rs_arch(mu, nu, b, cxi)
            eg = eps_gal_arch(mu, nu, a=b)
            omega_xi = mu.value(cxi * 1j) * nu.value(cxi * 1j)
            for s in (0.7, 1.3, 2.1 + 0.5j):
                lhs = (1 / omega_xi) * (cxi * cxi) ** (-s + 0.5) * lambda_C_R(b) * ers.eval(s)
                assert abs(lhs - eg.eval(s)) / abs(eg.eval(s)) < 1e-9


def test_combinatorial_identity_examples():
    ((lhs, rhs, dev),) = combinatorial_identities(1.7 + 0.2j, 3.3, 0)
    assert dev < 1e-14
    lhs, rhs, dev = combinatorial_identities(2.0, 3.0, 1)[1]
    # Gamma(2)Gamma(3) + Gamma(3)Gamma(2) = 1*2 + 2*1 = 4
    assert abs(lhs - 4) < 1e-12 and dev < 1e-12
    lhs, rhs, dev = combinatorial_identities(1.3 + 0.4j, 5.7, 6)[6]
    assert dev < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    st.builds(complex, st.floats(0.5, 4.0), st.floats(-1.0, 1.0)),
    st.builds(complex, st.floats(6.5, 11.0), st.floats(-1.0, 1.0)),
)
def test_combinatorial_identities_equal_each_identity_computed_alone(z, w):
    # the N-th identity from its own Gamma and log Gamma values, in the
    # same summation order: each Gamma value shared across N keeps its bits
    def alone(N):
        lhs = sum(comb(N, ell) * gammafn(z + ell) * gammafn(w - ell) for ell in range(N + 1))
        rhs = cmath.exp(loggamma(z) + loggamma(w - N) + loggamma(z + w) - loggamma(z + w - N))
        return lhs, rhs, abs(lhs - rhs) / max(abs(rhs), 1e-300)

    got = combinatorial_identities(z, w, 6)
    assert list(map(repr, got)) == [repr(alone(N)) for N in range(7)]


def test_combinatorial_suite_computes_each_gamma_value_once(monkeypatch):
    # a count guard: per (z, w), log Gamma at z + l, w - l and z + w - N for
    # l, N = 0..6, 21 distinct values; 420 for the suite's 20 (z, w), where
    # the identities computed one N at a time took 1,680
    from asailocal import verify

    calls = []

    def counting(z):
        calls.append(z)
        return loggamma(z)

    monkeypatch.setattr(arch, "loggamma", counting)
    assert verify.suite_combinatorial()["ok"]
    assert len(calls) == len(set(calls)) == 420


def test_quad_gl_one_panel_is_exact_for_low_degree():
    # G15 and G30 are both exact for x^28, so the first panel is accepted
    calls = []

    def f(x):
        calls.append(len(x))
        return x**28

    assert abs(quad_gl(f, -1.0, 1.0) - 2 / 29) < 1e-14
    assert calls == [45]


def test_quad_real_line_gaussian():
    assert abs(quad_real_line(lambda x: np.exp(-math.pi * x * x)) - 1) < 1e-12


def test_quad_rows_broadcast_to_the_result_shape():
    # int_0^b x^2 dx = b^3 / 3 per row; a scalar call returns a complex number
    b = np.array([1.0, 2.0, 3.0])
    got = quad_gl(lambda x: x * x, 0.0, b)
    assert got.shape == (3,) and np.allclose(got, b**3 / 3, rtol=1e-14, atol=0)
    assert isinstance(quad_gl(lambda x: x * x, 0.0, 1.0), complex)
    # int_R e^{-pi c x^2} dx = c^{-1/2}, rows shaped (2, 2) by the parameter
    c = np.array([[1.0, 2.0], [0.5, 4.0]])
    got = quad_real_line(lambda x, cx: np.exp(-math.pi * cx * x * x), args=(c,))
    assert got.shape == (2, 2) and np.allclose(got, c**-0.5, rtol=1e-12, atol=0)


def test_quad_gl_refuses_nan_at_once():
    calls = []

    def f(x):
        calls.append(1)
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(ArithmeticError, match=r"not finite on \[0\.0, 1\.0\]"):
        quad_gl(f, 0.0, 1.0)
    assert len(calls) == 1


def test_quad_gl_refuses_nan_in_one_row_at_once():
    calls = []

    def f(x, c):
        calls.append(len(x))
        return np.where(x > c, np.nan, 1.0)

    with pytest.raises(ArithmeticError, match=r"not finite on \[2\.0, 3\.0\]"):
        quad_gl(f, np.array([0.0, 2.0, 0.0]), np.array([1.0, 3.0, 1.0]), args=(np.array([5.0, 2.5, 5.0]),))
    assert calls == [3 * 45]


def test_quad_gl_depth_24_raises_naming_the_panel():
    # a unit jump at 1/3 leaves one panel over the tolerance at every level;
    # the rows without a jump are done after the first call
    calls = []

    def f(x, c):
        calls.append(len(x))
        return np.where(x > c, 1.0, 0.0)

    with pytest.raises(ArithmeticError, match=r"failed to converge on \[0\.33333331\d*, 0\.33333337\d*\]"):
        quad_gl(f, 0.0, 1.0, args=(np.array([2.0, 1 / 3, 2.0]),))
    assert calls == [3 * 45] + [2 * 45] * 24


def test_quad_real_line_tail_raises_naming_the_window():
    # a constant has no tail decay: its row's window grows until it passes
    # 400, and the Gaussian rows beside it are done after one extension
    L, step, stages = 9.0, 4.0, 0
    while L <= 400:
        L, step, stages = L + step, step * 1.3, stages + 1
    calls = []

    def f(x, bad):
        calls.append(len(x))
        return np.where(bad, 1.0, np.exp(-math.pi * x * x))

    window = re.escape(f"[{-L}, {L}]")
    with pytest.raises(ArithmeticError, match=r"tail does not decay beyond " + window):
        quad_real_line(f, args=(np.array([False, True, False]),))
    # each extension of a constant is exact on its two boundary panels
    assert calls[-stages:] == [3 * 2 * 45] + [2 * 45] * (stages - 1)


def test_quad_gl_refuses_scalar_integrand():
    with pytest.raises(TypeError):
        quad_gl(lambda x: 1.0, 0.0, 1.0)


# -- the nested trapezoid sums of the Whittaker oracle ------------------------


def test_trapezoid_integrates_gaussians_to_rounding():
    # int_R e^{-pi c x^2} dx = c^{-1/2}, each on [-8, 8], at the oracle's
    # tolerance and at the default; the result is a complex number
    for c in (1.0, 2.0, 0.5, 4.0):
        got = quad_trapezoid(lattice_sums(lambda x: np.exp(-math.pi * c * x * x)), -8.0, 8.0, 1e-11)
        assert isinstance(got, complex) and abs(got - c**-0.5) <= 1e-15 * c**-0.5
    got = quad_trapezoid(lattice_sums(lambda x: np.exp(-math.pi * x * x)), -8.0, 8.0)
    assert isinstance(got, complex) and abs(got - 1) < 1e-15


def test_trapezoid_window_snaps_outward_to_the_first_grid():
    # every node is a lattice node: the window [0.3, 0.9] becomes [0, 1],
    # two intervals of TRAP_H0, so int 1 = 1 and int x = 1/2 exactly
    nodes = []

    def f(start, stop, step):
        nodes.extend(range(start, stop, step))
        return [1.0] * len(range(start, stop, step))

    assert quad_trapezoid(f, 0.3, 0.9, 1e-11) == 1
    assert min(nodes) * arch.TRAP_UNIT == 0.0 and max(nodes) * arch.TRAP_UNIT == 1.0
    assert quad_trapezoid(lattice_sums(lambda x: x), 0.3, 0.9, 1e-11) == 0.5


def test_trapezoid_line_grows_only_the_end_that_has_not_decayed():
    # int_R exp(x - e^x) dx = Gamma(1): doubly exponential decay on the
    # right, e^x on the left; from [-2, 2] the right end moves out once, to
    # 6, and the left end on to -42, by 4 at a time, one node per call on
    # the first grid
    calls = []

    def f(start, stop, step):
        calls.append(range(start, stop, step))
        x = np.arange(start, stop, step) * arch.TRAP_UNIT
        return np.exp(x - np.exp(x))

    assert abs(quad_trapezoid_line(f, 1e-11) - 1) < 1e-14
    first_grid = [r[0] * arch.TRAP_UNIT for r in calls if len(r) == 1]
    assert len(first_grid) == 9 + 11 * 8  # -2 - 10 * 4 = -42, e^-42 < e^-40
    assert min(first_grid) == -42.0 and max(first_grid) == 6.0


def test_trapezoid_line_refines_only_the_trimmed_window():
    # the same integrand: after growth the window is [-42, 6], and each end
    # moves in to the first node of the first grid at or below the floor,
    # e^-WINDOW_DROP of the peak, going outward from the live nodes; the
    # refined levels sample nothing outside it
    calls = []

    def f(start, stop, step):
        calls.append(range(start, stop, step))
        x = np.arange(start, stop, step) * arch.TRAP_UNIT
        return np.exp(x - np.exp(x))

    assert abs(quad_trapezoid_line(f, 1e-11) - 1) < 1e-14
    first_grid = np.array([r[0] for r in calls if len(r) == 1]) * arch.TRAP_UNIT
    values = np.exp(first_grid - np.exp(first_grid))
    live = first_grid[values > math.exp(-arch.WINDOW_DROP) * values.max()]
    lo, hi = live.min() - arch.TRAP_H0, live.max() + arch.TRAP_H0
    assert (lo, hi) == (-41.0, 4.0)
    refined = [r for r in calls if len(r) > 1]
    nodes = np.concatenate([np.array(r) for r in refined]) * arch.TRAP_UNIT
    assert lo < nodes.min() and nodes.max() < hi
    # the first halving takes every midpoint of the trimmed first grid
    first_mids = np.array(refined[0]) * arch.TRAP_UNIT
    assert list(first_mids) == list(np.arange(lo + 0.25, hi, 0.5))


def test_trapezoid_line_keeps_a_zero_between_live_nodes():
    # (x - 1)^2 e^{-pi x^2 / 4} is exactly 0 at the first-grid node 1, below
    # the floor, with live nodes on both sides of it: the window keeps the
    # right tail, and int = 4 / pi + 2 to rounding
    calls = []

    def f(start, stop, step):
        calls.append(range(start, stop, step))
        x = np.arange(start, stop, step) * arch.TRAP_UNIT
        return (x - 1) ** 2 * np.exp(-math.pi * x * x / 4)

    want = 4 / math.pi + 2
    assert abs(quad_trapezoid_line(f, 1e-11) - want) <= 1e-15 * want
    one = round(1 / arch.TRAP_UNIT)
    assert list(f(one, one + 1, 1)) == [0]
    # the window is [-7.5, 7.5]: past |x| = 7 the integrand is below the floor
    refined = np.concatenate([np.array(r) for r in calls if len(r) > 1]) * arch.TRAP_UNIT
    assert refined.min() == -7.25 and refined.max() == 7.25


def test_trapezoid_refuses_nan_in_one_row_at_once():
    # the first grid of [2, 3] is one read of its three nodes, ends
    # included; the value at the end 3 is NaN
    calls = []

    def f(start, stop, step):
        calls.append(len(range(start, stop, step)))
        x = np.arange(start, stop, step) * arch.TRAP_UNIT
        return np.where(x > 2.5, np.nan, 1.0)

    with pytest.raises(ArithmeticError, match=r"not finite on \[2\.0, 3\.0\]"):
        quad_trapezoid(f, 2.0, 3.0)
    assert calls == [3]


def test_trapezoid_row_that_never_settles_raises_naming_it():
    # a unit jump at 7/3, off the lattice, leaves the sums O(h) apart at
    # every level: the first grid's three nodes in one read, then 2, 4,
    # ..., 1024 new midpoints, the last of them on the lattice's finest step
    calls = []

    def f(start, stop, step):
        calls.append(len(range(start, stop, step)))
        x = np.arange(start, stop, step) * arch.TRAP_UNIT
        return np.where(x > 7 / 3, 1.0, 0.0)

    with pytest.raises(ArithmeticError, match=r"did not settle on \[2\.0, 3\.0\] in 10 halvings"):
        quad_trapezoid(f, 2.0, 3.0)
    assert arch.TRAP_HALVINGS == 10 and arch.TRAP_UNIT == arch.TRAP_H0 / 2**10
    assert calls == [3] + [2**k for k in range(1, 11)]


def test_trapezoid_settles_rows_below_the_underflow_floor():
    # the jump never settles by the relative test; its sums are about 7/4
    # of the scale, so at half the floor the row settles at the first
    # halving, and at the floor it raises
    floor = arch.TRAP_UNDERFLOW
    assert floor == 1e-280

    def sums(scale, calls):
        def f(start, stop, step):
            calls.append(len(range(start, stop, step)))
            x = np.arange(start, stop, step) * arch.TRAP_UNIT
            return scale * np.where(x > 1 / 3, 2.0, 1.0)

        return f

    calls = []
    got = quad_trapezoid(sums(floor / 2, calls), 0.0, 1.0)
    assert 0 < abs(got) < floor and calls == [3, 2]
    with pytest.raises(ArithmeticError, match="did not settle"):
        quad_trapezoid(sums(floor, []), 0.0, 1.0)
    # Whittaker rows at |y| = 60 are 0 to the last node
    one = CChar(0, 0)
    assert whittaker_value_quadrature(60.0, (0, 0), (0, 0), one, one, 1e-11) == 0
    assert whittaker_value_quadrature(-60.0, (0, 0), (0, 0), one, one, 1e-11) == 0


@pytest.mark.xfail(strict=True, reason="the stop rule's blind spot, ROADMAP item 24")
def test_trapezoid_settles_a_row_symmetric_about_a_fine_lattice_point():
    # exp(-4 pi cosh(2(x - 1/8))) is symmetric about 1/8, a lattice point
    # two levels finer than TRAP_H0: the reflection carries one level's
    # nodes onto the next level's midpoints, the two sums coincide and the
    # relative test passes, 2.6e-3 off.  The integral is mpmath's, to 15
    # digits.  A stop rule without this blind spot makes the test pass
    g = lambda x: np.exp(-4 * math.pi * np.cosh(2 * (x - 0.125)))
    got = quad_trapezoid(lattice_sums(g), -3.875, 4.125)
    assert abs(got - 1.22120549436163e-06) <= 1e-12


def test_trapezoid_line_window_raises_beyond_400():
    # a constant never decays: from [-2, 2] both ends move out by 4, 8 new
    # nodes each, until the window would pass 400
    calls = []

    def f(start, stop, step):
        calls.append(len(range(start, stop, step)))
        return [1.0] * len(range(start, stop, step))

    with pytest.raises(ArithmeticError, match=r"tail does not decay beyond \[-402\.0, 402\.0\]"):
        quad_trapezoid_line(f, 1e-11)
    assert calls == [1] * (9 + 16 * 99)


def test_rows_symmetric_about_their_peak_settle_on_the_right_sum():
    # at c = Re(w) + A - B = 0 a radial row's modulus is symmetric about its
    # peak u = -v/2; about a point of the lattice two levels finer than the
    # first grid, the reflection would carry one level's nodes onto the
    # next level's, and the relative test would pass two equal, wrong sums
    # (1.3e-2 off at y = e^(1/4), where -v/2 = -1/8)
    one = CChar(0, 0)
    y = math.exp(0.25)
    u = np.linspace(-8.0, 8.0, 8001)
    g = np.exp(-2 * math.pi * (y * y * np.exp(2 * u) + np.exp(-2 * u)))
    want = 4 * math.pi * y * (u[1] - u[0]) * (g.sum() - (g[0] + g[-1]) / 2)
    got = whittaker_value_quadrature(y, (0, 0), (0, 0), one, one, 1e-11)
    assert abs(got - want) <= 1e-12 * want
    # the Lemma's rows at c = 0, with w = 0 and with w imaginary
    s = 2.4 + 0.2j
    for datum in [
        ((0, 0), (0, 0), RChar(0.0, 0), one, one),
        ((1, 0), (1, 0), RChar(0.0, 1), CChar(0.1j, 0), one),
    ]:
        closed = zeta_whittaker_closed(s, *datum)
        (quad,) = zeta_whittaker_quadrature(s, [datum])
        assert abs(closed - quad) <= 1e-11 * abs(closed)


def test_whittaker_value_past_the_float_range_raises_arithmetic_error():
    # at mu = |.|^400 the radial integrand's exponent passes 709.78 inside
    # its window: the engine names the window, and no OverflowError escapes
    one = CChar(0, 0)
    with pytest.raises(ArithmeticError, match="not finite on") as exc:
        whittaker_value_quadrature(1.0, (0, 0), (0, 0), CChar(400, 0), one)
    assert type(exc.value) is ArithmeticError


# the ten values of the arch-quadrature suite's Lemma data at s = 2.4 + 0.2i,
# as the numpy trapezoid oracle computed them, breadth-first over arrays
NUMPY_ORACLE_LEMMA_VALUES = [
    0.0011968644142590916 + 0.00020265357711771816j,
    0.0030163811960123178 - 8.599376593288926e-06j,
    0.0021272869777148934 - 3.429245221757426e-05j,
    0.0004614392855318325 + 2.929155232015328e-06j,
    0.0010198554907092491 + 8.891026327638031e-05j,
    0.0046224563998213215 - 0.0023563561881725513j,
    0.008812554899421073 - 0.0053285245568268896j,
    0.0023976490631412925 - 0.0009672995290605649j,
    0.009134672390166125 - 0.0072619230086953136j,
    0.0005656726567909631 - 0.00018403973198172333j,
]


def test_lattice_oracle_matches_the_numpy_oracle_on_the_suite_data(monkeypatch):
    from asailocal import verify

    got = []

    def recording(s, data):
        got.extend(zeta_whittaker_quadrature(s, data))
        return got

    monkeypatch.setattr(arch, "zeta_whittaker_quadrature", recording)
    assert verify.suite_closed_vs_quadrature()["ok"]
    for g, want in zip(got, NUMPY_ORACLE_LEMMA_VALUES, strict=True):
        assert abs(g - want) <= 1e-13 * abs(want)


def test_lemma_oracle_work_on_the_suite_data(monkeypatch):
    # a count guard, not a timing gate: one radial row per node of the
    # trimmed outer rows of the suite's ten Lemma data, and the inner
    # lattice nodes those rows read, each level of a row one P slice and
    # one Q slice of equal length
    from asailocal import verify

    radial, rows = arch._radial, []
    run, read = arch._LatticeTable.run, []

    def counting(*args):
        rows.append(args[1])
        return radial(*args)

    def reading(self, start, stop, step):
        read.append(len(range(start, stop, step)))
        return run(self, start, stop, step)

    monkeypatch.setattr(arch, "_radial", counting)
    monkeypatch.setattr(arch._LatticeTable, "run", reading)
    assert verify.suite_closed_vs_quadrature()["ok"]
    assert len(rows) == 1289
    assert sum(read) == 190755
    # one P run and one Q run per level of a row, the first grid one level,
    # and the table's own runs for the even multiples it extends
    assert len(read) == 8413


def test_row_allowance_moves_the_lemma_values_by_rounding_only(monkeypatch):
    # the radial rows of the window step and of a refined outer level
    # settle only to their share of the outer row's error budget; on the
    # suite's ten data, and on 20 more drawn as the suite draws them with
    # s in [1.2, 4] + [-6.5, 6.5] i, the values are within 1e-12 of those
    # with every radial row settled to 1e-11 relative
    from asailocal import verify

    quadrature, calls = arch.zeta_whittaker_quadrature, []

    def recording(s, data):
        calls.append((s, data))
        return quadrature(s, data)

    monkeypatch.setattr(arch, "zeta_whittaker_quadrature", recording)
    assert verify.suite_closed_vs_quadrature()["ok"]
    ((s, data),) = calls
    got = quadrature(s, data)
    radial = arch._radial

    def strict(ay, v, c, sums, tol, allowance=0.0):
        return radial(ay, v, c, sums, tol)

    rng = random.Random(49)
    drawn = [(complex(rng.uniform(1.2, 4), rng.uniform(-6.5, 6.5)), suite_datum(rng)) for _ in range(20)]
    got += [quadrature(s1, [datum])[0] for s1, datum in drawn]
    monkeypatch.setattr(arch, "_radial", strict)
    want = quadrature(s, data) + [quadrature(s1, [datum])[0] for s1, datum in drawn]
    assert len(want) == 30
    for g, w in zip(got, want, strict=True):
        assert abs(g - w) <= 1e-12 * abs(w)


def suite_datum(rng):
    """One Lemma datum drawn as verify.suite_closed_vs_quadrature draws it."""
    n1, n2 = rng.randint(-2, 2), rng.randint(-2, 2)
    mu = CChar(complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)), n1)
    nu = CChar(complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)), n2)
    a1, a2 = rng.randint(0, 2), rng.randint(0, 2)
    diff = a1 - a2 + n1 - n2
    b1, b2 = (diff, 0) if diff >= 0 else (0, -diff)
    m = rng.randint(0, 1)
    if (n1 + m + a1 + a2) % 2 != 0:
        m = (m + 1) % 2
    return (a1, a2), (b1, b2), RChar(0.0, m), mu, nu


def test_window_budget_keeps_the_trivial_datum_under_cancellation(monkeypatch):
    # the window step's allowances are a share of the peak node, and at
    # Im s = 4 and 6 the integral cancels to 7 % and 0.5 % of the peak: the
    # values stay the closed form's.  A share of 1e-3 would spend more than
    # the outer budget at s = 2.4 + 4i, and the check after the outer row
    # raises, naming the window step
    one = CChar(0, 0)
    datum = ((0, 0), (0, 0), RChar(0.0, 0), one, one)
    for s in (1.5 + 2j, 2.4 + 4j, 2.4 + 6j):
        closed = zeta_whittaker_closed(s, *datum)
        (quad,) = zeta_whittaker_quadrature(s, [datum])
        assert abs(quad - closed) <= 1e-11 * abs(closed), s
    monkeypatch.setattr(arch, "WINDOW_SHARE", 1e-3)
    with pytest.raises(ArithmeticError, match="window step's allowances .* over tol / 4 of the integral"):
        zeta_whittaker_quadrature(2.4 + 4j, [datum])


def test_lemma_oracle_refuses_a_first_grid_sum_far_above_the_integral():
    # the rows' error allowance is a share of the first grid's sum T1, so
    # it holds only while T1 has the integral's size.  At s = 2.4 + 10i the
    # first grid, step 1/2, aliases the oscillation e^{10 i v}: T1 is about
    # 18,000 times the integral, and the datum raises rather than return a
    # value settled to that budget.  At s = 2.4 + 6i T1 is within 4 % of
    # the integral, and the value is the closed form's
    one = CChar(0, 0)
    datum = ((0, 0), (0, 0), RChar(0.0, 0), one, one)
    with pytest.raises(ArithmeticError, match="over 4 times the integral"):
        zeta_whittaker_quadrature(2.4 + 10j, [datum])
    closed = zeta_whittaker_closed(2.4 + 6j, *datum)
    (quad,) = zeta_whittaker_quadrature(2.4 + 6j, [datum])
    assert abs(quad - closed) <= 1e-11 * abs(closed)


def test_lattice_tables_fill_each_node_once(monkeypatch):
    # every lattice list of a table below TRAP_H0's spacing takes its even
    # multiples from the list of twice its spacing; each index of each table
    # is filled once in one zeta_whittaker_quadrature call
    from asailocal import verify

    fills = []
    init = arch._LatticeTable.__init__

    def recording(self, fill):
        filled = []
        fills.append(filled)

        def counted(xs):
            filled.extend(x / arch.TRAP_UNIT for x in xs)
            return fill(xs)

        init(self, counted)

    monkeypatch.setattr(arch._LatticeTable, "__init__", recording)
    assert verify.suite_closed_vs_quadrature()["ok"]
    assert sum(map(len, fills)) > 1000
    assert all(len(set(filled)) == len(filled) for filled in fills)


def test_oracles_call_no_closed_form(monkeypatch):
    def closed_form(*args, **kwargs):
        raise AssertionError("the quadrature oracle called a closed form")

    # the Tate oracles and their closed forms live in this module
    here = sys.modules[__name__]
    for name in ("zeta_whittaker_closed", "loggamma"):
        monkeypatch.setattr(arch, name, closed_form)
    for name in ("tate_gamma_real", "tate_gamma_complex", "loggamma"):
        monkeypatch.setattr(here, name, closed_form)
    mu, nu = CChar(0.1, 1), CChar(-0.05, 0)
    values = [
        *zeta_whittaker_quadrature(2.3 + 0.1j, [((0, 0), (1, 0), RChar(0, 1), mu, nu)]),
        whittaker_value_quadrature(1.3, (0, 0), (1, 0), mu, nu),
        tate_fe_oracle_real(RChar(0.08, 1), 0.7),
        tate_fe_oracle_complex(CChar(0.05, -1), 0.8),
    ]
    assert all(cmath.isfinite(v) and v != 0 for v in values)
