"""The integer-residue shell kernel against the element-by-element loops it
replaced, the integer-pair unit groups of quadratic extensions, and
conductor minimality against brute-force enumeration of 1 + pi^k O."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asailocal.characters import (
    AddChar,
    MultChar,
    Phase,
    conductor_add,
    psi_to_E,
    shell_angles,
    shell_cyc,
    standard_psi,
)
from asailocal.cyclotomic import Cyc
from asailocal.padic import (
    EXTENSION_TYPES,
    UNRAMIFIED,
    PAdicGround,
    PrecisionError,
    QuadExtension,
)
from asailocal.tate import _coset_char_psi_integral, gauss_sum
from asailocal.unitgroups import unit_group

FIELDS = [(p, ext) for p in (3, 5, 7) for ext in (None,) + EXTENSION_TYPES]


def _field(p, ext):
    F = PAdicGround(p)
    return F if ext is None else QuadExtension(F, ext)


def _largest_m(K, cap, most):
    """The largest m <= cap whose shell, (q-1) q^(m-1) elements, has at most
    ``most`` of them."""
    m = cap
    while m > 1 and (K.q - 1) * K.q ** (m - 1) > most:
        m -= 1
    return m


def reference_shell(K, v, m):
    """The shell by element arithmetic from its basis: a e1 + b e2."""
    e1, e2 = K.shell_basis(v)
    return [a * e1 + b * e2 for a, b in K.shell_coords(v, m)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(-3, 3), st.integers(1, 3))
def test_shell_from_coordinates_matches_the_basis_arithmetic(field, v, m):
    # same elements in the same order; m is capped where the reference would
    # build more than 3,000 elements (the unramified shells at p = 5, 7, m = 3)
    K = _field(*field)
    m = _largest_m(K, m, 3000)
    got, want = K.shell(v, m), reference_shell(K, v, m)
    assert got == want
    assert all(type(x) is type(y) for x, y in zip(got, want))
    assert all(K.val(x) == v for x in got)


@st.composite
def shell_cases(draw, most):
    """A field, a character of conductor <= 3, an additive character, a
    multiplier c and a shell (v, m), v in [-2, 2], m <= 3."""
    p, ext = draw(st.sampled_from(FIELDS))
    K = _field(p, ext)
    n = draw(st.integers(0, 3 if ext is None else 2))
    G = unit_group(K, n)
    angles = [Fraction(draw(st.integers(0, d - 1)), d) for d in G.orders]
    chi = MultChar(K, n, angles, Phase.exact(Fraction(draw(st.integers(0, 11)), 12)))
    e = draw(st.integers(-2, 2))
    u = draw(st.sampled_from([1, 2, -1]))
    if ext is None:
        psi = AddChar(K, Fraction(u) * Fraction(p) ** e)
        c = Fraction(draw(st.sampled_from([1, -1, 2, p])), draw(st.sampled_from([1, p])))
    else:
        psi = psi_to_E(standard_psi(K.ground).shifted(Fraction(u) * Fraction(p) ** e), K, K.xi())
        c = K.elem(draw(st.sampled_from([1, -1, 0])), Fraction(draw(st.sampled_from([1, 2])), p))
    v = draw(st.integers(-2, 2))
    m = _largest_m(K, draw(st.integers(1, 3)), most)
    return K, chi, psi, c, v, m


@settings(max_examples=60, deadline=None)
@given(shell_cases(most=2500), st.randoms(use_true_random=False))
def test_kernel_terms_match_element_angles(case, rnd):
    K, chi, psi, c, v, m = case
    sa = shell_angles(chi, psi, v, m, c)
    xs = K.shell(v, m)
    assert len(sa.units) == len(sa.psis) == len(xs)
    for i in rnd.sample(range(len(xs)), min(40, len(xs))):
        x = xs[i]
        assert (Fraction(sa.units[i], sa.unit_den) + chi.t.angle * v) % 1 == chi.angle_at(x)
        assert Fraction(sa.psis[i], sa.psi_den) == psi.angle(K.embed(c) * x)
    if v >= 1:
        sh = shell_angles(chi, psi, v, m, c, shift=True)
        assert sh.psis == sa.psis
        for i in rnd.sample(range(len(xs)), min(40, len(xs))):
            assert Fraction(sh.units[i], sh.unit_den) == chi.angle_at(K.one() + xs[i])


@settings(max_examples=40, deadline=None)
@given(shell_cases(most=400))
def test_exact_kernel_sum_equals_element_loop(case):
    K, chi, psi, c, v, m = case
    c = K.embed(c)
    want = Cyc({})
    for x in K.shell(v, m):
        want = want + Cyc.root(chi.angle_at(x) + psi.angle(c * x))
    assert (shell_cyc(chi, psi, v, m, c) - want).is_zero()
    assert (shell_cyc(None, psi, v, m, c) - _psi_loop(K, psi, v, m, c)).is_zero()
    if v >= 1:
        want = Cyc({})
        for x in K.shell(v, m):
            want = want + Cyc.root(chi.angle_at(K.one() + x) + psi.angle(c * x))
        assert (shell_cyc(chi, psi, v, m, c, shift=True) - want).is_zero()


def _psi_loop(K, psi, v, m, c):
    out = Cyc({})
    for x in K.shell(v, m):
        out = out + Cyc.root(psi.angle(c * x))
    return out


# -- the unramified unit group on integer pairs --------------------------------


def _pair_mul(x, y, d, mod, mod_b=None):
    mod_b = mod if mod_b is None else mod_b
    return (x[0] * y[0] + d * x[1] * y[1]) % mod, (x[0] * y[1] + x[1] * y[0]) % mod_b


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("level", [1, 2])
def test_eunram_dlog_agrees_with_power_table(p, level):
    E = QuadExtension(PAdicGround(p), UNRAMIFIED)
    G = unit_group(E, level)
    mod = p**level
    gens = [(g.a.numerator % mod, g.b.numerator % mod) for g in G.gens]
    table = {}
    for exps in itertools.product(*[range(d) for d in G.orders]):
        acc = (1, 0)
        for g, e in zip(gens, exps):
            for _ in range(e):
                acc = _pair_mul(acc, g, E.d, mod)
        table[acc] = exps
    assert len(table) == G.size
    for key, exps in table.items():
        assert G.dlog(E.elem(*key)) == exps
        assert G.logs[key] == exps


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.integers(1, 3),
    st.tuples(st.integers(0, 342), st.integers(0, 342)),
    st.tuples(st.integers(0, 342), st.integers(0, 342)),
)
def test_eunram_dlog_is_a_homomorphism(p, level, x, y):
    E = QuadExtension(PAdicGround(p), UNRAMIFIED)
    G = unit_group(E, level)
    mod = p**level
    # make both units: a residue not divisible by p in the first coordinate
    x = ((x[0] * p + 1) % mod, x[1] % mod)
    y = ((y[0] * p + 2) % mod, y[1] % mod)
    xy = _pair_mul(x, y, E.d, mod)
    got = G.dlog(E.elem(*xy))
    want = tuple((a + b) % d for a, b, d in zip(G.dlog(E.elem(*x)), G.dlog(E.elem(*y)), G.orders))
    assert got == want


# -- the ramified unit group on integer pairs ----------------------------------

RAMIFIED = [ext for ext in EXTENSION_TYPES if ext != UNRAMIFIED]


def _ram_mods(p, level):
    """(p^ceil(n/2), p^floor(n/2)): a + b sqrt(d) mod pi^n keeps a modulo the
    first and b modulo the second."""
    return p ** ((level + 1) // 2), p ** (level // 2)


# p = 3, levels 5-6: on ramified-up E, which holds the cube roots of unity,
# the greedy basis needs its correction step: the power g^m of a chosen
# generator lands in the span of the earlier ones, but not on 1
@pytest.mark.parametrize("ext", RAMIFIED)
@pytest.mark.parametrize(
    "p,level", [(p, n) for p in (3, 5, 7) for n in (1, 2, 3, 4)] + [(3, 5), (3, 6)]
)
def test_eram_dlog_agrees_with_power_table(p, ext, level):
    E = QuadExtension(PAdicGround(p), ext)
    G = unit_group(E, level)
    Ma, Mb = _ram_mods(p, level)
    gens = [(int(g.a) % Ma, int(g.b) % Mb) for g in G.gens]
    table = {}
    for exps in itertools.product(*[range(d) for d in G.orders]):
        acc = (1, 0)
        for g, e in zip(gens, exps):
            for _ in range(e):
                acc = _pair_mul(acc, g, E.d, Ma, Mb)
        table[acc] = exps
    # the generators reach every unit, each exactly once
    assert len(table) == G.size == (p - 1) * p ** (level - 1)
    assert all(a % p for a, _ in table)
    for key, exps in table.items():
        assert G.dlog(E.elem(*key)) == exps
        assert G.logs[key] == exps


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.sampled_from(RAMIFIED),
    st.integers(1, 5),
    st.tuples(st.integers(0, 342), st.integers(0, 342)),
    st.tuples(st.integers(0, 342), st.integers(0, 342)),
)
def test_eram_dlog_is_a_homomorphism(p, ext, level, x, y):
    E = QuadExtension(PAdicGround(p), ext)
    G = unit_group(E, level)
    Ma, Mb = _ram_mods(p, level)
    x = ((x[0] * p + 1) % Ma, x[1] % Mb)
    y = ((y[0] * p + 2) % Ma, y[1] % Mb)
    xy = _pair_mul(x, y, E.d, Ma, Mb)
    got = G.dlog(E.elem(*xy))
    want = tuple((a + b) % d for a, b, d in zip(G.dlog(E.elem(*x)), G.dlog(E.elem(*y)), G.orders))
    assert got == want


# Generators, as coordinate pairs (a, b) = a + b sqrt(d), and their orders, as
# the EElement construction of the ramified groups produced them.  Characters
# built with from_angles are angles on these generators, so they must not move.
PINNED_ERAM = {
    (3, "ramified-p", 1): ([(2, 0)], [2]),
    (3, "ramified-p", 2): ([(2, 0), (1, 1)], [2, 3]),
    (3, "ramified-p", 3): ([(8, 0), (4, 0), (1, 1)], [2, 3, 3]),
    (3, "ramified-p", 4): ([(8, 0), (1, 1), (4, 0)], [2, 9, 3]),
    (3, "ramified-up", 1): ([(2, 0)], [2]),
    (3, "ramified-up", 2): ([(2, 0), (1, 1)], [2, 3]),
    (3, "ramified-up", 3): ([(8, 0), (7, 0), (1, 1)], [2, 3, 3]),
    (3, "ramified-up", 4): ([(8, 0), (7, 0), (1, 1), (7, 1)], [2, 3, 3, 3]),
    (5, "ramified-p", 1): ([(2, 0)], [4]),
    (5, "ramified-p", 2): ([(2, 0), (1, 1)], [4, 5]),
    (5, "ramified-p", 3): ([(7, 0), (6, 0), (1, 1)], [4, 5, 5]),
    (5, "ramified-p", 4): ([(7, 0), (1, 1), (6, 0)], [4, 25, 5]),
    (5, "ramified-up", 1): ([(2, 0)], [4]),
    (5, "ramified-up", 2): ([(2, 0), (1, 1)], [4, 5]),
    (5, "ramified-up", 3): ([(7, 0), (11, 0), (1, 1)], [4, 5, 5]),
    (5, "ramified-up", 4): ([(7, 0), (1, 1), (11, 0)], [4, 25, 5]),
    (3, "ramified-p", 5): ([(26, 0), (4, 0), (1, 1)], [2, 9, 9]),
    (3, "ramified-p", 6): ([(26, 0), (1, 1), (4, 0)], [2, 27, 9]),
    (3, "ramified-up", 5): ([(26, 0), (7, 0), (4, 4), (4, 7)], [2, 9, 3, 3]),
    (3, "ramified-up", 6): ([(26, 0), (7, 0), (1, 1), (22, 17)], [2, 9, 9, 3]),
}


def test_eram_gens_and_orders_are_pinned():
    for (p, ext, level), (gens, orders) in PINNED_ERAM.items():
        G = unit_group(QuadExtension(PAdicGround(p), ext), level)
        assert [(g.a, g.b) for g in G.gens] == gens, (p, ext, level)
        assert G.orders == orders, (p, ext, level)


# -- conductor minimality ------------------------------------------------------------


def _integral_coords(K, k):
    """Integer coordinates (a, b) of a full set of residues of O_K mod pi^k."""
    p = K.p
    if isinstance(K, PAdicGround):
        return [(a, 0) for a in range(p**k)]
    if K.ext_type == UNRAMIFIED:
        return [(a, b) for a in range(p**k) for b in range(p**k)]
    Ma, Mb = _ram_mods(p, k)
    return [(a, b) for a in range(Ma) for b in range(Mb)]


def _filtration_step(K, k, n):
    """Residues mod pi^n of U^k: the units for k = 0, 1 + pi^k O for k >= 1."""
    elem = (lambda a, b: K.elem(a)) if isinstance(K, PAdicGround) else K.elem
    if k == 0:
        xs = [elem(a, b) for a, b in _integral_coords(K, n)]
        return [x for x in xs if x != 0 and K.val(x) == 0]
    pi_k = K.uniformizer() ** k
    return [K.one() + pi_k * elem(a, b) for a, b in _integral_coords(K, n - k)]


@st.composite
def characters_at_level(draw):
    """A character of F^x or E^x, p <= 13, given at a level n whose unit group
    has at most 1,500 elements; each generator's angle has a random divisor of
    its order as denominator, so conductors below n are common."""
    p, ext = draw(st.sampled_from([(p, ext) for p in (3, 5, 7, 11, 13) for ext in (None,) + EXTENSION_TYPES]))
    K = _field(p, ext)
    n = _largest_m(K, draw(st.integers(1, 4)), 1500)
    angles = []
    for d in unit_group(K, n).orders:
        den = draw(st.sampled_from([k for k in range(1, d + 1) if d % k == 0]))
        angles.append(Fraction(draw(st.integers(0, den - 1)), den))
    return MultChar(K, n, angles, Phase.one())


@settings(max_examples=50, deadline=None)
@given(characters_at_level())
def test_reduced_conductor_is_minimal(chi):
    K, n = chi.field, chi.n
    want = next(
        k for k in range(n + 1)
        if all(chi.unit_angle(u) == 0 for u in _filtration_step(K, k, n))
    )
    assert chi.reduced().n == want


# -- the Tate coset integral -------------------------------------------------------


def _coset_by_filtering(chi, center, level, mult, psi, vol_O):
    """The whole shell, filtered to the coset center + pi^level O."""
    K = chi.field
    v0 = K.val(center)
    depth = max(chi.n, level - v0)
    if mult != 0:
        depth = max(depth, conductor_add(psi) - K.val(mult) - v0)
    out = 0j
    for x in K.shell(v0, depth):
        if x != center and K.val(x - center) < level:
            continue
        out += chi.value(x) * psi.value(x * mult)
    return out * vol_O * K.q ** (-(v0 + depth))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_coset_integral_equals_filtered_shell(p, n):
    F = PAdicGround(p)
    rng = random.Random(p * 10 + n)
    G = unit_group(F, n)
    psi = standard_psi(F)
    checked = 0
    for _ in range(3):
        k = rng.randrange(1, G.orders[0])
        chi = MultChar(F, n, (Fraction(k, G.orders[0]),), Phase.exact(Fraction(rng.randrange(12), 12)))
        for center, level in ((Fraction(1), n), (Fraction(p - 1), n + 1), (Fraction(2 * p), 3)):
            for mult in (Fraction(0), Fraction(1), Fraction(1, p), Fraction(3, p * p)):
                got = _coset_char_psi_integral(chi, center, level, mult, psi, 1.0)
                want = _coset_by_filtering(chi, center, level, mult, psi, 1.0)
                assert abs(got - want) <= 1e-12
                checked += 1
    assert checked == 36


# -- float Gauss sums stay bit-identical ------------------------------------------


def _gauss_by_loop(chi, psi):
    K = chi.field
    n, c = chi.n, conductor_add(psi)
    inv = chi.inv()
    out = 0j
    for x in K.shell(c - n, n):
        out += inv.value(x) * psi.value(x)
    return out


def test_gauss_sum_bits_readme_inputs():
    # README: tate --field '{"p":3,"ext":"ramified-p"}' --char <conductor 1>
    F = PAdicGround(3)
    E = QuadExtension(F, "ramified-p")
    chi = MultChar.from_angles(E, 1, [Fraction(1, 2)], Phase.exact(Fraction(1, 3)))
    psi = psi_to_E(standard_psi(F), E, E.xi())
    assert gauss_sum(chi, psi) == _gauss_by_loop(chi, psi)
    # README: tate --field '{"p":5}' --char trivial has no Gauss sum
    with pytest.raises(ValueError):
        gauss_sum(MultChar.trivial(PAdicGround(5)), standard_psi(PAdicGround(5)))


def test_gauss_sum_bits_all_primitive_p5():
    F = PAdicGround(5)
    count = 0
    for n in (1, 2):
        d = unit_group(F, n).orders[0]
        for k in range(1, d):
            chi = MultChar(F, n, (Fraction(k, d),), Phase.exact(Fraction(k % 7, 7)))
            if chi.reduced().n != n:
                continue
            for psi in (standard_psi(F), standard_psi(F).shifted(Fraction(2, 5))):
                assert gauss_sum(chi, psi) == _gauss_by_loop(chi, psi)
                count += 1
    assert count == 2 * (3 + 16)


# -- precision -------------------------------------------------------------------


@pytest.mark.parametrize("ext", (None,) + EXTENSION_TYPES)
def test_kernel_refuses_moduli_beyond_precision(ext):
    F = PAdicGround(3, precision=8)
    K = F if ext is None else QuadExtension(F, ext)
    psi = standard_psi(F) if ext is None else psi_to_E(standard_psi(F), K, K.xi())
    chi = MultChar.trivial(K)
    with pytest.raises(PrecisionError):
        shell_angles(chi, psi, 0, 9)
    # m = 2, so that b runs over a unit on ramified E as well
    with pytest.raises(PrecisionError):
        shell_angles(chi, psi, 0, 2, c=Fraction(1, 3**9))
    with pytest.raises(PrecisionError):
        shell_angles(None, psi.shifted(Fraction(1, 3**9)), 0, 2)
    # valuation -8 still fits the window
    shell_angles(None, psi.shifted(Fraction(1, 3**8)), 0, 2)


@pytest.mark.parametrize("ext", ("ramified-p", "ramified-up"))
def test_kernel_ignores_sqrt_d_part_where_b_is_zero(ext):
    # on ramified E at m = 1 every representative has b = 0, so
    # psi(x) = e(frac(tr(mult) a)) never reads tr(mult sqrt(d)); a multiplier
    # past the precision window there must not raise, as psi.angle does not
    F = PAdicGround(3, precision=8)
    E = QuadExtension(F, ext)
    psi = psi_to_E(standard_psi(F), E, E.xi()).shifted(Fraction(1, 3**9))
    sa = shell_angles(None, psi, 0, 1)
    assert [Fraction(s, sa.psi_den) for s in sa.psis] == [psi.angle(x) for x in E.shell(0, 1)]
