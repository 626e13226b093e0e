"""The integer-residue shell kernel against the element-by-element loops it
replaced, the integer-pair unit groups of quadratic extensions, and
conductor minimality against brute-force enumeration of 1 + pi^k O."""

import functools
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
    _dlog_frame,
    _num_exp,
    _psi_coeffs,
    conductor_add,
    psi_to_E,
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
from asailocal.tate import coset_integral, gauss_sum
from asailocal.unitgroups import ERamUnitGroup, _LogSpan, unit_group

from random_chars import unit_angle

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
    al, be, P = _psi_coeffs(psi, v, m, c)
    # the kernel's order: the units of level m in walk order, times pi^v
    e1, e2 = K.shell_basis(v)
    walked = list(unit_group(K, m).walk())
    xs = [a * e1 + b * e2 for a, b in walked]
    assert sorted(xs, key=K.coords) == sorted(K.shell(v, m), key=K.coords)
    frames = {False: _dlog_frame(chi.group, m, None)}
    if v >= 1:
        frames[True] = _dlog_frame(chi.group, m, v)
    for shift, frame in frames.items():
        assert len(frame) == len(xs)
        for i in rnd.sample(range(len(xs)), min(40, len(xs))):
            (a, b), x = walked[i], xs[i]
            assert Fraction((al * a + be * b) % P, P) == psi.angle(K.embed(c) * x)
            unit = Fraction(chi._unit_num(frame[i]) if chi.n else 0, chi.unit_den)
            if shift:
                assert unit == chi.angle_at(K.one() + x)
            else:
                assert (unit + chi.t.angle * v) % 1 == chi.angle_at(x)


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
    else:
        # refused for every chi, unramified ones included
        with pytest.raises(ValueError, match="shift needs"):
            shell_cyc(chi, psi, v, m, c, shift=True)


def _psi_loop(K, psi, v, m, c):
    out = Cyc({})
    for x in K.shell(v, m):
        out = out + Cyc.root(psi.angle(c * x))
    return out


# -- the unramified unit group on integer pairs --------------------------------


def _pair_mul(x, y, d, mod, mod_b=None):
    mod_b = mod if mod_b is None else mod_b
    return (x[0] * y[0] + d * x[1] * y[1]) % mod, (x[0] * y[1] + x[1] * y[0]) % mod_b


def _pair_pow(x, k, d, mod, mod_b):
    out = (1, 0)
    for bit in bin(k)[2:]:
        out = _pair_mul(out, out, d, mod, mod_b)
        if bit == "1":
            out = _pair_mul(out, x, d, mod, mod_b)
    return out


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


# Generators, as coordinate pairs (a, b) = a + b sqrt(d), and their orders, as
# the digit-peeling construction of the unramified groups produced them.
# Characters built with from_angles are angles on these generators, so they
# must not move.
PINNED_EUNRAM = {
    (3, 1): ([(1, 1)], [8]),
    (3, 2): ([(7, 4), (4, 0), (1, 3)], [8, 3, 3]),
    (3, 3): ([(16, 13), (4, 0), (1, 3)], [8, 9, 9]),
    (5, 1): ([(1, 2)], [24]),
    (5, 2): ([(1, 2), (6, 0), (1, 5)], [24, 5, 5]),
    (5, 3): ([(26, 77), (6, 0), (1, 5)], [24, 25, 25]),
    (7, 1): ([(1, 1)], [48]),
    (7, 2): ([(29, 15), (8, 0), (1, 7)], [48, 7, 7]),
    (7, 3): ([(127, 15), (8, 0), (1, 7)], [48, 49, 49]),
    (11, 1): ([(1, 5)], [120]),
    (11, 2): ([(100, 38), (12, 0), (1, 11)], [120, 11, 11]),
    (11, 3): ([(1189, 401), (12, 0), (1, 11)], [120, 121, 121]),
    (13, 1): ([(1, 2)], [168]),
    (13, 2): ([(53, 54), (14, 0), (1, 13)], [168, 13, 13]),
    (13, 3): ([(1405, 1744), (14, 0), (1, 13)], [168, 169, 169]),
}


def test_eunram_gens_and_orders_are_pinned():
    for (p, level), (gens, orders) in PINNED_EUNRAM.items():
        G = unit_group(QuadExtension(PAdicGround(p), UNRAMIFIED), level)
        assert [(g.a, g.b) for g in G.gens] == gens, (p, level)
        assert G.orders == orders, (p, level)


@functools.lru_cache(maxsize=None)
def reference_eunram_logs(p, level):
    """(gens, orders, key -> dlog) of the unramified group at ``level`` >= 1
    as one table of products of powers: the Teichmueller lift of the first
    generator (a, b) of F_(p^2)^x, a-major, then 1 + p and 1 + p sqrt(d),
    each of order p^(level-1)."""
    E = QuadExtension(PAdicGround(p), UNRAMIFIED)
    d, mod, q = E.d, p**level, p * p

    def powers(x, order, m):
        out, acc = [], (1, 0)
        for _ in range(order):
            out.append(acc)
            acc = _pair_mul(acc, x, d, m)
        return out

    gbar = next(
        (a, b) for a in range(p) for b in range(p) if len(set(powers((a, b), q - 1, p))) == q - 1
    )
    omega = _pair_pow(gbar, q ** (level - 1), d, mod, mod)
    basis = [(omega, q - 1)]
    if level > 1:
        basis += [((1 + p, 0), p ** (level - 1)), ((1, p), p ** (level - 1))]
    logs = {(1, 0): ()}
    for h, order in basis:
        logs = {
            _pair_mul(x, y, d, mod): e + (j,)
            for x, e in logs.items()
            for j, y in enumerate(powers(h, order, mod))
        }
    return [h for h, _ in basis], [m for _, m in basis], logs


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(11, 2), (13, 2), (3, 4), (3, 5)]),
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_eunram_logs_match_the_reference_table_sampled(case, key):
    p, level = case
    mod = p**level
    a, b = key
    if a % p == 0 and b % p == 0:
        a += 1
    key = (a % mod, b % mod)
    G = unit_group(QuadExtension(PAdicGround(p), UNRAMIFIED), level)
    gens, orders, logs = reference_eunram_logs(p, level)
    assert len(logs) == G.size
    assert ([(g.a, g.b) for g in G.gens], G.orders) == (gens, orders)
    assert G.logs[key] == logs[key]


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


# p = 3 up to level 14, far beyond any table: U^1 there holds the cube roots
# of unity in ramified-up E
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(
        [(p, n) for p in (3, 5, 7) for n in range(1, 6)] + [(3, n) for n in range(6, 15)]
    ),
    st.sampled_from(RAMIFIED),
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_eram_dlog_is_a_homomorphism(case, ext, x, y):
    p, level = case
    E = QuadExtension(PAdicGround(p), ext)
    G = unit_group(E, level)
    Ma, Mb = _ram_mods(p, level)
    x = ((x[0] * p + 1) % Ma, x[1] % Mb)
    y = ((y[0] * p + 2) % Ma, y[1] % Mb)
    xy = _pair_mul(x, y, E.d, Ma, Mb)
    got = G.dlog(E.elem(*xy))
    want = tuple((a + b) % d for a, b, d in zip(G.dlog(E.elem(*x)), G.dlog(E.elem(*y)), G.orders))
    assert got == want
    # the exponents rebuild x from the generators
    acc = (1, 0)
    for g, e in zip(G.gens, G.dlog(E.elem(*x))):
        acc = _pair_mul(acc, _pair_pow((int(g.a), int(g.b)), e, E.d, Ma, Mb), E.d, Ma, Mb)
    assert acc == x


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
    (5, "ramified-p", 5): ([(57, 0), (6, 0), (1, 1)], [4, 25, 25]),
    (5, "ramified-p", 6): ([(57, 0), (1, 1), (6, 0)], [4, 125, 25]),
    (5, "ramified-up", 5): ([(57, 0), (11, 0), (1, 1)], [4, 25, 25]),
    (5, "ramified-up", 6): ([(57, 0), (1, 1), (11, 0)], [4, 125, 25]),
    (7, "ramified-p", 1): ([(3, 0)], [6]),
    (7, "ramified-p", 2): ([(3, 0), (1, 1)], [6, 7]),
    (7, "ramified-p", 3): ([(31, 0), (8, 0), (1, 1)], [6, 7, 7]),
    (7, "ramified-p", 4): ([(31, 0), (1, 1), (8, 0)], [6, 49, 7]),
    (7, "ramified-p", 5): ([(325, 0), (8, 0), (1, 1)], [6, 49, 49]),
    (7, "ramified-p", 6): ([(325, 0), (1, 1), (8, 0)], [6, 343, 49]),
    (7, "ramified-up", 1): ([(3, 0)], [6]),
    (7, "ramified-up", 2): ([(3, 0), (1, 1)], [6, 7]),
    (7, "ramified-up", 3): ([(31, 0), (22, 0), (1, 1)], [6, 7, 7]),
    (7, "ramified-up", 4): ([(31, 0), (1, 1), (22, 0)], [6, 49, 7]),
    (7, "ramified-up", 5): ([(325, 0), (22, 0), (1, 1)], [6, 49, 49]),
    (7, "ramified-up", 6): ([(325, 0), (1, 1), (22, 0)], [6, 343, 49]),
}


def test_eram_gens_and_orders_are_pinned():
    for (p, ext, level), (gens, orders) in PINNED_ERAM.items():
        G = unit_group(QuadExtension(PAdicGround(p), ext), level)
        assert [(g.a, g.b) for g in G.gens] == gens, (p, ext, level)
        assert G.orders == orders, (p, ext, level)


@functools.lru_cache(maxsize=None)
def reference_eram_logs(p, ext, level):
    """key -> dlog over the whole ramified group at ``level``, built as one
    table: the Teichmueller generator first, then a greedy basis of the
    1-units, each the first candidate 1 + pi (a + b sqrt(d)) (a-major) of
    maximal order modulo the span so far, corrected by the span so that its
    order is exact; the table grows by every power of each new generator."""
    E = QuadExtension(PAdicGround(p), ext)
    d = E.d
    Ma, Mb = _ram_mods(p, level)
    if level == 0:
        return {(0, 0): ()}

    def mul(x, y):
        return _pair_mul(x, y, d, Ma, Mb)

    def power(x, k):
        out = (1, 0)
        while k:
            if k & 1:
                out = mul(out, x)
            x = mul(x, x)
            k >>= 1
        return out

    def extend(table, h, order):
        out = {}
        for x, e in table.items():
            for j in range(order):
                out[x] = e + (j,)
                x = mul(x, h)
        return out

    g = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    omega = (pow(g, p**level * pow(p**level, -1, p - 1), Ma), 0)
    logs = extend({(1, 0): ()}, omega, p - 1)
    candidates = [((1 + d * b) % Ma, a) for a in range(Mb) for b in range(Ma // p)]
    basis = []
    while len(logs) < (p - 1) * p ** (level - 1):
        best, best_j = None, -1
        for x in candidates:
            if x in logs:
                continue
            j, y = 0, x
            while y not in logs:
                y, j = power(y, p), j + 1
            if j > best_j:
                best, best_j = x, j
        m = p**best_j
        corr = (1, 0)
        for h, t in zip(basis, logs[power(best, m)][1:]):
            assert t % m == 0
            corr = mul(corr, power(h, t // m))
        a, b = corr
        n_inv = pow(a * a - d * b * b, -1, Ma)
        gen = mul(best, (a * n_inv % Ma, -b * n_inv % Mb))
        basis.append(gen)
        logs = extend(logs, gen, m)
    return logs


# every key up to the level where the tables stay below 15,000 entries
@pytest.mark.parametrize("ext", RAMIFIED)
@pytest.mark.parametrize(
    "p,level",
    [(3, n) for n in range(1, 9)] + [(5, n) for n in range(1, 7)] + [(7, n) for n in range(1, 6)],
)
def test_eram_logs_match_the_reference_table(p, ext, level):
    G = unit_group(QuadExtension(PAdicGround(p), ext), level)
    want = reference_eram_logs(p, ext, level)
    assert len(want) == G.size
    for key, exps in want.items():
        assert G.logs[key] == exps, key


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(7, 6)] + [(11, n) for n in range(1, 5)]),
    st.sampled_from(RAMIFIED),
    st.tuples(st.integers(1, 10**6), st.integers(0, 10**6)),
)
def test_eram_logs_match_the_reference_table_sampled(case, ext, key):
    p, level = case
    Ma, Mb = _ram_mods(p, level)
    a, b = key
    if a % p == 0:
        a += 1
    key = (a % Ma, b % Mb)
    G = unit_group(QuadExtension(PAdicGround(p), ext), level)
    assert G.logs[key] == reference_eram_logs(p, ext, level)[key]


# -- the unit group of F ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def reference_f_logs(p, level):
    """(gens, orders, key -> dlog) of (Z/p^n)^x as one table of the powers of
    g: the least primitive root mod p, moved up by p where g^(p-1) = 1 mod p^2
    so that g generates mod every p^n."""
    if level == 0:
        return [], [], {0: ()}
    g = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    if level >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    order = (p - 1) * p ** (level - 1)
    logs, acc = {}, 1
    for k in range(order):
        logs[acc] = (k,)
        acc = acc * g % p**level
    return [Fraction(g)], [order], logs


@pytest.mark.parametrize(
    "p,level", [(p, n) for p in (3, 5) for n in range(7)] + [(7, n) for n in range(6)]
)
def test_f_logs_match_the_reference_table(p, level):
    G = unit_group(PAdicGround(p), level)
    gens, orders, logs = reference_f_logs(p, level)
    assert (G.gens, G.orders) == (gens, orders)
    assert len(logs) == G.size
    for key, exps in logs.items():
        assert G.logs[key] == exps, key


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(7, 6)] + [(p, n) for p in (11, 13) for n in range(1, 5)]),
    st.integers(1, 10**8),
)
def test_f_logs_match_the_reference_table_sampled(case, key):
    p, level = case
    if key % p == 0:
        key += 1
    key %= p**level
    G = unit_group(PAdicGround(p), level)
    gens, orders, logs = reference_f_logs(p, level)
    assert (G.gens, G.orders) == (gens, orders)
    assert G.logs[key] == logs[key]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.integers(1, 10),
    st.integers(1, 10**12),
    st.integers(1, 10**12),
)
def test_f_dlog_is_a_homomorphism(p, level, x, y):
    G = unit_group(PAdicGround(p), level)
    mod = p**level
    x, y = (x + (x % p == 0)) % mod, (y + (y % p == 0)) % mod
    (k,) = G.dlog(Fraction(x))
    assert pow(int(G.gens[0]), k, mod) == x
    assert G.dlog(Fraction(x * y)) == ((k + G.dlog(Fraction(y))[0]) % G.orders[0],)


def test_no_unit_group_holds_a_table():
    """A primitive character at a level far beyond any table peels only the
    keys it reads: the conductor check reads the one key 1 + pi^(n-1)."""
    unit_group.cache_clear()
    for K, n in [
        (PAdicGround(5), 8),
        (QuadExtension(PAdicGround(3), UNRAMIFIED), 9),
        (QuadExtension(PAdicGround(3), "ramified-up"), 9),
    ]:
        G = unit_group(K, n)
        chi = MultChar.from_angles(K, n, [Fraction(1, d) for d in G.orders], Phase.one())
        assert chi.n == n
        assert len(G.logs) <= 2 < G.size


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
        if all(unit_angle(chi, u) == 0 for u in _filtration_step(K, k, n))
    )
    assert chi.reduced().n == want


# -- the shared coset integral -----------------------------------------------------


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
                # int chi(x) psi(mult x) dx is the shared integral at s = -mult;
                # vol(O) = 1, self-dual for the conductor-0 psi
                got = coset_integral(chi, center, level, psi, s=-mult).to_complex()
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
    # n = 1 is the shell sum, bit for bit; n = 2 is the stationary-phase
    # closed form, against the exact shell sum within 1e-13 q^(n/2)
    F = PAdicGround(5)
    count = 0
    for n in (1, 2):
        d = unit_group(F, n).orders[0]
        for k in range(1, d):
            chi = MultChar(F, n, (Fraction(k, d),), Phase.exact(Fraction(k % 7, 7)))
            if chi.reduced().n != n:
                continue
            for psi in (standard_psi(F), standard_psi(F).shifted(Fraction(2, 5))):
                if n == 1:
                    assert gauss_sum(chi, psi) == _gauss_by_loop(chi, psi)
                else:
                    exact = shell_cyc(chi.inv(), psi, conductor_add(psi) - n, n).to_complex()
                    assert abs(gauss_sum(chi, psi) - exact) <= 1e-13 * 5 ** (n / 2)
                count += 1
    assert count == 2 * (3 + 16)


def _conductor_one_cases():
    """(chi, psi) at conductor 1 over F and the three extensions, p <= 13:
    psi shifted by a unit and by a power of p, and psi o tr or psi_xi on E;
    exact and float t, rational and complex lam."""
    rng = random.Random(19)
    for p in (3, 5, 7, 11, 13):
        F = PAdicGround(p)
        for ext in (None,) + EXTENSION_TYPES:
            K = _field(p, ext)
            for i, (u, e) in enumerate(((1, 0), (-1, 2), (2, -1))):
                base = standard_psi(F).shifted(Fraction(u) * Fraction(p) ** e)
                psi = base if ext is None else psi_to_E(base, K, K.xi() if i % 2 else None)
                angles = [Fraction(rng.randrange(1, d), d) for d in unit_group(K, 1).orders]
                t = Phase.approx(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                if i == 1:
                    t = Phase.exact(Fraction(rng.randrange(12), 12))
                lam = (Fraction(1, 3), 0.25 - 0.5j, Fraction(-2))[i]
                yield MultChar(K, 1, angles, t, lam), psi


def _chi_value(chi, x):
    """chi(x) = (t^v e(unit angle)) q^(-lam v), multiplied in that order."""
    K = chi.field
    v = K.val(x)
    out = chi.t.value() ** v * _num_exp(*unit_angle(chi, K.unit_part(x)).as_integer_ratio())
    if chi.lam != 0:
        out *= K.q ** complex(-chi.lam * v)
    return out


def test_gauss_sum_at_conductor_one_is_the_element_loop_bit_for_bit():
    # sum chi^{-1}(x) psi(x) over K.shell(c - 1, 1), in shell order
    count = 0
    for chi, psi in _conductor_one_cases():
        K, inv = chi.field, chi.inv()
        want = 0j
        for i, x in enumerate(K.shell(conductor_add(psi) - 1, 1)):
            value = inv.value(x)
            if i % 8 == 0:
                assert repr(value) == repr(_chi_value(inv, x))
            want += value * psi.value(x)
        assert repr(gauss_sum(chi, psi)) == repr(want), (K, chi, psi)
        count += 1
    assert count == 5 * 4 * 3


def _cold_shell_cyc(*args, **kwargs):
    _dlog_frame.cache_clear()
    return shell_cyc(*args, **kwargs)


def _bits(x):
    return repr(x), repr(x.to_complex())


@pytest.mark.parametrize("p,ext", [(5, None), (3, "ramified-up"), (3, UNRAMIFIED)])
@pytest.mark.parametrize("shift", [False, True])
def test_shell_angles_of_two_characters_do_not_depend_on_the_order(p, ext, shift):
    # the cached dlog frame of a shell serves every character on it alike:
    # each sum keeps its terms, their order and its float bits
    K = _field(p, ext)
    psi = standard_psi(K) if ext is None else psi_to_E(standard_psi(K.ground), K, K.xi())
    G = unit_group(K, 3)
    chis = [
        MultChar(K, 3, [Fraction(k * (i + 1), d) for i, d in enumerate(G.orders)], Phase.one())
        # k = 1 and 2 give equal shifted sums on F
        for k in (3, 5)
    ]
    args = (psi, 1, 2, K.elem(Fraction(1, p)), shift)
    cold = [_cold_shell_cyc(chi, *args) for chi in chis]
    assert cold[0] != cold[1]
    for order in ((0, 1), (1, 0)):
        _dlog_frame.cache_clear()
        got = {i: _bits(shell_cyc(chis[i], *args)) for i in order}
        assert got == {i: _bits(x) for i, x in enumerate(cold)}


def test_second_gauss_sum_on_a_shell_reuses_its_point_dlogs(monkeypatch):
    # at n = 1 every character of one unit group reads the dlogs of the
    # same points, the units of O/p, so a second character peels none
    F = PAdicGround(7)
    psi = standard_psi(F)
    G = unit_group(F, 1)
    d = G.orders[0]
    chi1, chi2 = (MultChar(F, 1, (Fraction(k, d),), Phase.one()) for k in (1, 5))
    want = _gauss_by_loop(chi2, psi)
    gauss_sum(chi1, psi)

    def enumerated(*args):
        raise AssertionError("the shell was enumerated again")

    monkeypatch.setattr(type(G), "walk", enumerated)
    monkeypatch.setattr(G.logs, "peel", enumerated)
    assert gauss_sum(chi2, psi) == want


# -- precision -------------------------------------------------------------------


@pytest.mark.parametrize("ext", (None,) + EXTENSION_TYPES)
def test_kernel_refuses_moduli_beyond_precision(ext):
    F = PAdicGround(3, precision=8)
    K = F if ext is None else QuadExtension(F, ext)
    psi = standard_psi(F) if ext is None else psi_to_E(standard_psi(F), K, K.xi())
    chi = MultChar.trivial(K)
    # twice: a frame whose build raised is not cached, so it raises again
    for _ in range(2):
        with pytest.raises(PrecisionError):
            shell_cyc(chi, psi, 0, 9)
        # m = 2, so that b runs over a unit on ramified E as well
        with pytest.raises(PrecisionError):
            shell_cyc(chi, psi, 0, 2, c=Fraction(1, 3**9))
        with pytest.raises(PrecisionError):
            shell_cyc(None, psi.shifted(Fraction(1, 3**9)), 0, 2)
        # valuation -8 still fits the window
        psi8 = psi.shifted(Fraction(1, 3**8))
        assert (shell_cyc(None, psi8, 0, 2) - _psi_loop(K, psi8, 0, 2, K.one())).is_zero()


@pytest.mark.parametrize(
    "p,precision,ext,level",
    [(3, 8, None, 9), (3, 8, UNRAMIFIED, 9)] + [(3, 8, ext, 17) for ext in RAMIFIED] + [(5, 12, None, 20)],
)
def test_unit_group_refuses_levels_beyond_precision(p, precision, ext, level):
    # the first level whose residues need p^(precision + 1), and p = 5 at
    # level 20, which would ask for 4 * 5^19 entries: refused before any
    # table or basis is built
    F = PAdicGround(p, precision=precision)
    with pytest.raises(PrecisionError):
        unit_group(F if ext is None else QuadExtension(F, ext), level)


@pytest.mark.parametrize("ext", ("ramified-p", "ramified-up"))
def test_kernel_ignores_sqrt_d_part_where_b_is_zero(ext):
    # on ramified E at m = 1 every representative has b = 0, so
    # psi(x) = e(frac(tr(mult) a)) never reads tr(mult sqrt(d)); a multiplier
    # past the precision window there must not raise, as psi.angle does not
    F = PAdicGround(3, precision=8)
    E = QuadExtension(F, ext)
    psi = psi_to_E(standard_psi(F), E, E.xi()).shifted(Fraction(1, 3**9))
    assert (shell_cyc(None, psi, 0, 1) - _psi_loop(E, psi, 0, 1, E.one())).is_zero()


def _scan_from_row_zero(G):
    """The greedy 1-unit basis of G by the a-major scan that starts at the
    a = 0 row, as ``ERamUnitGroup._one_unit_basis`` ran before it skipped
    that row: the first candidate of maximal order modulo the span, each
    corrected by the span so that its order is exact."""
    span = _LogSpan(G)
    p, d = G.field.p, G.field.d
    Ma, Mb = G._mods
    basis = []
    while not span.full:
        best, best_j = None, 0
        for x in (((1 + d * b) % Ma, a) for a in range(Mb) for b in range(Ma // p)):
            j = span.order_exp(x)
            if j > best_j:
                best, best_j = x, j
                if j == span.max_exp:
                    break
        g, m = best, p**best_j
        corr = (1, 0)
        for (h, _), t in zip(basis, span.exps(G._pow(g, m))):
            corr = G._mul(corr, G._pow(h, t // m))
        g = G._mul(g, G._inv(corr))
        basis.append((g, m))
        span.add(g, m)
    return basis


@pytest.mark.parametrize("ext", RAMIFIED)
@pytest.mark.parametrize("p,level", [(p, n) for p in (3, 5) for n in range(2, 15)])
def test_eram_basis_is_the_scan_from_row_zero(p, ext, level):
    E = QuadExtension(PAdicGround(p), ext)
    G = unit_group(E, level)
    basis = _scan_from_row_zero(G)
    assert G.gens[1:] == [E.elem(*h) for h, _ in basis]
    assert G.orders[1:] == [m for _, m in basis]


def test_eram_basis_at_level_21_reads_few_candidates(monkeypatch):
    # the a = 0 row holds p^10 candidates at p = 3, level 21; scanning it
    # before each generator took 118,103 order_exp calls
    calls = []
    order_exp = _LogSpan.order_exp
    monkeypatch.setattr(_LogSpan, "order_exp", lambda span, x: calls.append(x) or order_exp(span, x))
    G = ERamUnitGroup(QuadExtension(PAdicGround(3), "ramified-up"), 21)
    assert G.orders == [2, 3**10, 3**9, 3]
    assert len(calls) <= 10
    u = G.gens[1] * G.gens[2] ** 5 * G.gens[3]
    assert G.dlog(u) == (0, 1, 5, 1)
