"""The generator walk of a unit group against the peel of point dlogs; and
the sums over a whole group, which read the walk and peel nothing."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asailocal.characters import (
    MultChar,
    Phase,
    _dlog_frame,
    conductor_add,
    psi_to_E,
    shell_cyc,
    standard_psi,
)
from asailocal.padic import EXTENSION_TYPES, UNRAMIFIED, PAdicGround, QuadExtension
from asailocal.unitgroups import UnitGroup, unit_group


def _field(p, ext):
    F = PAdicGround(p)
    return F if ext is None else QuadExtension(F, ext)


def _groups(most):
    """(p, ext, level) of every unit group with at most ``most`` units, p <= 13,
    on F and the three extension types, levels from 1."""
    out = []
    for p in (3, 5, 7, 11, 13):
        for ext in (None,) + EXTENSION_TYPES:
            q = _field(p, ext).q
            level = 1
            while (q - 1) * q ** (level - 1) <= most:
                out.append((p, ext, level))
                level += 1
    return out


def _whole_group_sum(K, n):
    """A character on every generator of (O_K/pi^n)^x, psi0 (psi0 o tr with
    xi on E), and the shell on which their sum is nonzero."""
    psi = standard_psi(K) if K.ground is K else psi_to_E(standard_psi(K.ground), K, K.xi())
    G = unit_group(K, n)
    chi = MultChar(K, n, [Fraction(1, d) for d in G.orders], Phase.one())
    return chi, psi, conductor_add(psi) - n


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_groups(20_000)))
def test_walk_meets_every_unit_in_product_order(group):
    # the i-th walked unit peels to the i-th exponent tuple of the product
    # order, which is what lets a whole-group sum skip the dlog
    p, ext, level = group
    G = unit_group(_field(p, ext), level)
    walked = list(G.walk())
    assert len(set(walked)) == len(walked) == G.size
    assert list(map(G._peel, walked)) == list(itertools.product(*map(range, G.orders)))


@pytest.mark.parametrize("ext", (None,) + EXTENSION_TYPES)
def test_walk_at_level_0_meets_the_one_unit(ext):
    # (O_K/pi^0)^x has one unit and no generator: the walk starts from 1
    # reduced mod the coordinate moduli, (0, 0), the key of the empty
    # exponent tuple, the one tuple of the product order
    G = unit_group(_field(5, ext), 0)
    walked = list(G.walk())
    assert walked == [(0, 0)] and G.size == 1
    assert [G.logs[G.coord_key(*u)] for u in walked] == list(itertools.product(*map(range, G.orders)))


@pytest.mark.parametrize("ext", (None,) + EXTENSION_TYPES)
def test_whole_group_frames_peel_nothing(ext, monkeypatch):
    # a shell sum at n = level reads the walk alone: with the peel and
    # MultChar._unit_num patched to raise and G.logs emptied, it gives the
    # unpatched value
    K, n = _field(5, ext), 2
    chi, psi, v = _whole_group_sum(K, n)
    _dlog_frame.cache_clear()
    want = shell_cyc(chi, psi, v, n)

    def refuse(self, arg):
        raise AssertionError(f"a whole-group sum read a dlog at {arg}")

    _dlog_frame.cache_clear()
    monkeypatch.setattr(UnitGroup, "_peel", refuse)
    monkeypatch.setattr(MultChar, "_unit_num", refuse)
    monkeypatch.setattr(chi.group, "logs", {})
    got = shell_cyc(chi, psi, v, n)
    assert (got - want).is_zero() and repr(got) == repr(want)


def test_a_whole_group_sum_makes_one_pair_product_per_unit(monkeypatch):
    # p = 5, level 3 on unramified E, 15,000 units: with the group built, a
    # cold whole-group sum walks it once and peels nothing
    chi, psi, v = _whole_group_sum(_field(5, UNRAMIFIED), 3)
    G, calls = chi.group, []
    mul = UnitGroup._mul

    def counting(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    def refuse(self, key):
        raise AssertionError(f"a whole-group sum peeled the key {key}")

    monkeypatch.setattr(UnitGroup, "_mul", counting)
    monkeypatch.setattr(UnitGroup, "_peel", refuse)
    shell_cyc(chi, psi, v, 3)
    assert G.size == 15_000 and len(calls) <= G.size + 10


@pytest.mark.parametrize("shift", [False, True])
def test_a_walk_that_repeats_a_unit_raises_in_the_sum(shift, monkeypatch):
    # with the first generator standing in for the second, the walk meets
    # some unit twice; the sum runs the walk to its end, so its check raises,
    # on the whole-group path and on a shifted frame read from the cache
    K = _field(5, UNRAMIFIED)
    chi, psi, v = _whole_group_sum(K, 2)
    v = max(v, 1) if shift else v
    shell_cyc(chi, psi, v, 2, shift=shift)
    G = chi.group
    monkeypatch.setattr(G, "_pairs", [G._pairs[0]] * len(G._pairs))
    with pytest.raises(ArithmeticError, match="the walk met"):
        shell_cyc(chi, psi, v, 2, shift=shift)


def test_a_whole_group_sum_holds_no_list_of_its_units():
    # p = 5, level 3 on unramified E, 15,000 units and a chi with unit_den
    # 50: past the built group, the sum holds the walk's one byte per residue
    # key and its counts, under 8 bytes per unit at its peak
    K = _field(5, UNRAMIFIED)
    G = unit_group(K, 3)
    chi = MultChar(K, 3, [Fraction(1, 2), Fraction(1, 25), Fraction(2, 25)], Phase.one())
    _, psi, v = _whole_group_sum(K, 3)
    assert chi.unit_den == 50 and G.size == 15_000
    tracemalloc.start()
    try:
        shell_cyc(chi, psi, v, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * G.size, peak
