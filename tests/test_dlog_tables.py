"""The whole-group dlog table, walked over generator powers, against the
peel of point dlogs; and the frames over a whole group, which read the
table and peel nothing."""

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
from asailocal.padic import EXTENSION_TYPES, PAdicGround, QuadExtension
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


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_groups(20_000)))
def test_walked_table_equals_the_peel_on_every_key(group):
    p, ext, level = group
    G = unit_group(_field(p, ext), level)
    table = G.table
    assert len(table) == G.size
    assert table == {key: G._peel(key) for key in table}


@pytest.mark.parametrize("ext", (None,) + EXTENSION_TYPES)
def test_whole_group_frames_peel_nothing(ext, monkeypatch):
    # a shell sum at n = level reads the walked table alone: with the peel
    # patched to raise, the table rebuilt under the patch, and no point
    # dlog left but that of 1 (chi(pi^v), which shell_cyc multiplies in),
    # it gives the unpatched value
    K, n = _field(5, ext), 2
    psi = standard_psi(K) if ext is None else psi_to_E(standard_psi(K.ground), K, K.xi())
    G = unit_group(K, n)
    chi = MultChar(K, n, [Fraction(1, d) for d in G.orders], Phase.one())
    v = conductor_add(psi) - n
    _dlog_frame.cache_clear()
    want = shell_cyc(chi, psi, v, n)

    def peel(self, key):
        raise AssertionError(f"a whole-group frame peeled the key {key}")

    _dlog_frame.cache_clear()
    monkeypatch.setattr(UnitGroup, "_peel", peel)
    monkeypatch.delitem(G.__dict__, "table", raising=False)
    monkeypatch.setattr(G, "logs", {G.key(1): G.logs[G.key(1)]})
    got = shell_cyc(chi, psi, v, n)
    _dlog_frame.cache_clear()
    assert (got - want).is_zero() and repr(got) == repr(want)
