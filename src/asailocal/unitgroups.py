"""Unit groups (O_K/pi^n)^x with explicit generators and discrete logarithms.

Multiplicative characters are stored as root-of-unity images of these
generators, so every character evaluation funnels through a discrete log.
Logs are keyed by integer residues: ``G.key(x)`` is the residue of the unit
part of x at the group's level (an int on F, a pair on E), ``G.keys(coords)``
gives the same keys from integer coordinates (a, b) of units a + b sqrt(d),
and ``G.logs[key]`` is the exponent tuple, so ``G.dlog(x)`` is
``G.logs[G.key(x)]``.  Three shapes occur: (Z/p^n)^x is cyclic, with a full
table; for an unramified quadratic extension the group splits as
Teichmueller x (1+p) x (1+p*sqrt(d)), with logarithms digit-peeled on integer
pairs mod p^n per key on first use; ramified extensions are small enough that
a generic abelian basis plus a full lookup table is the simplest correct
choice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .padic import EElement, Field, PAdicGround, QuadExtension, UNRAMIFIED


def _primitive_root(p: int) -> int:
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in factors):
            return g
    raise ValueError(f"no primitive root mod {p}")


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class UnitGroup:
    """Abstract base: generators, orders, and dlog for (O_K/pi^n)^x.

    ``key(x)`` is the integer residue of the unit part of x at this level: an
    int on F, a pair (a mod p^ma, b mod p^mb) on E (``E.residue_digits``).
    ``logs`` maps each key to its exponent tuple, so ``dlog(x)`` is
    ``logs[key(x)]``, and ``keys(coords)`` gives the keys of the units
    a + b sqrt(d) straight from integer coordinates, with no field element.
    """

    field: Field
    level: int
    gens: list
    orders: list[int]
    logs: dict

    @property
    def size(self) -> int:
        out = 1
        for d in self.orders:
            out *= d
        return out

    def key(self, x):
        """Canonical residue key of a valuation-0 element at this level."""
        return self.field.unit_residue(self.field.embed(x), self.level)

    def keys(self, coords) -> list:
        """Residue keys of the units a + b sqrt(d), (a, b) integers in coords."""
        E = self.field
        ma, mb = E.residue_digits(self.level)
        Ma, Mb = E.p**ma, E.p**mb
        return [(a % Ma, b % Mb) for a, b in coords]

    def dlog(self, x) -> tuple[int, ...]:
        raise NotImplementedError

    def one_unit_gens(self, m: int) -> list:
        """Generators of (1+pi^m O)/(1+pi^level O), 1 <= m <= level."""
        raise NotImplementedError


class FUnitGroup(UnitGroup):
    """(Z/p^n)^x, cyclic for odd p."""

    def __init__(self, ground: PAdicGround, level: int):
        self.field = ground
        self.level = level
        p = ground.p
        if level == 0:
            self.gens, self.orders = [], []
            self.logs = {0: ()}
            return
        g = _primitive_root(p)
        if level >= 2 and pow(g, p - 1, p * p) == 1:
            g += p
        self.gens = [Fraction(g)]
        self.orders = [(p - 1) * p ** (level - 1)]
        mod = p**level
        table = {}
        acc = 1
        for k in range(self.orders[0]):
            table[acc] = (k,)
            acc = acc * g % mod
        self.logs = table

    def key(self, x):
        return self.field.unit_residue(x, self.level) if self.level else 0

    def keys(self, coords) -> list:
        M = self.field.p**self.level
        return [a % M for a, _ in coords]

    def dlog(self, x):
        return self.logs[self.key(x)]

    def one_unit_gens(self, m: int):
        return [Fraction(1 + self.field.p**m)]


def _pmul(x: tuple, y: tuple, d: int, mod: int) -> tuple:
    """(a + b sqrt d)(c + e sqrt d) on integer pairs mod ``mod``."""
    a, b = x
    c, e = y
    return (a * c + d * b * e) % mod, (a * e + b * c) % mod


def _ppow(x: tuple, k: int, d: int, mod: int) -> tuple:
    out = (1, 0)
    while k:
        if k & 1:
            out = _pmul(out, x, d, mod)
        x = _pmul(x, x, d, mod)
        k >>= 1
    return out


class _PeeledLogs(dict):
    """key -> dlog, each entry computed by ``peel`` on first use."""

    def __init__(self, peel):
        super().__init__()
        self.peel = peel

    def __missing__(self, key):
        out = self[key] = self.peel(key)
        return out


class EUnramUnitGroup(UnitGroup):
    """(O_E/p^n)^x for unramified E: Teichmueller x two 1-unit lines.

    Everything runs on integer pairs (a, b) = a + b sqrt(d) mod p^n.  A dlog
    is digit-peeled on first use of its key and cached; there is no full
    table, which would hold (p^2-1) p^(2n-2) entries."""

    def __init__(self, E: QuadExtension, level: int):
        self.field = E
        self.level = level
        if level == 0:
            self.gens, self.orders = [], []
            self.logs = {(0, 0): ()}
            return
        p, d = E.p, E.d
        order = p * p - 1
        gbar = self._residue_field_generator(p, d)
        self._fq_log = {}
        acc = (1, 0)
        for k in range(order):
            self._fq_log[acc] = k
            acc = _pmul(acc, gbar, d, p)
        # omega = gbar^(p^(2(level-1)) * s) has exact order p^2-1 and lifts gbar
        pk = p ** (2 * (level - 1))
        s = pow(pk, -1, order) if level > 1 else 1
        self._omega = _ppow(gbar, pk * s, d, p**level)
        self.logs = _PeeledLogs(self._peel)
        if level == 1:
            self.gens = [E.elem(*self._omega)]
            self.orders = [order]
        else:
            self.gens = [E.elem(*self._omega), E.elem(1 + p), E.elem(1, p)]
            self.orders = [order, p ** (level - 1), p ** (level - 1)]

    @staticmethod
    def _residue_field_generator(p: int, d: int) -> tuple:
        order = p * p - 1
        factors = _prime_factors(order)
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                if all(_ppow((a, b), order // ell, d, p) != (1, 0) for ell in factors):
                    return a, b
        raise ValueError("no generator of the residue field found")

    def dlog(self, x):
        return self.logs[self.key(x)]

    def _peel(self, key: tuple) -> tuple:
        p, n, d = self.field.p, self.level, self.field.d
        mod = p**n
        e0 = self._fq_log[(key[0] % p, key[1] % p)]
        if n == 1:
            return (e0,)
        y = _pmul(key, _ppow(self._omega, self.orders[0] - e0, d, mod), d, mod)
        i = j = 0
        for k in range(1, n):
            # y = 1 + p^k (c + c' sqrt(d)) mod p^(k+1)
            c = (y[0] - 1) // p**k % p
            cp = y[1] // p**k % p
            i += c * p ** (k - 1)
            j += cp * p ** (k - 1)
            corr = _pmul(
                _ppow((1 + p, 0), self.orders[1] - c * p ** (k - 1), d, mod),
                _ppow((1, p), self.orders[2] - cp * p ** (k - 1), d, mod),
                d,
                mod,
            )
            y = _pmul(y, corr, d, mod)
        assert y == (1, 0), "digit peeling failed"
        return (e0, i % self.orders[1], j % self.orders[2])

    def one_unit_gens(self, m: int):
        E: QuadExtension = self.field
        p = E.p
        return [E.elem(1 + p**m), E.elem(1, p**m)]


class ERamUnitGroup(UnitGroup):
    """(O_E/pi^n)^x for ramified E: generic basis plus a full dlog table."""

    def __init__(self, E: QuadExtension, level: int):
        self.field = E
        self.level = level
        if level == 0:
            self.gens, self.orders = [], []
            self.logs = {(0, 0): ()}
            return
        p = E.p
        # Teichmueller part comes from the ground field (residue field is F_p)
        g = _primitive_root(p)
        ma = (level + 1) // 2
        s = pow(p**level, -1, p - 1)
        omega = E.elem(pow(g, (p**level) * s, p**ma))
        gens, orders = [omega], [p - 1]
        one_units = self._one_unit_basis(E, level)
        gens += [h for h, _ in one_units]
        orders += [d for _, d in one_units]
        self.gens, self.orders = gens, orders
        self.logs = self._build_table()

    @staticmethod
    def _one_unit_basis(E: QuadExtension, n: int) -> list[tuple]:
        """Basis of the 1-units of O_E/pi^n, via greedy maximal orders."""
        p = E.p
        target = p ** (n - 1)
        if target == 1:
            return []
        red = lambda x: _eram_red(x, E, n)
        key = lambda x: E.residue(x, n)
        one_key = key(E.one())
        pi = E.uniformizer()
        elems = [red(E.one() + pi * r) for r in _integral_residues(E, n - 1)]

        def ppow(x, k):
            out = red(x)
            for _ in range(k):
                acc = out
                for _ in range(p - 1):
                    acc = red(acc * out)
                out = acc
            return out

        def order_exp_mod(x, span):
            # smallest j with x^(p^j) in span
            j, acc = 0, red(x)
            while key(acc) not in span:
                acc = ppow(acc, 1)
                j += 1
            return j

        basis: list[tuple] = []
        span = {one_key: ()}
        while len(span) < target:
            best, best_j = None, -1
            for x in elems:
                if key(x) in span:
                    continue
                j = order_exp_mod(x, span)
                if j > best_j:
                    best, best_j = x, j
            g, m = best, p**best_j
            # correct so that g^m = 1 exactly (classical basis lemma)
            gm = ppow(g, best_j)
            exps = span[key(gm)]
            corr = E.one()
            for (h, _), t in zip(basis, exps):
                assert t % m == 0, "basis correction must divide"
                corr = red(corr * _eram_pow(h, t // m, E, n))
            g = red(g * _eram_inv(corr, E, n))
            basis.append((g, m))
            new_span = {}
            for _, e0 in span.items():
                acc = E.one()
                for (h, _), t in zip(basis[:-1], e0):
                    acc = red(acc * _eram_pow(h, t, E, n))
                cur = acc
                for j in range(m):
                    new_span[key(cur)] = e0 + (j,)
                    cur = red(cur * g)
            span = new_span
        return basis

    def _build_table(self) -> dict:
        E: QuadExtension = self.field
        table = {}
        red = lambda x: _eram_red(x, E, self.level)

        def rec(i, acc, exps):
            if i == len(self.gens):
                table[E.residue(acc, self.level)] = tuple(exps)
                return
            g, d = self.gens[i], self.orders[i]
            cur = acc
            for e in range(d):
                rec(i + 1, cur, exps + [e])
                cur = red(cur * g)

        rec(0, E.one(), [])
        assert len(table) == self.size, "unit group table has collisions"
        return table

    def dlog(self, x):
        return self.logs[self.key(x)]

    def one_unit_gens(self, m: int):
        E: QuadExtension = self.field
        if m >= self.level:
            return []
        pi = E.uniformizer()
        return [E.one() + pi**m * r for r in _integral_residues(E, self.level - m)]


def _eram_red(x: EElement, E: QuadExtension, m: int) -> EElement:
    """Reduce an integral element mod pi^m (ramified coordinate split)."""
    ra, rb = E.residue(x, m)
    return E.elem(ra, rb)


def _eram_inv(x: EElement, E: QuadExtension, m: int) -> EElement:
    return _eram_red(x.inv(), E, m)


def _eram_pow(x: EElement, k: int, E: QuadExtension, m: int) -> EElement:
    out, base = E.one(), _eram_red(x, E, m)
    while k:
        if k & 1:
            out = _eram_red(out * base, E, m)
        base = _eram_red(base * base, E, m)
        k >>= 1
    return out


def _integral_residues(E: QuadExtension, m: int) -> list[EElement]:
    """Representatives of O_E/pi^m (including non-units)."""
    p = E.p
    if E.ext_type == UNRAMIFIED:
        return [E.elem(a, b) for a in range(p**m) for b in range(p**m)]
    ma, mb = (m + 1) // 2, m // 2
    return [E.elem(a, b) for a in range(p**ma) for b in range(p**mb)]


@lru_cache(maxsize=None)
def unit_group(K: Field, level: int) -> UnitGroup:
    if isinstance(K, PAdicGround):
        return FUnitGroup(K, level)
    if K.ext_type == UNRAMIFIED:
        return EUnramUnitGroup(K, level)
    return ERamUnitGroup(K, level)
