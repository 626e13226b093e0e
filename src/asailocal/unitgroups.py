"""Unit groups (O_K/pi^n)^x with explicit generators and discrete logarithms.

Multiplicative characters are stored as root-of-unity images of these
generators, so every character evaluation funnels through ``dlog``.  Three
shapes occur: (Z/p^n)^x is cyclic; for an unramified quadratic extension the
group splits as Teichmueller x (1+p) x (1+p*sqrt(d)) with digit-peeling
logarithms; ramified extensions are small enough that a generic abelian basis
plus a full lookup table is the simplest correct choice.
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
    """Abstract base: generators, orders, and dlog for (O_K/pi^n)^x."""

    field: Field
    level: int
    gens: list
    orders: list[int]

    @property
    def size(self) -> int:
        out = 1
        for d in self.orders:
            out *= d
        return out

    def key(self, x):
        """Canonical residue key of a valuation-0 element at this level."""
        raise NotImplementedError

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
            self._table = {}
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
        self._table = table

    def key(self, x):
        return self.field.unit_residue(x, self.level) if self.level else 0

    def dlog(self, x):
        if self.level == 0:
            return ()
        return self._table[self.key(x)]

    def one_unit_gens(self, m: int):
        return [Fraction(1 + self.field.p**m)]


class EUnramUnitGroup(UnitGroup):
    """(O_E/p^n)^x for unramified E: Teichmueller x two 1-unit lines."""

    def __init__(self, E: QuadExtension, level: int):
        self.field = E
        self.level = level
        if level == 0:
            self.gens, self.orders = [], []
            return
        p = E.p
        gbar = self._residue_field_generator(E)
        self._fq_table = self._build_fq_table(E, gbar)
        omega = self._teichmueller(E, gbar, level)
        if level == 1:
            self.gens = [omega]
            self.orders = [p * p - 1]
        else:
            self.gens = [omega, E.elem(1 + p), E.elem(1, p)]
            self.orders = [p * p - 1, p ** (level - 1), p ** (level - 1)]

    @staticmethod
    def _residue_field_generator(E: QuadExtension) -> EElement:
        p = E.p
        order = p * p - 1
        factors = _prime_factors(order)
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                g = E.elem(a, b)
                if all(
                    E.residue(g ** (order // ell), 1) != (1, 0) for ell in factors
                ):
                    return g
        raise ValueError("no generator of the residue field found")

    @staticmethod
    def _build_fq_table(E: QuadExtension, gbar: EElement) -> dict:
        table = {}
        acc = E.one()
        for k in range(E.p * E.p - 1):
            table[E.residue(acc, 1)] = k
            acc = _ered(acc * gbar, E, 1)
        return table

    @staticmethod
    def _teichmueller(E: QuadExtension, gbar: EElement, level: int) -> EElement:
        # omega = gbar^(p^(2(level-1)) * s) has exact order p^2-1 and lifts gbar
        p = E.p
        pk = p ** (2 * (level - 1))
        s = pow(pk, -1, p * p - 1) if level > 1 else 1
        return _epow_mod(gbar, pk * s, E, level)

    def key(self, x):
        return self.field.unit_residue(x, self.level)

    def dlog(self, x):
        E: QuadExtension = self.field
        u = E.unit_part(E.embed(x))
        k = E.residue(u, self.level)
        cache = getattr(self, "_dlog_cache", None)
        if cache is None:
            cache = self._dlog_cache = {}
        hit = cache.get(k)
        if hit is not None:
            return hit
        out = self._dlog_uncached(E.elem(*k))
        cache[k] = out
        return out

    def _dlog_uncached(self, u):
        E: QuadExtension = self.field
        p, n = E.p, self.level
        e0 = self._fq_table[E.residue(u, 1)]
        if n == 1:
            return (e0,)
        y = _ered(u * _epow_mod(self.gens[0], self.orders[0] - e0, E, n), E, n)
        i = j = 0
        g1, g2 = E.elem(1 + p), E.elem(1, p)
        for k in range(1, n):
            # y = 1 + p^k (c + c' sqrt(d)) mod p^(k+1)
            diff = _ered(y, E, min(k + 1, n)) - E.one()
            c = _coef_digit(diff.a, p, k)
            cp = _coef_digit(diff.b, p, k)
            i += c * p ** (k - 1)
            j += cp * p ** (k - 1)
            corr = _epow_mod(g1, self.orders[1] - c * p ** (k - 1), E, n) * _epow_mod(
                g2, self.orders[2] - cp * p ** (k - 1), E, n
            )
            y = _ered(y * corr, E, n)
        assert E.residue(y, n) == (1, 0), "digit peeling failed"
        return (e0, i % self.orders[1], j % self.orders[2])

    def one_unit_gens(self, m: int):
        E: QuadExtension = self.field
        p = E.p
        return [E.elem(1 + p**m), E.elem(1, p**m)]


def _coef_digit(x: Fraction, p: int, k: int) -> int:
    """Digit of x/p^k mod p for p-integral rational x with ord >= k."""
    if x == 0:
        return 0
    y = x / Fraction(p) ** k
    mod = p
    if y.denominator % p == 0:
        raise ValueError("element not integral at expected level")
    return y.numerator % mod * pow(y.denominator, -1, mod) % mod


def _ered(x: EElement, E: QuadExtension, m: int) -> EElement:
    """Reduce coordinates mod p^m (unramified levels) to keep Fractions small."""
    mod = E.p**m
    a = x.a.numerator * pow(x.a.denominator, -1, mod) % mod if x.a else 0
    b = x.b.numerator * pow(x.b.denominator, -1, mod) % mod if x.b else 0
    return E.elem(a, b)


def _epow_mod(x: EElement, k: int, E: QuadExtension, m: int) -> EElement:
    out = E.one()
    base = _ered(x, E, m)
    while k:
        if k & 1:
            out = _ered(out * base, E, m)
        base = _ered(base * base, E, m)
        k >>= 1
    return out


class ERamUnitGroup(UnitGroup):
    """(O_E/pi^n)^x for ramified E: generic basis plus a full dlog table."""

    def __init__(self, E: QuadExtension, level: int):
        self.field = E
        self.level = level
        if level == 0:
            self.gens, self.orders = [], []
            self._table = {}
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
        self._table = self._build_table()

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

    def key(self, x):
        return self.field.unit_residue(x, self.level)

    def dlog(self, x):
        E: QuadExtension = self.field
        u = E.unit_part(E.embed(x))
        return self._table[E.residue(u, self.level)]

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
