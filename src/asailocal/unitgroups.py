"""Unit groups (O_K/pi^n)^x with explicit generators and discrete logarithms.

Multiplicative characters are stored as root-of-unity images of these
generators, so every character evaluation funnels through a discrete log.
Logs are keyed by integer residues: a key is the residue of a unit u at the
group's level, ``G.key(u) = K.residue(u, level)`` (an int on F, a pair on E;
0 and (0, 0) at level 0).  ``G.keys(coords)`` gives the same keys from
integer coordinates (a, b) of units a + b sqrt(d), and ``G.logs[key]`` is the
exponent tuple, so ``G.dlog(u)`` is ``G.logs[G.key(u)]``.  No group holds a
table of its elements: ``logs`` computes the dlog of each key on its first
use.  The Teichmueller exponent comes from the residue mod p.  The 1-units
are digit-peeled on F (powers of u = g^(p-1)) and on unramified E
((1+p) x (1+p sqrt(d))); on ramified E they get a greedy basis, found and
solved in coordinates that the p-adic log makes linear at every odd p
(``_LogSpan``; Neukirch, *Algebraic Number Theory*, II (5.5)).  Generators become field elements once, at the end.
``unit_group`` refuses a level whose residues need more digits than the
field carries.

``G.one_unit_gens(m)`` is a generating set of (1+pi^m O)/(1+pi^n O), not the
whole subgroup: {1+p^m} on F, {1+p^m, 1+p^m sqrt(d)} on unramified E, and
{1+pi^k : m <= k < n} on ramified E, where each step (1+pi^k O)/(1+pi^(k+1) O)
is F_p, generated by the image of 1+pi^k.  A character is trivial on the
subgroup iff it is trivial on these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .padic import Field, PAdicGround, PrecisionError, QuadExtension, UNRAMIFIED


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

    ``key(u)`` is the integer residue of a unit u at this level: an int on F,
    a pair (a mod p^ma, b mod p^mb) on E (``E.residue_digits``).  ``logs``
    maps each key to its exponent tuple, so ``dlog(u)`` is ``logs[key(u)]``,
    and ``keys(coords)`` gives the keys of the units a + b sqrt(d) straight
    from integer coordinates, with no field element.
    """

    field: Field
    level: int
    gens: list
    orders: list[int]
    logs: dict

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def key(self, u):
        """Canonical residue key of a unit at this level."""
        return self.field.residue(self.field.embed(u), self.level)

    def keys(self, coords) -> list:
        """Residue keys of the units a + b sqrt(d), (a, b) integers in coords."""
        E = self.field
        ma, mb = E.residue_digits(self.level)
        Ma, Mb = E.p**ma, E.p**mb
        return [(a % Ma, b % Mb) for a, b in coords]


class FUnitGroup(UnitGroup):
    """(Z/p^n)^x, cyclic for odd p, generated by g.

    The dlog k of a key x is peeled on first use: k0 from the log of g mod p,
    then y = x g^(-k0), a 1-unit and so a power u^m of u = g^(p-1), one
    p-adic digit of m per level; k = k0 + (p-1) m."""

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
        # residue mod p of g^k -> (k, g^-k)
        self._log_mod_p = {pow(g, k, p): (k, pow(g, -k, mod)) for k in range(p - 1)}
        u = pow(g, p - 1, mod)
        # u^(-p^(j-1)) for 1 <= j < level; u = 1 + p l mod p^2 with l a unit,
        # and u^(p^(j-1)) = 1 + p^j l mod p^(j+1) for odd p
        self._steps = [pow(u, -(p ** (j - 1)), mod) for j in range(1, level)]
        self._l_inv = pow((u - 1) // p, -1, p) if level > 1 else 0
        self.logs = _PeeledLogs(self._peel)

    def keys(self, coords) -> list:
        M = self.field.p**self.level
        return [a % M for a, _ in coords]

    def dlog(self, u):
        return self.logs[self.key(u)]

    def _peel(self, key: int) -> tuple:
        p = self.field.p
        mod = p**self.level
        k0, g_inv = self._log_mod_p[key % p]
        y = key * g_inv % mod
        m = 0
        for j, step in enumerate(self._steps, 1):
            # y = 1 + p^j c mod p^(j+1): the digit c / l of m at p^(j-1)
            c = (y - 1) // p**j * self._l_inv % p
            y = y * pow(step, c, mod) % mod
            m += c * p ** (j - 1)
        assert y == 1, "digit peeling failed"
        return (k0 + (p - 1) * m,)

    def one_unit_gens(self, m: int):
        return [Fraction(1 + self.field.p**m)]


def _pmul(x: tuple, y: tuple, d: int, mod: int, mod_b: int | None = None) -> tuple:
    """(a + b sqrt d)(c + e sqrt d) on integer pairs, a mod ``mod`` and b mod
    ``mod_b`` (default ``mod``)."""
    a, b = x
    c, e = y
    return (a * c + d * b * e) % mod, (a * e + b * c) % (mod if mod_b is None else mod_b)


def _ppow(x: tuple, k: int, d: int, mod: int, mod_b: int | None = None) -> tuple:
    out = (1, 0)
    while k:
        if k & 1:
            out = _pmul(out, x, d, mod, mod_b)
        x = _pmul(x, x, d, mod, mod_b)
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

    def dlog(self, u):
        return self.logs[self.key(u)]

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


class _LogSpan:
    """A span of 1-units of a ramified group at level n >= 2, in coordinates
    that are linear on the 1-units at every odd p.

    U^1 = <1 + pi> U^2.  A 1-unit x = a + b sqrt(d) has the coordinates
    vec x = (c, A, B): c = b mod p, y = x (1 + pi)^(-c) lies in U^2, and
    log y = p (A + B sqrt(d)) mod pi^n.  The log maps U^2/U^n isomorphically
    onto pi^2 O/pi^n O, as 2 > e/(p - 1) for e = 2 at every odd p (Neukirch,
    *Algebraic Number Theory*, II (5.5)).  So vec is an isomorphism of
    U^1/U^n onto Z^3/R, R spanned by (p, -vec (1 + pi)^p), (0, P, 0) and
    (0, 0, Q), P = p^(ceil(n/2)-1), Q = p^(floor(n/2)-1).  Roots of unity in
    U^1 (the cube roots of unity in ramified-up E at p = 3) are torsion of
    Z^3/R like any other element.

    The span of 1-units h_i maps onto the lattice L = R + sum Z vec h_i, held
    in Hermite form: three rows, upper triangular, each with the coefficients
    t_i for which it is sum t_i vec h_i modulo R.  Membership, the order of x
    modulo the span and the exponents of x over the h_i all come from the
    triangular solve of vec x against these rows."""

    def __init__(self, group: "ERamUnitGroup"):
        self.group = group
        p, n = group.field.p, group.level
        Ma, Mb = group._mods
        # log(1 + z) = sum_k (-1)^(k+1) z^k / k.  With z in pi^2 O the k-th
        # term has ord >= 2 (k - v_p(k)), which is >= n for every k >= n; the
        # terms kept are those below n.  z^k is formed mod pi^(n + 2V), p^V
        # the largest p^v kept, so that z^k / p^v is exact mod pi^n.
        self._terms = {}
        for k in range(1, n):
            v = group.field.ground.val(k)
            if 2 * (k - v) < n:
                self._terms[k] = (p**v, (-1) ** (k + 1) * pow(k // p**v, -1, Ma))
        lift = max((pv for pv, _ in self._terms.values()), default=1)
        self._top = max(self._terms, default=0)
        self._lift = (Ma * lift, Mb * lift)
        # (1 + pi)^(-c), 0 <= c < p
        self._shifts = [group._pow(group._inv((1, 1)), c) for c in range(p)]
        _, A, B = self.vec(group._pow((1, 1), p))
        self._rel = [(p, -A, -B), (0, Ma // p, 0), (0, 0, Mb // p)]
        self._vecs: list[tuple] = []
        self._orders: list[int] = []
        self._hermite()

    def vec(self, x: tuple) -> tuple:
        """(c, A, B) of a 1-unit x = (a, b), any lift of its residue."""
        g = self.group
        p, d = g.field.p, g.field.d
        c = x[1] % p
        y = g._mul(x, self._shifts[c])
        La, Lb = self._lift
        z = ((y[0] - 1) % La, y[1] % Lb)
        a = b = 0
        zk = (1, 0)
        for k in range(1, self._top + 1):
            zk = _pmul(zk, z, d, La, Lb)
            if k in self._terms:
                pv, t = self._terms[k]
                a += zk[0] // pv * t
                b += zk[1] // pv * t
        Ma, Mb = g._mods
        a, b = a % Ma, b % Mb
        assert a % p == b % p == 0, "the log of U^2 lies in p O"
        return c, a // p, b // p

    def _hermite(self) -> None:
        r = len(self._vecs)
        rows = [w + (0,) * r for w in self._rel]
        rows += [w + tuple(int(i == j) for j in range(r)) for i, w in enumerate(self._vecs)]
        h1, rows = _column_gcd(rows, 0)
        h2, rows = _column_gcd(rows, 1)
        h3, _ = _column_gcd(rows, 2)
        self._rows = h1[:3], h2[1:3], h3[2]
        # the coefficients of the three rows on each h_i
        self._tails = list(zip(h1[3:], h2[3:], h3[3:]))
        self.max_exp = max(self._order_exp(w) for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def _solve(self, w: tuple):
        """Exponents of the vector w over the vec h_i, modulo their orders,
        or None where w is outside L."""
        (h11, h12, h13), (h22, h23), h33 = self._rows
        c1, r = divmod(w[0], h11)
        if r:
            return None
        c2, r = divmod(w[1] - c1 * h12, h22)
        if r:
            return None
        c3, r = divmod(w[2] - c1 * h13 - c2 * h23, h33)
        if r:
            return None
        return tuple(
            (c1 * t1 + c2 * t2 + c3 * t3) % m for (t1, t2, t3), m in zip(self._tails, self._orders)
        )

    def _order_exp(self, w: tuple) -> int:
        p, j = self.group.field.p, 0
        while self._solve(w) is None:
            w = tuple(p * x for x in w)
            j += 1
        return j

    @property
    def full(self) -> bool:
        return self.max_exp == 0

    def order_exp(self, x: tuple) -> int:
        """Smallest j with x^(p^j) in the span."""
        return self._order_exp(self.vec(x))

    def exps(self, x: tuple) -> tuple:
        """The exponents of x, a 1-unit of the span, over the h_i."""
        return self._solve(self.vec(x))

    def add(self, h: tuple, order: int) -> None:
        self._vecs.append(self.vec(h))
        self._orders.append(order)
        self._hermite()


def _column_gcd(rows: list, i: int) -> tuple:
    """Integer row operations on ``rows``: a row whose entry i is the
    positive gcd of column i, and the other rows, each with entry i zero."""
    head, rest = rows[0], []
    for row in rows[1:]:
        while row[i]:
            q = head[i] // row[i]
            head, row = row, tuple(x - q * y for x, y in zip(head, row))
        rest.append(row)
    return (head if head[i] > 0 else tuple(-x for x in head)), rest


class ERamUnitGroup(UnitGroup):
    """(O_E/pi^n)^x for ramified E: Teichmueller x a greedy 1-unit basis.

    Everything runs on integer pairs (a mod p^ceil(n/2), b mod p^floor(n/2))
    = a + b sqrt(d), the keys of ``E.residue``; the generators become
    ``E.elem(a, b)`` only at the end.  The basis is the Teichmueller
    generator followed by a greedy basis of the 1-units: the first candidate
    1 + pi (a + b sqrt(d)), a-major, of maximal order modulo the span so far,
    corrected by the span so that its order is exact.  The span is a lattice
    in the coordinates of ``_LogSpan``, at every odd p.  ``logs`` peels each
    key on first use: the Teichmueller exponent from the residue mod p, the
    1-unit exponents from one ``_LogSpan.vec`` and one triangular solve."""

    def __init__(self, E: QuadExtension, level: int):
        self.field = E
        self.level = level
        if level == 0:
            self.gens, self.orders = [], []
            self.logs = {(0, 0): ()}
            return
        p = E.p
        ma, mb = E.residue_digits(level)
        self._mods = (p**ma, p**mb)
        # Teichmueller part comes from the ground field (residue field is F_p)
        g = _primitive_root(p)
        s = pow(p**level, -1, p - 1)
        omega = (pow(g, (p**level) * s, p**ma), 0)
        # residue mod p of omega^k -> (k, omega^-k)
        self._teich = {
            pow(omega[0], k, p): (k, self._pow(omega, (p - 1 - k) % (p - 1))) for k in range(p - 1)
        }
        basis = [(omega, p - 1)]
        if level > 1:  # at level 1 there are no 1-units
            self._span = _LogSpan(self)
            basis += self._one_unit_basis()
        self.gens = [E.elem(*h) for h, _ in basis]
        self.orders = [m for _, m in basis]
        self.logs = _PeeledLogs(self._peel)

    def _mul(self, x: tuple, y: tuple) -> tuple:
        return _pmul(x, y, self.field.d, *self._mods)

    def _pow(self, x: tuple, k: int) -> tuple:
        return _ppow(x, k, self.field.d, *self._mods)

    def _inv(self, x: tuple) -> tuple:
        """(a - b sqrt(d)) / N with N = a^2 - d b^2, a unit."""
        a, b = x
        Ma, Mb = self._mods
        n_inv = pow(a * a - self.field.d * b * b, -1, Ma)
        return a * n_inv % Ma, -b * n_inv % Mb

    def _one_unit_basis(self) -> list[tuple]:
        """Basis of the 1-units of O_E/pi^n, via greedy maximal orders.

        ``self._span`` holds the span of the basis so far and grows with each
        basis element until it holds all 1-units.  It knows the largest order
        left (``max_exp``), so the scan stops at the first candidate that
        reaches it, which is the one a full scan would keep.  The a = 0 row,
        1 + d b, is the 1-units of F: a cyclic group generated by 1 + p, so
        the row is skipped unless 1 + p itself reaches ``max_exp``."""
        span = self._span
        p, d = self.field.p, self.field.d
        Ma, Mb = self._mods
        basis: list[tuple] = []
        while not span.full:
            best, best_j = None, 0
            a0 = 0 if span.order_exp(((1 + p) % Ma, 0)) == span.max_exp else 1
            # 1 + pi (a + b sqrt(d)) = (1 + d b) + a sqrt(d), r = a + b sqrt(d) mod pi^(n-1)
            for x in (((1 + d * b) % Ma, a) for a in range(a0, Mb) for b in range(Ma // p)):
                j = span.order_exp(x)
                if j > best_j:
                    best, best_j = x, j
                    if j == span.max_exp:
                        break
            g, m = best, p**best_j
            # correct so that g^m = 1 exactly (classical basis lemma)
            corr = (1, 0)
            for (h, _), t in zip(basis, span.exps(self._pow(g, m))):
                assert t % m == 0, "basis correction must divide"
                corr = self._mul(corr, self._pow(h, t // m))
            g = self._mul(g, self._inv(corr))
            basis.append((g, m))
            span.add(g, m)
        return basis

    def _peel(self, key: tuple) -> tuple:
        k, omega_inv = self._teich[key[0] % self.field.p]
        if self.level == 1:
            return (k,)
        return (k,) + self._span.exps(self._mul(key, omega_inv))

    def dlog(self, u):
        return self.logs[self.key(u)]

    def one_unit_gens(self, m: int):
        """1 + pi^k for m <= k < level: each step (1 + pi^k O)/(1 + pi^(k+1) O)
        is F_p, generated by the image of 1 + pi^k.  pi^k = d^(k//2) sqrt(d)^(k%2)."""
        E: QuadExtension = self.field
        return [
            E.elem(1, E.d ** (k // 2)) if k % 2 else E.elem(1 + E.d ** (k // 2))
            for k in range(m, self.level)
        ]


@lru_cache(maxsize=None)
def unit_group(K: Field, level: int) -> UnitGroup:
    """(O_K/pi^level)^x.  Raises PrecisionError, before building anything,
    where its residues need more p-adic digits than K carries."""
    digits = level if isinstance(K, PAdicGround) else max(K.residue_digits(level))
    if digits > K.ground.precision:
        raise PrecisionError(
            f"unit group of level {level} needs p^{digits} > precision {K.ground.precision}"
        )
    if isinstance(K, PAdicGround):
        return FUnitGroup(K, level)
    if K.ext_type == UNRAMIFIED:
        return EUnramUnitGroup(K, level)
    return ERamUnitGroup(K, level)
