"""Unit groups (O_K/pi^n)^x with explicit generators and discrete logarithms.

Multiplicative characters are stored as root-of-unity images of these
generators, so every character evaluation funnels through a discrete log.
Logs are keyed by integer residues: a key is the residue of a unit u at the
group's level, ``G.key(u) = K.residue(u, level)`` (an int on F, a pair on E;
0 and (0, 0) at level 0).  ``G.coord_key(a, b)`` gives the same key from
integer coordinates (a, b) of a unit a + b sqrt(d), and ``G.logs[key]`` is the
exponent tuple, so ``G.dlog(u)`` is ``G.logs[G.key(u)]``.  ``logs`` computes
the dlog of each key on its first use.  Every group peels a key the same way
(``UnitGroup._peel``), on integer pairs a + b sqrt(d) (b = 0 on F): a
Teichmueller table maps the residue mod pi to k and the inverse of the k-th
power of the lift, and the 1-unit left over is solved in coordinates that
the p-adic log makes linear at every odd p (``_LogSpan``; Neukirch,
*Algebraic Number Theory*, II (5.5)).  The 1-unit basis is u = g^(p-1) on
F, whose one generator g takes the dlog k + (p-1) m; (1+p) x (1+p sqrt(d))
on unramified E; and a greedy basis on ramified E.  Generators become field
elements once, at the end.  ``unit_group`` refuses a level whose residues
need more digits than the field carries.

Point dlogs peel (``logs``).  A sum over the whole group needs none:
``G.walk()`` enumerates the products of generator powers, one pair product
per unit, in ``itertools.product`` order of their exponents, so a unit's
exponents are its position.  The oracle's shell sums take their units in
walk order (``characters.shell_cyc``) and over a whole group read the walk
alone, so they share no dlog code with the closed forms.

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
from itertools import accumulate, repeat

from .padic import Field, PAdicGround, PrecisionError, QuadExtension, UNRAMIFIED, _prime_factors, _vp


@lru_cache(maxsize=None)
def _residue_generator(p: int, q: int, d: int) -> tuple:
    """The first a + b sqrt(d), a-major, that generates F_q^x; b = 0 where
    q = p, so on F and ramified E it is the least primitive root mod p.
    Cached: it depends on the field alone, not on the group's level."""
    factors = _prime_factors(q - 1)
    for a in range(p):
        for b in range(q // p):
            if (a or b) and all(_ppow((a, b), (q - 1) // ell, d, p) != (1, 0) for ell in factors):
                return a, b
    raise ValueError(f"no generator of F_{q}^x found")


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


def _times_powers(units, h: tuple, m: int, mul):
    """x, x h, ..., x h^(m-1) for each x of ``units``: m - 1 products each."""
    for x in units:
        yield from accumulate(repeat(h, m - 1), mul, initial=x)


class _PeeledLogs(dict):
    """key -> dlog, each entry computed by ``peel`` on first use."""

    def __init__(self, peel):
        super().__init__()
        self.peel = peel

    def __missing__(self, key):
        out = self[key] = self.peel(key)
        return out


class UnitGroup:
    """Abstract base: generators, orders, and dlog for (O_K/pi^n)^x.

    ``key(u)`` is the integer residue of a unit u at this level: an int on F,
    a pair (a mod p^ma, b mod p^mb) on E (``E.residue_digits``).  ``logs``
    maps each key to its exponent tuple, so ``dlog(u)`` is ``logs[key(u)]``,
    and ``coord_key(a, b)`` gives the key of the unit a + b sqrt(d) straight
    from integer coordinates, with no field element.

    Everything runs on integer pairs (a mod Ma, b mod Mb) = a + b sqrt(d),
    (Ma, Mb) = ``_mods``; on F, Mb = 1 and b is 0.  The first basis element
    is a lift of a generator of F_q^x, and ``_teich`` maps the residue mod pi
    of its k-th power to (k, its inverse).  The rest is a basis of the
    1-units, held in ``_span`` (``_LogSpan``).  ``_peel`` reads k off the
    residue of a key, and one span solve gives the exponents of the 1-unit
    left over.  ``_pairs`` keeps the generators as integer pairs, which
    ``walk`` multiplies."""

    field: Field
    level: int
    gens: list
    orders: list[int]
    logs: dict

    def __init__(self, K: Field, level: int):
        self.field, self.level = K, level
        # F has no sqrt(d): b is 0 mod Mb = 1 there, so d never enters
        self._d = getattr(K, "d", 0)
        ma, mb = (level, 0) if isinstance(K, PAdicGround) else K.residue_digits(level)
        self._mods = (K.p**ma, K.p**mb)
        if level == 0:
            self.gens, self.orders, self._pairs, self.logs = [], [], [], {self.key(1): ()}
            return
        basis = self._basis(_residue_generator(K.p, K.q, self._d))
        self._teich = self._teich_table(basis[0][0])
        self._pairs = [h for h, _ in basis]
        # b is 0 on F, whose elem takes a alone
        self.gens = [K.elem(*h) if h[1] else K.elem(h[0]) for h in self._pairs]
        self.orders = [m for _, m in basis]
        self.logs = _PeeledLogs(self._peel)

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def walk(self):
        """The units prod g_j^(e_j) as integer pairs, the i-th with the i-th
        exponents of ``itertools.product(*map(range, orders))``: one pair
        product per unit, no peel.  The generators being a basis, it meets
        each of the ``size`` units once, and raises ArithmeticError if not.
        It starts from 1 reduced mod ``_mods``: at level 0 that is (0, 0),
        the one unit, which no generator multiplies."""
        Ma, Mb = self._mods
        units = iter([(1 % Ma, 0)])
        for h, m in zip(self._pairs, self.orders):
            units = _times_powers(units, h, m, self._mul)
        seen = bytearray(Ma * Mb)
        for a, b in units:
            seen[a * Mb + b] = 1
            yield a, b
        if seen.count(1) != self.size:
            raise ArithmeticError(f"the walk met {seen.count(1)} of the {self.size} units")

    def key(self, u):
        """Canonical residue key of a unit at this level."""
        return self.field.residue(self.field.embed(u), self.level)

    def coord_key(self, a: int, b: int):
        """The residue key of the unit a + b sqrt(d), a and b integers."""
        Ma, Mb = self._mods
        return a % Ma, b % Mb

    def _basis(self, gbar: tuple) -> list[tuple]:
        """(h, order) of each generator on E: the Teichmueller lift omega of
        gbar, of order q - 1, then the 1-unit basis."""
        q = self.field.q
        omega = self._pow(gbar, q ** (self.level - 1))
        return [(omega, q - 1)] + (self._one_unit_basis() if self.level > 1 else [])

    def _mod_pi(self, x: tuple) -> tuple:
        """The residue of x mod pi: (a mod p, b mod p) on unramified E,
        (a mod p, 0) on F and ramified E."""
        p = self.field.p
        return x[0] % p, x[1] % (self.field.q // p)

    def _teich_table(self, h: tuple) -> dict:
        """residue mod pi of h^k -> (k, h^-k) for 0 <= k < q - 1, h a lift
        of a generator of F_q^x.  One chain of powers serves both sides:
        h^(q-1) = 1 mod pi, so h^k = h^-(q-1-k) mod pi."""
        q1, h_inv = self.field.q - 1, self._inv(h)
        invs = [(1, 0)]
        for _ in range(q1 - 1):
            invs.append(self._mul(invs[-1], h_inv))
        return {self._mod_pi(invs[-k % q1]): (k, invs[k]) for k in range(q1)}

    def _peel(self, key) -> tuple:
        x = key if isinstance(key, tuple) else (key, 0)
        k, lift_inv = self._teich[self._mod_pi(x)]
        if self.level == 1:
            return (k,)
        exps = self._span.exps(self._mul(x, lift_inv))
        if exps is None:
            raise ArithmeticError(f"the 1-unit left of the key {key} lies outside the span")
        return self._combine(k, exps)

    def _combine(self, k: int, exps: tuple) -> tuple:
        return (k,) + exps

    def _mul(self, x: tuple, y: tuple) -> tuple:
        return _pmul(x, y, self._d, *self._mods)

    def _pow(self, x: tuple, k: int) -> tuple:
        return _ppow(x, k, self._d, *self._mods)

    def _inv(self, x: tuple) -> tuple:
        """(a - b sqrt(d)) / N with N = a^2 - d b^2, a unit."""
        a, b = x
        Ma, Mb = self._mods
        n_inv = pow(a * a - self._d * b * b, -1, Ma)
        return a * n_inv % Ma, -b * n_inv % Mb


class FUnitGroup(UnitGroup):
    """(Z/p^n)^x, cyclic for odd p, generated by g: the least primitive root
    mod p, moved up by p where g^(p-1) = 1 mod p^2 so that it generates mod
    every p^n.

    The table of g gives k0 and g^(-k0) from x mod p; y = x g^(-k0) is a
    1-unit, a power u^m of the span's one basis element u = g^(p-1), and the
    dlog of x is k0 + (p-1) m."""

    def coord_key(self, a: int, b: int):
        return a % self._mods[0]

    def dlog(self, u):
        return self.logs[self.key(u)]

    def _basis(self, gbar: tuple) -> list[tuple]:
        p, n = self.field.p, self.level
        g = gbar[0]
        if n >= 2 and pow(g, p - 1, p * p) == 1:
            g += p
        if n > 1:
            self._span = _LogSpan(self, [(self._pow((g, 0), p - 1), p ** (n - 1))])
        return [((g, 0), (p - 1) * p ** (n - 1))]

    def _combine(self, k: int, exps: tuple) -> tuple:
        return (k + (self.field.p - 1) * exps[0],)

    def one_unit_gens(self, m: int):
        return [Fraction(1 + self.field.p**m)]


class EUnramUnitGroup(UnitGroup):
    """(O_E/p^n)^x for unramified E: Teichmueller x two 1-unit lines.

    The 1-unit basis is 1 + p and 1 + p sqrt(d), each of order p^(n-1)."""

    def dlog(self, u):
        return self.logs[self.key(u)]

    def _one_unit_basis(self) -> list[tuple]:
        p, m = self.field.p, self.field.p ** (self.level - 1)
        basis = [((1 + p, 0), m), ((1, p), m)]
        self._span = _LogSpan(self, basis)
        return basis

    def one_unit_gens(self, m: int):
        E: QuadExtension = self.field
        p = E.p
        return [E.elem(1 + p**m), E.elem(1, p**m)]


class _LogSpan:
    """A span of 1-units of a group at level n >= 2, in coordinates that
    are linear on the 1-units at every odd p.

    With e the ramification index of the field, the p-adic log maps
    U^e/U^n isomorphically onto p O/pi^n O, as e > e/(p - 1) at every odd p
    (Neukirch, *Algebraic Number Theory*, II (5.5)).  A 1-unit x = a + b
    sqrt(d) has the coordinates vec x = (c, A, B): y = x (1 + pi)^(-c) lies
    in U^e, and log y = p (A + B sqrt(d)) mod pi^n.  So vec is an
    isomorphism of U^1/U^n onto Z^3/R, with P = Ma/p and Q = Mb/p
    (``group._mods``):

    * e = 2 (ramified E): U^1 = <1 + pi> U^2, c = b mod p, and R is spanned
      by (p, -vec (1 + pi)^p), (0, P, 0) and (0, 0, Q), P = p^(ceil(n/2)-1),
      Q = p^(floor(n/2)-1).  Roots of unity in U^1 (the cube roots of unity
      in ramified-up E at p = 3) are torsion of Z^3/R like any other
      element.
    * e = 1 (F and unramified E): U^1 = U^e, so c = 0 and there is no shift;
      R is spanned by (1, 0, 0), (0, P, 0) and (0, 0, max(Q, 1)), P = Q =
      p^(n-1) on unramified E and Q = 1 on F, where b is 0 mod Mb = 1.

    The span of 1-units h_i, the (h_i, order) pairs of ``basis`` and of each
    ``add``, maps onto the lattice L = R + sum Z vec h_i, held in Hermite
    form, computed at init and again after each ``add``: three rows, upper
    triangular, each with the coefficients t_i for which it is sum t_i vec
    h_i modulo R.  Membership, the order of x modulo the span and the
    exponents of x over the h_i all come from the triangular solve of vec x
    against these rows."""

    def __init__(self, group: UnitGroup, basis=()):
        self.group = group
        K, n = group.field, group.level
        p, e = K.p, K.e
        Ma, Mb = group._mods
        # log(1 + z) = sum_k (-1)^(k+1) z^k / k.  With z in p O = pi^e O the
        # k-th term has ord >= e (k - v_p(k)) >= e k / 2, which is >= n for
        # every k >= 2n; the terms kept are those below n.  z^k is formed mod
        # pi^(n + eV), p^V the largest p^v kept, so that z^k / p^v is exact
        # mod pi^n.
        self._terms = {}
        for k in range(1, 2 * n):
            v = _vp(k, p)
            if e * (k - v) < n:
                self._terms[k] = (p**v, (-1) ** (k + 1) * pow(k // p**v, -1, Ma))
        lift = max((pv for pv, _ in self._terms.values()), default=1)
        self._top = max(self._terms, default=0)
        self._lift = (Ma * lift, Mb * lift)
        # (1 + pi)^(-c) for each c; c = b mod p on ramified E, 0 for e = 1
        self._shifts = [(1, 0)]
        row = (1, 0, 0)
        if e == 2:
            self._shifts = [group._pow(group._inv((1, 1)), c) for c in range(p)]
            _, A, B = self.vec(group._pow((1, 1), p))
            row = (p, -A, -B)
        self._rel = [row, (0, Ma // p, 0), (0, 0, max(Mb // p, 1))]
        self._vecs = [self.vec(h) for h, _ in basis]
        self._orders = [order for _, order in basis]
        self._hermite()

    def vec(self, x: tuple) -> tuple:
        """(c, A, B) of a 1-unit x = (a, b), any lift of its residue."""
        g = self.group
        p, d = g.field.p, g._d
        c = x[1] % len(self._shifts)
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
        assert a % p == b % p == 0, "the log of U^e lies in p O"
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
        self._max_exp = None

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
    def max_exp(self) -> int:
        """The largest order exponent of a 1-unit modulo the span, computed
        when first read after a change (only the ramified basis scan reads it)."""
        if self._max_exp is None:
            self._max_exp = max(self._order_exp(w) for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        return self._max_exp

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

    The basis is the Teichmueller generator followed by a greedy basis of
    the 1-units: the first candidate 1 + pi (a + b sqrt(d)), a-major, of
    maximal order modulo the span so far, corrected by the span so that its
    order is exact.  The span is a lattice in the coordinates of
    ``_LogSpan``, at every odd p."""

    def _one_unit_basis(self) -> list[tuple]:
        """Basis of the 1-units of O_E/pi^n, via greedy maximal orders.

        ``self._span`` holds the span of the basis so far and grows with each
        basis element until it holds all 1-units.  It knows the largest order
        left (``max_exp``), so the scan stops at the first candidate that
        reaches it, which is the one a full scan would keep.  The a = 0 row,
        1 + d b, is the 1-units of F: a cyclic group generated by 1 + p, so
        the row is skipped unless 1 + p itself reaches ``max_exp``."""
        span = self._span = _LogSpan(self)
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
