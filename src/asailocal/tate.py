"""Tate local factors L, eps, gamma for characters of F^x and E^x.

gamma is *defined* here by the functional-equation ratio
Z(1-s, chi^{-1}, Phi^) / Z(s, chi, Phi).  :func:`tate_gamma` and
:func:`tate_eps` are closed forms; :func:`certify_gamma`, the one
certification step, checks a closed form against that ratio for three test
functions Phi, each one modulated box (:class:`ModBox`), at the points of a
check grid.  Its callers are the ``tate`` command, :func:`langlands_constant`
and ``asai.gamma_rs(inp, check=True)``.  Each zeta integral is built once
per Phi as terms that do not depend on s (finite shell and coset sums, and
closed-form geometric tails) and then evaluated at each point.  Of those
terms' inputs, the ones that depend on values alone are kept per value and
shared by every certification that meets them: the dual chi^{-1}
(:func:`_dual`), the transform Phi^ (:func:`box_fourier`), the exact
integrals (below) and each one's float, which a ``Cyc`` keeps once summed.
The terms, their values at s and the comparison run on every call.  A
disagreement is an internal error, not a tolerance failure.  The oracle
never calls the closed form's :func:`gauss_sum`.

The closed form's Gauss sum is one stationary-phase loop at every
conductor n >= 1: one term at even n and q terms, a quadratic Gauss sum over
the residue field, at odd n, around the alpha of
:func:`~asailocal.characters.alpha_chi`; at n = 1 alpha is 0 and the q - 1
terms are the units of the residue field.  It builds no shell frame, so its
cost does not grow with the shell, and of the oracle's code it shares only
the point dlogs of the unit groups.

The local integrals int chi(x) psi(-s x) dx over a shell {ord x = j} or a
unit coset t0 + pi^L O (:func:`shell_integral`, :func:`coset_integral`),
with dx self-dual for psi, are exact ``Cyc`` values, and this is the one
implementation of them: the Tate oracle converts them to floats, the
Whittaker oracle (:mod:`asailocal.whittaker`) keeps them exact.  Both are
cached, coset integrals like shells, and shared by the two oracles; the
Tate oracle keys them on the unit part of chi (:func:`_unit_part`), so
characters that differ only in t or lam share them.  sqrt(p),
which self-dual volumes bring in, is the quadratic Gauss sum
(:func:`_sqrt_prime`).

eps is derived from gamma in one place, :func:`eps_from_gamma`, for one
character (:func:`tate_eps`) and for the products of characters that make
up the Asai factors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import hypot, inf, isqrt, lcm
from operator import mul

from .characters import (
    AddChar,
    MultChar,
    Phase,
    _alpha_thetas,
    _beta_basis,
    _num_exp,
    conductor_add,
    omega_quadratic,
    shell_cyc,
)
from .cyclotomic import Cyc, _make
from .factors import (
    LEAST_NORMAL,
    NonArchFactor,
    PHI_INDEPENDENCE_TOL,
    PoleError,
    in_range,
    off_poles,
    power,
    relative_deviation,
)
from .padic import Value, _check_shell_modulus, _set, legendre

_CHECK_GRID = (0.7, 1.3, 0.4 - 0.8j)


class ConsistencyError(AssertionError):
    """The closed form disagreed with the functional-equation oracle."""


# ---------------------------------------------------------------------------
# L-factors
# ---------------------------------------------------------------------------


def tate_L(chi: MultChar) -> NonArchFactor:
    """L(s, chi): (1 - chi(pi) q^{-s})^{-1} unramified, 1 ramified."""
    q = chi.field.q
    if chi.is_ramified:
        return NonArchFactor.one(q)
    return NonArchFactor.euler_inverse(q, chi.t_full())


def l_product(chars, q: int) -> NonArchFactor:
    """prod L(s, chi) over ``chars``, each rewritten over base q, multiplied
    left to right from the first factor."""
    return reduce(mul, (tate_L(chi).rebase(q) for chi in chars))


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def gauss_sum(chi: MultChar, psi: AddChar) -> complex:
    """G(chi, psi) = sum chi^{-1}(x) psi(x) over the shell ord x = c - n mod
    p^c, n = a(chi) and c = c(psi), as a floating complex.

    G is the stationary-phase closed form (Bushnell-Henniart, *The Local
    Langlands Conjecture for GL(2)*, 23.6-23.8; Tate, "Number theoretic
    background", Corvallis 1979, 3).  With k = ceil(n/2) and alpha =
    :func:`alpha_chi` at n >= 2, the shell's coset x (1 + p^k) sums to
    q^(n-k) chi^{-1}(x) psi(x) where x = alpha mod p^(c-k), and to 0
    elsewhere.  So G is q^(n-k) times the sum over the q^(2k-n) classes of
    alpha + p^(c-k) mod p^(c-n+k): x = alpha + pi^(c-k) r for r = 0 alone
    at even n, and for r over O/p (a quadratic Gauss sum) at odd n.  n = 1
    is the case alpha = 0: chi is trivial on 1 + p, the classes are
    pi^(c-1) r for the units r of O/p, and q^(n-k) = 1.

    Every x has ord v = c - n, so x = pi^v (A + B sqrt(d)) with A + B sqrt(d)
    = u0 + pi^(n-k) r, u0 = alpha pi^-v the unit part of alpha (0 at n = 1).
    A term depends on x mod p^(c-n+k) only, so u0 may be any lift mod p^n,
    and (A, B) are integers.  u0 is read off integers too: alpha_chi's
    numerators theta_j (``_alpha_thetas``) against the integer coordinates
    of X_j = b_j / (psi_mult pi^(c-n+k)), b_j alpha_chi's beta basis, give
    u0 = (theta_1 X_1 + theta_2 X_2) / unit_den as an unreduced integer
    triple, whose valuation and residues mod p^n need no field element.
    Each term is then read off integers
    (:func:`_stationary_line`): minus chi's unit numerator at the dlog of
    A + B sqrt(d), and psi's numerator s = A psi_a + B psi_b.  The term is
    ((t^-v e(-u/den)) q^(lam v)) e(s/P), multiplied in that order, the
    float chi^{-1}(x) psi(x) of an element-by-element loop, and the terms
    are summed in ``K.shell`` order at n = 1, so that sum is the loop's bit
    for bit.  A chi presented above its conductor at n >= 2 has alpha of
    larger order, no class in the shell, and G = 0.  The shell's modulus n
    must fit the precision window, as for the oracle's shell sums."""
    if not chi.is_ramified:
        raise ValueError("no primitive Gauss sum for an unramified character")
    K, n = chi.field, chi.n
    _check_shell_modulus(n, K.ground.precision)
    offsets, (psi_a, psi_b), P, ((x1a, x1b), (x2a, x2b), D0) = _stationary_line(psi, n)
    if n == 1:
        A0 = B0 = 0
    else:
        t1, t2 = _alpha_thetas(chi)
        A, B, D = t1 * x1a + t2 * x2a, t1 * x1b + t2 * x2b, D0 * chi.unit_den
        if not (A or B) or K._val(A, B, D) != 0:
            return 0j
        A0, B0 = K.ground._residue(A, D, n), K.ground._residue(B, D, n)
    v = conductor_add(psi) - n
    tv, scale = power(chi.t.inv().value(), v), power(K.q, complex(chi.lam * v))
    in_range(tv * scale)
    logs, key, den = chi.group.logs, chi.group.coord_key, chi.unit_den
    out = 0j
    for dA, dB in offsets:
        A, B = A0 + dA, B0 + dB
        u = chi._unit_num(logs[key(A, B)])
        out += tv * _num_exp(-u, den) * scale * _num_exp(A * psi_a + B * psi_b, P)
    return K.q ** (n - (n + 1) // 2) * out


@lru_cache(maxsize=64)
def _stationary_line(psi: AddChar, n: int) -> tuple:
    """What :func:`gauss_sum`'s terms at conductor n share across
    characters, with k = ceil(n/2) and v = c(psi) - n: the integer
    coordinates of pi^(n-k) r, which step the unit part, over the residues
    r = a + b sqrt(d) of O/p, or r = 0 alone at even n; at n = 1, where the
    unit part starts from 0, over the units r alone, in ``K.shell_coords``
    order.  And psi's angles at pi^v and pi^v sqrt(d) as numerators over P,
    so that psi at pi^v (A + B sqrt(d)) has the numerator A psi_a + B psi_b.
    On ramified E at n = 1 every B is 0, and psi is trivial at
    pi^v sqrt(d), so its angle there needs no digit of the window.  Last,
    the integer coordinates of X_j = b_j / (psi_mult pi^(v+k)), alpha_chi's
    step to alpha taken on to the unit part, over one denominator D0, ((X_1a, X_1b), (X_2a, X_2b), D0), from which the base
    point u0 is read."""
    K, k = psi.field, (n + 1) // 2
    rs = [] if n == 1 else [(0, 0)]
    if 2 * k > n:
        rs += K.shell_coords(n - k, 1)
    (r1, s1), (r2, s2) = (map(int, K.coords(f)) for f in K.shell_basis(n - k))
    offsets = [(a * r1 + b * r2, a * s1 + b * s2) for a, b in rs]
    v = conductor_add(psi) - n
    angles = [psi.angle(e) for e in K.shell_basis(v)]
    P = lcm(*(t.denominator for t in angles))
    nums = tuple(t.numerator * (P // t.denominator) for t in angles)
    w = 1 / (psi.mult * K.uniformizer() ** (k + v))
    X = [K.coords(b * w) for b in _beta_basis(K)]
    D0 = lcm(*(z.denominator for xy in X for z in xy))
    return offsets, nums, P, (*(tuple(int(z * D0) for z in xy) for xy in X), D0)


# ---------------------------------------------------------------------------
# exact local integrals: shells and unit cosets, shared with the Whittaker oracle
# ---------------------------------------------------------------------------


def _sqrt_prime(p: int) -> Cyc:
    """sqrt(p) for an odd prime p, exactly: the quadratic Gauss sum
    sum (a/p) e(a/p) is sqrt(p) for p = 1 (mod 4) and i sqrt(p) for
    p = 3 (mod 4).  :func:`_qpow` keeps its multiples."""
    g = _make(p, 1, {a: legendre(a, p) for a in range(1, p)})
    return g if p % 4 == 1 else g * Cyc.root(Fraction(3, 4))


@lru_cache(maxsize=None)
def _qpow(q: int, e) -> Cyc:
    """q^e for integer or half-integer e; q is p or p^2.  Cached: callers
    share the result and never mutate it."""
    fe = Fraction(e)
    if fe.denominator == 1:
        return Cyc.rational(Fraction(q) ** int(fe))
    if fe.denominator != 2:
        raise ValueError(f"{q}^{e}: only integer and half-integer exponents occur")
    r = isqrt(q)
    if r * r == q:
        return Cyc.rational(Fraction(r) ** int(2 * fe))
    return Cyc.rational(Fraction(q) ** int(fe - Fraction(1, 2))) * _sqrt_prime(q)


@lru_cache(maxsize=1024)
def _unit_part(field, n: int, unit_den: int, unit_weights: tuple) -> MultChar:
    """The character with unit data (n, unit_den, unit_weights), t = 1 and
    lam = 0, on which the exact integrals below are cached: characters that
    differ only in t or lam share them.  Cached too, so a zeta integral
    builds no character when the unit part repeats."""
    return MultChar._from_weights(field, n, unit_den, unit_weights, Phase.one(), 0)


@lru_cache(maxsize=256)
def _half_power(q: int, c: int):
    """q ** Fraction(c, 2), in that expression's type: an int or a Fraction
    at even c, a float at odd c.  Cached, as are :func:`_vol` and
    :func:`_ramified_scale`: the float closed forms and the float oracle ask
    for these few constants on every call.  These three are checked by
    ``in_range`` (``power``)."""
    return power(q, Fraction(c, 2))


@lru_cache(maxsize=256)
def _vol(q: int, c: int, level: int = 0) -> float:
    """The self-dual volume q^(c/2) q^-level of pi^level O for a psi of
    conductor c, as a float: float(q ** Fraction(c, 2) * Fraction(q) **
    -level), which at level 0 is float(q ** Fraction(c, 2)) bit for bit."""
    return float(_half_power(q, c) * Fraction(q) ** -level)


@lru_cache(maxsize=256)
def _ramified_scale(q: int, c: int, n: int):
    """q ** (n - c) * q ** (-n + Fraction(c, 2)), the q-power of gamma(s,
    chi, psi) at conductor n >= 1, in that expression's type and bits."""
    return in_range(power(q, n - c) * power(q, -n + Fraction(c, 2)))


@lru_cache(maxsize=256)
def _vol_O(psi: AddChar) -> Cyc:
    """vol(O) = q^(c(psi)/2), the self-dual volume for psi.  Cached: every
    big-cell integral asks for it."""
    return _qpow(psi.field.q, Fraction(conductor_add(psi), 2))


@lru_cache(maxsize=256)
def shell_integral(chi: MultChar, j: int, psi: AddChar, s) -> Cyc:
    """S(j) = int_{ord t = j} chi(t) psi(-s t) dt for s != 0, dt self-dual
    for psi.  x -> psi(s x) has conductor c(psi) - ord s, so no shifted
    character is built.  Cached: the w1 family repeats one shell for every
    u, a Tate certification the shells of chi^{-1}."""
    K = chi.field
    q = K.q
    c = conductor_add(psi) - K.val(s)
    V = _vol_O(psi)
    n = chi.n
    if n >= 1:
        if j != c - n:
            return Cyc.zero()
        return shell_cyc(chi, psi, j, n, -s) * _qpow(q, -(j + n)) * V
    pi_j = K.uniformizer() ** j
    if j >= c:
        w = Fraction(q - 1, q) * Fraction(q) ** -j  # vol of the shell: q^-j - q^-(j+1)
        return chi.cyc(pi_j) * V * Cyc.rational(w)
    if j == c - 1:
        return chi.cyc(pi_j) * V * shell_cyc(None, psi, j, 1, -s) * _qpow(q, -(j + 1))
    return Cyc.zero()


@lru_cache(maxsize=1024)
def coset_integral(chi: MultChar, t0, L: int, psi: AddChar, s) -> Cyc:
    """CT = int_{t0 + pi^L O} chi(t) psi(-s t) dt with ord(t0) < L, dt
    self-dual for psi; s = 0 integrates chi alone.  Cached, as
    :func:`shell_integral` is: a Tate certification meets the same unit
    part (:func:`_unit_part`), coset and multiplier for value-equal
    characters, and callers share the result and never mutate it."""
    K = chi.field
    q = K.q
    V = _vol_O(psi)
    st0 = s * t0
    T1 = K.val(t0)
    if T1 >= L:
        raise ValueError("coset_integral needs ord(t0) < L")
    J = L - T1
    n = chi.n
    # conductor of eta -> psi(-s t0 eta); for s = 0 it is trivial, with none
    c_eff = conductor_add(psi) - K.val(s) - T1 if s != 0 else -inf
    if c_eff > max(J, n):
        # chi(1+eta) only sees eta mod pi^n, so the fine psi-sum runs over a
        # full coset of pi^max(J,n) O on which psi is a nontrivial character
        return Cyc.zero()
    acc = Cyc.zero()
    for k in range(J, n):
        m = max(n - k, c_eff - k, 1)
        acc = acc + shell_cyc(chi, psi, k, m, -st0, shift=True) * _qpow(q, -(k + m))
    Kk = max(J, n)
    if Kk >= c_eff:
        acc = acc + _qpow(q, -Kk)
    inner = acc * V
    pref = chi.cyc(t0) * psi.cyc(-st0) * _qpow(q, -T1)
    return pref * inner


# ---------------------------------------------------------------------------
# exact Tate zeta integrals for modulated boxes (the oracle)
# ---------------------------------------------------------------------------


class ModBox(Value):
    """coef * psi(mult * x) * 1_{center + pi^level O}(x)."""

    __slots__ = _fields = ("coef", "mult", "center", "level")

    def __init__(self, coef: complex, mult, center, level: int):
        _set(self, "coef", coef)
        _set(self, "mult", mult)  # field element or 0
        _set(self, "center", center)  # field element
        _set(self, "level", level)
        _set(self, "_key", (coef, mult, center, level))


@lru_cache(maxsize=256)
def box_fourier(box: ModBox, psi: AddChar) -> ModBox:
    """Transform of a modulated box under f^(y) = int f(x) psi(xy) dx,
    with the self-dual measure of psi.  Cached by the values of box and
    psi: every certification at one (field, conductor, psi) transforms the
    same three default boxes."""
    K = psi.field
    c = conductor_add(psi)
    a, n, m0 = K.embed(box.center), box.level, K.embed(box.mult)
    coef = box.coef * _vol(K.q, c, n) * psi.value(a * m0)
    return ModBox(coef=coef, mult=a, center=-m0, level=c - n)


def zeta_terms(chi: MultChar, psi: AddChar, box: ModBox) -> list:
    """The terms of Z(s, chi, Phi) = int chi(x) |x|^s Phi(x) d^x x for Phi a
    modulated box; d^x x = zeta_K(1) dx / |x|, dx self-dual for psi.

    A term (coef, v, value, None) is coef q^{-v(s-1)} value, one shell or
    coset; a term (coef, start, None, t) is the geometric tail
    coef sum_{v >= start} (t q^{-s})^v of an ideal box where chi is
    unramified, summed in closed form, which is also the meromorphic
    continuation outside the convergence half-plane.  Every character sum
    is done here; :func:`zeta_at` only raises q to powers of s.

    A shell or coset lies in one valuation v, where chi is chi(pi)^v times
    its unit part: its value is the exact integral of the unit part
    (:func:`_unit_part`), converted once, times chi(pi)^v.  So t and lam
    need not be exact.
    """
    K = chi.field
    q = K.q
    c = conductor_add(psi)
    vol_O = _vol(q, c)
    zeta1 = 1.0 / (1.0 - 1.0 / q)
    unit = _unit_part(chi.field, chi.n, chi.unit_den, chi.unit_weights)
    a, n, m0 = K.embed(box.center), box.level, K.embed(box.mult)
    coef = box.coef * zeta1
    terms = []
    if a == 0 or K.val(a) >= n:
        # box is the ideal pi^n O: sum over shells v >= n
        c_eff = None if m0 == 0 else c - K.val(m0)
        if chi.is_ramified:
            if c_eff is None or c_eff - chi.n < n:
                return terms
            v = c_eff - chi.n
        else:
            # geometric part: sum_{v >= start} q^{-v(s-1)} t^v vol q^{-v}(1-1/q)
            start = n if c_eff is None else max(n, c_eff)
            terms.append((coef * vol_O * (1 - 1.0 / q), start, None, chi.t_full()))
            if c_eff is None or c_eff - 1 < n:
                return terms
            v = c_eff - 1
        value = shell_integral(unit, v, psi, -m0)
    else:
        v = K.val(a)
        value = coset_integral(unit, a, n, psi, -m0)
    terms.append((coef, v, value.to_complex() * chi._values(v, (1,))[0], None))
    return terms


def _tail_ratio(t: complex, q: int, s: complex) -> complex:
    """r = t q^{-s}, the ratio of a geometric tail; its sum has a pole at r = 1."""
    r = t * q ** (-s)
    if abs(r - 1) < 1e-13:
        raise PoleError(s)
    return r


def zeta_at(terms, q: int, s: complex) -> complex:
    """Z(s, chi, Phi) from its :func:`zeta_terms`, summed in their order.  A
    summand is coef q^{-v(s-1)} value, multiplied in that order unless that
    first product leaves the normal floats; then coef value comes first, so
    a small coef and a small power of q do not underflow where the summand
    does not.  A summand may still underflow, as the comparison with the
    closed form sees any bits lost there; the total is checked by
    ``in_range``, since a default test function's zeta integral is not 0."""
    total = 0j
    for coef, v, value, t in terms:
        if t is None:
            power_of_q = q ** (-v * (s - 1))
            head = coef * power_of_q
            if LEAST_NORMAL <= hypot(head.real, head.imag) < inf:
                total += head * value
            else:
                total += coef * value * power_of_q
        else:
            r = _tail_ratio(t, q, s)
            total += coef * (r**v / (1 - r))
    if LEAST_NORMAL <= hypot(total.real, total.imag) < inf:
        return total
    return in_range(total, where=s)


@lru_cache(maxsize=256)
def _dual(chi: MultChar) -> MultChar:
    """chi^{-1}, built once per value of chi: a certification asks for it
    once per test function and once more for the check grid's poles."""
    return chi.inv()


def fe_ratio(chi: MultChar, psi: AddChar, box: ModBox, grid) -> list:
    """Z(1-s, chi^{-1}, Phi^) / Z(s, chi, Phi) at each s of ``grid``.

    The transform Phi^ and the terms of both zeta integrals are built once
    for the whole grid.  What does not depend on s is kept per value: the
    dual chi^{-1} (:func:`_dual`), the transform Phi^ (:func:`box_fourier`),
    the exact shell and coset integrals and, on each, its float
    (``Cyc.to_complex``).  The terms themselves, and every value at s, are
    computed on each call.  A pole of either integral raises ``PoleError``,
    and a total out of the float range ``FloatRangeError`` (:func:`zeta_at`),
    at the first point of the grid that hits it.
    """
    q = chi.field.q
    num = zeta_terms(_dual(chi), psi, box_fourier(box, psi))
    den = zeta_terms(chi, psi, box)
    out = []
    for s in grid:
        top = zeta_at(num, q, 1 - s)
        bottom = zeta_at(den, q, s)
        out.append(top / bottom)
    return out


@lru_cache(maxsize=64)
def _default_test_functions(K, n: int) -> tuple:
    """Phi = 1_O (unramified chi, n = 0) or 1_{1+pi^n O} (ramified, of
    conductor n) on K, plus the independence alternates: a unit translate
    and a shrunk box.  Cached: they depend on (K, n) alone."""
    one, zero = K.one(), K.zero()
    if n == 0:
        return ModBox(1.0, zero, zero, 0), ModBox(1.0, zero, zero, 1), ModBox(1.0, zero, one, 1)
    u = K.shell(0, 1)[-1]
    return ModBox(1.0, zero, one, n), ModBox(1.0, zero, u, n), ModBox(1.0, zero, one, n + 1)


# ---------------------------------------------------------------------------
# gamma and eps
# ---------------------------------------------------------------------------


def tate_gamma(chi: MultChar, psi: AddChar) -> NonArchFactor:
    """gamma(s, chi, psi) in closed form, uncertified (:func:`certify_gamma`)."""
    K = chi.field
    q = K.q
    c = conductor_add(psi)
    if chi.is_ramified:
        n = chi.n
        scale, G = _ramified_scale(q, c, n), gauss_sum(chi, psi)
        const = in_range(scale * G, G)
        return NonArchFactor.monomial(q, complex(const), n - c)
    t = chi.t_full()
    const = in_range(_half_power(q, c) * power(t, -c) * power(q, -c))
    return NonArchFactor(
        q,
        c=complex(const),
        m=-c,
        num=((t, 1, 0j),),
        den=((1 / t, -1, 1 + 0j),),
    )


def _check_grid(fac: NonArchFactor, chi: MultChar) -> tuple:
    """``_CHECK_GRID`` moved off the poles (:func:`off_poles`) of the closed
    form and of the geometric tails of Z(s, chi, Phi) and Z(1-s, chi^{-1},
    Phi^).  A ramified chi has a monomial gamma and no tails, so no poles."""
    if chi.is_ramified:
        return _CHECK_GRID
    q = chi.field.q
    t, t_dual = chi.t_full(), _dual(chi).t_full()
    tails = (lambda s: _tail_ratio(t, q, s), lambda s: _tail_ratio(t_dual, q, 1 - s))
    return off_poles(_CHECK_GRID, (fac.eval, *tails))


def phi_deviations(fac: NonArchFactor, chi: MultChar, psi: AddChar):
    """(s, Phi, relative deviation of ``fac`` from the functional-equation
    ratio) for each default test function Phi and each s of the check grid;
    one :func:`fe_ratio` call per Phi.  The three boxes, their transforms
    and chi^{-1} are cached per value; the nine deviations are computed on
    every call."""
    grid = _check_grid(fac, chi)
    want = [fac.eval(s) for s in grid]
    for box in _default_test_functions(chi.field, chi.n):
        for s, w, got in zip(grid, want, fe_ratio(chi, psi, box, grid)):
            yield s, box, relative_deviation(got, w, abs(w))


def certify_gamma(fac: NonArchFactor, chi: MultChar, psi: AddChar) -> None:
    """Raise ``ConsistencyError`` unless every :func:`phi_deviations` of ``fac``
    from gamma(s, chi, psi) is within ``PHI_INDEPENDENCE_TOL``; a NaN
    deviation is not."""
    for s, box, dev in phi_deviations(fac, chi, psi):
        if not dev <= PHI_INDEPENDENCE_TOL:
            raise ConsistencyError(
                f"gamma oracle mismatch: dev={dev:.3e} at s={s} (Phi={box})"
            )


def eps_from_gamma(gamma: NonArchFactor, chars, q: int) -> NonArchFactor:
    """eps = gamma * L(s, chars) / L(1-s, chars^{-1}), with L the
    :func:`l_product` over base q.  eps is structurally a monomial; one that
    is not is a ``ConsistencyError``."""
    dual = l_product([chi.inv() for chi in chars], q)
    eps = gamma * l_product(chars, q) / dual.reflect()
    try:
        eps.as_monomial()
    except ValueError as exc:
        raise ConsistencyError(f"eps is not a monomial: {exc}") from exc
    return eps


@lru_cache(maxsize=512)
def tate_eps(chi: MultChar, psi: AddChar) -> NonArchFactor:
    """eps = gamma * L(s,chi) / L(1-s,chi^{-1}); structurally a monomial.
    Cached by the values of chi and psi; the factor returned is shared and
    never changed."""
    return eps_from_gamma(tate_gamma(chi, psi), [chi], chi.field.q)


@lru_cache(maxsize=None)
def langlands_constant(E, psi: AddChar) -> complex:
    """lambda_{E/F}(psi) := eps(1/2, omega_{E/F}, psi).

    The non-archimedean convention is pinned so that lambda_{C/R}(psi^a) =
    sgn(a) i is the archimedean specialization (see :mod:`asailocal.arch`).
    Cached per (E, psi): the first call certifies gamma(s, omega_{E/F}, psi).
    """
    omega = omega_quadratic(E)
    gamma = tate_gamma(omega, psi)
    certify_gamma(gamma, omega, psi)
    return eps_from_gamma(gamma, [omega], omega.field.q).eval(0.5)

