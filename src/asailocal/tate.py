"""Tate local factors L, eps, gamma for characters of F^x and E^x.

gamma is *defined* here by the functional-equation ratio
Z(1-s, chi^{-1}, Phi^) / Z(s, chi, Phi).  :func:`tate_gamma` and
:func:`tate_eps` are closed forms; :func:`certify_gamma`, the one
certification step, checks a closed form against that ratio for three test
functions Phi, each one modulated box (:class:`ModBox`), at the points of a
check grid.  Its callers are the ``tate`` command, :func:`langlands_constant`
and ``asai.gamma_rs(inp, check=True)``.  Each zeta integral is built once
per Phi as terms that do not depend on s (finite shell and coset sums, and
closed-form geometric tails) and then evaluated at each point.  A
disagreement is an internal error, not a tolerance failure.  The oracle
never calls the closed form's :func:`gauss_sum`.

The local integrals int chi(x) psi(-s x) dx over a shell {ord x = j} or a
unit coset t0 + pi^L O (:func:`shell_integral`, :func:`coset_integral`),
with dx self-dual for psi, are exact ``Cyc`` values, and this is the one
implementation of them: the Tate oracle converts them to floats, the
Whittaker oracle (:mod:`asailocal.whittaker`) keeps them exact.  sqrt(p),
which self-dual volumes bring in, is the quadratic Gauss sum
(:func:`_sqrt_prime`).

eps is derived from gamma in one place, :func:`eps_from_gamma`, for one
character (:func:`tate_eps`) and for the products of characters that make
up the Asai factors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import inf, isqrt
from operator import mul

from .characters import (
    AddChar,
    MultChar,
    Phase,
    conductor_add,
    omega_quadratic,
    shell_cyc,
    shell_sum,
)
from .cyclotomic import Cyc, _make
from .factors import (
    NonArchFactor,
    PHI_INDEPENDENCE_TOL,
    PoleError,
    off_poles,
)
from .padic import Value, _set, legendre

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
    """Floating-complex Gauss sum; terms are exact roots of unity."""
    if not chi.is_ramified:
        raise ValueError("no primitive Gauss sum for an unramified character")
    n, c = chi.n, conductor_add(psi)
    return shell_sum(chi.inv(), psi, c - n, n)


# ---------------------------------------------------------------------------
# exact local integrals: shells and unit cosets, shared with the Whittaker oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> Cyc:
    """sqrt(p) for an odd prime p, exactly: the quadratic Gauss sum
    sum (a/p) e(a/p) is sqrt(p) for p = 1 (mod 4) and i sqrt(p) for
    p = 3 (mod 4).  Callers share the result and never mutate it."""
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
def _chi_cyc(chi: MultChar, x) -> Cyc:
    """chi(x) as a Cyc, cached: an x-average evaluates mu(det) and chi(t0)
    at the same few points for every x."""
    return chi.cyc(x)


@lru_cache(maxsize=1024)
def _unit_part(field, n: int, unit_den: int, unit_weights: tuple) -> MultChar:
    """The character with unit data (n, unit_den, unit_weights), t = 1 and
    lam = 0: one object per value, so equal characters share the cached
    integrals below."""
    return MultChar._from_weights(field, n, unit_den, unit_weights, Phase.one(), 0)


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


def coset_integral(chi: MultChar, t0, L: int, psi: AddChar, s) -> Cyc:
    """CT = int_{t0 + pi^L O} chi(t) psi(-s t) dt with ord(t0) < L, dt
    self-dual for psi; s = 0 integrates chi alone."""
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
    pref = _chi_cyc(chi, t0) * psi.cyc(-st0) * _qpow(q, -T1)
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


def box_fourier(box: ModBox, psi: AddChar) -> ModBox:
    """Transform of a modulated box under f^(y) = int f(x) psi(xy) dx,
    with the self-dual measure of psi."""
    K = psi.field
    c = conductor_add(psi)
    vol_box = K.q ** Fraction(c, 2) * Fraction(K.q) ** (-box.level)
    a, n, m0 = K.embed(box.center), box.level, K.embed(box.mult)
    coef = box.coef * float(vol_box) * psi.value(a * m0)
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
    vol_O = float(q ** Fraction(c, 2))
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
    terms.append((coef, v, value.to_complex() * chi._value(v, 1), None))
    return terms


def _tail_ratio(t: complex, q: int, s: complex) -> complex:
    """r = t q^{-s}, the ratio of a geometric tail; its sum has a pole at r = 1."""
    r = t * q ** (-s)
    if abs(r - 1) < 1e-13:
        raise PoleError(s)
    return r


def zeta_at(terms, q: int, s: complex) -> complex:
    """Z(s, chi, Phi) from its :func:`zeta_terms`, summed in their order."""
    total = 0j
    for coef, v, value, t in terms:
        if t is None:
            total += coef * q ** (-v * (s - 1)) * value
        else:
            r = _tail_ratio(t, q, s)
            total += coef * (r**v / (1 - r))
    return total


def fe_ratio(chi: MultChar, psi: AddChar, box: ModBox, grid) -> list:
    """Z(1-s, chi^{-1}, Phi^) / Z(s, chi, Phi) at each s of ``grid``.

    The transform Phi^ and the terms of both zeta integrals are built once
    for the whole grid.  A pole of either integral raises ``PoleError`` and a
    vanishing denominator ``ZeroDivisionError``, at the first point of the
    grid that hits it.
    """
    q = chi.field.q
    num = zeta_terms(chi.inv(), psi, box_fourier(box, psi))
    den = zeta_terms(chi, psi, box)
    out = []
    for s in grid:
        top = zeta_at(num, q, 1 - s)
        bottom = zeta_at(den, q, s)
        if bottom == 0:
            raise ZeroDivisionError("test function has vanishing zeta integral")
        out.append(top / bottom)
    return out


def _default_test_functions(chi: MultChar, psi: AddChar):
    """Phi = 1_O (unramified chi) or 1_{1+pi^n O} (ramified), plus the
    independence alternates: a unit translate and a shrunk box."""
    K = chi.field
    one, zero = K.one(), K.zero()
    n = chi.n
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
        G = gauss_sum(chi, psi)
        const = q ** (n - c) * q ** (-n + Fraction(c, 2)) * G
        return NonArchFactor.monomial(q, complex(const), n - c)
    t = chi.t_full()
    const = q ** Fraction(c, 2) * t ** (-c) * q ** (-c)
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
    t, t_dual = chi.t_full(), chi.inv().t_full()
    tails = (lambda s: _tail_ratio(t, q, s), lambda s: _tail_ratio(t_dual, q, 1 - s))
    return off_poles(_CHECK_GRID, (fac.eval, *tails))


def phi_deviations(fac: NonArchFactor, chi: MultChar, psi: AddChar):
    """(s, Phi, relative deviation of ``fac`` from the functional-equation
    ratio) for each default test function Phi and each s of the check grid;
    one :func:`fe_ratio` call per Phi."""
    grid = _check_grid(fac, chi)
    want = [fac.eval(s) for s in grid]
    for box in _default_test_functions(chi, psi):
        for s, w, got in zip(grid, want, fe_ratio(chi, psi, box, grid)):
            yield s, box, abs(got - w) / max(abs(w), 1e-30)


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


def tate_eps(chi: MultChar, psi: AddChar) -> NonArchFactor:
    """eps = gamma * L(s,chi) / L(1-s,chi^{-1}); structurally a monomial."""
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

