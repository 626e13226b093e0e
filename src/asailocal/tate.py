"""Tate local factors L, eps, gamma for characters of F^x and E^x.

gamma is *defined* here by the functional-equation ratio
Z(1-s, chi^{-1}, Phi^) / Z(s, chi, Phi): the closed form returned to callers
is certified at construction against that ratio, for several choices of Phi
at the points of a check grid.  Each zeta integral is built once per Phi as
terms that do not depend on s (finite shell and coset sums, and closed-form
geometric tails) and then evaluated at each point.  A disagreement is an
internal error, not a tolerance failure.

eps is derived from gamma in one place, :func:`eps_from_gamma`, for one
character (:func:`tate_eps`) and for the products of characters that make
up the Asai factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from .characters import AddChar, MultChar, conductor_add, shell_sum
from .factors import (
    NonArchFactor,
    PHI_INDEPENDENCE_TOL,
    PoleError,
)

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
# exact Tate zeta integrals for modulated boxes (the oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModBox:
    """coef * psi(mult * x) * 1_{center + pi^level O}(x)."""

    coef: complex
    mult: object  # field element or 0
    center: object  # field element
    level: int


def box_fourier(piece: ModBox, psi: AddChar) -> ModBox:
    """Transform of a modulated box under f^(y) = int f(x) psi(xy) dx,
    with the self-dual measure of psi."""
    K = psi.field
    c = conductor_add(psi)
    vol_box = K.q ** Fraction(c, 2) * Fraction(K.q) ** (-piece.level)
    a, n, m0 = K.embed(piece.center), piece.level, K.embed(piece.mult)
    coef = piece.coef * float(vol_box) * psi.value(a * m0)
    return ModBox(coef=coef, mult=a, center=-m0, level=c - n)


def _shell_char_psi_integral(chi: MultChar, v: int, mult, psi: AddChar, vol_O: float) -> complex:
    """int_{ord x = v} chi(x) psi(mult*x) dx (dx with vol(O) = vol_O)."""
    K = chi.field
    q = K.q
    if mult == 0:
        c_eff = None
    else:
        c_eff = conductor_add(psi) - K.val(mult)
    if chi.is_ramified:
        if c_eff is None:
            return 0j
        if v != c_eff - chi.n:
            return 0j
        return shell_sum(chi, psi, v, chi.n, mult) * vol_O * q ** (-(v + chi.n))
    t = chi.t_full()
    if c_eff is None or v >= c_eff:
        return t**v * vol_O * (q ** (-v) - q ** (-v - 1))
    if v == c_eff - 1:
        # full oscillation except the subleading coset
        phase = shell_sum(None, psi, v, 1, mult)
        return t**v * vol_O * q ** (-(v + 1)) * phase
    return 0j


def _coset_char_psi_integral(
    chi: MultChar, center, level: int, mult, psi: AddChar, vol_O: float
) -> complex:
    """int_{center + pi^level O} chi(x) psi(mult*x) dx for a coset of units
    (ord(center) < level); exact finite sum.

    The coset is center (1 + pi^m O), m = level - ord(center), enumerated mod
    pi^(ord(center) + depth): x = center (1 + eta) for eta = 0 and for eta
    in the shells ord eta = k, m <= k < depth."""
    K = chi.field
    q = K.q
    v0 = K.val(center)
    m = level - v0
    depth = max(chi.n, m)
    if mult != 0:
        depth = max(depth, conductor_add(psi) - K.val(mult) - v0)
    c = center * mult
    inner = 1 + sum(shell_sum(chi, psi, k, depth - k, c, shift=True) for k in range(m, depth))
    out = chi.value(center) * psi.value(c) * inner
    return out * vol_O * q ** (-(v0 + depth))


def zeta_terms(chi: MultChar, psi: AddChar, pieces) -> list:
    """The terms of Z(s, chi, Phi) = int chi(x) |x|^s Phi(x) d^x x for Phi a
    list of modulated boxes; d^x x = zeta_K(1) dx / |x|, dx self-dual for psi.

    A term (coef, v, value, None) is coef q^{-v(s-1)} value, one shell or
    coset; a term (coef, start, None, t) is the geometric tail
    coef sum_{v >= start} (t q^{-s})^v of an ideal box where chi is
    unramified, summed in closed form, which is also the meromorphic
    continuation outside the convergence half-plane.  Every character sum
    is done here; :func:`zeta_at` only raises q to powers of s.
    """
    K = chi.field
    q = K.q
    c = conductor_add(psi)
    vol_O = float(q ** Fraction(c, 2))
    zeta1 = 1.0 / (1.0 - 1.0 / q)
    terms = []
    for piece in pieces:
        a, n, m0 = K.embed(piece.center), piece.level, K.embed(piece.mult)
        coef = piece.coef * zeta1
        if a == 0 or K.val(a) >= n:
            # box is the ideal pi^n O: sum over shells v >= n
            c_eff = None if m0 == 0 else c - K.val(m0)
            if chi.is_ramified:
                if c_eff is None or c_eff - chi.n < n:
                    continue
                v = c_eff - chi.n
                terms.append((coef, v, _shell_char_psi_integral(chi, v, m0, psi, vol_O), None))
            else:
                # geometric part: sum_{v >= start} q^{-v(s-1)} t^v vol q^{-v}(1-1/q)
                start = n if c_eff is None else max(n, c_eff)
                terms.append((coef * vol_O * (1 - 1.0 / q), start, None, chi.t_full()))
                if c_eff is not None and c_eff - 1 >= n:
                    v = c_eff - 1
                    terms.append((coef, v, _shell_char_psi_integral(chi, v, m0, psi, vol_O), None))
        else:
            inner = _coset_char_psi_integral(chi, a, n, m0, psi, vol_O)
            terms.append((coef, K.val(a), inner, None))
    return terms


def zeta_at(terms, q: int, s: complex) -> complex:
    """Z(s, chi, Phi) from its :func:`zeta_terms`, summed in their order."""
    total = 0j
    for coef, v, value, t in terms:
        if t is None:
            total += coef * q ** (-v * (s - 1)) * value
        else:
            r = t * q ** (-s)
            if abs(r - 1) < 1e-13:
                raise PoleError(s)
            total += coef * (r**v / (1 - r))
    return total


def fe_ratio(chi: MultChar, psi: AddChar, pieces, grid) -> list:
    """Z(1-s, chi^{-1}, Phi^) / Z(s, chi, Phi) at each s of ``grid``.

    The transform Phi^ and the terms of both zeta integrals are built once
    for the whole grid.  A pole of either integral raises ``PoleError`` and a
    vanishing denominator ``ZeroDivisionError``, at the first point of the
    grid that hits it.
    """
    q = chi.field.q
    hat = [box_fourier(p, psi) for p in pieces]
    num = zeta_terms(chi.inv(), psi, hat)
    den = zeta_terms(chi, psi, pieces)
    out = []
    for s in grid:
        top = zeta_at(num, q, 1 - s)
        bottom = zeta_at(den, q, s)
        if abs(bottom) < 1e-30:
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
        base = [ModBox(1.0, zero, zero, 0)]
        alt1 = [ModBox(1.0, zero, zero, 1)]
        alt2 = [ModBox(1.0, zero, one, 1)]
    else:
        base = [ModBox(1.0, zero, one, n)]
        u = K.shell(0, 1)[-1]
        alt1 = [ModBox(1.0, zero, u, n)]
        alt2 = [ModBox(1.0, zero, one, n + 1)]
    return base, alt1, alt2


# ---------------------------------------------------------------------------
# gamma and eps
# ---------------------------------------------------------------------------


def tate_gamma(chi: MultChar, psi: AddChar, check: bool = True) -> NonArchFactor:
    """gamma(s, chi, psi), certified against the functional-equation oracle.

    The Phi-independence assertion (base box, unit translate, finer box)
    runs at construction unless ``check`` is disabled.
    """
    K = chi.field
    q = K.q
    c = conductor_add(psi)
    if chi.is_ramified:
        n = chi.n
        G = gauss_sum(chi, psi)
        const = q ** (n - c) * q ** (-n + Fraction(c, 2)) * G
        fac = NonArchFactor.monomial(q, complex(const), n - c)
    else:
        t = chi.t_full()
        const = q ** Fraction(c, 2) * t ** (-c) * q ** (-c)
        fac = NonArchFactor(
            q,
            c=complex(const),
            m=-c,
            num=((t, 1, 0j),),
            den=((1 / t, -1, 1 + 0j),),
        )
    if check:
        _certify_gamma(fac, chi, psi)
    return fac


def phi_deviations(fac: NonArchFactor, chi: MultChar, psi: AddChar):
    """(s, Phi, relative deviation of ``fac`` from the functional-equation
    ratio) for each default test function Phi and each s of the check grid;
    one :func:`fe_ratio` call per Phi."""
    want = [fac.eval(s) for s in _CHECK_GRID]
    for pieces in _default_test_functions(chi, psi):
        for s, w, got in zip(_CHECK_GRID, want, fe_ratio(chi, psi, pieces, _CHECK_GRID)):
            yield s, pieces, abs(got - w) / max(abs(w), 1e-30)


def _certify_gamma(fac: NonArchFactor, chi: MultChar, psi: AddChar) -> None:
    for s, pieces, dev in phi_deviations(fac, chi, psi):
        if dev > PHI_INDEPENDENCE_TOL:
            raise ConsistencyError(
                f"gamma oracle mismatch: dev={dev:.3e} at s={s} (Phi={pieces})"
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


def tate_eps(chi: MultChar, psi: AddChar, check: bool = True) -> NonArchFactor:
    """eps = gamma * L(s,chi) / L(1-s,chi^{-1}); structurally a monomial."""
    return eps_from_gamma(tate_gamma(chi, psi, check=check), [chi], chi.field.q)


@lru_cache(maxsize=None)
def langlands_constant(E, psi: AddChar) -> complex:
    """lambda_{E/F}(psi) := eps(1/2, omega_{E/F}, psi).

    The non-archimedean convention is pinned so that lambda_{C/R}(psi^a) =
    sgn(a) i is the archimedean specialization (see :mod:`asailocal.arch`).
    Cached per (E, psi): the first call runs the certified tate_eps.
    """
    from .characters import omega_quadratic

    omega = omega_quadratic(E)
    return tate_eps(omega, psi).eval(0.5)

