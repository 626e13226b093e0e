"""Tate factors certified against the functional-equation oracle.

``tate_gamma`` and ``tate_eps`` are closed forms only; a test that checks a
law of the closed form through these helpers also certifies every gamma it
builds (``certify_gamma`` raises ``ConsistencyError`` on a mismatch)."""

from asailocal.tate import certify_gamma, eps_from_gamma, tate_gamma


def certified_gamma(chi, psi):
    gamma = tate_gamma(chi, psi)
    certify_gamma(gamma, chi, psi)
    return gamma


def certified_eps(chi, psi):
    return eps_from_gamma(certified_gamma(chi, psi), [chi], chi.field.q)
