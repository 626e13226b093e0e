"""The verification suites: every closed-form identity the library computes
is replayed against its independent oracle here.

Each suite is a fixed check: its seed, samples and tolerance are set here.
Only ``ps`` of the gauss, whittaker and theorem-b suites can be set, so the
tests can widen them to larger primes.  Each suite collects its deviations,
and one reduction (:func:`_report`, through
:func:`asailocal.factors.worst_deviation`) turns them into ``name``, ``ok``,
``max_deviation`` and ``detail``: the worst deviation, NaN if any is NaN, and
``ok`` when it is below the suite's tolerance.  :func:`run_suites` adds
``elapsed``.  The CLI ``verify`` subcommand and the acceptance tests both
call :func:`run_suites`, and each acceptance test pins its criterion's
sample count (through ``detail``), tolerance and time.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
from fractions import Fraction

from . import arch
from .asai import (
    AsaiInput,
    TwistedPair,
    central_value,
    eps_gal_comparison,
    gamma_psr,
    gamma_rs,
    split_eps_check,
)
from .characters import MultChar, Phase, psi_to_E, restrict_to_F, standard_psi
from .cyclotomic import Cyc
from .factors import (
    DEFAULT_GRID,
    PHI_INDEPENDENCE_TOL,
    REL_TOL_ARCH,
    REL_TOL_NONARCH,
    relative_deviation,
    worst_deviation,
)
from .padic import EXTENSION_TYPES, PAdicGround, QuadExtension
from .tate import gauss_sum, phi_deviations, tate_gamma
from .unitgroups import unit_group
from .whittaker import InducedSection, spherical_gamma_oracle, w_case1, w_case2

# the tolerances that none of the library's own checks share
GAUSS_MODULUS_TOL = 1e-9  # absolute, on |g| - p^{n/2}
QUADRATURE_TOL = 1e-11  # relative, closed form against quadrature
GAMMA_IDENTITY_TOL = 1e-9  # relative, the combinatorial Gamma identity
EXACT_TOL = math.inf  # an exact check: deviation 0.0 on a match, inf on a mismatch


def _report(name: str, tol: float, detail: str, devs) -> dict:
    """A suite's report: ``devs`` reduced by :func:`worst_deviation`, which
    passes when it is below ``tol``; :func:`run_suites` adds ``elapsed``."""
    worst = worst_deviation(devs)
    ok = bool(worst < tol)
    return {"name": name, "ok": ok, "max_deviation": float(worst), "detail": detail}


def _rand_char_up_to(K, max_n, rng) -> MultChar:
    n = rng.randint(0, max_n)
    angles = [Fraction(rng.randrange(d), d) for d in unit_group(K, n).orders]
    t = Phase.exact(Fraction(rng.randrange(12), 12))
    return MultChar.from_angles(K, n, angles, t, 0)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def suite_gauss_modulus(ps=(3, 5, 7)) -> dict:
    """|gauss_sum(chi, psi0)| = p^{n/2} for all primitive chi, c(chi) <= 3."""
    devs = []
    for p in ps:
        F = PAdicGround(p)
        psi = standard_psi(F)
        for n in range(1, 4):
            G = unit_group(F, n)
            d = G.orders[0]
            for k in range(1, d):
                chi = MultChar(F, n, (Fraction(k, d),), Phase.one())
                if chi.reduced().n != n:
                    continue
                g = gauss_sum(chi, psi)
                devs.append(abs(abs(g) - p ** (n / 2)))
    return _report(
        "gauss-sum-modulus",
        GAUSS_MODULUS_TOL,
        f"{len(devs)} primitive characters over p in {ps}",
        devs,
    )


def suite_phi_independence() -> dict:
    """The Tate functional-equation ratio is the same for three different
    test functions, for random characters."""
    rng = random.Random(2)
    devs = []
    for _ in range(50):
        p = rng.choice([3, 5])
        F = PAdicGround(p)
        psi = standard_psi(F)
        chi = _rand_char_up_to(F, 2, rng)
        fac = tate_gamma(chi, psi)
        devs.extend(dev for _, _, dev in phi_deviations(fac, chi, psi))
    return _report(
        "tate-phi-independence",
        PHI_INDEPENDENCE_TOL,
        "50 random characters, 3 test functions, 3 s-points",
        devs,
    )


def suite_theorem_a_unramified() -> dict:
    """gamma_RS equals the spherical zeta-integral ratio on the grid."""
    rng = random.Random(3)
    devs = []
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            for _ in range(10):
                mu = MultChar.unramified(E, Phase.exact(Fraction(rng.randrange(1, 24), 24)))
                nu = MultChar.unramified(E, Phase.exact(Fraction(rng.randrange(1, 24), 24)))
                gam = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi()))
                # the grid with the unit box, then box-robustness at one s
                for grid, box_level in ((DEFAULT_GRID, 0), ((0.7,), 1)):
                    for s, lhs in zip(grid, spherical_gamma_oracle(grid, mu, nu, E, box_level)):
                        rhs = gam.eval(s)
                        devs.append(relative_deviation(lhs, rhs, abs(rhs)))
    return _report(
        "theorem-a-spherical-oracle",
        REL_TOL_NONARCH,
        "10 random unramified pairs x 3 extensions x p in (3, 5)",
        devs,
    )


def _find_char(E, lvl, want_ramified_restriction):
    G = unit_group(E, lvl)
    for ks in itertools.product(*[range(d) for d in G.orders]):
        if all(k == 0 for k in ks):
            continue
        mu = MultChar.from_angles(
            E, lvl, [Fraction(k, d) for k, d in zip(ks, G.orders)], Phase.exact(Fraction(1, 3))
        )
        if mu.n != lvl:
            continue
        if (restrict_to_F(mu).n >= 1) == want_ramified_restriction:
            return mu
    return None


def _closed_form_values(ps):
    """(case, section, a, closed form) for every value the Whittaker suite
    checks: per p and extension, the case-1 values (mu|_F ramified) at
    levels 1 and 2, then the case-2 values (mu|_F unramified)."""
    for p in ps:
        F = PAdicGround(p)
        psi = standard_psi(F)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            psix = psi_to_E(psi, E, E.xi())
            for case, lvls in ((1, (1, 2)), (2, (1, 2) if E.e == 1 else (2,))):
                for lvl in lvls:
                    mu = _find_char(E, lvl, case == 1)
                    if mu is None:
                        continue
                    sec = InducedSection(E, mu, MultChar.trivial(E), psix)
                    r = -(-mu.n // E.e)
                    c_mu = restrict_to_F(mu).n if case == 1 else 0
                    low = c_mu - r if case == 1 else 1 - r  # where the |a| term starts
                    for va in range(c_mu - r - 2, 2):
                        a = Fraction(p) ** va * 2
                        want = Cyc.zero()
                        if case == 2 and va >= -r:
                            term = mu.cyc(E.embed(a)) * Fraction(p) ** (-va)
                            want = want + term * mu.cyc(E.embed(p)) ** r
                        if va >= low:
                            want = want + Cyc.rational(Fraction(p) ** (-va))
                        yield case, sec, a, want


def suite_whittaker_closed_forms(ps=(3, 5)) -> dict:
    """The averaged-section Whittaker values reproduce the two closed forms
    exactly (cyclotomic arithmetic, zero deviation)."""
    checked = 0
    for case, sec, a, want in _closed_form_values(ps):
        got = (w_case1 if case == 1 else w_case2)(sec, a)
        if not (got - want).is_zero():
            where = f"p={sec.E.p} {sec.E.ext_type} c={sec.mu.n} a={a}"
            return _report(
                "whittaker-closed-forms", EXACT_TOL, f"case-{case} mismatch at {where}", [math.inf]
            )
        checked += 1
    return _report(
        "whittaker-closed-forms",
        EXACT_TOL,
        f"{checked} exact values (both closed forms, all extension types)",
        (),
    )


def suite_eps_corollary() -> dict:
    """eps_RS = omega(xi)|xi^2|^{s-1/2} lambda^{-1} eps_Gal on the grid, for
    20 quadratic E and then 20 split E = F x F
    (:func:`split_eps_check`, four characters of F^x)."""
    rng = random.Random(5)
    devs = []
    for k in range(20):
        p = rng.choice([3, 5])
        F = PAdicGround(p)
        E = QuadExtension(F, EXTENSION_TYPES[k % 3])
        psi = standard_psi(F).shifted(Fraction(rng.choice([1, 2, p])))
        xi = E.xi() * E.embed(Fraction(rng.choice([1, 2, p])))
        mu = _rand_char_up_to(E, 2, rng)
        nu = _rand_char_up_to(E, 2, rng)
        chi = _rand_char_up_to(F, 2, rng) if rng.random() < 0.5 else None
        devs.append(eps_gal_comparison(AsaiInput(E, mu, nu, psi, xi, chi))["max_deviation"])
    for _ in range(20):
        p = rng.choice([3, 5])
        F = PAdicGround(p)
        chars = [_rand_char_up_to(F, 2, rng) for _ in range(4)]
        xi0 = Fraction(rng.choice([1, 2, p]))
        devs.append(split_eps_check(*chars, standard_psi(F), xi0)["max_deviation"])
    return _report(
        "eps-corollary-comparison",
        REL_TOL_NONARCH,
        "20 random principal-series inputs (ramified and unramified E)"
        " and 20 split E = F x F inputs",
        devs,
    )


def suite_arch_cases() -> dict:
    """Z/L_Gal equals the tabulated constant per parity class; eps_RS lies in
    {1, i, -i} as tabulated; the eps relation holds per case.  Every case
    of the table must be seen."""
    devs = []
    pairs = [(2, 0), (3, 1), (2, 1), (3, 0), (1, 1), (0, 0), (4, 2), (0, -3)]
    seen = set()
    for n1, n2 in pairs:
        mu = arch.CChar(0.13 + 0.07j, n1)
        nu = arch.CChar(-0.11 + 0.02j, n2)
        rep = arch.zeta_integral_case(mu, nu)
        seen.add(rep["case"])
        eps_dev = abs(rep["eps_rs"] - rep["eps_rs_expected"])
        devs += [rep["spread"], rep["ratio_dev"], rep["relation_dev"], eps_dev]
        if not rep["ok"]:  # it tests these four deviations, so this report fails too
            detail = f"case {rep['case']} failed: {rep}"
            return _report("arch-case-table", REL_TOL_ARCH, detail, devs)
    out = _report("arch-case-table", REL_TOL_ARCH, f"cases seen: {sorted(seen)}", devs)
    out["ok"] = out["ok"] and seen == {1, 2, 3, 4, 5}
    return out


def suite_closed_vs_quadrature() -> dict:
    """Lemma closed form against 2-D quadrature for random admissible data,
    the ten quadratures computed together as the rows of one oracle call."""
    rng = random.Random(7)
    data = []
    while len(data) < 10:
        n1, n2 = rng.randint(-2, 2), rng.randint(-2, 2)
        mu = arch.CChar(complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)), n1)
        nu = arch.CChar(complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)), n2)
        a1, a2 = rng.randint(0, 2), rng.randint(0, 2)
        diff = a1 - a2 + n1 - n2
        b1, b2 = (diff, 0) if diff >= 0 else (0, -diff)
        m = rng.randint(0, 1)
        if (n1 + m + a1 + a2) % 2 != 0:
            m = (m + 1) % 2
        data.append(((a1, a2), (b1, b2), arch.RChar(0.0, m), mu, nu))
    s = 2.4 + 0.2j
    devs = []
    for datum, quad in zip(data, arch.zeta_whittaker_quadrature(s, data)):
        closed = arch.zeta_whittaker_closed(s, *datum)
        if abs(closed) < 1e-12:
            devs.append(abs(quad))
        else:
            devs.append(abs(closed - quad) / abs(closed))
    return _report(
        "arch-closed-vs-quadrature",
        QUADRATURE_TOL,
        "10 admissible indices at s=2.4+0.2j",
        devs,
    )


def suite_combinatorial() -> dict:
    """The Gamma identity for N = 0..6 at 20 random (z, w), the seven
    identities of one (z, w) from one evaluation of each Gamma value
    (arch.combinatorial_identities)."""
    rng = random.Random(11)
    devs = []
    for _ in range(20):
        z = complex(rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0))
        # Re w in [6.5, 11]: past the largest N, so no Gamma(w - l) hits a pole
        w = complex(rng.uniform(6.5, 11.0), rng.uniform(-1.0, 1.0))
        devs.extend(dev for _, _, dev in arch.combinatorial_identities(z, w, 6))
    return _report(
        "gamma-combinatorial-identity",
        GAMMA_IDENTITY_TOL,
        "N <= 6, 20 random (z, w)",
        devs,
    )


def suite_theorem_b(ps=(3, 5)) -> dict:
    """assembly-1 (zeta side) equals assembly-2 (Galois side) on the grid."""
    rng = random.Random(13)
    devs = []
    for k in range(20):
        p = rng.choice(list(ps))
        F = PAdicGround(p)
        E = QuadExtension(F, EXTENSION_TYPES[k % 3])
        psi = standard_psi(F)
        mu = _rand_char_up_to(E, 2, rng)
        nu = _rand_char_up_to(E, 2, rng)
        v2 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        tau = TwistedPair(_rand_char_up_to(F, 2, rng), _rand_char_up_to(F, 2, rng), v2)
        _, rep = gamma_psr(AsaiInput(E, mu, nu, psi, E.xi(), None, tau))
        devs.append(rep["max_deviation"])
    return _report("theorem-b-internal-equality", REL_TOL_NONARCH, "20 random twisted inputs", devs)


def suite_dependence_laws() -> dict:
    """psi- and xi-scaling transformation laws of the computed factors, for
    gamma_RS, gamma_PSR, and the archimedean relation."""
    rng = random.Random(17)
    devs = []
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        E = QuadExtension(F, EXTENSION_TYPES[rng.randrange(3)])
        mu = _rand_char_up_to(E, 1, rng)
        nu = _rand_char_up_to(E, 1, rng)
        omega0 = restrict_to_F(mu.mul(nu))
        base = AsaiInput(E, mu, nu, psi, E.xi())
        g0 = gamma_rs(base)
        tau = TwistedPair(_rand_char_up_to(F, 1, rng), _rand_char_up_to(F, 1, rng), 0.2)
        base_t = AsaiInput(E, mu, nu, psi, E.xi(), None, tau)
        G0, _ = gamma_psr(base_t)
        omega_t = base_t.omega_total()
        for a in (Fraction(2), Fraction(p), Fraction(2 * p)):
            w = F.val(a)
            ga = gamma_rs(AsaiInput(E, mu, nu, psi.shifted(a), E.xi()))
            gx = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi() * E.embed(a)))
            Ga, _ = gamma_psr(AsaiInput(E, mu, nu, psi.shifted(a), E.xi(), None, tau))
            Gx, _ = gamma_psr(AsaiInput(E, mu, nu, psi, E.xi() * E.embed(a), None, tau))
            # each law: scaled factor = omega(a)^k |a|^(k(2s-1)) * base factor
            laws = ((ga, omega0, 2, g0), (gx, omega0, 1, g0))  # gamma_RS, psi^a and a xi
            laws += ((Ga, omega_t, 4, G0), (Gx, omega_t, -2, G0))  # gamma_PSR, the same
            for s in DEFAULT_GRID:
                for got, omega, k, base in laws:
                    rhs = omega.value(a) ** k * p ** (-w * k * (2 * s - 1)) * base.eval(s)
                    devs.append(abs(got.eval(s) - rhs) / abs(rhs))
    # archimedean: the relation between eps factors under (psi^b, c xi)
    for b, cxi in ((2.0, 1.0), (-1.0, 3.0)):
        for n1, n2 in ((2, 0), (2, 1), (3, 0), (1, 1)):
            mu = arch.CChar(0.05 + 0.02j, n1)
            nu = arch.CChar(-0.03 - 0.01j, n2)
            ers = arch.eps_rs_arch(mu, nu, b, cxi)
            eg = arch.eps_gal_arch(mu, nu, a=b)
            omega_xi = mu.value(cxi * 1j) * nu.value(cxi * 1j)
            for s in (0.7, 1.3, 2.1 + 0.5j):
                lhs = (
                    (1 / omega_xi)
                    * (cxi * cxi) ** (-s + 0.5)
                    * arch.lambda_C_R(b)
                    * ers.eval(s)
                )
                rhs = eg.eval(s)
                devs.append(abs(lhs - rhs) / abs(rhs))
    return _report(
        "dependence-laws",
        REL_TOL_NONARCH,
        "psi-shift and xi-scale laws for gamma_RS/gamma_PSR and the arch relation",
        devs,
    )


def suite_dichotomy() -> dict:
    """The central sign of omega = 1 bundles is the forced +1 (see
    :func:`central_value`), also with psi or xi rescaled; the deviation is
    max |value - 1|."""
    rng = random.Random(19)
    devs = []
    for k in range(20):
        p = rng.choice([3, 5])
        F = PAdicGround(p)
        E = QuadExtension(F, EXTENSION_TYPES[k % 3])
        psi = standard_psi(F)
        mu = _rand_char_up_to(E, 1, rng)
        nu = _rand_char_up_to(E, 1, rng)
        mu2 = _rand_char_up_to(F, 1, rng)
        nu2 = restrict_to_F(mu.mul(nu)).mul(mu2).inv()
        tau = TwistedPair(mu2, nu2, rng.choice([0.0, 0.25]))
        a = Fraction(rng.choice([2, p]))
        for psi_k, xi in ((psi, E.xi()), (psi.shifted(a), E.xi()), (psi, E.xi() * E.embed(a))):
            devs.append(abs(central_value(AsaiInput(E, mu, nu, psi_k, xi, None, tau)) - 1))
    out = _report("dichotomy-sign", REL_TOL_NONARCH, "", devs)
    out["detail"] = "20 omega=1 bundles, psi and xi rescaled: sign " + (
        "+1 every time, as forced" if out["ok"] else "not the forced +1"
    )
    return out


SUITES = {
    "gauss": suite_gauss_modulus,
    "phi-independence": suite_phi_independence,
    "theorem-a": suite_theorem_a_unramified,
    "whittaker": suite_whittaker_closed_forms,
    "eps-corollary": suite_eps_corollary,
    "arch-cases": suite_arch_cases,
    "arch-quadrature": suite_closed_vs_quadrature,
    "combinatorial": suite_combinatorial,
    "theorem-b": suite_theorem_b,
    "dependence": suite_dependence_laws,
    "dichotomy": suite_dichotomy,
}

SUITE_GROUPS = {
    "nonarch": ["gauss", "phi-independence", "theorem-a", "whittaker"],
    "asai": ["eps-corollary", "theorem-b", "dependence", "dichotomy"],
    "arch": ["arch-cases", "arch-quadrature", "combinatorial"],
}


def run_suites(names=None) -> list[dict]:
    """Run the named suites (all when ``names`` is empty) in sorted order.

    Each report gets the suite's wall time as ``elapsed``, and a one-line
    [PASS]/[FAIL] summary goes to stderr."""
    out = []
    for name in sorted(names or SUITES):
        t0 = time.time()
        rep = SUITES[name]()
        rep["elapsed"] = time.time() - t0
        status = "PASS" if rep["ok"] else "FAIL"
        print(
            f"[{status}] {rep['name']}: max deviation {rep['max_deviation']:.3e} "
            f"({rep['elapsed']:.1f}s)  {rep['detail']}",
            file=sys.stderr,
        )
        out.append(rep)
    return out
