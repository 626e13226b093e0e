"""The verification suites: every closed-form identity the library computes
is replayed against its independent oracle here.

Each suite function returns one report shape, ``name``, ``ok``,
``max_deviation`` and ``detail`` (:func:`_report`), and :func:`run_suites`
adds the suite's ``elapsed`` time.  The CLI ``verify`` subcommand and the
acceptance tests both run these, with the acceptance tests pinning the
sample counts and tolerances.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from fractions import Fraction

from . import arch
from .asai import (
    AsaiInput,
    TwistedPair,
    dichotomy_sign,
    eps_gal_comparison,
    gamma_psr,
    gamma_rs,
    split_eps_check,
)
from .characters import MultChar, Phase, psi_to_E, restrict_to_F, standard_psi
from .cyclotomic import Cyc
from .factors import DEFAULT_GRID
from .padic import EXTENSION_TYPES, PAdicGround, QuadExtension
from .tate import gauss_sum, phi_deviations, tate_gamma
from .unitgroups import unit_group
from .whittaker import InducedSection, w_case1, w_case2


def _report(name: str, ok, worst, detail: str) -> dict:
    """A suite's report; :func:`run_suites` adds ``elapsed``."""
    return {"name": name, "ok": bool(ok), "max_deviation": float(worst), "detail": detail}


def _rand_char(K, n, rng, t_den=12) -> MultChar:
    G = unit_group(K, n)
    angles = [Fraction(rng.randrange(d), d) for d in G.orders]
    t = Phase.exact(Fraction(rng.randrange(t_den), t_den))
    return MultChar.from_angles(K, n, angles, t, 0)


def _rand_char_up_to(K, max_n, rng) -> MultChar:
    return _rand_char(K, rng.randint(0, max_n), rng)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def suite_gauss_modulus(ps=(3, 5, 7), max_n=3, tol=1e-9) -> dict:
    """|gauss_sum(chi, psi0)| = p^{n/2} for all primitive chi, c(chi) <= 3."""
    worst = 0.0
    count = 0
    for p in ps:
        F = PAdicGround(p)
        psi = standard_psi(F)
        for n in range(1, max_n + 1):
            G = unit_group(F, n)
            d = G.orders[0]
            for k in range(1, d):
                chi = MultChar(F, n, (Fraction(k, d),), Phase.one())
                if chi.reduced().n != n:
                    continue
                g = gauss_sum(chi, psi)
                worst = max(worst, abs(abs(g) - p ** (n / 2)))
                count += 1
    return _report(
        "gauss-sum-modulus", worst < tol, worst, f"{count} primitive characters over p in {ps}"
    )


def suite_phi_independence(num=50, ps=(3, 5), max_n=2, tol=1e-10, seed=2) -> dict:
    """The Tate functional-equation ratio is the same for three different
    test functions, for random characters."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(num):
        p = rng.choice(list(ps))
        F = PAdicGround(p)
        psi = standard_psi(F)
        chi = _rand_char_up_to(F, max_n, rng)
        fac = tate_gamma(chi, psi, check=False)
        for _, _, dev in phi_deviations(fac, chi, psi):
            worst = max(worst, dev)
    return _report(
        "tate-phi-independence",
        worst < tol,
        worst,
        f"{num} random characters, 3 test functions, 3 s-points",
    )


def suite_theorem_a_unramified(per_type=10, ps=(3, 5), tol=1e-8, seed=3) -> dict:
    """gamma_RS equals the spherical zeta-integral ratio on the grid."""
    from .whittaker import spherical_gamma_oracle

    rng = random.Random(seed)
    worst = 0.0
    for p in ps:
        F = PAdicGround(p)
        psi = standard_psi(F)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            for _ in range(per_type):
                mu = MultChar.unramified(E, Phase.exact(Fraction(rng.randrange(1, 24), 24)))
                nu = MultChar.unramified(E, Phase.exact(Fraction(rng.randrange(1, 24), 24)))
                gam = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi()), check=False)
                for s in DEFAULT_GRID:
                    lhs = spherical_gamma_oracle(s, mu, nu, E)
                    rhs = gam.eval(s)
                    worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
                # box-robustness at one s
                lhs = spherical_gamma_oracle(0.7, mu, nu, E, box_level=1)
                worst = max(worst, abs(lhs - gam.eval(0.7)) / abs(gam.eval(0.7)))
    return _report(
        "theorem-a-spherical-oracle",
        worst < tol,
        worst,
        f"{per_type} random unramified pairs x 3 extensions x p in {ps}",
    )


def _find_char(E, lvl, want_ramified_restriction, t_angle=Fraction(1, 3)):
    G = unit_group(E, lvl)
    for ks in itertools.product(*[range(d) for d in G.orders]):
        if all(k == 0 for k in ks):
            continue
        mu = MultChar.from_angles(
            E, lvl, [Fraction(k, d) for k, d in zip(ks, G.orders)], Phase.exact(t_angle)
        )
        if mu.n != lvl:
            continue
        if (restrict_to_F(mu).n >= 1) == want_ramified_restriction:
            return mu
    return None


def suite_whittaker_closed_forms(ps=(3, 5), tol=0.0) -> dict:
    """The averaged-section Whittaker values reproduce the two closed forms
    exactly (cyclotomic arithmetic, zero deviation)."""
    checked = 0
    for p in ps:
        F = PAdicGround(p)
        psi = standard_psi(F)
        for ext in EXTENSION_TYPES:
            E = QuadExtension(F, ext)
            psix = psi_to_E(psi, E, E.xi())
            for lvl in (1, 2):
                mu = _find_char(E, lvl, True)
                if mu is not None:
                    sec = InducedSection(E, mu, MultChar.trivial(E), psix)
                    r = -(-mu.n // E.e)
                    c_mu = restrict_to_F(mu).n
                    for va in range(c_mu - r - 2, 2):
                        a = Fraction(p) ** va * 2
                        got = w_case1(sec, a)
                        want = (
                            Cyc.rational(Fraction(p) ** (-va))
                            if va >= c_mu - r
                            else Cyc.zero()
                        )
                        if not (got - want).is_zero():
                            return _report(
                                "whittaker-closed-forms",
                                False,
                                float("inf"),
                                f"case-1 mismatch at p={p} {ext} c={lvl} a={a}",
                            )
                        checked += 1
            for lvl in (1, 2) if E.e == 1 else (2,):
                mu = _find_char(E, lvl, False)
                if mu is None:
                    continue
                sec = InducedSection(E, mu, MultChar.trivial(E), psix)
                r = -(-mu.n // E.e)
                for va in range(-r - 2, 2):
                    a = Fraction(p) ** va * 2
                    got = w_case2(sec, a)
                    want = Cyc.zero()
                    if va >= -r:
                        want = (
                            want
                            + mu.cyc(E.embed(a))
                            * Fraction(p) ** (-va)
                            * mu.cyc(E.embed(p)) ** r
                        )
                    if va >= 1 - r:
                        want = want + Cyc.rational(Fraction(p) ** (-va))
                    if not (got - want).is_zero():
                        return _report(
                            "whittaker-closed-forms",
                            False,
                            float("inf"),
                            f"case-2 mismatch at p={p} {ext} c={lvl} a={a}",
                        )
                    checked += 1
    return _report(
        "whittaker-closed-forms",
        True,
        0.0,
        f"{checked} exact values (both closed forms, all extension types)",
    )


def suite_eps_corollary(num=20, ps=(3, 5), tol=1e-8, seed=5) -> dict:
    """eps_RS = omega(xi)|xi^2|^{s-1/2} lambda^{-1} eps_Gal on the grid, for
    ``num`` quadratic E and then ``num`` split E = F x F
    (:func:`split_eps_check`, four characters of F^x)."""
    rng = random.Random(seed)
    worst = 0.0
    for k in range(num):
        p = rng.choice(list(ps))
        F = PAdicGround(p)
        E = QuadExtension(F, EXTENSION_TYPES[k % 3])
        psi = standard_psi(F).shifted(Fraction(rng.choice([1, 2, p])))
        xi = E.xi() * E.embed(Fraction(rng.choice([1, 2, p])))
        mu = _rand_char_up_to(E, 2, rng)
        nu = _rand_char_up_to(E, 2, rng)
        chi = _rand_char_up_to(F, 2, rng) if rng.random() < 0.5 else None
        rep = eps_gal_comparison(AsaiInput(E, mu, nu, psi, xi, chi), tol=tol)
        worst = max(worst, rep["max_deviation"])
    for _ in range(num):
        p = rng.choice(list(ps))
        F = PAdicGround(p)
        chars = [_rand_char_up_to(F, 2, rng) for _ in range(4)]
        xi0 = Fraction(rng.choice([1, 2, p]))
        rep = split_eps_check(*chars, standard_psi(F), xi0, tol=tol)
        worst = max(worst, rep["max_deviation"])
    return _report(
        "eps-corollary-comparison",
        worst < tol,
        worst,
        f"{num} random principal-series inputs (ramified and unramified E)"
        f" and {num} split E = F x F inputs",
    )


def suite_arch_cases(tol=1e-6) -> dict:
    """Z/L_Gal equals the tabulated constant per parity class; eps_RS lies in
    {1, i, -i} as tabulated; the eps relation holds per case."""
    worst = 0.0
    pairs = [(2, 0), (3, 1), (2, 1), (3, 0), (1, 1), (0, 0), (4, 2), (0, -3)]
    seen = set()
    for n1, n2 in pairs:
        mu = arch.CChar(0.13 + 0.07j, n1)
        nu = arch.CChar(-0.11 + 0.02j, n2)
        rep = arch.zeta_integral_case(mu, nu, tol=tol)
        seen.add(rep["case"])
        worst = max(worst, rep["spread"], rep["ratio_dev"], rep["relation_dev"])
        worst = max(worst, abs(rep["eps_rs"] - rep["eps_rs_expected"]))
        if not rep["ok"]:
            return _report("arch-case-table", False, worst, f"case {rep['case']} failed: {rep}")
    return _report(
        "arch-case-table",
        worst < tol and seen == {1, 2, 3, 4, 5},
        worst,
        f"cases seen: {sorted(seen)}",
    )


def suite_closed_vs_quadrature(num=10, tol=1e-6, seed=7) -> dict:
    """Lemma closed form against 2-D quadrature for random admissible data."""
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    while done < num:
        n1, n2 = rng.randint(-2, 2), rng.randint(-2, 2)
        mu = arch.CChar(complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)), n1)
        nu = arch.CChar(complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)), n2)
        a1, a2 = rng.randint(0, 2), rng.randint(0, 2)
        diff = a1 - a2 + n1 - n2
        b1, b2 = (diff, 0) if diff >= 0 else (0, -diff)
        m = rng.randint(0, 1)
        if (n1 + m + a1 + a2) % 2 != 0:
            m = (m + 1) % 2
        chi = arch.RChar(0.0, m)
        s = 2.4 + 0.2j
        closed = arch.zeta_whittaker_closed(s, (a1, a2), (b1, b2), chi, mu, nu)
        quad = arch.zeta_whittaker_quadrature(s, (a1, a2), (b1, b2), chi, mu, nu)
        if abs(closed) < 1e-12:
            worst = max(worst, abs(quad))
        else:
            worst = max(worst, abs(closed - quad) / abs(closed))
        done += 1
    # one selection-rule violation must quadrature to zero
    z = arch.whittaker_value_quadrature(1.0, (1, 0), (0, 0), arch.CChar(0, 0), arch.CChar(0, 0))
    worst = max(worst, abs(z))
    return _report(
        "arch-closed-vs-quadrature", worst < tol, worst, f"{num} admissible indices at s=2.4+0.2j"
    )


def suite_combinatorial(max_n=6, num=20, tol=1e-9, seed=11) -> dict:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(num):
        z = complex(rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0))
        w = complex(rng.uniform(max_n + 0.5, max_n + 5.0), rng.uniform(-1.0, 1.0))
        for N in range(max_n + 1):
            _, _, dev = arch.combinatorial_identity(N, z, w)
            worst = max(worst, dev)
    return _report(
        "gamma-combinatorial-identity", worst < tol, worst, f"N <= {max_n}, {num} random (z, w)"
    )


def suite_theorem_b(num=20, ps=(3, 5), tol=1e-8, seed=13) -> dict:
    """assembly-1 (zeta side) equals assembly-2 (Galois side) on the grid."""
    rng = random.Random(seed)
    worst = 0.0
    for k in range(num):
        p = rng.choice(list(ps))
        F = PAdicGround(p)
        E = QuadExtension(F, EXTENSION_TYPES[k % 3])
        psi = standard_psi(F)
        mu = _rand_char_up_to(E, 2, rng)
        nu = _rand_char_up_to(E, 2, rng)
        v2 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        tau = TwistedPair(_rand_char_up_to(F, 2, rng), _rand_char_up_to(F, 2, rng), v2)
        _, rep = gamma_psr(AsaiInput(E, mu, nu, psi, E.xi(), None, tau), tol=tol)
        worst = max(worst, rep["max_deviation"])
    return _report(
        "theorem-b-internal-equality", worst < tol, worst, f"{num} random twisted inputs"
    )


def suite_dependence_laws(tol=1e-8, seed=17) -> dict:
    """psi- and xi-scaling transformation laws of the computed factors, for
    gamma_RS, gamma_PSR, and the archimedean relation."""
    rng = random.Random(seed)
    worst = 0.0
    for p in (3, 5):
        F = PAdicGround(p)
        psi = standard_psi(F)
        E = QuadExtension(F, EXTENSION_TYPES[rng.randrange(3)])
        mu = _rand_char_up_to(E, 1, rng)
        nu = _rand_char_up_to(E, 1, rng)
        omega0 = restrict_to_F(mu.mul(nu))
        base = AsaiInput(E, mu, nu, psi, E.xi())
        g0 = gamma_rs(base, check=False)
        tau = TwistedPair(_rand_char_up_to(F, 1, rng), _rand_char_up_to(F, 1, rng), 0.2)
        base_t = AsaiInput(E, mu, nu, psi, E.xi(), None, tau)
        G0, _ = gamma_psr(base_t, tol=tol)
        omega_t = base_t.omega_total()
        for a in (Fraction(2), Fraction(p), Fraction(2 * p)):
            w = F.val(a)
            ga = gamma_rs(AsaiInput(E, mu, nu, psi.shifted(a), E.xi()), check=False)
            gx = gamma_rs(AsaiInput(E, mu, nu, psi, E.xi() * E.embed(a)), check=False)
            Ga, _ = gamma_psr(AsaiInput(E, mu, nu, psi.shifted(a), E.xi(), None, tau), tol=tol)
            Gx, _ = gamma_psr(
                AsaiInput(E, mu, nu, psi, E.xi() * E.embed(a), None, tau), tol=tol
            )
            for s in DEFAULT_GRID:
                rhs = omega0.value(a) ** 2 * p ** (-w * (4 * s - 2)) * g0.eval(s)
                worst = max(worst, abs(ga.eval(s) - rhs) / abs(rhs))
                rhs = omega0.value(a) * p ** (-w * (2 * s - 1)) * g0.eval(s)
                worst = max(worst, abs(gx.eval(s) - rhs) / abs(rhs))
                rhs = omega_t.value(a) ** 4 * p ** (-w * (8 * s - 4)) * G0.eval(s)
                worst = max(worst, abs(Ga.eval(s) - rhs) / abs(rhs))
                rhs = omega_t.value(a) ** -2 * p ** (w * (4 * s - 2)) * G0.eval(s)
                worst = max(worst, abs(Gx.eval(s) - rhs) / abs(rhs))
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
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return _report(
        "dependence-laws",
        worst < tol,
        worst,
        "psi-shift and xi-scale laws for gamma_RS/gamma_PSR and the arch relation",
    )


def suite_dichotomy(num=20, ps=(3, 5), tol=1e-8, seed=19) -> dict:
    """The central sign is +-1 for omega = 1 bundles and is invariant under
    psi/xi rescaling."""
    rng = random.Random(seed)
    worst = 0.0
    signs = set()
    for k in range(num):
        p = rng.choice(list(ps))
        F = PAdicGround(p)
        E = QuadExtension(F, EXTENSION_TYPES[k % 3])
        psi = standard_psi(F)
        mu = _rand_char_up_to(E, 1, rng)
        nu = _rand_char_up_to(E, 1, rng)
        mu2 = _rand_char_up_to(F, 1, rng)
        nu2 = restrict_to_F(mu.mul(nu)).mul(mu2).inv()
        tau = TwistedPair(mu2, nu2, rng.choice([0.0, 0.25]))
        inp = AsaiInput(E, mu, nu, psi, E.xi(), None, tau)
        s0 = dichotomy_sign(inp, tol=tol)
        signs.add(s0)
        # invariance under rescaling
        a = Fraction(rng.choice([2, p]))
        s1 = dichotomy_sign(AsaiInput(E, mu, nu, psi.shifted(a), E.xi(), None, tau), tol=tol)
        s2 = dichotomy_sign(
            AsaiInput(E, mu, nu, psi, E.xi() * E.embed(a), None, tau), tol=tol
        )
        if not (s0 == s1 == s2):
            worst = 1.0
    return _report(
        "dichotomy-sign",
        worst < tol and signs <= {1, -1},
        worst,
        f"{num} omega=1 bundles; signs seen: {sorted(signs)}",
    )


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
