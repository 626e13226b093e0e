"""Command-line front end: factor computations and the verification suites.

All numeric JSON output uses [re, im] pairs; everything the CLI emits can be
re-ingested.  Exit codes: 0 success; 2 input error (each argument is checked
where it is parsed); 3 verification failure (a failed suite or comparison, or
an internal consistency check such as ConsistencyError or StabilizationError).
Any other exception is a fault in the program and ends with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .asai import (
    AsaiInput,
    TwistedPair,
    dichotomy_sign,
    eps_gal_comparison,
    gamma_psr,
    gamma_rs,
    l_rs,
)
from .characters import (
    AddChar,
    MultChar,
    Phase,
    mult_char_from_json,
    standard_psi,
)
from .factors import DEFAULT_GRID, eval_table
from .padic import DEFAULT_PRECISION, PAdicGround, PrecisionError, QuadExtension, field_from_json
from .tate import ConsistencyError, langlands_constant, tate_L, tate_eps, tate_gamma
from .verify import SUITE_GROUPS, SUITES, run_suites
from .whittaker import StabilizationError


class InputError(ValueError):
    pass


def _parse_json(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    return obj


def _parse_number(text: str, what: str, kind=Fraction):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{what}: not a number: {text!r}") from exc


def _parse_field(args) -> tuple:
    obj = _parse_json(args.field, "--field")
    if "p" not in obj:
        raise InputError("--field needs a 'p' entry")
    env_prec = os.environ.get("ASAI_PRECISION")
    if env_prec:
        obj.setdefault("precision", _parse_number(env_prec, "ASAI_PRECISION", int))
    obj.setdefault("precision", DEFAULT_PRECISION)
    if getattr(args, "ext", None):
        obj["ext"] = args.ext
    try:
        K = field_from_json(obj)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid --field: {exc}") from exc
    if isinstance(K, QuadExtension):
        return K.ground, K
    return K, None


def _parse_char(text: str, F: PAdicGround, E) -> MultChar:
    if text == "trivial":
        return MultChar.trivial(E if E is not None else F)
    if text == "legendre":
        return MultChar(F, 1, (Fraction(1, 2),), Phase.one())
    obj = _parse_json(text, "--char")
    if obj.get("supercuspidal"):
        raise InputError(
            "supercuspidal data is out of scope: this artifact covers "
            "principal-series/induced representations only"
        )
    tag = obj.get("field", "E" if E is not None else "F")
    target = E if tag == "E" else F
    if target is None:
        raise InputError("character declared on E but no extension was given")
    return _char_from_json(obj, target, "--char")


def _char_from_json(obj, field, what: str) -> MultChar:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    try:
        return mult_char_from_json(obj, field)
    except (TypeError, ValueError, ZeroDivisionError, PrecisionError) as exc:
        raise InputError(f"invalid character descriptor in {what}: {exc}") from exc


def _parse_grid(args) -> tuple:
    if not getattr(args, "grid", None):
        return DEFAULT_GRID
    return tuple(_parse_complex(part, "--grid") for part in args.grid.split(";"))


def _parse_complex(text: str, what: str) -> complex:
    """Parse "re" or "re,im"."""
    re_im = text.split(",")
    if len(re_im) > 2:
        raise InputError(f"{what}: expected re or re,im, got {text!r}")
    return complex(*(_parse_number(x, what, float) for x in re_im))


def _parse_tol(args) -> float:
    if args.tol is None:
        return 1e-8
    tol = _parse_number(args.tol, "--tol", float)
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"--tol must be a positive finite number, got {args.tol!r}")
    return tol


def _nonzero_fraction(text: str, what: str) -> Fraction:
    a = _parse_number(text, what)
    if a == 0:
        raise InputError(f"{what} must be nonzero")
    return a


def _psi(args, F: PAdicGround) -> AddChar:
    psi = standard_psi(F)
    if getattr(args, "psi_shift", None):
        psi = psi.shifted(_nonzero_fraction(args.psi_shift, "--psi-shift"))
    return psi


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "table":
        lines = _tables(payload)
        text = "\n".join(lines)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _tables(payload, prefix="") -> list:
    lines = []
    for key, val in payload.items():
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines += _tables(val, prefix + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], list) and len(val[0]) == 4:
            lines.append(f"{prefix}{key}:  (s -> value)")
            for re_s, im_s, re_v, im_v in val:
                lines.append(
                    f"{prefix}  s = {re_s:+.4f}{im_s:+.4f}i   ->   {re_v:+.10e}{im_v:+.10e}i"
                )
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_tate(args) -> int:
    F, E = _parse_field(args)
    chi = _parse_char(args.char, F, E)
    psi = _psi(args, F)
    if chi.field is not F:
        from .characters import psi_to_E

        xi = E.xi()
        if getattr(args, "xi_scale", None):
            xi = xi * E.embed(_nonzero_fraction(args.xi_scale, "--xi-scale"))
        psi_k = psi_to_E(psi, E, xi)
    else:
        psi_k = psi
    grid = _parse_grid(args)
    L = tate_L(chi)
    gamma = tate_gamma(chi, psi_k)
    eps = tate_eps(chi, psi_k)
    payload = {
        "input": {"field": (chi.field.to_json()), "char": chi.to_json(), "psi": psi_k.to_json()},
        "L": L.to_json(),
        "gamma": gamma.to_json(),
        "eps": eps.to_json(),
        "L_table": eval_table(L, grid),
        "gamma_table": eval_table(gamma, grid),
        "eps_table": eval_table(eps, grid),
    }
    _emit(payload, args)
    return 0


def _asai_input(args) -> AsaiInput:
    F, E = _parse_field(args)
    if E is None:
        raise InputError("asai subcommands need --field with an 'ext' entry (or --ext)")
    mu = _parse_char(args.char, F, E)
    nu = _parse_char(args.char2, F, E)
    if mu.field is not E or nu.field is not E:
        raise InputError("mu and nu must be characters of E^x")
    chi = _parse_char(args.twist, F, None) if getattr(args, "twist", None) else None
    psi = _psi(args, F)
    xi = E.xi()
    if getattr(args, "xi_scale", None):
        xi = xi * E.embed(_nonzero_fraction(args.xi_scale, "--xi-scale"))
    tau = None
    if getattr(args, "tau", None):
        obj = _parse_json(args.tau, "--tau")
        mu2 = _char_from_json(obj.get("mu2"), F, "--tau mu2")
        nu2 = _char_from_json(obj.get("nu2"), F, "--tau nu2")
        v2 = obj.get("v2", 0)
        try:
            v2 = complex(v2[0], v2[1]) if isinstance(v2, (list, tuple)) else complex(v2)
        except (IndexError, TypeError, ValueError) as exc:
            raise InputError(f"--tau v2 must be a number or [re, im]: {exc}") from exc
        tau = TwistedPair(mu2, nu2, v2)
    return AsaiInput(E, mu, nu, psi, xi, chi, tau)


def cmd_asai(args) -> int:
    inp = _asai_input(args)
    grid = _parse_grid(args)
    tol = _parse_tol(args)
    gamma = gamma_rs(inp)
    L = l_rs(inp)
    comparison = eps_gal_comparison(inp, grid, tol)
    payload = {
        "normalization": "Flicker-convention zeta-integral factors; "
        "psi/xi renormalized internally by the dependence laws",
        "normalization_corrections": _corrections(inp),
        "gamma_rs": gamma.to_json(),
        "eps_rs": comparison["eps_rs"],
        "L_rs": L.to_json(),
        "gamma_table": eval_table(gamma, grid),
        "galois_comparison": comparison,
    }
    _emit(payload, args)
    return 0 if comparison["ok"] else 3


def _corrections(inp: AsaiInput) -> dict:
    """The (psi, xi) split applied before the normalized-theorem assembly."""
    from .asai import _normalization

    a0, a1, _ = _normalization(inp)
    return {
        "psi_shift_a": str(a0),
        "xi_scale_a": str(a1),
        "applied": "gamma *= omega^2(a0)|a0|^{4s-2} * omega(a1)|a1|^{2s-1}",
    }


def cmd_twisted_asai(args) -> int:
    inp = _asai_input(args)
    if inp.tau is None:
        raise InputError("twisted-asai needs --tau")
    grid = _parse_grid(args)
    tol = _parse_tol(args)
    assembly1, report = gamma_psr(inp, grid, tol)
    payload = {
        "normalization_corrections": _corrections(inp),
        "gamma_psr": assembly1.to_json(),
        "gamma_table": eval_table(assembly1, grid),
        "assemblies": report,
    }
    _emit(payload, args)
    return 0 if report["ok"] else 3


def cmd_dichotomy(args) -> int:
    inp = _asai_input(args)
    if inp.tau is None:
        raise InputError("dichotomy needs --tau")
    try:
        sign = dichotomy_sign(inp)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    from .characters import omega_quadratic

    constituents = {
        "omega_EF(-1)": omega_quadratic(inp.E).value(-1).real,
        "lambda": list(_c(langlands_constant(inp.E, inp.psi))),
    }
    payload = {"sign": "+1" if sign > 0 else "-1", "constituents": constituents}
    _emit(payload, args)
    return 0


def _c(z: complex) -> tuple:
    return (complex(z).real, complex(z).imag)


def cmd_arch_zeta(args) -> int:
    from . import arch

    lam1 = _parse_complex(args.lam1, "--lam1")
    lam2 = _parse_complex(args.lam2, "--lam2")
    mu = arch.CChar(lam1, _parse_number(args.n1, "--n1", int))
    nu = arch.CChar(lam2, _parse_number(args.n2, "--n2", int))
    grid = _parse_grid(args)
    report = arch.zeta_integral_case(mu, nu, grid)
    payload = {
        "case": report["case"],
        "constants": {
            "c": list(_c(report["c"])),
            "c_dual": list(_c(report["c_dual"])),
            "eps_rs": list(_c(report["eps_rs"])),
            "eps_gal": list(_c(report["eps_gal"])),
        },
        "expected": {
            "c": list(_c(report["c_expected"])),
            "c_dual": list(_c(report["c_dual_expected"])),
            "eps_rs": list(_c(report["eps_rs_expected"])),
        },
        "deviations": {
            "grid_spread": report["spread"],
            "tabulated": report["ratio_dev"],
            "eps_relation": report["relation_dev"],
        },
        "ok": bool(report["ok"]),
    }
    _emit(payload, args)
    return 0 if report["ok"] else 3


def cmd_verify(args) -> int:
    names = None
    if args.suite and args.suite != "all":
        if args.suite in SUITE_GROUPS:
            names = SUITE_GROUPS[args.suite]
        elif args.suite in SUITES:
            names = [args.suite]
        else:
            raise InputError(
                f"unknown suite {args.suite!r}; choose from "
                f"{sorted(SUITES) + sorted(SUITE_GROUPS) + ['all']}"
            )
    reports = run_suites(names)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2, default=float)
    return 0 if all(rep["ok"] for rep in reports) else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="asailocal",
        description="Local L-, eps-, and gamma-factors for Asai representations "
        "of GL(2) over a quadratic extension, with brute-force verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, need_field=True, need_tol=True):
        if need_field:
            p.add_argument("--field", required=True, help='e.g. \'{"p":3,"ext":"unramified"}\'')
            p.add_argument("--ext", help="extension type (overrides --field)")
        p.add_argument("--grid", help='s-grid "re,im;re,im;..."')
        if need_tol:
            p.add_argument("--tol", help="comparison tolerance")
        p.add_argument("--out", help="write JSON output to a file")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("tate", help="Tate L/eps/gamma of a single character")
    common(p, need_tol=False)
    p.add_argument("--char", required=True)
    p.add_argument("--psi-shift", dest="psi_shift")
    p.add_argument("--xi-scale", dest="xi_scale")
    p.set_defaults(func=cmd_tate)

    p = sub.add_parser("asai", help="Theorem-A factors and the Galois comparison")
    common(p)
    p.add_argument("--char", required=True, help="mu (character of E^x)")
    p.add_argument("--char2", required=True, help="nu (character of E^x)")
    p.add_argument("--twist", help="chi (character of F^x)")
    p.add_argument("--psi-shift", dest="psi_shift")
    p.add_argument("--xi-scale", dest="xi_scale")
    p.set_defaults(func=cmd_asai)

    p = sub.add_parser("twisted-asai", help="Theorem-B factor, both assemblies")
    common(p)
    p.add_argument("--char", required=True)
    p.add_argument("--char2", required=True)
    p.add_argument("--tau", required=True, help='{"mu2": {...}, "nu2": {...}, "v2": [re,im]}')
    p.add_argument("--psi-shift", dest="psi_shift")
    p.add_argument("--xi-scale", dest="xi_scale")
    p.set_defaults(func=cmd_twisted_asai)

    p = sub.add_parser("dichotomy", help="central-sign computation (omega = 1)")
    common(p, need_tol=False)
    p.add_argument("--char", required=True)
    p.add_argument("--char2", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--psi-shift", dest="psi_shift")
    p.add_argument("--xi-scale", dest="xi_scale")
    p.set_defaults(func=cmd_dichotomy)

    p = sub.add_parser("arch-zeta", help="archimedean case table and constants")
    common(p, need_field=False, need_tol=False)
    p.add_argument("--n1", required=True)
    p.add_argument("--n2", required=True)
    p.add_argument("--lam1", default="0")
    p.add_argument("--lam2", default="0")
    p.set_defaults(func=cmd_arch_zeta)

    p = sub.add_parser("verify", help="run the oracle verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--out", help="write the reports as JSON")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, StabilizationError) as exc:
        print(f"verification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
