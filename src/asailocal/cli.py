"""Command-line front end: factor computations and the verification suites.

All numeric JSON output uses [re, im] pairs; everything the CLI emits can be
re-ingested.  Exit codes: 0 success; 2 input error (each argument is checked
where it is parsed; a pole or an overflow at a --grid point is one too, and
so is a ``FloatRangeError`` elsewhere in a p-adic command: the library checks
every float it forms from character or shift data, so a value out of the
float range is the fault of the value flags the command was given);
3 verification failure (a failed suite or comparison, or a ConsistencyError
from an internal consistency check).  Any other exception is a fault in the
program and ends with its traceback.

Each flag is registered once, in :func:`build_parser`, on the subcommands
that read it; a command reads a flag it does not take as its
``set_defaults`` value.  Every character argument (--char, --char2, --twist,
--tau's mu2 and nu2) goes through :func:`_parse_char`, which checks the
descriptor's field tag against the fields the argument may live on, and every
JSON number through :func:`asailocal.characters.json_complex`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import arch
from .asai import (
    AsaiInput,
    TwistedPair,
    _normalization,
    dichotomy_sign,
    eps_gal_comparison,
    gamma_psr,
    gamma_rs,
    l_rs,
)
from .characters import (
    AddChar,
    MultChar,
    json_complex,
    mult_char_from_json,
    omega_quadratic,
    psi_to_E,
    standard_psi,
)
from .factors import DEFAULT_GRID, REL_TOL_NONARCH, FloatRangeError, PoleError, eval_table, resolve_grid
from .padic import PAdicGround, PrecisionError, QuadExtension, field_from_json
from .tate import (
    ConsistencyError,
    certify_gamma,
    eps_from_gamma,
    langlands_constant,
    tate_L,
    tate_gamma,
)
from .verify import SUITE_GROUPS, SUITES, run_suites


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
        x = kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{what}: not a number: {text!r}") from exc
    if kind is float and not math.isfinite(x):
        raise InputError(f"{what}: not a finite number: {text!r}")
    return x


def _parse_field(args) -> tuple:
    obj = _parse_json(args.field, "--field")
    try:
        K = field_from_json(obj)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid --field: {exc}") from exc
    if isinstance(K, QuadExtension):
        return K.ground, K
    return K, None


_SHORTHANDS = {
    "trivial": {"t": {"angle": "0"}},
    "legendre": {"field": "F", "conductor": 1, "unit_part": ["1/2"], "t": {"angle": "0"}},
}


def _parse_char(spec, what: str, fields: dict, text: bool = True) -> MultChar:
    """The character of a flag's text (a JSON descriptor or a shorthand) or,
    with ``text`` false, of a parsed --tau entry.  ``fields`` maps the
    "field" tags ``what`` accepts to their fields, the default tag first."""
    if text:
        spec = _SHORTHANDS.get(spec) or _parse_json(spec, what)
        if spec.get("supercuspidal"):
            raise InputError(
                "supercuspidal data is out of scope: this artifact covers "
                "principal-series/induced representations only"
            )
    elif not isinstance(spec, dict):
        raise InputError(f"{what} must be a JSON object")
    tag = spec.get("field", next(iter(fields)))
    if not isinstance(tag, str) or tag not in fields:
        allowed = " or ".join(f"{t}^x" for t in fields)
        raise InputError(f"{what} must be a character of {allowed}, not of {tag}^x")
    try:
        return mult_char_from_json(spec, fields[tag])
    except (TypeError, ValueError, ZeroDivisionError, OverflowError, PrecisionError) as exc:
        raise InputError(f"invalid character descriptor in {what}: {exc}") from exc


def _parse_grid(args):
    """The --grid points, or None for the default grid, which each
    evaluation moves off its own poles (:func:`resolve_grid`)."""
    if not args.grid:
        return None
    return tuple(_parse_complex(part, "--grid") for part in args.grid.split(";"))


def _parse_complex(text: str, what: str) -> complex:
    """Parse "re" or "re,im"."""
    re_im = text.split(",")
    if len(re_im) > 2:
        raise InputError(f"{what}: expected re or re,im, got {text!r}")
    return complex(*(_parse_number(x, what, float) for x in re_im))


def _parse_tol(args) -> float:
    if args.tol is None:
        return REL_TOL_NONARCH
    tol = _parse_number(args.tol, "--tol", float)
    if not tol > 0:
        raise InputError(f"--tol must be a positive finite number, got {args.tol!r}")
    return tol


def _nonzero_fraction(text: str, what: str) -> Fraction:
    a = _parse_number(text, what)
    if a == 0:
        raise InputError(f"{what} must be nonzero")
    return a


def _psi(args, F: PAdicGround) -> AddChar:
    psi = standard_psi(F)
    if args.psi_shift:
        psi = psi.shifted(_nonzero_fraction(args.psi_shift, "--psi-shift"))
    return psi


def _xi(args, E: QuadExtension):
    xi = E.xi()
    if args.xi_scale:
        xi = xi * E.embed(_nonzero_fraction(args.xi_scale, "--xi-scale"))
    return xi


def _emit(payload: dict, args) -> None:
    if args.format == "table":
        text = "\n".join(_tables(payload))
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
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
    chi = _parse_char(args.char, "--char", {"E": E, "F": F} if E else {"F": F})
    psi = _psi(args, F)
    if chi.field is F:
        if args.xi_scale:
            raise InputError("--xi-scale applies to characters of E^x only")
        psi_k = psi
    else:
        psi_k = psi_to_E(psi, E, _xi(args, E))
    grid = _parse_grid(args)
    L = tate_L(chi)
    gamma = tate_gamma(chi, psi_k)
    certify_gamma(gamma, chi, psi_k)
    eps = eps_from_gamma(gamma, [chi], chi.field.q)
    grid = resolve_grid(grid, (L.eval, gamma.eval, eps.eval))
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
        raise InputError("asai subcommands need --field with an 'ext' entry")
    mu = _parse_char(args.char, "--char", {"E": E})
    nu = _parse_char(args.char2, "--char2", {"E": E})
    chi = _parse_char(args.twist, "--twist", {"F": F}) if args.twist else None
    psi, xi = _psi(args, F), _xi(args, E)
    tau = None
    if args.tau is not None:
        obj = _parse_json(args.tau, "--tau")
        mu2 = _parse_char(obj.get("mu2"), "--tau mu2", {"F": F}, text=False)
        nu2 = _parse_char(obj.get("nu2"), "--tau nu2", {"F": F}, text=False)
        try:
            v2 = json_complex(obj.get("v2", 0))
        except ValueError as exc:
            raise InputError(f"--tau v2: {exc}") from exc
        tau = TwistedPair(mu2, nu2, v2)
    inp = AsaiInput(E, mu, nu, psi, xi, chi, tau)
    if inp.is_reducible():
        raise InputError("--char2 gives mu nu^-1 = |.|_E^(+-1), where Ind(mu, nu) is reducible")
    return inp


def cmd_asai(args) -> int:
    inp = _asai_input(args)
    grid = _parse_grid(args)
    tol = _parse_tol(args)
    gamma = gamma_rs(inp, check=True)
    L = l_rs(inp)
    comparison = eps_gal_comparison(inp, grid, tol)
    payload = {
        "normalization": "Flicker-convention zeta-integral factors; "
        "psi/xi renormalized internally by the dependence laws",
        "normalization_corrections": _corrections(inp),
        "gamma_rs": gamma.to_json(),
        "eps_rs": comparison["eps_rs"],
        "L_rs": L.to_json(),
        "gamma_table": eval_table(gamma, resolve_grid(grid, (gamma.eval,))),
        "galois_comparison": comparison,
    }
    _emit(payload, args)
    return 0 if comparison["ok"] else 3


def _corrections(inp: AsaiInput) -> dict:
    """The (psi, xi) split applied before the normalized-theorem assembly."""
    a0, a1, _ = _normalization(inp)
    return {
        "psi_shift_a": str(a0),
        "xi_scale_a": str(a1),
        "applied": "gamma *= omega^2(a0)|a0|^{4s-2} * omega(a1)|a1|^{2s-1}",
    }


def cmd_twisted_asai(args) -> int:
    inp = _asai_input(args)
    grid = _parse_grid(args)
    tol = _parse_tol(args)
    assembly1, report = gamma_psr(inp, grid, tol)
    payload = {
        "normalization_corrections": _corrections(inp),
        "gamma_psr": assembly1.to_json(),
        "gamma_table": eval_table(assembly1, resolve_grid(grid, (assembly1.eval,))),
        "assemblies": report,
    }
    _emit(payload, args)
    return 0 if report["ok"] else 3


def cmd_dichotomy(args) -> int:
    inp = _asai_input(args)
    if not inp.omega_total().is_trivial():
        raise InputError(
            "--char, --char2, --tau give a nontrivial omega; the dichotomy sign requires trivial omega"
        )
    sign = dichotomy_sign(inp)
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
    lam1 = _parse_complex(args.lam1, "--lam1")
    lam2 = _parse_complex(args.lam2, "--lam2")
    mu = arch.CChar(lam1, _parse_number(args.n1, "--n1", int))
    nu = arch.CChar(lam2, _parse_number(args.n2, "--n2", int))
    n0 = abs(mu.n - nu.n)
    if n0 > arch.CASE_N0_MAX:
        raise InputError(
            f"--n1/--n2: |n1 - n2| = {n0} is above {arch.CASE_N0_MAX}, "
            "past which the case integrals leave the float range"
        )
    grid = _parse_grid(args)
    try:
        report = arch.zeta_integral_case(mu, nu, grid or DEFAULT_GRID)
    except (PoleError, FloatRangeError) as exc:
        # on the default grid every input of the integral is the user's, so
        # the exponents are at fault; on the user's grid main names the
        # point, unless the default grid fails too
        fault = exc
        if grid:
            try:
                arch.zeta_integral_case(mu, nu, DEFAULT_GRID)
            except (PoleError, FloatRangeError) as exc_default:
                fault = exc_default
            else:
                raise
        at = f"s = {fault.where:g}"
        what = f"make {at} a pole" if isinstance(fault, PoleError) else f"take a factor out of the float range at {at}"
        raise InputError(f"--lam1/--lam2 {what}") from fault
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
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2)
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
    commands = {}
    # the defaults stand in for flags a command reads but does not take
    for name, func, summary, defaults in (
        ("tate", cmd_tate, "Tate L/eps/gamma of a single character", {}),
        ("asai", cmd_asai, "Theorem-A factors and the Galois comparison", {"tau": None}),
        ("twisted-asai", cmd_twisted_asai, "Theorem-B factor, both assemblies", {"twist": None}),
        ("dichotomy", cmd_dichotomy, "central-sign computation (omega = 1)",
         {"twist": None, "grid": None}),
        ("arch-zeta", cmd_arch_zeta, "archimedean case table and constants", {}),
        ("verify", cmd_verify, "run the oracle verification suites", {"grid": None}),
    ):
        commands[name] = sub.add_parser(name, help=summary)
        commands[name].set_defaults(func=func, **defaults)

    def add(names: str, flag: str, **kw) -> None:
        for name in names.split():
            commands[name].add_argument(flag, **kw)

    padic = "tate asai twisted-asai dichotomy"
    add(padic, "--field", required=True, help='e.g. \'{"p":3,"ext":"unramified"}\'')
    add(padic, "--char", required=True, help="a character; mu (on E^x) for the Asai commands")
    add("asai twisted-asai dichotomy", "--char2", required=True, help="nu (character of E^x)")
    add("asai", "--twist", help="chi (character of F^x)")
    tau_help = '{"mu2": {...}, "nu2": {...}, "v2": [re,im]}'
    add("twisted-asai dichotomy", "--tau", required=True, help=tau_help)
    add(padic, "--psi-shift")
    add(padic, "--xi-scale", help="scale xi by this rational (characters of E^x only)")
    add("arch-zeta", "--n1", required=True)
    add("arch-zeta", "--n2", required=True)
    add("arch-zeta", "--lam1", default="0")
    add("arch-zeta", "--lam2", default="0")
    add("tate asai twisted-asai arch-zeta", "--grid", help='s-grid "re,im;re,im;..."')
    add("asai twisted-asai", "--tol", help="comparison tolerance")
    add("verify", "--suite", default="all")
    add(padic + " arch-zeta verify", "--out", help="write the output to this file")
    add(padic + " arch-zeta", "--format", choices=("json", "table"), default="json")
    return ap


# the dests of the p-adic flags whose values reach the factors
_VALUE_FLAGS = ("char", "char2", "twist", "tau", "psi_shift", "xi_scale")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, FloatRangeError) as exc:
        # a pole or an overflow at a point the user asked for is the input's
        # fault; so is a value out of the float range anywhere else in a
        # p-adic command, whose floats are formed from its value flags.  A
        # pole anywhere else is the program's
        if args.grid and exc.where in _parse_grid(args):
            what = "is a pole" if isinstance(exc, PoleError) else "takes a factor out of the float range"
            print(f"input error: --grid point {exc.where:g} {what}", file=sys.stderr)
            return 2
        flags = ", ".join(f"--{dest.replace('_', '-')}" for dest in _VALUE_FLAGS if getattr(args, dest, None))
        if isinstance(exc, PoleError) or not flags:
            raise
        print(f"input error: {flags}: a value of the command leaves the float range", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"verification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
