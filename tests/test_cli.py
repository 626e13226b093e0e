import argparse
import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asailocal import arch
from asailocal.cli import main
from asailocal.factors import DEFAULT_GRID, FloatRangeError, NonArchFactor, PoleError, factor_from_json


MU_JSON = '{"field":"E","conductor":1,"unit_part":["1/2"],"t":{"angle":"1/3"}}'
TRIV_F = '{"field":"F","conductor":0,"unit_part":[],"t":{"angle":"0"}}'


def test_tate_trivial(capsys):
    rc = main(["tate", "--field", '{"p":5}', "--char", "trivial"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    L = factor_from_json(out["L"])
    assert abs(L.eval(1) - 1.25) < 1e-12  # (1 - 1/5)^{-1}
    eps = factor_from_json(out["eps"])
    assert abs(eps.eval(0.5) - 1) < 1e-12


def test_tate_json_round_trip(capsys):
    rc = main(
        ["tate", "--field", '{"p":3,"ext":"ramified-p"}', "--char", MU_JSON]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    gamma = factor_from_json(out["gamma"])
    # the emitted table must match re-evaluation of the re-ingested factor
    for re_s, im_s, re_v, im_v in out["gamma_table"]:
        v = gamma.eval(complex(re_s, im_s))
        assert abs(v - complex(re_v, im_v)) < 1e-12


def test_asai_and_exit_codes(capsys):
    rc = main(
        [
            "asai",
            "--field",
            '{"p":3,"ext":"unramified"}',
            "--char",
            MU_JSON,
            "--char2",
            "trivial",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["galois_comparison"]["ok"]


def test_twisted_asai(capsys):
    tau = json.dumps(
        {
            "mu2": json.loads(TRIV_F),
            "nu2": json.loads(TRIV_F),
            "v2": [0.25, 0.1],
        }
    )
    rc = main(
        [
            "twisted-asai",
            "--field",
            '{"p":3,"ext":"ramified-p"}',
            "--char",
            MU_JSON,
            "--char2",
            "trivial",
            "--tau",
            tau,
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["assemblies"]["ok"]


def test_dichotomy_cli(capsys, monkeypatch):
    import asailocal.asai as asai

    def argv(mu2):
        tau = json.dumps({"mu2": json.loads(mu2), "nu2": json.loads(TRIV_F), "v2": 0})
        field = '{"p":5,"ext":"unramified"}'
        chars = ["--char", "trivial", "--char2", "trivial"]
        return ["dichotomy", "--field", field, *chars, "--tau", tau]

    rc = main(argv(TRIV_F))
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sign"] == "+1"
    # a non-trivial omega = omega_tau is the user's input error
    legendre = '{"field":"F","conductor":1,"unit_part":["1/2"],"t":{"angle":"0"}}'
    assert main(argv(legendre)) == 2
    assert "requires trivial omega" in capsys.readouterr().err

    # a ValueError raised inside the computation is a fault, not an input error
    def broken(inp):
        raise ValueError("internal fault")

    monkeypatch.setattr(asai, "eps_gal", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(argv(TRIV_F))


def test_arch_zeta_cli(capsys):
    rc = main(["arch-zeta", "--n1", "2", "--n2", "1", "--lam1", "0.1", "--lam2", "-0.05"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == 3 and out["ok"]


def test_malformed_input_exits_2(capsys):
    assert main(["tate", "--field", "not json", "--char", "trivial"]) == 2
    assert main(["tate", "--field", "{}", "--char", "trivial"]) == 2
    assert (
        main(["asai", "--field", '{"p":3}', "--char", "trivial", "--char2", "trivial"])
        == 2
    )


def test_supercuspidal_rejected(capsys):
    rc = main(
        [
            "asai",
            "--field",
            '{"p":3,"ext":"unramified"}',
            "--char",
            '{"supercuspidal": true}',
            "--char2",
            "trivial",
        ]
    )
    assert rc == 2
    assert "supercuspidal" in capsys.readouterr().err


def test_verify_single_suite(capsys):
    rc = main(["verify", "--suite", "combinatorial"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().err


def test_verify_out_writes_the_reports(tmp_path, capsys):
    out = tmp_path / "reports.json"
    assert main(["verify", "--suite", "combinatorial", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert isinstance(reports, list) and len(reports) == 1
    for rep in reports:
        assert list(rep) == ["name", "ok", "max_deviation", "detail", "elapsed"]
    assert reports[0]["name"] == "gamma-combinatorial-identity"


def test_verify_group_out_writes_each_report(tmp_path, capsys):
    # a group runs its three suites, in sorted order
    out = tmp_path / "reports.json"
    assert main(["verify", "--suite", "arch", "--out", str(out)]) == 0
    names = [rep["name"] for rep in json.loads(out.read_text())]
    assert names == ["arch-case-table", "arch-closed-vs-quadrature", "gamma-combinatorial-identity"]


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("input error:")


def test_precision_comes_from_field_alone(capsys, monkeypatch):
    # the environment sets nothing: --field is the one source of a field
    monkeypatch.setenv("ASAI_PRECISION", "9")
    for field, precision in (('{"p":5}', 12), ('{"p":5,"precision":9}', 9)):
        assert main(["tate", "--field", field, "--char", "trivial"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["input"]["field"]["precision"] == precision


def test_conductor_beyond_precision_exits_2(capsys):
    # the unit group of level 9 needs residues mod 3^9; refused before it is built
    char = '{"field":"F","conductor":9,"unit_part":["1/2"],"t":{"angle":"0"}}'
    assert main(["tate", "--field", '{"p":3,"precision":8}', "--char", char]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "precision" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    rc = main(["tate", "--field", '{"p":5}', "--char", "legendre", "--out", str(target)])
    assert rc == 0
    data = json.loads(target.read_text())
    eps = factor_from_json(data["eps"])
    assert abs(abs(eps.eval(0.5)) - 1) < 1e-10


def test_bad_grid_and_non_prime_p_exit_2(capsys):
    assert main(["tate", "--field", '{"p":5}', "--char", "trivial", "--grid", "abc"]) == 2
    assert "--grid" in capsys.readouterr().err
    assert main(["tate", "--field", '{"p":4}', "--char", "trivial"]) == 2
    assert "input error" in capsys.readouterr().err
    assert main(["tate", "--field", '{"p":3.5}', "--char", "trivial"]) == 2


def test_internal_consistency_failure_exits_3(capsys, monkeypatch):
    import asailocal.cli as cli
    from asailocal.tate import ConsistencyError

    def broken(fac, chi, psi):
        raise ConsistencyError("gamma oracle mismatch: dev=1.000e+00")

    monkeypatch.setattr(cli, "certify_gamma", broken)
    assert main(["tate", "--field", '{"p":5}', "--char", "legendre"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip() == "verification failure: ConsistencyError: gamma oracle mismatch: dev=1.000e+00"

    # gamma_RS with an Euler factor left in it gives an eps_RS that is not a monomial
    import asailocal.asai as asai
    from asailocal.factors import NonArchFactor

    euler = NonArchFactor.euler_inverse(3, 0.5)
    monkeypatch.setattr(asai, "gamma_rs", lambda inp: euler)
    field = '{"p":3,"ext":"unramified"}'
    assert main(["asai", "--field", field, "--char", "trivial", "--char2", "trivial"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("verification failure: ConsistencyError: eps is not a monomial")


@pytest.mark.parametrize(
    "argv",
    [
        ["tate", "--field", '{"p":5}', "--char", "trivial"],
        ["arch-zeta", "--n1", "2", "--n2", "1"],
        ["dichotomy", "--field", '{"p":5}', "--char", "trivial", "--char2", "trivial", "--tau", "{}"],
    ],
)
def test_tol_only_where_a_comparison_uses_it(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-3"])
    assert exc.value.code == 2


def test_bad_tol_exits_2(capsys):
    asai = ["asai", "--field", '{"p":3,"ext":"unramified"}']
    asai += ["--char", "trivial", "--char2", "trivial"]
    for bad in ("-1", "0", "nan", "inf", "x"):
        assert main(asai + ["--tol", bad]) == 2
        assert "--tol" in capsys.readouterr().err


def test_a_valid_tol_decides_the_comparison(capsys):
    # the README asai input deviates by 8.9e-16 (bench/golden/asai.json)
    readme = ["asai", "--field", '{"p":3,"ext":"unramified"}', "--char", MU_JSON,
              "--char2", "trivial", "--psi-shift", "3", "--xi-scale", "2"]
    assert main(readme) == 0
    assert json.loads(capsys.readouterr().out)["galois_comparison"]["ok"] is True
    assert main(readme + ["--tol", "1e-16"]) == 3
    report = json.loads(capsys.readouterr().out)["galois_comparison"]
    assert report["ok"] is False and report["max_deviation"] > 1e-16


def _subcommand_options():
    from asailocal.cli import build_parser

    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(opt for action in p._actions for opt in action.option_strings)
        for name, p in sub.choices.items()
    }


def test_each_subcommand_registers_exactly_its_options():
    padic = ["--field", "--format", "--help", "--out", "--psi-shift", "--xi-scale", "-h"]
    assert _subcommand_options() == {
        "tate": sorted(padic + ["--char", "--grid"]),
        "asai": sorted(padic + ["--char", "--char2", "--grid", "--tol", "--twist"]),
        "twisted-asai": sorted(padic + ["--char", "--char2", "--grid", "--tau", "--tol"]),
        "dichotomy": sorted(padic + ["--char", "--char2", "--tau"]),
        "arch-zeta": ["--format", "--grid", "--help", "--lam1", "--lam2", "--n1", "--n2", "--out", "-h"],
        "verify": ["--help", "--out", "--suite", "-h"],
    }


def test_table_format_for_tate(capsys):
    argv = ["tate", "--field", '{"p":5}', "--char", "trivial", "--grid", "2;0.5,1"]
    assert main(argv + ["--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["input:", "  field:", "    p: 5"]
    assert "    conductor: 0" in lines and "    lambda: 0" in lines
    # L(2) = (1 - 1/25)^{-1}; eps = 1 for an unramified character and psi of conductor 0
    at = lines.index("L_table:  (s -> value)")
    assert lines[at + 1] == "  s = +2.0000+0.0000i   ->   +1.0416666667e+00+0.0000000000e+00i"
    at = lines.index("eps_table:  (s -> value)")
    assert lines[at + 1 : at + 3] == [
        "  s = +2.0000+0.0000i   ->   +1.0000000000e+00+0.0000000000e+00i",
        "  s = +0.5000+1.0000i   ->   +1.0000000000e+00+0.0000000000e+00i",
    ]
    # the same numbers as the JSON tables
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    at = lines.index("gamma_table:  (s -> value)")
    for line, (re_s, im_s, re_v, im_v) in zip(lines[at + 1 : at + 3], payload["gamma_table"]):
        assert line == f"  s = {re_s:+.4f}{im_s:+.4f}i   ->   {re_v:+.10e}{im_v:+.10e}i"


def test_table_format_for_arch_zeta(capsys):
    argv = ["arch-zeta", "--n1", "2", "--n2", "1"]
    assert main(argv + ["--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert lines[0] == "case: 3" and lines[-1] == "ok: True"
    for section in ("constants", "expected", "deviations"):
        at = lines.index(f"{section}:")
        entries = payload[section]  # the JSON sorts its keys, the table does not
        assert sorted(lines[at + 1 : at + 1 + len(entries)]) == sorted(
            f"  {key}: {val}" for key, val in entries.items()
        )


_F5 = '{"p":5}'
_U3 = '{"p":3,"ext":"unramified"}'
_U5 = '{"p":5,"ext":"unramified"}'
_U7 = '{"p":7,"ext":"unramified"}'
_TAU_README = '{"mu2":%s,"nu2":%s,"v2":%%s}' % (TRIV_F, TRIV_F)
_HUGE_T = '{"field":"%s","conductor":1,"unit_part":["1/2"],"t":%s}'
# gamma_PSR of (MU_JSON, trivial) twisted by this tau has poles at the
# default points 0.7 and 1.3
_TAU_POLE = json.dumps({
    "mu2": json.loads(TRIV_F),
    "nu2": {"field": "F", "conductor": 1, "unit_part": ["1/2"], "t": {"angle": "1/3"}},
    "v2": 0.3,
})


def _unramified(field, extra):
    return json.dumps({"field": field, "conductor": 0, "unit_part": [], **extra})


def _t0(lam):
    return _unramified("F", {"t": {"angle": "0"}, "lambda": lam})


def _legendre_at(conductor):
    return json.dumps(
        {"field": "F", "conductor": conductor, "unit_part": ["1/2"], "t": {"angle": "0"}}
    )


_REPROS = [
    # a non-finite or zero number
    (["tate", "--field", _F5, "--char", '{"field":"F","lambda":[Infinity,0]}'], "--char"),
    (["tate", "--field", _F5, "--char", '{"field":"F","lambda":[1e400,0]}'], "--char"),
    (["tate", "--field", _F5, "--char", _unramified("F", {"t": [0, 0]})], "--char"),
    (["tate", "--field", _F5, "--char", '{"field":"F","t":[NaN,0]}'], "--char"),
    (["tate", "--field", _F5, "--char", '{"field":"F","t":[Infinity,0]}'], "--char"),
    (["tate", "--field", _F5, "--char", "trivial", "--grid", "nan"], "--grid"),
    (["arch-zeta", "--n1", "2", "--n2", "1", "--lam1", "inf"], "--lam1"),
    (
        ["twisted-asai", "--field", _U3, "--char", "trivial", "--char2", "trivial",
         "--tau", '{"mu2":{},"nu2":{},"v2":[NaN,0]}'],
        "--tau v2",
    ),
    # unit-part angles that are not a character
    (
        ["tate", "--field", _F5, "--char",
         '{"field":"F","conductor":1,"unit_part":["1/3"],"t":{"angle":"0"}}'],
        "--char",
    ),
    (
        ["tate", "--field", _U3, "--char",
         '{"field":"E","conductor":1,"unit_part":["1/5"],"t":{"angle":"0"}}'],
        "--char",
    ),
    # input the command cannot use
    (["tate", "--field", _F5, "--char", "trivial", "--xi-scale", "2"], "--xi-scale"),
    (["tate", "--field", _F5, "--char", "trivial", "--grid", "0"], "--grid"),
    (["tate", "--field", _F5, "--char", "trivial", "--grid", "1"], "--grid"),
    # the field tag of every character argument is checked
    (
        ["twisted-asai", "--field", _U3, "--char", "trivial", "--char2", "trivial",
         "--tau", '{"mu2":{"field":"E"},"nu2":{},"v2":0}'],
        "--tau mu2",
    ),
    (
        ["asai", "--field", _U3, "--char", "trivial", "--char2", "trivial",
         "--twist", '{"field":"E"}'],
        "--twist",
    ),
    (["asai", "--field", _U3, "--char", "legendre", "--char2", "trivial"], "--char"),
    (["tate", "--field", _F5, "--char", '{"field":"E"}'], "--char"),
    # valid exact input whose certification grid holds a pole: accepted
    (["tate", "--field", _F5, "--char", _t0("-7/10")], None),
    (["tate", "--field", _F5, "--char", _t0("-3/10")], None),
    (["tate", "--field", _F5, "--char", _t0("3/10")], None),
    (["tate", "--field", _U3, "--char", _t0("-7/10").replace('"F"', '"E"')], None),
    # an exact lambda beyond the float range
    (["tate", "--field", _F5, "--char", '{"lambda":"1e400"}'], "--char"),
    (["tate", "--field", _F5, "--char", '{"lambda":"-1e400"}'], "--char"),
    (["tate", "--field", _F5, "--char", '{"lambda":1' + "0" * 400 + "}"], "--char"),
    # a --grid point at a pole: for arch-zeta, 1 - s = -0.5 is a pole of a
    # Gamma factor of the dual integral
    (["arch-zeta", "--n1", "2", "--n2", "1", "--grid", "1.5;2,0.5"], "--grid point 1.5+0j"),
    (
        ["twisted-asai", "--field", _U7, "--char", MU_JSON, "--char2", "trivial",
         "--tau", _TAU_POLE, "--grid", "1.3"],
        "--grid point 1.3+0j",
    ),
    # a lambda in the float range whose q^(-lambda) under- or overflows
    (["tate", "--field", _F5, "--char", '{"lambda":"1e20"}'], "--char: 'lambda'"),
    (["tate", "--field", _F5, "--char", '{"lambda":"-1e20"}'], "--char: 'lambda'"),
    (["tate", "--field", _F5, "--char", '{"lambda":"1e300"}'], "--char: 'lambda'"),
    (["tate", "--field", _F5, "--char", '{"lambda":1e300}'], "--char: 'lambda'"),
    # a moderate lambda: Z(s, chi, Phi) scales like q^(-lambda s), far from 1,
    # and is certified all the same
    (["tate", "--field", _F5, "--char", '{"lambda":"60"}'], None),
    (["tate", "--field", _F5, "--char", '{"lambda":"-60"}'], None),
    (["tate", "--field", _F5, "--char", '{"lambda":"200"}'], None),
    (["tate", "--field", _F5, "--char", '{"lambda":"-440"}'], None),
    # a factor evaluated where |1 - alpha q^(-s)| overflows: its value at
    # s = 2.1+0.5i underflows (printed as -0.0 before), and --char is named
    (["tate", "--field", _F5, "--char", '{"lambda":"440"}'], "--char"),
    # a conductor that is not a JSON integer
    (["tate", "--field", _F5, "--char", _legendre_at(1.7)], "--char: conductor"),
    (["tate", "--field", _F5, "--char", _legendre_at("1")], "--char: conductor"),
    (["tate", "--field", _F5, "--char", _legendre_at(True)], "--char: conductor"),
    # a field's p or precision that is not a JSON integer
    (["tate", "--field", '{"p":5.0}', "--char", "trivial"], "--field"),
    (["tate", "--field", '{"p":5,"precision":9.0}', "--char", "trivial"], "--field"),
    (["tate", "--field", '{"p":5,"precision":true}', "--char", "trivial"], "--field"),
    # a chi(pi) that is not a normal float, given or reached through the
    # Galois constituents of an Asai command (q_E = 25 on unramified E)
    (["tate", "--field", _F5, "--char", '{"t":[1e-320,0]}'], "--char: 'lambda'"),
    (["tate", "--field", _F5, "--char", '{"t":[1e-300,0],"lambda":"100"}'], "--char: 'lambda'"),
    (
        ["twisted-asai", "--field", _U3, "--char", "trivial", "--char2", "trivial",
         "--tau", _TAU_README % "[1e300,0]"],
        "--tau",
    ),
    (
        ["dichotomy", "--field", _U5, "--char", "trivial", "--char2", "trivial",
         "--tau", _TAU_README % "1e300"],
        "--tau",
    ),
    (
        ["dichotomy", "--field", _U5, "--char", "trivial", "--char2", "trivial",
         "--tau", _TAU_README % "300"],
        "--tau",
    ),
    (
        ["asai", "--field", _U5, "--char", "trivial", "--char2", "trivial",
         "--twist", '{"field":"F","lambda":"300"}'],
        "--twist",
    ),
    (
        ["asai", "--field", _U5, "--char", '{"lambda":"150"}', "--char2", "trivial",
         "--twist", '{"field":"F","lambda":"150"}'],
        "--twist",
    ),
    # (rows are appended here: a row's test id carries its index)
    # JSON true or false where a number belongs
    (["tate", "--field", _F5, "--char", '{"field":"F","lambda":true}'], "--char"),
    (["tate", "--field", _F5, "--char", '{"field":"F","t":true}'], "--char"),
    (["tate", "--field", _F5, "--char", '{"field":"F","t":[true,false]}'], "--char"),
    (["tate", "--field", _F5, "--char", '{"field":"F","t":{"angle":true}}'], "--char"),
    (["tate", "--field", _F5, "--char", '{"field":"F","conductor":1,"unit_part":[true]}'], "--char"),
    (
        ["twisted-asai", "--field", _U3, "--char", "trivial", "--char2", "trivial",
         "--tau", '{"mu2":{},"nu2":{},"v2":true}'],
        "--tau v2",
    ),
    # a malformed --grid point or a zero --psi-shift
    (["tate", "--field", _F5, "--char", "trivial", "--grid", "1,2,3"], "--grid"),
    (["tate", "--field", _F5, "--char", "trivial", "--psi-shift", "0"], "--psi-shift"),
    # JSON that is not an object where an object belongs
    (["tate", "--field", "[3]", "--char", "trivial"], "--field"),
    (
        ["twisted-asai", "--field", _U3, "--char", "trivial", "--char2", "trivial",
         "--tau", '{"mu2":3,"nu2":{},"v2":0}'],
        "--tau mu2",
    ),
    # a JSON string where a number belongs, which complex() would parse
    (["tate", "--field", _F5, "--char", '{"field":"F","t":"0.5"}'], "--char"),
    (
        ["twisted-asai", "--field", _U3, "--char", "trivial", "--char2", "trivial",
         "--tau", _TAU_README % '"0.25"'],
        "--tau v2",
    ),
    # a --grid point where a power of q leaves the float range
    (["tate", "--field", _F5, "--char", "trivial", "--grid=1e300,0"], "--grid"),
    (["tate", "--field", _F5, "--char", "trivial", "--grid=-700,0"], "--grid"),
    (["tate", "--field", _F5, "--char", "trivial", "--grid=700,0"], "--grid"),
    (
        ["asai", "--field", _U3, "--char", MU_JSON, "--char2", "trivial",
         "--psi-shift", "3", "--xi-scale", "2", "--grid=1e300,0"],
        "--grid",
    ),
    (
        ["twisted-asai", "--field", _U3, "--char", "trivial", "--char2", "trivial",
         "--tau", _TAU_README % "[0.25,0]", "--grid=1e300,0"],
        "--grid",
    ),
    # arch-zeta at a --grid point where an exp or a log-Gamma overflows, or
    # the Gamma L-factor underflows to 0
    (["arch-zeta", "--n1", "2", "--n2", "1", "--grid", "1e300"], "--grid point 1e+300+0j"),
    (["arch-zeta", "--n1", "2", "--n2", "1", "--grid=-1e300"], "--grid point -1e+300+0j"),
    # arch-zeta at an integer --grid point where a Gamma argument of the dual
    # integral is a non-positive integer, and sin(pi z) a rounding residue
    (["arch-zeta", "--n1", "2", "--n2", "0", "--grid", "7"], "--grid point 7+0j"),
    (["arch-zeta", "--n1", "2", "--n2", "0", "--grid", "10"], "--grid point 10+0j"),
    # arch-zeta exponents that leave the float range, or make a pole, at the
    # default grid
    (["arch-zeta", "--n1", "2", "--n2", "1", "--lam1", "400"], "--lam1/--lam2"),
    (["arch-zeta", "--n1", "2", "--n2", "1", "--lam1=-400"], "--lam1/--lam2"),
    (["arch-zeta", "--n1", "2", "--n2", "1", "--lam1", "0,300"], "--lam1/--lam2"),
    (["arch-zeta", "--n1", "2", "--n2", "0", "--lam1=-0.7"], "--lam1/--lam2 make s = 0.7 a pole"),
    # an exponent out of range at every s: at a --grid point too, the
    # default grid fails as well, so the exponents are named, not --grid
    (["arch-zeta", "--n1", "2", "--n2", "1", "--lam1", "1e300", "--grid", "0.7"], "--lam1/--lam2"),
    # n0 = |n1 - n2| above arch.CASE_N0_MAX
    (["arch-zeta", "--n1", "1000", "--n2", "0"], "--n1/--n2: |n1 - n2| = 1000 is above 452"),
    (["arch-zeta", "--n1", "100000", "--n2", "0"], "--n1/--n2: |n1 - n2| = 100000 is above 452"),
    # a nonzero exponent at the largest n0: the sum over the Whittaker terms
    # overflows to NaN
    (["arch-zeta", "--n1", "452", "--n2", "0", "--lam1", "5"], "--lam1/--lam2"),
    (["arch-zeta", "--n1", "452", "--n2", "0", "--lam2=-5"], "--lam1/--lam2"),
    # gamma_PSR of a twist pair whose constituents' powers cancel in the
    # dependence monomial: in range, verified (a parse-time rule refused it)
    (
        ["twisted-asai", "--field", _U3, "--char", _HUGE_T % ("E", "1e100"), "--char2", "trivial",
         "--tau", '{"mu2":%s,"nu2":{"t":{"angle":"0"}}}' % (_HUGE_T % ("F", "1e-100")),
         "--psi-shift", "3"],
        None,
    ),
    # gamma_PSR's table underflowed to exact zeros, compared equal and
    # printed ok
    (
        ["twisted-asai", "--field", '{"p":3,"ext":"ramified-p"}', "--char", _HUGE_T % ("E", "1e-50"),
         "--char2", "trivial",
         "--tau", '{"mu2":%s,"nu2":{"t":{"angle":"0"}}}' % (_HUGE_T % ("F", "1"))],
        "--char",
    ),
    # a --grid point where gamma underflows to 0 (printed as 0.0 before)
    (["tate", "--field", '{"p":3}', "--char", "legendre", "--psi-shift", "3", "--grid=1e300"],
     "--grid"),
    # a zeta summand's first product (3.6e-106 times 5^-391) underflowed
    # though the summand is about 8e-275: exit 3, a false ConsistencyError
    (["tate", "--field", _F5, "--char", "trivial", "--psi-shift", "1e300"], "--psi-shift"),
]


@pytest.mark.parametrize("n2", [0, 1])
def test_arch_zeta_at_the_largest_n0_stays_in_the_float_range(n2):
    # both parities of n1 at n0 = CASE_N0_MAX, lam = 0: no factor leaves the
    # float range on the default grid (the check itself may fail, exit 3)
    n1 = arch.CASE_N0_MAX + n2
    report = arch.zeta_integral_case(arch.CChar(0, n1), arch.CChar(0, n2))
    assert math.isfinite(abs(report["c"])) and math.isfinite(abs(report["c_dual"]))


def test_arch_zeta_past_the_largest_n0_leaves_the_float_range():
    # one more, n1 odd: the sum over the Whittaker terms overflows to NaN,
    # and the ratio to the L-factor raises rather than return it
    n0 = arch.CASE_N0_MAX + 1
    with pytest.raises(FloatRangeError):
        arch.zeta_integral_case(arch.CChar(0, n0), arch.CChar(0, 0))


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


_EDGE_LAMS = ["0", "0.1", "-0.1", "5", "-5", "50", "-50", "0,5", "0.1,-0.1", "-5,50"]


@settings(max_examples=15)
@example(356, 0, "50", "0")
@example(0, 452, "0", "-5")
@given(
    st.integers(0, 460),
    st.integers(0, 460),
    st.sampled_from(_EDGE_LAMS),
    st.sampled_from(_EDGE_LAMS),
)
def test_arch_zeta_exits_0_2_or_3_with_strict_json(n1, n2, lam1, lam2):
    # n0 = |n1 - n2| up to past arch.CASE_N0_MAX, exponents at the edges:
    # a report (exit 0, or 3 when its check fails) is strict JSON, with no
    # NaN or Infinity, and a refusal is one line naming a flag
    argv = ["arch-zeta", "--n1", str(n1), "--n2", str(n2), f"--lam1={lam1}", f"--lam2={lam2}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3), argv
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
        assert re.match(r"input error: --(n1|n2|lam1|lam2)", err.getvalue()), argv
    else:
        json.loads(out.getvalue(), parse_constant=_no_constant)


# JSON values where a descriptor or --tau takes a number: strings and
# booleans among them, and numbers at the edges of the float range
_JSON_EDGES = st.sampled_from(
    [0, 1, -1, 0.5, "1/2", "1/3", 1e300, -1e300, 1e-300, 10**30, True, False, "0.5",
     "abc", [0.25, 0], [1e300, 1e-300], ["1", 0], None]
)
_T_EDGES = st.sampled_from(
    [0, 1, -1, 0.5, 2.5, 1e-3, True, False, "0.5", "abc", [0.6, 0.8], [1e-3, 0], ["1", 0], None,
     1e300, -1e300, 1e-300, [1e300, 1e-300], 1e150, 1e-150, 1e100, 1e-100, 1e40, 1e-40]
)
_EDGE_VALUES = {
    "field": st.sampled_from(["E", "F", "G", 5]),
    "conductor": st.sampled_from([0, 2, 1.7, "1", True, -1]),
    "unit_part": st.lists(st.one_of(st.sampled_from(["1/2", "1/3", "0"]), _JSON_EDGES), max_size=3),
    "t": st.one_of(_T_EDGES, st.fixed_dictionaries({"angle": _JSON_EDGES})),
    "lambda": _JSON_EDGES,
}


def _descriptors(field):
    """A valid descriptor of conductor 1 on ``field`` ("E" or "F"), with at
    most one entry replaced by a drawn edge value or left out."""

    def edit(key, value):
        desc = {"field": field, "conductor": 1, "unit_part": ["1/2"], "t": {"angle": "1/3"},
                "lambda": "0"}
        if key == "drop":
            del desc[value]
        elif key is not None:
            desc[key] = value
        return desc

    keys = st.sampled_from(list(_EDGE_VALUES))
    return st.one_of(
        st.builds(edit, st.none(), st.none()),
        st.builds(edit, st.just("drop"), keys),
        keys.flatmap(lambda key: st.builds(edit, st.just(key), _EDGE_VALUES[key])),
    )


_VALID_CHARS = {
    "E": ["trivial", MU_JSON, '{"lambda":"1/3"}', '{"t":[0.5,0.5]}'],
    "F": ["trivial", "legendre", TRIV_F, '{"field":"F","lambda":"1/2"}'],
}


def _chars(field):
    return st.one_of(st.sampled_from(_VALID_CHARS[field]), _descriptors(field).map(json.dumps))


# flag values where the CLI reads a rational or a grid, p-adic valuations
# up to 300 among them
_NUMBER_EDGES = st.sampled_from(
    ["3", "1/2", "-1", "0", "true", "abc", "nan", "1e-3", "5e-7", str(10**6),
     str(2**100), str(-(7**50)), "1/" + str(2**80), "1e300", "1e-300", "1/" + str(5**28),
     str(3**40), "1/" + str(15**20)]
)
_GRIDS = st.sampled_from(["0.7", "1.3,0.5;2", "1e300", "-1e300,0", "1e-300", "abc", "true"])
_P_ADIC_FLAGS = r"--(field|char2?|twist|tau|psi-shift|xi-scale|grid|tol)\b"


@st.composite
def p_adic_argv(draw):
    """argv for tate, asai, twisted-asai or dichotomy from the README
    grammar, every flag in its --flag=value form."""
    command = draw(st.sampled_from(["tate", "asai", "twisted-asai", "dichotomy"]))
    p = draw(st.sampled_from([3, 5]))
    exts = ["unramified", "ramified-p", "ramified-up"] + ([None] if command == "tate" else [])
    ext = draw(st.sampled_from(exts))
    field = {"p": p} if ext is None else {"p": p, "ext": ext}
    chars = _chars("E") if ext is not None else _chars("F")
    if command == "tate" and ext is not None:
        chars = st.one_of(chars, _chars("F"))
    argv = [command, "--field=" + json.dumps(field), "--char=" + draw(chars)]
    if command != "tate":
        argv.append("--char2=" + draw(chars))
    if command in ("twisted-asai", "dichotomy"):
        tau = {"mu2": draw(_descriptors("F")), "nu2": draw(_descriptors("F")),
               "v2": draw(st.one_of(_JSON_EDGES, st.sampled_from([0, 0.25])))}
        argv.append("--tau=" + json.dumps(tau))
    optional = {"--psi-shift": _NUMBER_EDGES, "--xi-scale": _NUMBER_EDGES}
    if command == "asai":
        optional["--twist"] = _chars("F")
    if command != "dichotomy":
        optional["--grid"] = _GRIDS
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


@settings(max_examples=40)
@given(p_adic_argv())
def test_p_adic_commands_exit_0_2_or_3(argv):
    # drawn inputs to the four p-adic commands end in a report (exit 0, or 3
    # when a check fails), strict JSON with no NaN or Infinity, or in one
    # input-error line naming a flag, never in a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3), argv
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
        assert err.getvalue().startswith("input error:"), argv
        assert re.search(_P_ADIC_FLAGS, err.getvalue()), (argv, err.getvalue())
    elif rc == 0 or out.getvalue():  # a ConsistencyError's exit 3 prints no report
        json.loads(out.getvalue(), parse_constant=_no_constant)


@pytest.mark.parametrize(
    "argv,flag",
    [
        # |a0|^-2 = 5^600 in the dependence monomial of gamma_RS
        (["asai", "--field", _U5, "--char", "trivial", "--char2", "trivial",
          "--psi-shift=1e300"], "--psi-shift"),
        # gamma_PSR's power of q leaves the float range on the default grid
        (["twisted-asai", "--field", _U5, "--char", "trivial", "--char2", "trivial",
          "--tau", _TAU_README % "0.25", "--psi-shift=1/" + str(5**28)], "--psi-shift"),
        # chi(pi) = -1e300 is a normal float, and chi(pi)^-2 in the Gauss sum is not
        (["tate", "--field", '{"p":3}', "--char", _HUGE_T % ("F", "-1e300"),
          "--psi-shift", "3"], "--char"),
        (["dichotomy", "--field", _U5, "--char", MU_JSON, "--char2", MU_JSON, "--tau",
          '{"mu2":%s,"nu2":%s,"v2":0.25}' % (_HUGE_T % ("F", "1e300"), _HUGE_T % ("F", 1))],
         "--tau"),
        # 1e-300 reads as 10^-300, so c(psi) = 300 and the oracle's zeta
        # terms leave the float range where the closed form does not
        (["tate", "--field", _F5, "--char", "legendre", "--psi-shift", "1e-300"], "--psi-shift"),
        # omega_pi(a0)^2 = (1e100)^-4 in the dependence monomial underflows:
        # gamma_RS and eps_Gal both printed 0, and compared equal
        (["asai", "--field", _U3, "--char", "trivial", "--char2", "trivial", "--twist",
          '{"field":"F","t":1e50}', "--psi-shift", "1/9"], "--twist"),
        # each Galois constituent's powers are normal floats, and their
        # product in gamma_RS is not: exit 3 with a NaN deviation before
        (["asai", "--field", _U3, "--char", "trivial", "--char2", "trivial", "--twist",
          '{"field":"F","conductor":1,"unit_part":["1/2"],"t":1e50}', "--psi-shift", "3"],
         "--twist"),
        (["twisted-asai", "--field", _U3, "--char",
          '{"conductor":1,"unit_part":["1/8"],"t":1e300}', "--char2", "trivial",
          "--tau", '{"mu2":{"t":{"angle":"0"}},"nu2":{"t":{"angle":"0"}}}'], "--char"),
        # the product of the two twists' gamma_RS overflows: exit 3 with a
        # NaN deviation before; its values are 3e393 to 4e399 on DEFAULT_GRID
        (["twisted-asai", "--field", _U3, "--char", _HUGE_T % ("E", "1e50"), "--char2", "trivial",
          "--tau", '{"mu2":%s,"nu2":{"t":{"angle":"0"}}}' % (_HUGE_T % ("F", "1e50"))], "--tau"),
    ],
    ids=["asai-psi-shift", "twisted-asai-psi-shift", "tate-t", "dichotomy-tau-t", "tate-psi-shift",
         "asai-twist-t", "asai-constituent-product", "twisted-asai-constituent-product",
         "twisted-asai-gamma-psr-product"],
)
def test_huge_t_or_shift_valuation_exits_2_naming_the_flag(argv, flag, capsys):
    # a value these inputs form leaves the float range where it is formed;
    # each used to end in a traceback, in exit 3 with dev=nan
    # (tate-psi-shift) or in a factor printed as 0 (asai-twist-t)
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err.startswith("input error:") and flag in err


# mu nu^-1 = |.|_E, with mu ramified, on each extension type at p = 3: the
# unit part of level 1 is one angle on every type
_RAMIFIED_PAIR = (
    '{"field":"E","conductor":1,"unit_part":["1/2"],"lambda":"1"}',
    '{"field":"E","conductor":1,"unit_part":["1/2"]}',
)


@pytest.mark.parametrize("command", ["asai", "twisted-asai", "dichotomy"])
@pytest.mark.parametrize("ext", ["unramified", "ramified-p", "ramified-up"])
def test_reducibility_point_exits_2_naming_char2(command, ext, capsys):
    # Ind(mu, nu) is reducible when mu nu^-1 = |.|_E^(+-1), an exact test on
    # integer data; its L-factor is not that of its generic constituent
    field = '{"p":3,"ext":"%s"}' % ext
    tau = ["--tau", _TAU_README % "0"] if command != "asai" else []
    pairs = [_RAMIFIED_PAIR, _RAMIFIED_PAIR[::-1], ('{"lambda":"1/2"}', '{"lambda":"-1/2"}')]
    for mu, nu in pairs:
        rc = main([command, "--field", field, "--char", mu, "--char2", nu, *tau])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "", (mu, nu)
        assert err.count("\n") == 1 and err.startswith("input error: --char2"), err
    # off the point: the same characters at lambda 1/2, or with t = -1
    for mu, nu in [
        (_RAMIFIED_PAIR[0].replace('"1"', '"1/2"'), _RAMIFIED_PAIR[1]),
        ('{"lambda":"1","t":{"angle":"1/2"}}', "trivial"),
    ]:
        rc = main([command, "--field", field, "--char", mu, "--char2", nu, *tau])
        out, err = capsys.readouterr()
        assert "--char2 gives" not in err and "Traceback" not in err, (mu, nu, err)


@pytest.mark.parametrize("argv,flag", _REPROS, ids=lambda v: None if isinstance(v, list) else v)
def test_each_input_ends_as_stated(argv, flag, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if flag is None:
        assert rc == 0 and err == ""
        json.loads(out)
    else:
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("input error:") and flag in err


@pytest.mark.parametrize("error", [PoleError, FloatRangeError])
@pytest.mark.parametrize("grid", [[], ["--grid", "0.7"]])
def test_pole_or_overflow_off_the_users_grid_raises(error, grid, monkeypatch, capsys):
    # only a point the user gave makes a pole the input's fault; a value out
    # of the float range is formed from the value flags, which are named
    def evaluate(self, s):
        raise error(2.5)

    monkeypatch.setattr(NonArchFactor, "eval", evaluate)
    argv = ["tate", "--field", _F5, "--char", "trivial", *grid]
    if error is PoleError:
        with pytest.raises(error):
            main(argv)
        return
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("input error: --char")


# v2 from 10 to 1e300 in size, and through 100..700, where |.|^(+-v2) of the
# twist reaches E through the norm at q_E = p^2 and leaves the float range
_SWEEP_V2 = [s * v for v in (10, 100, 1000, 1e300) for s in (1, -1)] + [
    s * v for v in range(100, 701, 40) for s in (1, -1)
]


def test_tau_v2_sweep_exits_0_2_or_3(capsys):
    # 240 inputs: none ends in a traceback, and each refusal is one line.
    # Exit 3 would be exactly a twisted-asai comparison whose deviation is
    # NaN: its two assemblies leave the float range, so nothing was
    # verified.  The 22 such inputs are refused, as a value of their
    # assemblies leaves the float range where it is formed.
    nan_inputs = 0
    for p in (3, 5, 7):
        for command in ("twisted-asai", "dichotomy"):
            for v2 in _SWEEP_V2:
                argv = [command, "--field", '{"p":%d,"ext":"unramified"}' % p,
                        "--char", "trivial", "--char2", "trivial",
                        "--tau", _TAU_README % json.dumps(v2)]
                rc = main(argv)
                out, err = capsys.readouterr()
                assert rc in (0, 2, 3), argv
                if rc == 2:
                    assert out == "" and err.count("\n") == 1, argv
                    assert err.startswith("input error:") and "--tau" in err, argv
                elif command == "twisted-asai":
                    dev = json.loads(out)["assemblies"]["max_deviation"]
                    assert (rc == 3) == math.isnan(dev), argv
                    nan_inputs += rc == 3
                else:
                    assert rc == 0, argv
    assert nan_inputs == 0


def test_default_table_points_step_off_a_pole(capsys):
    # L(s) = (1 - 5^{7/10 - s})^{-1} has a pole at the default point s = 0.7
    assert main(["tate", "--field", _F5, "--char", _t0("-7/10")]) == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("L_table", "gamma_table", "eps_table"):
        points = [complex(re_s, im_s) for re_s, im_s, _, _ in out[key]]
        assert points == [0.7 + 0.25j, *DEFAULT_GRID[1:]]


def test_asai_default_table_points_step_off_a_pole(capsys):
    # gamma_RS of |.|_E^{3/20} (x) 1 over unramified E, q = 3, has a pole at s = 0.7
    mu = _unramified("E", {"t": {"angle": "0"}, "lambda": "3/20"})
    argv = ["asai", "--field", _U3, "--char", mu, "--char2", "trivial"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    points = [complex(re_s, im_s) for re_s, im_s, _, _ in json.loads(out)["gamma_table"]]
    assert points == [0.7 + 0.25j, *DEFAULT_GRID[1:]]
    # the same point given by the user is refused
    assert main(argv + ["--grid", "0.7"]) == 2
    assert capsys.readouterr().err == "input error: --grid point 0.7+0j is a pole\n"


def test_twisted_asai_default_points_step_off_its_poles(capsys):
    argv = ["twisted-asai", "--field", _U7, "--char", MU_JSON, "--char2", "trivial"]
    assert main(argv + ["--tau", _TAU_POLE]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    points = [complex(re_s, im_s) for re_s, im_s, _, _ in payload["gamma_table"]]
    assert points == [0.7 + 0.25j, 1.3 + 0.25j, *DEFAULT_GRID[2:]]
    assert payload["assemblies"]["ok"]


@pytest.mark.parametrize(
    "argv,count",
    [
        (["tate", "--field", _F5, "--char", "trivial"], 1),
        (
            ["asai", "--field", _U3, "--char", MU_JSON, "--char2", "trivial",
             "--psi-shift", "3", "--xi-scale", "2"],
            4,  # the three Tate gammas of gamma_RS, and lambda_{E/F}
        ),
        (
            ["twisted-asai", "--field", _U3, "--char", "trivial", "--char2", "trivial",
             "--tau", _TAU_README % "[0.25,0]"],
            1,  # lambda_{E/F}
        ),
        (
            ["dichotomy", "--field", '{"p":5,"ext":"unramified"}', "--char", "trivial",
             "--char2", "trivial", "--tau", _TAU_README % "0"],
            1,  # lambda_{E/F}
        ),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_each_readme_command_certifies_its_gammas(argv, count, capsys, certified):
    # certify_gamma is the one certification step
    assert main(argv) == 0
    capsys.readouterr()
    assert len(certified) == count
