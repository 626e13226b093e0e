import json

import pytest

from asailocal.cli import main
from asailocal.factors import factor_from_json


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


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ASAI_PRECISION", "9")
    rc = main(["tate", "--field", '{"p":5}', "--char", "trivial"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["input"]["field"]["precision"] == 9


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

    def broken(chi, psi, check=True):
        raise ConsistencyError("gamma oracle mismatch: dev=1.000e+00")

    monkeypatch.setattr(cli, "tate_gamma", broken)
    assert main(["tate", "--field", '{"p":5}', "--char", "legendre"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip() == "verification failure: ConsistencyError: gamma oracle mismatch: dev=1.000e+00"

    # gamma_RS with an Euler factor left in it gives an eps_RS that is not a monomial
    import asailocal.asai as asai
    from asailocal.factors import NonArchFactor

    euler = NonArchFactor.euler_inverse(3, 0.5)
    monkeypatch.setattr(asai, "gamma_rs", lambda inp, check=True: euler)
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
