"""The verify suites' reduction of deviations to a report, and the failure
paths that the default inputs never reach."""

import math

import pytest

from asailocal import verify
from asailocal.cli import main
from asailocal.cyclotomic import Cyc


def test_nan_deviation_fails_the_suite(monkeypatch, capsys):
    # a NaN is the worst deviation: max(worst, nan) would have dropped it
    monkeypatch.setattr(verify, "gauss_sum", lambda chi, psi: float("nan"))
    rep = verify.suite_gauss_modulus()
    assert rep["ok"] is False
    assert math.isnan(rep["max_deviation"])
    assert rep["detail"] == "409 primitive characters over p in (3, 5, 7)"
    assert main(["verify", "--suite", "gauss"]) == 3
    assert "[FAIL] gauss-sum-modulus: max deviation nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, detail",
    [
        ("w_case1", "case-1 mismatch at p=3 unramified c=1 a=2/9"),
        ("w_case2", "case-2 mismatch at p=3 unramified c=1 a=2/27"),
    ],
)
def test_whittaker_mismatch_names_the_first_value(monkeypatch, family, detail):
    monkeypatch.setattr(verify, family, lambda sec, a: Cyc.rational(7))
    assert verify.suite_whittaker_closed_forms() == {
        "name": "whittaker-closed-forms",
        "ok": False,
        "max_deviation": math.inf,
        "detail": detail,
    }


def test_suite_groups_partition_the_suites():
    # `verify --suite GROUP` and the two verify workloads run each suite once
    grouped = [name for names in verify.SUITE_GROUPS.values() for name in names]
    assert sorted(grouped) == sorted(verify.SUITES)
