"""Acceptance suite: one test per criterion, each run as `asailocal verify
--suite NAME` runs it, through `verify.run_suites`.

The suites fix their own samples and tolerances; each test pins its
criterion on the report: the sample count through the exact `detail` text,
the tolerance on `max_deviation`, and the time limit on `elapsed`.
`run_suites` prints the one-line [PASS]/[FAIL] summary to stderr (visible
with `pytest -s` or in the captured output on failure).
"""

from asailocal.verify import run_suites


def test_criterion_01_gauss_sum_modulus():
    # |gauss_sum| = p^{n/2} for all primitive chi, n <= 3, p in {3,5,7};
    # absolute tolerance 1e-9; under 5 seconds
    (rep,) = run_suites(["gauss"])
    assert rep["detail"] == "409 primitive characters over p in (3, 5, 7)"
    assert rep["ok"] and rep["max_deviation"] < 1e-9, rep
    assert rep["elapsed"] < 5.0, rep


def test_criterion_02_phi_independence():
    # 50 random characters, conductor <= 2, p in {3,5}, deviation < 1e-10
    (rep,) = run_suites(["phi-independence"])
    assert rep["detail"] == "50 random characters, 3 test functions, 3 s-points"
    assert rep["ok"] and rep["max_deviation"] < 1e-10, rep


def test_criterion_03_theorem_a_unramified():
    # 10 random unramified pairs per extension type of Q3 and Q5, 5-point
    # grid, relative 1e-8, under 30 seconds
    (rep,) = run_suites(["theorem-a"])
    assert rep["detail"] == "10 random unramified pairs x 3 extensions x p in (3, 5)"
    assert rep["ok"] and rep["max_deviation"] < 1e-8, rep
    assert rep["elapsed"] < 30.0, rep


def test_criterion_04_whittaker_closed_forms():
    # exact reproduction (zero deviation) of both averaged-vector closed
    # forms for c(mu) <= 2, p in {3,5}, all three extension types
    (rep,) = run_suites(["whittaker"])
    assert rep["detail"] == "90 exact values (both closed forms, all extension types)"
    assert rep["ok"] and rep["max_deviation"] == 0.0, rep


def test_criterion_05_eps_corollary():
    # eps_RS = omega(xi)|xi^2|^{s-1/2} lambda^{-1} eps_Gal for 20 random
    # principal-series inputs, grid tolerance 1e-8
    (rep,) = run_suites(["eps-corollary"])
    assert rep["detail"] == (
        "20 random principal-series inputs (ramified and unramified E)"
        " and 20 split E = F x F inputs"
    )
    assert rep["ok"] and rep["max_deviation"] < 1e-8, rep


def test_criterion_06_arch_case_table():
    # per parity class: Z/L equals the tabulated constant (grid spread
    # < 1e-6 relative), eps_RS in {1, i, -i} as tabulated, relation holds;
    # under 60 seconds including quadrature elsewhere in the arch suite
    (rep,) = run_suites(["arch-cases"])
    assert rep["detail"] == "cases seen: [1, 2, 3, 4, 5]"
    assert rep["ok"] and rep["max_deviation"] < 1e-6, rep
    assert rep["elapsed"] < 60.0, rep


def test_criterion_07_closed_vs_quadrature():
    # Lemma closed form vs 2-D quadrature, 10 random admissible indices,
    # relative 1e-6 (the suite itself decides ok at 1e-11)
    (rep,) = run_suites(["arch-quadrature"])
    assert rep["detail"] == "10 admissible indices at s=2.4+0.2j"
    assert rep["ok"] and rep["max_deviation"] < 1e-6, rep


def test_criterion_08_combinatorial_identity():
    # N <= 6 at 20 random (z, w), relative deviation < 1e-9
    (rep,) = run_suites(["combinatorial"])
    assert rep["detail"] == "N <= 6, 20 random (z, w)"
    assert rep["ok"] and rep["max_deviation"] < 1e-9, rep


def test_criterion_09_theorem_b_equality():
    # assembly-1 equals assembly-2 on the grid for 20 random inputs, 1e-8
    (rep,) = run_suites(["theorem-b"])
    assert rep["detail"] == "20 random twisted inputs"
    assert rep["ok"] and rep["max_deviation"] < 1e-8, rep


def test_criterion_10_dependence_laws():
    # psi-shift and xi-scale laws as exact transformation properties, 1e-8
    (rep,) = run_suites(["dependence"])
    assert rep["detail"] == (
        "psi-shift and xi-scale laws for gamma_RS/gamma_PSR and the arch relation"
    )
    assert rep["ok"] and rep["max_deviation"] < 1e-8, rep


def test_criterion_11_dichotomy():
    # value within 1e-8 of +-1 for 20 random omega=1 bundles, invariant
    # under psi/xi rescaling
    (rep,) = run_suites(["dichotomy"])
    assert rep["detail"] == (
        "20 omega=1 bundles, psi and xi rescaled: sign +1 every time, as forced"
    )
    assert rep["ok"] and rep["max_deviation"] < 1e-8, rep
