"""The four benchmark workloads: their request lists, and how one request
is run and checked for correctness.

Each workload is a closed loop with one client: a pass runs its requests one
after another in a fresh process.  Only ``factor-requests`` draws its inputs
from the seed; the verify suites keep the fixed seeds of their default
arguments and the CLI examples are the README's own, so for those three
workloads the seed changes nothing.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

# the `asailocal verify --suite <group>` each verify workload runs
VERIFY_GROUPS = {"verify-nonarch": "nonarch", "verify-arch": "arch"}

# -- factor-requests ---------------------------------------------------------
KINDS = ("tate", "asai", "twisted", "dichotomy")
PRIMES = (3, 5)
EXTENSIONS = ("unramified", "ramified-p", "ramified-up")
LEVELS = (0, 1, 2)
TOL = 1e-8

# -- cli-readme ---------------------------------------------------------------
_TRIV = '{"field":"F","conductor":0,"unit_part":[],"t":{"angle":"0"}}'
_CHAR = '{"field":"E","conductor":1,"unit_part":["1/2"],"t":{"angle":"1/3"}}'
_TAU_V = '{"mu2":%s,"nu2":%s,"v2":%s}'
CLI_EXAMPLES = [
    ("tate-p5", ["tate", "--field", '{"p":5}', "--char", "trivial"]),
    ("tate-p3-ramified", ["tate", "--field", '{"p":3,"ext":"ramified-p"}', "--char", _CHAR]),
    (
        "asai",
        [
            "asai", "--field", '{"p":3,"ext":"unramified"}', "--char", _CHAR,
            "--char2", "trivial", "--psi-shift", "3", "--xi-scale", "2",
        ],
    ),
    (
        "twisted-asai",
        [
            "twisted-asai", "--field", '{"p":3,"ext":"unramified"}', "--char", "trivial",
            "--char2", "trivial", "--tau", _TAU_V % (_TRIV, _TRIV, "[0.25,0]"),
        ],
    ),
    ("arch-zeta", ["arch-zeta", "--n1", "2", "--n2", "1", "--lam1", "0.1", "--lam2", "-0.05"]),
    (
        "dichotomy",
        [
            "dichotomy", "--field", '{"p":5,"ext":"unramified"}', "--char", "trivial",
            "--char2", "trivial", "--tau", _TAU_V % (_TRIV, _TRIV, "0"),
        ],
    ),
]

def child_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` first,
    and numpy's BLAS held to one thread so every process is single-threaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("ASAI_PRECISION", None)
    return env


def import_entry(workload: str) -> None:
    """Import what the workload's requests call (part of set-up)."""
    if workload == "cli-readme":
        import asailocal.cli  # noqa: F401  (what every CLI request imports)
    else:
        import asailocal.verify  # noqa: F401  (imports every layer module)


def make_requests(workload: str, seed: int) -> list:
    """The workload's request list.  Plain data: equal seeds, equal lists."""
    if workload in VERIFY_GROUPS:
        # one request is one `asailocal verify --suite <group>` invocation
        return [{"group": VERIFY_GROUPS[workload]}]
    if workload == "factor-requests":
        # One request per (kind, p, extension, conductor) cell, in a fixed
        # order: the seed draws the characters, not which request pays for
        # building a unit group first, so percentiles compare across seeds.
        rng = random.Random(seed)
        return [
            {"kind": k, "p": p, "ext": e, "level": lv, "seed": rng.randrange(2**32)}
            for k in KINDS
            for p in PRIMES
            for e in EXTENSIONS
            for lv in LEVELS
        ]
    if workload == "cli-readme":
        return [{"name": name, "argv": argv} for name, argv in CLI_EXAMPLES]
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# running one request
# ---------------------------------------------------------------------------


def run_suites(req: dict) -> tuple[bool, str, dict]:
    """Run the group's suites through ``verify.run_suites``, as ``asailocal
    verify`` does; returns each suite's raw ``(start, end)`` perf_counter
    span, taken by wrapping its entry in ``verify.SUITES`` for the call."""
    from asailocal import verify

    names = sorted(verify.SUITE_GROUPS[req["group"]])
    spans, saved = {}, dict(verify.SUITES)

    def timed(name, fn):
        def run():
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                spans[name] = (t0, time.perf_counter())

        return run

    for name in names:
        verify.SUITES[name] = timed(name, saved[name])
    try:
        reports = verify.run_suites(names)
    finally:
        verify.SUITES.update(saved)
    ok, notes = True, []
    for name, rep in zip(names, reports):
        good = bool(rep["ok"])
        if name == "whittaker" and rep["max_deviation"] != 0.0:
            good = False
        if not good:
            notes.append(f"{name}: max_deviation={rep['max_deviation']!r} {rep['detail']}")
        ok = ok and good
    return ok, "; ".join(notes), spans


def _rand_char(K, level: int, rng: random.Random):
    """A random character of conductor exactly ``level`` (at most 2), built
    once from its angles as the CLI parser builds a ``--char``.

    Each angle is k/d with k a unit mod the generator's order d, so the
    character is non-trivial on the residue units (level 1) and on the
    one-units of level 1 (level 2): primitive by construction.
    """
    from asailocal.characters import MultChar, Phase
    from asailocal.unitgroups import unit_group

    angles = [
        Fraction(rng.choice([k for k in range(d) if math.gcd(k, d) == 1]), d)
        for d in unit_group(K, level).orders
    ]
    t = Phase.exact(Fraction(rng.randrange(12), 12))
    return MultChar.from_angles(K, level, angles, t, 0)


def run_factor_request(req: dict) -> tuple[bool, str]:
    """One single-factor request, as the CLI subcommand of that name runs it."""
    from asailocal.asai import (
        AsaiInput,
        TwistedPair,
        dichotomy_sign,
        eps_gal_comparison,
        eps_rs,
        gamma_psr,
        gamma_rs,
        l_rs,
    )
    from asailocal.characters import psi_to_E, restrict_to_F, standard_psi
    from asailocal.factors import DEFAULT_GRID, eval_table
    from asailocal.padic import PAdicGround, QuadExtension
    from asailocal.tate import tate_L, tate_eps, tate_gamma

    rng = random.Random(req["seed"])
    F = PAdicGround(req["p"])
    E = QuadExtension(F, req["ext"])
    psi = standard_psi(F)
    level = req["level"]
    kind = req["kind"]
    if kind == "tate":
        chi = _rand_char(E, level, rng)
        psi_e = psi_to_E(psi, E, E.xi())
        for fac in (tate_L(chi), tate_gamma(chi, psi_e), tate_eps(chi, psi_e)):
            eval_table(fac, DEFAULT_GRID)
        return True, ""
    mu, nu = _rand_char(E, level, rng), _rand_char(E, level, rng)
    if kind == "asai":
        inp = AsaiInput(E, mu, nu, psi, E.xi())
        gamma_rs(inp, check=True)
        eps_rs(inp, check=False)
        l_rs(inp)
        rep = eps_gal_comparison(inp, DEFAULT_GRID, TOL)
        return bool(rep["ok"]), "" if rep["ok"] else f"deviation {rep['max_deviation']!r}"
    mu2 = _rand_char(F, level, rng)
    if kind == "twisted":
        v2 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        tau = TwistedPair(mu2, _rand_char(F, level, rng), v2)
        _, rep = gamma_psr(AsaiInput(E, mu, nu, psi, E.xi(), None, tau), DEFAULT_GRID, TOL)
        return bool(rep["ok"]), "" if rep["ok"] else f"deviation {rep['max_deviation']!r}"
    if kind == "dichotomy":
        nu2 = restrict_to_F(mu.mul(nu)).mul(mu2).inv()
        tau = TwistedPair(mu2, nu2, rng.choice([0.0, 0.25]))
        sign = dichotomy_sign(AsaiInput(E, mu, nu, psi, E.xi(), None, tau), TOL)
        return sign in (1, -1), "" if sign in (1, -1) else f"sign {sign!r}"
    raise KeyError(kind)


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def run_cli_request(req: dict, traced_out: str | None = None) -> tuple[bool, str]:
    """One README example as its own interpreter; stdout must equal the golden.

    The example runs as ``python -m asailocal`` does, under ``cli_timed.py``,
    which hands the child's speed samples back on standard error.  With
    ``traced_out`` it runs under the tracing shim instead, which also writes
    its layer summary to that path.
    """
    if traced_out is None:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_timed.py"), *req["argv"]]
    else:
        shim = os.path.join(BENCH_DIR, "cli_traced.py")
        cmd = [sys.executable, shim, traced_out, *req["argv"]]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True)
    stderr = speed.merge(proc.stderr.decode())
    with open(golden_path(req["name"]), "rb") as fh:
        want = fh.read()
    if proc.returncode != 0:
        return False, f"exit {proc.returncode}: {stderr[-300:]}"
    if proc.stdout != want:
        return False, "stdout differs from golden"
    return True, ""
