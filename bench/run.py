"""asailocal benchmark: one command for one workload, or all of them.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the asailocal sources
under ``src/`` of that checkout and nothing installed elsewhere.

Every pass of a workload runs in a fresh worker process (``worker.py``), one
process at a time, so every pass starts with cold caches, as a user's process
does.  Every end-to-end time is in reference seconds: raw wall time
corrected for the speed of the shared CPU while it passed (``speed.py``); the
raw wall times are kept in the run record.  With ``--trace 0`` passes repeat until
``--seconds`` have elapsed (a pass of a verify group or of
``factor-requests`` outlasts them, so those run one pass), set-up is timed
at least five times, and the end-to-end metrics of BENCHMARK.json are medians: ``wall_s``
over the passes, each request's latency over the passes (the percentiles are
taken over those), ``setup_s`` over the set-ups, ``peak_rss_mb`` over the
passes.  With ``--trace 1`` one untraced and one traced pass run, and the
per-layer metrics are reported; ``trace.overhead_s`` is the traced minus the
untraced wall time.

Every metric is printed as ``name = value unit``; the last line of standard
output is the JSON result.  The exit code is 0 when every request was
correct, 1 when one was not, and 2 when the checkout holds no asailocal
sources (then no result is printed).  Run records with provenance go to
``.bench_out/runs/``, spans to ``.bench_out/spans/``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import speed  # noqa: E402
import workloads as W  # noqa: E402
from tracer import layer_metrics  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_SETUP_SAMPLES = 5
# p85: the highest percentile with ten requests beyond it in a
# factor-requests pass (72 requests).
TAIL_PCT = 85
# A run must end within 180 s; no child is started past this point.
DEADLINE_S = 165.0
SUITE_METRICS = ("gauss", "whittaker", "arch-quadrature")


def _fail_setup(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_child(argv: list, timeout: float) -> tuple[dict | None, str]:
    """Run one worker to completion (its whole process group is killed on
    timeout) and return its JSON result, or None and the reason."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *argv],
        cwd=ROOT,
        env=W.child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"worker timed out after {timeout:.0f}s"
    if proc.returncode != 0:
        return None, f"worker exit {proc.returncode}: {err.decode()[-500:]}"
    lines = out.decode().strip().splitlines()
    try:
        return json.loads(lines[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"worker printed no result: {err.decode()[-500:]}"


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def provenance(args, workload: str, requests: list, spec: dict) -> dict:
    with open(os.path.join(BENCH_DIR, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "ref_kernel_s": speed.REF_KERNEL_S,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": {"name": workload, "why": why.get(workload), "requests": requests},
        "layer_map": layer_map,
    }


class Run:
    """One workload run: its passes, set-up samples and failures."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t0 = time.perf_counter()
        self.n_requests = len(W.make_requests(workload, seed))
        self.passes: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t0)

    def child(self, mode: str, spans: str | None = None) -> dict | None:
        argv = ["--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        if spans:
            argv += ["--spans", spans]
        res, why = run_child(argv, self.left())
        if mode != "setup":
            self.attempted += self.n_requests
        if res is None:
            self.notes.append(f"{mode}: {why}")
            if mode != "setup":
                self.failed += self.n_requests
            return None
        self.setups.append(res["setup_s"])
        if mode != "setup":
            self.failed += sum(not ok for ok in res["ok"])
            self.notes += res["notes"]
        return res


def measure(run: Run, seconds: float) -> dict:
    """Untraced: passes until ``seconds`` elapsed, then extra set-up
    samples.  Each request's latency is its median over the passes; the
    percentiles are taken over those."""
    t_start = time.perf_counter()
    while True:
        res = run.child("pass")
        if res is not None:
            run.passes.append(res)
        elapsed = time.perf_counter() - t_start
        last = res["wall_raw_s"] if res else elapsed
        if elapsed >= seconds or res is None or run.left() < 2 * last + 5:
            break
    while len(run.setups) < MIN_SETUP_SAMPLES and run.left() > 10:
        run.child("setup")
    if not run.passes:
        return {}
    lat = [statistics.median(t) for t in zip(*(p["latencies_s"] for p in run.passes))]
    wall = statistics.median(p["wall_s"] for p in run.passes)
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": wall,
        "requests_per_s": run.n_requests / wall,
        "latency_p50_ms": 1000.0 * percentile(lat, 50),
        "latency_p85_ms": 1000.0 * percentile(lat, TAIL_PCT),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes),
    }


def measure_traced(run: Run) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics."""
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans", f"{run.workload}-seed{run.seed}")
    plain = run.child("pass")
    traced = run.child("traced", spans)
    if plain is None or traced is None:
        return {}
    run.passes += [plain, traced]
    out = layer_metrics(traced["summary"])
    for name in SUITE_METRICS:
        out[f"suite.{name}_s"] = plain["suites_s"].get(name, 0.0)
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return out


def run_workload(args, workload: str, spec: dict) -> bool:
    run = Run(workload, args.seed)
    values = measure_traced(run) if args.trace else measure(run, args.seconds)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = bool(values) and run.failed == 0
    metrics = {}
    print(f"== {workload} seed={args.seed} trace={args.trace} passes={len(run.passes)}")
    n_lat = sum(len(p["latencies_s"]) for p in run.passes)
    for m in declared:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        extra = f"  (of {n_lat} request runs)" if m["name"].startswith("latency_") else ""
        print(f"  {m['name']} = {value:.6g} {m['unit']}{extra}")
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"  failed_share = {share:.6g} 1  ({run.failed} of {run.attempted} requests)")
    for note in run.notes:
        print(f"  FAILED {note}", file=sys.stderr)

    record = provenance(args, workload, W.make_requests(workload, args.seed), spec)
    record.update(
        metrics=metrics,
        failed_share=share,
        notes=run.notes,
        setups_s=run.setups,
        passes=[{k: v for k, v in p.items() if k != "summary"} for p in run.passes],
    )
    os.makedirs(os.path.join(OUT_DIR, "runs"), exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, "runs", name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"  provenance: git {record['git_sha']} python {record['python']} "
          f"numpy {record['numpy']} nproc {record['nproc']} -> .bench_out/runs/{name}")
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if values else max(run.attempted, 1),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(W.SRC, "asailocal", "__init__.py")):
        return _fail_setup(f"no asailocal sources under {W.SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail_setup(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        return _fail_setup(f"unknown workload {args.workload!r}; choose from {names} or all")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    # the build: byte-compile once so no pass pays for compilation
    compileall.compile_dir(W.SRC, quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)

    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        ok = run_workload(args, workload, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
