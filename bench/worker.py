"""One fresh benchmark process: set-up, then optionally one timed pass.

    python3 bench/worker.py --workload NAME --seed N --mode setup|pass|traced
        [--spans PATH]

Set-up is the import of the workload's entry module plus generating its
request list from the seed; it is timed from the top of ``main``, before any
asailocal module is imported.  A pass runs every request once, in order, and
times each.  ``traced`` installs the layer tracer before the pass.

The process samples the CPU's speed throughout (``speed.py``), and so does
every CLI child it starts: every time it reports is in reference seconds,
with the raw wall time beside it (``*_raw_s``).  The result is one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import workloads as W  # noqa: E402


def _run_pass(workload: str, requests: list, spans: str | None) -> dict:
    """Run every request once; the times are raw ``(start, end)`` pairs."""
    latencies, oks, notes, suites, cli_parts = [], [], [], {}, []
    t_pass = time.perf_counter()
    for i, req in enumerate(requests):
        # a speed sample at every request boundary: CLI requests run in a
        # child, where the parent's CPU-time sampling does not fire
        speed.sample()
        t0 = time.perf_counter()
        try:
            if workload in W.VERIFY_GROUPS:
                ok, note, times = W.run_suites(req)
                suites.update(times)
            elif workload == "factor-requests":
                ok, note = W.run_factor_request(req)
            else:
                part = f"{spans}.{req['name']}.json" if spans else None
                ok, note = W.run_cli_request(req, part)
                if part:
                    cli_parts.append(part)
        except Exception as exc:  # a failed request is counted, not fatal
            ok, note = False, f"{type(exc).__name__}: {exc}"
        latencies.append((t0, time.perf_counter()))
        oks.append(ok)
        if not ok:
            notes.append(f"request {i} {json.dumps(req)}: {note}")
    wall = (t_pass, time.perf_counter())
    who = resource.RUSAGE_CHILDREN if workload == "cli-readme" else resource.RUSAGE_SELF
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "ok": oks,
        "notes": notes,
        "suites_s": suites,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "cli_parts": cli_parts,
    }


def _to_reference(result: dict, clock: speed.Clock) -> None:
    """Replace the raw (start, end) pairs by reference seconds, keeping the
    raw wall and set-up times beside them."""
    for key in ("setup_s", "wall_s"):
        if key in result:
            t0, t1 = result[key]
            result[key] = clock.seconds(t0, t1)
            result[key.replace("_s", "_raw_s")] = clock.raw_busy(t0, t1)
    if "latencies_s" in result:
        result["latencies_s"] = [clock.seconds(*span) for span in result["latencies_s"]]
        result["suites_s"] = {n: clock.seconds(*span) for n, span in result["suites_s"].items()}


def main(argv=None) -> int:
    speed.start()
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--spans", help="traced mode: path prefix for the span files")
    args = ap.parse_args(argv)

    W.import_entry(args.workload)
    requests = W.make_requests(args.workload, args.seed)
    result = {"setup_s": (t_start, time.perf_counter())}
    if args.mode == "setup":
        speed.stop()
        _to_reference(result, speed.Clock())
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced" and args.workload != "cli-readme":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    spans = args.spans if args.mode == "traced" else None
    result.update(_run_pass(args.workload, requests, spans))
    speed.stop()
    _to_reference(result, speed.Clock())

    if tracer is not None:
        tracer.write(args.spans + ".npz")
        result["summary"] = tracer.summary()
        result["counts_by_suite"] = tracer.counts_by_suite()
    elif spans:
        # cli-readme: each traced example wrote its own summary
        from tracer import merge

        parts = []
        for path in result["cli_parts"]:
            if os.path.exists(path):
                with open(path) as fh:
                    parts.append(json.load(fh))
        result["summary"] = merge(parts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
