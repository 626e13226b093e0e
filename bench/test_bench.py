"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

They run only the cheap ``cli-readme`` workload end to end, about half a
minute in all.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT) -> tuple[int, list, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result


def test_same_seed_same_requests():
    for name in (w["name"] for w in SPEC["workloads"]):
        assert W.make_requests(name, 7) == W.make_requests(name, 7)
    assert W.make_requests("factor-requests", 7) != W.make_requests("factor-requests", 8)
    assert json.loads(json.dumps(W.make_requests("factor-requests", 7))) == W.make_requests(
        "factor-requests", 7
    )


def test_factor_request_characters_are_primitive():
    from asailocal.padic import PAdicGround, QuadExtension

    rng = random.Random(7)
    for p in W.PRIMES:
        F = PAdicGround(p)
        for ext in W.EXTENSIONS:
            for K in (F, QuadExtension(F, ext)):
                for level in W.LEVELS:
                    for _ in range(10):
                        assert W._rand_char(K, level, rng).n == level


def test_clock_scales_each_gap_by_the_speed_around_it():
    ref = speed.REF_KERNEL_S
    # ten 0.1 s samples, one a second: five at reference speed (one of them
    # slowed tenfold by itself), then five at half speed; given out of order
    durs = [ref, 10 * ref, ref, ref, ref] + [2 * ref] * 5
    starts = [float(i) for i in range(10)]
    clock = speed.Clock(starts[::-1], [t + 0.1 for t in starts][::-1], durs[::-1])
    assert clock.seconds(0.1, 1.0) == pytest.approx(0.9)
    assert clock.seconds(1.1, 2.0) == pytest.approx(0.9)  # the outlier is ignored
    assert clock.seconds(4.1, 5.0) == pytest.approx(0.9 / 1.5)
    assert clock.seconds(8.1, 9.0) == pytest.approx(0.45)
    assert clock.seconds(0.02, 0.08) == 0.0
    assert clock.seconds(9.1, 9.5) == pytest.approx(0.2)
    assert clock.seconds(0.0, 9.1) == pytest.approx(0.9 * (4 + 1 / 1.5 + 4 * 0.5))
    assert clock.raw_busy(0.0, 9.1) == pytest.approx(9.1 - 1.0)


def test_child_samples_merge_and_leave_stderr_clean():
    import io

    speed.start()
    speed.stop()
    stream = io.StringIO()
    stream.write("warning: something\n")
    speed.dump(stream)
    n = len(speed._starts)
    assert speed.merge(stream.getvalue()) == "warning: something\n"
    assert len(speed._starts) == 2 * n
    assert speed.merge("no samples\n") == "no samples\n"


def test_self_time_subtracts_children():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    tracer.wrap("outer", outer)()
    s = tracer.summary()
    assert s["outer.calls"] == 1 and s["inner.calls"] == 2
    sp = tracer.spans()
    total = sp["end"][0] - sp["start"][0]
    assert s["outer.self_s"] + s["inner.self_s"] == pytest.approx(total, rel=1e-9)
    assert s["outer.self_s"] < total


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_emitted_with_its_unit(trace):
    code, lines, result = bench("--workload", "cli-readme", "--seed", "3",
                                "--seconds", "1", "--trace", trace)
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"  {m['name']} = " in "\n".join(lines)
        if trace == "0":
            assert got["value"] > 0


def test_layer_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        code, _, result = bench("--workload", "cli-readme", "--seed", "1", "--trace", "1")
        assert code == 0
        counts.append({
            m["name"]: result["metrics"][m["name"]]["value"]
            for m in SPEC["per_layer"]
            if m["unit"] == "count"
        })
    assert counts[0] == counts[1]
    assert counts[0]["tate.tate_gamma.calls"] > 0


def test_layer_map_names_declared_metrics():
    with open(os.path.join(BENCH_DIR, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for entry in layer_map["entries"]:
        assert set(entry["per_layer"]) <= per_layer
        for metric, workload in entry["moves"]:
            assert metric in e2e | per_layer and workload in workloads
        assert set(entry["unchanged"]) <= workloads


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, result = bench("--workload", "cli-readme", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert code != 0 and result is None
