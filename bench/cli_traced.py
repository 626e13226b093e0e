"""Run one asailocal CLI command under the layer tracer.

    python3 bench/cli_traced.py SUMMARY_PATH ARGS...

Behaves as ``python -m asailocal ARGS...`` (same stdout and exit code) and
writes a JSON summary to SUMMARY_PATH: the per-layer counts and self times,
``cli.import_s`` (the ``import asailocal.cli`` time) and ``cli.main_s`` (the
time inside ``main``).  The spans go next to it as ``SUMMARY_PATH.npz``.  Like
``cli_timed.py`` it samples the CPU's speed and writes the samples to
standard error as its last line.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402

speed.start()
t0 = time.perf_counter()
import asailocal.cli  # noqa: E402  (timed: the import is what is measured)

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    code = asailocal.cli.main(argv)
    main_s = time.perf_counter() - t1
    speed.stop()
    sys.stdout.flush()
    speed.dump(sys.stderr)
    summary = tracer.summary()
    summary["cli.import_s"] = import_s
    summary["cli.main_s"] = main_s
    tracer.write(out_path + ".npz")
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
