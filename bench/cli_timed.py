"""Run one asailocal CLI command while sampling the CPU's speed.

    python3 bench/cli_timed.py ARGS...

Behaves as ``python -m asailocal ARGS...`` (same stdout and exit code).  The
speed samples taken while it ran (``speed.py``) go to standard error as its
last line, for the parent to convert the request's time to reference seconds.
"""

import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402

speed.start()
try:
    runpy.run_module("asailocal", run_name="__main__", alter_sys=True)
finally:
    speed.stop()
    sys.stdout.flush()
    speed.dump(sys.stderr)
