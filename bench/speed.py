"""Host-speed correction: raw perf_counter intervals -> reference seconds.

The CPUs this benchmark was built on are shared with other tenants: for
seconds at a time the same code runs up to about twice as slow, and the share
of slow time drifts over minutes, so the raw wall time of one unchanged pass
spreads by up to 40 % from run to run.  Neither the minimum nor the median
over passes removes that when a single pass lasts 15-40 s.

So the worker measures how fast the CPU is running while it works.  A fixed
pure-Python kernel (integer arithmetic, dict stores, ``Fraction`` sums and
float/complex math: the mix the asailocal layers run) is timed every
``SAMPLE_CPU_S`` of process CPU time from a ``SIGPROF`` handler, and at the
boundaries of every request (``sample()``).  A CLI request runs in a child
process that samples itself the same way and hands its samples back
(``dump``/``merge``).  Every stretch of time between two samples is scaled by
``REF_KERNEL_S`` over the mean of the two kernel times that bound it, each a
median over neighbouring samples; the samples' own time is left out.

The result, in *reference seconds*, is the time the interval would have taken
at the speed at which the kernel takes ``REF_KERNEL_S``: its uncontended
speed on the reference host (an Intel Xeon 4th-gen KVM guest, Python 3.11).
On that host, over ten runs of each workload, the raw wall times of the same
passes spread (interquartile range over median) by 12-30 % and the corrected
ones by 2-3 %.

The kernel is the benchmark's own code, so a change to asailocal cannot
change ``REF_KERNEL_S``'s meaning; only the host's speed moves the kernel.
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import time
from array import array
from bisect import bisect_right
from fractions import Fraction

# the kernel's time on an uncontended reference-host CPU (its 5th percentile
# over a minute of samples); reference seconds are seconds at that speed
REF_KERNEL_S = 0.00031
# process CPU time between two samples (sampling then costs ~3 %)
SAMPLE_CPU_S = 0.02
# a sample's kernel time is the median over it and SMOOTH samples either side
SMOOTH = 2

# 30-point Gauss-Legendre nodes and weights, as plain floats
_NODES = [math.cos(math.pi * (k + 0.75) / 30.5) for k in range(30)]
_WEIGHTS = [1.0 / (1.0 + k) for k in range(30)]

# each sample: when it started and ended, and the timed kernel run's length
_starts = array("d")
_ends = array("d")
_durs = array("d")


def kernel() -> None:
    """The fixed calibration work; its time measures the CPU's speed now."""
    s, d = 0, {}
    for i in range(1, 1000):
        s += (i * 7) % 13
        d[i % 101] = (s, i)
    q = Fraction(0)
    for i in range(1, 75):
        q += Fraction(i % 7, i % 11 + 1)
    z = 0j
    for _ in range(2):
        for x, w in zip(_NODES, _WEIGHTS):
            z += w * math.exp(-x * x) * complex(x, 1.0)


def sample() -> None:
    """Run the kernel twice and record when and how long the second run
    took: the first brings its code and data back into the CPU's caches,
    which the work (or a child process) in between has evicted."""
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    kernel()
    t2 = time.perf_counter()
    _starts.append(t0)
    _ends.append(t2)
    _durs.append(t2 - t1)


def _on_sigprof(signum, frame) -> None:
    sample()


def start() -> None:
    """Forget earlier samples, take one, and sample every ``SAMPLE_CPU_S``
    of CPU time from now on."""
    del _starts[:], _ends[:], _durs[:]
    signal.signal(signal.SIGPROF, _on_sigprof)
    sample()
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)


def stop() -> None:
    """Stop the periodic sampling and take a last sample."""
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    sample()


SAMPLES_TAG = "speed-samples "


def dump(stream) -> None:
    """Write the samples as one tagged line (a child process's last line
    on standard error)."""
    stream.write(SAMPLES_TAG + json.dumps([list(_starts), list(_ends), list(_durs)]) + "\n")


def merge(text: str) -> str:
    """Add the samples a child process dumped into ``text`` to this
    process's own (perf_counter is the same clock in every process) and
    return ``text`` without that line."""
    head, sep, tail = text.rpartition(SAMPLES_TAG)
    if not sep:
        return text
    line, _, rest = tail.partition("\n")
    for arr, values in zip((_starts, _ends, _durs), json.loads(line)):
        arr.extend(values)
    return head + rest


class Clock:
    """Reference time as a function of raw perf_counter time, from the
    samples taken so far (build it after the intervals it converts)."""

    def __init__(self, starts=_starts, ends=_ends, durs=_durs):
        if not starts:
            raise ValueError("no speed samples taken")
        rows = sorted(zip(starts, ends, durs))
        self.starts, self.ends, raw = (list(col) for col in zip(*rows))
        # a sample can be slowed by what ran beside it (a page fault, a new
        # process's start); the median of its neighbours ignores that
        self.durs = [
            statistics.median(raw[max(0, i - SMOOTH):i + SMOOTH + 1]) for i in range(len(raw))
        ]
        # cum[i]: reference time from the first sample to the start of sample i
        self.cum = [0.0]
        for i in range(1, len(self.starts)):
            gap = self.starts[i] - self.ends[i - 1]
            self.cum.append(self.cum[-1] + gap * self._factor(i))

    def _factor(self, i: int) -> float:
        """Speed factor of the gap that ends at sample i."""
        return 2.0 * REF_KERNEL_S / (self.durs[i - 1] + self.durs[i])

    def at(self, t: float) -> float:
        """Reference time of raw time t (samples take none)."""
        k = bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) * REF_KERNEL_S / self.durs[0]
        if t <= self.ends[k]:
            return self.cum[k]
        last = k == len(self.starts) - 1
        f = REF_KERNEL_S / self.durs[k] if last else self._factor(k + 1)
        return self.cum[k] + (t - self.ends[k]) * f

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the raw interval [t0, t1]."""
        return self.at(t1) - self.at(t0)

    def raw_busy(self, t0: float, t1: float) -> float:
        """Raw seconds of [t0, t1] minus the samples inside it."""
        inside = sum(
            min(e, t1) - max(s, t0)
            for s, e in zip(self.starts, self.ends)
            if e > t0 and s < t1
        )
        return t1 - t0 - inside
