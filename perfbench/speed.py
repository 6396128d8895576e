"""The machine's momentary speed, for the timing metrics.

On a shared virtual machine the speed at which one vCPU runs Python code
changes by tens of percent over stretches of seconds (a fixed loop timed
back to back for half a minute spanned 0.77 of its median), and no
statistic over one run removes a slow stretch that covers most of it.  So the
benchmark times a fixed probe loop next to the program's work and scales
each timing by `REFERENCE_S` over the probe time measured around it: the
timing metrics are the program's times at the reference speed, the speed
at which one probe takes `REFERENCE_S`.  The unscaled times are printed
too.

`Sampler` runs the probe from a SIGALRM handler every `PERIOD_S` of wall
time, about 4 % of it; the time spent in the handler is taken out of the
operation it interrupted.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

PERIOD_S = 0.01
# one probe pass at the reference speed: about the median pass between the
# operations of a run on the machine the reference figures in README.md
# come from (a pass alone, with warm caches, takes about 0.3 ms there)
REFERENCE_S = 0.0004
# samples within WINDOW_S of an operation count for it, so that an
# operation of a few milliseconds still sees several samples; the speed
# changes noticeably within a second, so the window is short
WINDOW_S = 0.03

_ROW_A = list(range(1, 33))
_ROW_B = list(range(7, 39))
_WIDE = [(2**200 // 7 ** (i % 20)) | i for i in range(32)]
_DOC = json.dumps({"kind": "certify", "ok": True, "results": [
    {"case": i, "ok": True, "bits": {"cofibration": "yes"}, "rank": [i, 2]}
    for i in range(8)]})


def probe() -> float:
    """One pass of a fixed loop of the kinds of work the program does: row
    combinations of small and of 200-bit integers, and the parsing of a
    small report (a slow spell of the machine slows allocation-heavy C code
    more than arithmetic in the interpreter, so the probe needs both)."""
    t0 = time.perf_counter()
    a, b = _ROW_A, _ROW_B
    for _ in range(12):
        a = [(3 * x - y) % 10007 for x, y in zip(a, b)]
        b = [(x + 5 * y) % 10009 for x, y in zip(a, b)]
    w = _WIDE
    for _ in range(9):
        w = [(3 * x - y) >> 2 for x, y in zip(w, w[1:] + w[:1])]
    for _ in range(4):
        report = json.loads(_DOC)
        all(r["ok"] for r in report["results"])
    return time.perf_counter() - t0


class Sampler:
    """Probe samples taken every PERIOD_S while started."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.probe_s: list[float] = []
        self.paused_s = 0.0   # time spent in the handler so far

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probe_s.append(probe())
        self.at.append(t0)
        self.paused_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_probe_s(self) -> float:
        return statistics.fmean(self.probe_s)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time from WINDOW_S before
        `start` to WINDOW_S after `end`; the mean, because an operation's
        time adds up the speeds of every moment it ran."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            # no sample that close: the nearest one
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.probe_s[lo:hi])
