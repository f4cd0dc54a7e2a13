"""Core-speed probe that runs alongside a timed job, in the same thread.

On a shared virtual machine a vCPU can run Python well below its usual
speed, for stretches from under a second to over a minute, as other
tenants load the host.  A job's wall time then says as much about the
neighbours as about the code.

While a job runs, ``SpeedProbe`` fires ``SIGALRM`` every ``INTERVAL_S``.
The handler times one pass of a fixed pure-Python kernel, which does row
insertion into sorted lists and an integer product, and imports nothing
from permcode.  ``rescale`` then converts the job's time, less the samples'
own time, to seconds at reference core speed: each stretch of the job is
scaled by how much slower than ``REFERENCE_S`` the kernel ran around it.
No change to permcode can move the kernel, so a real speed-up moves the
rescaled time just as it moves the wall time.  Handlers run between
bytecodes, so a long numpy call delays the next sample but is never
interrupted.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from bisect import bisect_right

INTERVAL_S = 0.05
# Typical kernel duration on the machine the benchmark was written on, a
# two-vCPU KVM guest (Intel Xeon at 2.1 GHz).  Any fixed value works: it
# only sets the scale of the rescaled seconds.
REFERENCE_S = 350e-6

SMOOTH = 5  # samples per running median

_WORD = [random.Random(5).randrange(1000) for _ in range(600)]


def kernel() -> int:
    rows: list[list[int]] = []
    for x in _WORD:
        for row in rows:
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                break
            x, row[pos] = row[pos], x
        else:
            rows.append([x])
    product = 1
    for row in rows:
        for j in range(len(row)):
            product *= j + 7
    return product


class SpeedProbe:
    """Collects (end time, duration) of kernel samples between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        # a collection of the job's heap must not land inside the sample
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.stamps.append(t1)
        self.samples.append(t1 - t0)

    def start(self) -> None:
        self.stamps, self.samples = [], []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, start: float, end: float, fallback: list[float]) -> float:
        """Seconds from ``start`` to ``end``, less the samples, at reference speed.

        The stretch before each sample is scaled by the median of the
        ``SMOOTH`` samples around it, which tracks slow phases while one odd
        sample moves nothing.  A job too short to be sampled is scaled by
        ``fallback``, the samples of the rest of its pass.
        """
        if not self.samples:
            return (end - start) * REFERENCE_S / statistics.median(fallback)
        half = SMOOTH // 2
        local = [
            statistics.median(self.samples[max(0, i - half) : i + half + 1])
            for i in range(len(self.samples))
        ]
        total, last = 0.0, start
        for stamp, took, speed in zip(self.stamps, self.samples, local):
            total += (stamp - took - last) * REFERENCE_S / speed
            last = stamp
        return total + (end - last) * REFERENCE_S / local[-1]
