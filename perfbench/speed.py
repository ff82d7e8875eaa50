"""Host-speed probe: a fixed pure-Python loop, timed every few milliseconds.

On a shared virtual machine other tenants slow this process by up to 2x
for seconds at a time, with no steal time to account for it: the same
work simply runs slower.  A run of the same code and inputs can therefore
read 1.0x or 1.5x depending on the minute it ran in.  The probe tracks
that: while a pass runs, a SIGALRM handler times ``loop`` every
``PERIOD_S``, and a request's time is divided by the slowdown the probe
saw during it, the loop's mean time over ``REFERENCE_S``.  The result
reads in seconds at the reference machine's quiet speed.

A pure interpreter loop follows the slowdown of conelab's requests more
closely than numpy or LAPACK kernels do: on repeated requests of all
three workloads the probe cut the coefficient of variation from 0.07-0.21
to 0.03-0.07, where numpy and LAPACK kernels cut it to 0.04-0.15.  The
probe's own time is taken out of the request's time.  The probe is
independent of conelab, so a change to the program does not change it.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
# Time of ``loop`` on the reference machine (2 vCPUs, x86-64 at 2.0 GHz,
# Python 3.11) in a quiet moment: the 1st percentile of 20000 timings.
REFERENCE_S = 6.3e-5
WARM_SAMPLES = 20


def loop() -> int:
    d: dict[int, int] = {}
    for i in range(600):
        d[i % 37] = d.get(i % 37, 0) + i
    return len(d)


def time_loop() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


class SpeedProbe:
    """Inside ``with SpeedProbe() as probe:`` the loop is timed every
    PERIOD_S.  ``mark()`` before a request and ``since(mark)`` after it give
    the seconds the probe itself took during the request and the slowdown
    it saw; a request too short for a sample takes the last one before it."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(time_loop())

    def __enter__(self) -> "SpeedProbe":
        self.samples += [time_loop() for _ in range(WARM_SAMPLES)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> tuple[float, float]:
        """(probe seconds, slowdown) over the samples taken after ``mark``."""
        new = self.samples[mark:]
        seen = new or self.samples[mark - 1:mark]
        return sum(new), statistics.fmean(seen) / REFERENCE_S
