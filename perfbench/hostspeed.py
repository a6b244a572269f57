"""Host-speed probe: scales measured times to a fixed speed of the host.

On a shared host the same op on the same inputs runs up to 70% slower
for stretches of seconds to minutes, while a neighbour loads the
physical core.  Process CPU time grows with wall time, so the process
is not descheduled; its instructions run slower.  A run that falls in
such a stretch moves its timing metrics as much as a real change of
the code would.

The probe is a short fixed kernel (a Python loop and a few small
matrix products, about 0.4 ms).  While sampling is on, a SIGALRM
handler runs it every ``PERIOD_S``; it also runs at the start and the
end of every timed interval.  An interval's scaled time is

    wall * mean(REFERENCE_S / probe_i)

over the probe samples taken from its start to its end: the time the
interval would take on a host where the probe takes ``REFERENCE_S``.
Each sample weighs the stretch of time around it by the host's speed
then, so an interval that spans a change of speed is scaled by the mix.

The probe runs in the measured process, so it also sees a slowdown that
a probe between ops or in another process would miss.  On the 2-vCPU
host this was written on, the wall time of one fixed ``qubit_apps`` op
repeated 25 times varied by 16% (coefficient of variation); its scaled
time varied by 4.4% (correlation of wall time with probe time: 0.96).
The probe adds about 1% to every timed interval, in the parent and in
the changed code alike.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

#: Seconds between probe samples while sampling is on.
PERIOD_S = 0.05
#: Probe time on an idle core of the host the benchmark was written on
#: (Intel Xeon vCPU at 2.0 GHz, Python 3, numpy with OpenBLAS on 1 thread).
#: It only sets the scale: scaled times are seconds on that host.
REFERENCE_S = 3.5e-4
_LOOP = 8000
_PRODUCTS = 5


@dataclass(frozen=True)
class Mark:
    """Start of a timed interval: its clock reading and first probe sample."""

    time: float
    sample: int


@dataclass(frozen=True)
class Interval:
    """A timed interval: its wall time and the host-speed factor over it."""

    wall: float
    factor: float
    samples: int

    @property
    def scaled(self) -> float:
        return self.wall * self.factor


class HostSpeed:
    """Samples the probe and scales timed intervals by its readings."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self._matrix = np.random.default_rng(0).standard_normal((24, 24))
        self._previous_handler = None

    def probe(self) -> float:
        """Run the probe kernel once and record its time."""
        start = time.perf_counter()
        total = 0
        for k in range(_LOOP):
            total += k
        a = self._matrix
        for _ in range(_PRODUCTS):
            a = a @ self._matrix
            a /= np.abs(a).max()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def start(self) -> None:
        """Sample the probe every ``period_s`` until :meth:`stop`."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def begin(self, start: float | None = None) -> Mark:
        """Open an interval now, or at an earlier ``start`` clock reading."""
        self.probe()
        return Mark(time.perf_counter() if start is None else start, len(self.samples) - 1)

    def end(self, mark: Mark) -> Interval:
        """Close the interval opened at ``mark``."""
        wall = time.perf_counter() - mark.time
        self.probe()
        window = self.samples[mark.sample:]
        factor = float(np.mean([REFERENCE_S / s for s in window]))
        return Interval(wall=wall, factor=factor, samples=len(window))
