"""Wall times scaled to a fixed machine speed.

The machine the benchmark was defined on is a few cores of a shared host,
and its speed drifts: a fixed piece of work takes one of two times about
1.7x apart, switching every few seconds to tens of seconds, and CPU time
moves with it.  Run-to-run spread was then set by the phases a run happened
to fall in, not by the program.

So the benchmark measures the speed next to every timed interval with a
probe: the mean of a few timings of a fixed kernel of exact rational
arithmetic from the standard library (the kind of work toricstab does),
which no change to toricstab can touch.  A stretch of `dt` wall seconds
reads

    dt * REF_S / mean(probe before, probe after)

seconds at the reference speed, the speed at which the kernel takes REF_S
seconds.  An interval longer than `every` seconds is cut into stretches by
probes taken inside it from a SIGALRM handler; the time those probes take
is left out of the interval.

Set-up and CLI operations (fresh processes importing numpy and toricstab)
slowed less than the kernel in the slow phase and followed the start of a
bare interpreter instead, so they are scaled the same way by `start_probe`,
with REF_START_S.
Raw wall times are kept beside the scaled ones in every run summary.
"""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
import time
from fractions import Fraction

# kernel seconds at the reference speed: about its fast-phase time on the
# machine the benchmark was defined on (2 vCPUs of a 2.1 GHz Xeon, CPython 3.11)
REF_S = 0.002
PROBE_REPS = 5
# probes inside an interval are shorter, to disturb the operation less
INNER_REPS = 3
# seconds of `python -c pass` at the reference speed, measured the same way
REF_START_S = 0.045
START_REPS = 3


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    return s


def probe(reps: int = PROBE_REPS) -> float:
    """Mean time of `reps` runs of the kernel, garbage collection off.

    The mean, not the best: an operation's time is an average over its
    run, and the mean tracked operation times more closely than the best
    did on the machine described above."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(reps):
            kernel()
        return (time.perf_counter() - t0) / reps
    finally:
        if enabled:
            gc.enable()


def start_probe(reps: int = START_REPS) -> float:
    """Median wall time of `reps` starts of a bare interpreter, `python -c pass`.

    The median: about one start in seven took 30-60 ms longer than the
    others, and a probe should not move with those."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls for the exit with sleeps of
        # up to 50 ms, and the times come out in steps of those sleeps
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


class Meter:
    """Times consecutive intervals in raw and in reference-speed seconds.

    `start()` and `stop()` bracket one interval; `stop()` probes and returns
    (raw seconds, scaled seconds).  The first stretch of an interval is
    scaled with the probe taken when the previous one stopped (or at
    construction).  With `every`, a SIGALRM timer probes inside the
    interval every `every` seconds; the process must not use SIGALRM for
    anything else.  `scale()` scales an interval timed by the caller.
    `probe` and `ref` are the speed probe and its time at the reference
    speed.
    """

    def __init__(self, every: float | None = None, probe=probe, ref: float = REF_S):
        self.every = every
        self.probe = probe
        self.ref = ref
        self.last = probe()
        self.probes = [self.last]
        self._running = False
        if every:
            signal.signal(signal.SIGALRM, self._inner)

    def _inner(self, signum, frame):
        if not self._running:
            return
        t0 = time.perf_counter()
        p = self.probe(INNER_REPS)
        t1 = time.perf_counter()
        self._stretches.append((t0 - self._mark, p))
        self._mark = t1
        self._probing += t1 - t0

    def start(self) -> None:
        self._stretches = []
        self._probing = 0.0
        self._t0 = self._mark = time.perf_counter()
        self._running = True
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> tuple[float, float]:
        self._running = False
        t = time.perf_counter()
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._stretches.append((t - self._mark, None))
        scaled = sum(self.scale(dt, p) for dt, p in self._stretches)
        return t - self._t0 - self._probing, scaled

    def scale(self, dt: float, now: float | None = None) -> float:
        """Scale a stretch of `dt` seconds that ended just now, or at probe `now`."""
        now = self.probe() if now is None else now
        self.probes.append(now)
        scaled = dt * self.ref / ((self.last + now) / 2)
        self.last = now
        return scaled
