"""Machine-speed reference of the benchmark.

On a shared host the speed of a vCPU drifts by up to 1.5x over minutes,
so the same pass can take 31 s in one run and 56 s in the next.  While a
`SpeedMeter` runs, a timer interrupts the benchmark every `PERIOD_S`
seconds and times one run of a fixed reference loop that does not touch
the library.  ``clock()`` is wall time with the loop's own time taken out;
steps are timed on it.  Afterwards ``calibrated(t0, t1)`` gives the time
from t0 to t1 at reference speed, the integral of ``REF_S / ref(t)``,
where ref(t) interpolates the samples, each first replaced by the median
of the `WINDOW` samples around it.

The interrupt is handled between two Python bytecodes, so a single long
numpy call delays it; the speed during such a call is interpolated from
the samples on either side.  The loop mixes the kinds of work the library
does: interpreted Python, a LAPACK SVD, an einsum contraction, and a copy
of an array larger than the caches into fresh memory.  Its samples cost
about 5% of a pass, outside the clock.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds of one reference sample at reference speed: the median sample
#: on a 2-vCPU cloud VM in its faster state
REF_S = 0.0090
PERIOD_S = 0.25
WINDOW = 5


class SpeedMeter:
    """Reference-loop samples taken on a timer; use as a context manager
    in the main thread."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._svd = rng.standard_normal((160, 160))
        self._kernel = rng.standard_normal((1, 16, 16, 3, 3))
        self._windows = rng.standard_normal((1, 16, 16, 6, 6, 3, 3))
        self._big = rng.standard_normal(1 << 20)
        self.samples: list[tuple[float, float]] = []  # (clock(), seconds)
        self._spent = 0.0  # wall time spent in samples
        self._n = 0        # samples taken; lets clock() see a tick run
        self._curve = None
        self._previous_handler = None

    def _once(self) -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(20000):
            x += i * i
        np.linalg.svd(self._svd, compute_uv=False)
        np.einsum("gomuv,gmnIJuv->gonIJ", self._kernel, self._windows)
        for _ in range(2):
            self._big.copy().sum()  # a fresh array: page faults like the library's
        return time.perf_counter() - t0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        ref = self._once()
        self.samples.append((t0 - self._spent, ref))
        self._spent += time.perf_counter() - t0
        self._n += 1

    def _tick(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)  # one-shot: ticks never overlap

    def clock(self) -> float:
        # a tick can run between any two bytecodes; read again if one did
        while True:
            n = self._n
            now = time.perf_counter() - self._spent
            if n == self._n:
                return now

    def __enter__(self) -> SpeedMeter:
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()
        self._fit()

    def _fit(self) -> None:
        t = np.array([at for at, _ in self.samples])
        ref = np.array([seconds for _, seconds in self.samples])
        half = WINDOW // 2
        smooth = np.array([np.median(ref[max(0, i - half):i + half + 1])
                           for i in range(len(ref))])
        rate = REF_S / smooth
        cum = np.concatenate(([0.0], np.cumsum(np.diff(t) * (rate[1:] + rate[:-1]) / 2)))
        self._curve = t, rate, cum

    def _at(self, x: float) -> float:
        """Calibrated time from the first sample to clock() reading x."""
        t, rate, cum = self._curve
        if x <= t[0]:
            return (x - t[0]) * rate[0]
        if x >= t[-1]:
            return cum[-1] + (x - t[-1]) * rate[-1]
        i = int(np.searchsorted(t, x, side="right")) - 1
        r = rate[i] + (rate[i + 1] - rate[i]) * (x - t[i]) / (t[i + 1] - t[i])
        return cum[i] + (x - t[i]) * (rate[i] + r) / 2

    def calibrated(self, t0: float, t1: float) -> float:
        """Seconds from clock() reading t0 to t1 at reference speed; once
        the meter has stopped."""
        return self._at(t1) - self._at(t0)

    def calibrate(self, records: list[dict]) -> None:
        """Add ``<step>_s_cal`` for every timed step of each record (see
        `workloads.run_layer`) and op_s_cal for the whole operation."""
        for r in records:
            for step, (t0, t1) in r["t"].items():
                r[f"{step}_s_cal"] = self.calibrated(t0, t1)


def reference_time(repeats: int = 9) -> float:
    """Median time of `repeats` runs of the reference loop, now."""
    meter = SpeedMeter()
    return statistics.median(meter._once() for _ in range(repeats))
