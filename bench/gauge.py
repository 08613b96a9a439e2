"""Speed gauge: a fixed reference computation interleaved with the program.

On the 2-core Xeon VM this benchmark was written on, the same code runs up
to about 1.6 times slower for stretches of a fraction of a second to tens of
seconds, in CPU time as much as in wall time: the processor is shared.
Longer runs do not average it away.  The spread of a sweep's throughput
between windows stayed at 15-18% for windows of 1 s to 40 s.  The slowdown
hits the program and any other computation alike.  A reference kernel timed
right after each call varied with the program, and the ratio of their times
spread about 3% where each alone spread about 20%.

So the worker keeps the gauge running for SHARE of the time it spends in the
program, in short samples after each call, and reports every duration at the
reference speed: ``duration * NOMINAL_S / gauge``, where ``gauge`` is the
mean sample time within WINDOW_S of the call.  The gauge runs no spinframe
code, so a change to the program moves the calibrated times exactly as it
moves the raw ones.  The raw times are kept in the run's ``result.json``.
"""

from __future__ import annotations

import bisect
import itertools
import time

import numpy as np

# Seconds one sample takes at the reference speed: a fixed scale, near the
# fastest a sample ran on the machine the benchmark was written on.
NOMINAL_S = 0.001
SHARE = 0.25
WINDOW_S = 0.5

_A = np.arange(16, dtype=float).reshape(4, 4) / 7.0 + 1j * np.eye(4)
_H = _A + _A.conj().T
_PAULI = np.array([[0, 1], [1, 0]], dtype=complex)


def _work() -> float:
    # The program's mix in miniature: interpreter work on small Python
    # objects, and small numpy operations on 4x4 complex matrices.
    acc = 0.0
    m = np.eye(4, dtype=complex)
    for i in range(20):
        fields = {"value": format(i / 7.0, ".17g"), "flag": i % 2 == 0}
        acc += float(fields["value"]) + len(",".join(str(k) for k in fields))
        m = (m @ _A) / np.abs(m).max()
        w, v = np.linalg.eigh(_H)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        acc += abs(np.trace(u.conj().T @ np.kron(_PAULI, _PAULI))) + float(w[0])
    return acc


class Gauge:
    """Gauge samples taken through a run, and the speed factor of each call."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.total = 0.0

    def keep_up(self, busy_s: float) -> None:
        """Sample until the gauge has run for SHARE of busy_s seconds."""
        while self.total < SHARE * busy_s:
            t0 = time.perf_counter()
            _work()
            seconds = time.perf_counter() - t0
            self.times.append(t0)
            self.seconds.append(seconds)
            self.total += seconds

    def factors(self, starts: list[float], durations: list[float]) -> list[float]:
        """NOMINAL_S / gauge for calls given by start time and duration."""
        cum = [0.0, *itertools.accumulate(self.seconds)]
        out = []
        for t, d in zip(starts, durations):
            lo = bisect.bisect_left(self.times, t - WINDOW_S)
            hi = bisect.bisect_right(self.times, t + d + WINDOW_S)
            if hi == lo:  # no sample near the call: use the next one, or the last
                lo = min(lo, len(self.times) - 1)
                hi = lo + 1
            out.append(NOMINAL_S * (hi - lo) / (cum[hi] - cum[lo]))
        return out
