"""Machine-speed probe for normalising op latencies.

On a 2-vCPU virtual machine that shares its host (Intel Xeon), the
speed of the machine changes by up to a third over seconds to minutes,
as other tenants come and go, so the same op can take 12 or 22 ms
depending on when it runs. ``SpeedProbe`` samples
that speed while ops run: a SIGALRM every ``PERIOD`` seconds times one
run of a fixed reference kernel (0.6-0.75 ms there, about 2% of the time).
An op's normalised latency is its wall time, minus the probe time inside
it, over the kernel time during it (see ``kernel_s``): the op's cost in
kernel runs.

The kernel is benchmark code, not package code, so a change to the
package moves the op time and leaves the kernel time alone. It mixes
interpreter work with small numpy calls, as the package does: on that
machine a pure interpreter kernel tracked the slowdowns of ``scenario``
ops best and small dense solves those of ``montecarlo``, so it has both.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.03
LOOKBACK_S = 0.5

_Z = np.array([[2.0 + 1.0j, 0.5 + 0.2j, 0.4 + 0.1j],
               [0.5 + 0.2j, 2.1 + 1.1j, 0.5 + 0.3j],
               [0.4 + 0.1j, 0.5 + 0.3j, 1.9 + 0.9j]])
_A = np.arange(36.0).reshape(6, 6) + 10.0 * np.eye(6)
_B = np.random.default_rng(0).random((64, 64)) + 64.0 * np.eye(64)


def kernel() -> float:
    # Interpreter work on tuple-keyed dicts, as in the per-channel loops ...
    d: dict[tuple[str, str], float] = {}
    for i in range(300):
        key = (str(i % 37), "abc"[i % 3])
        d[key] = d.get(key, 0.0) + i * 0.5
    # ... per-branch 3x3 block scatter, as in the Newton Jacobian assembly ...
    jac = np.zeros((15, 15), dtype=complex)
    for b in range(4):
        i, j = np.arange(3 * b, 3 * b + 3), np.arange(3 * b + 3, 3 * b + 6)
        jac[np.ix_(i, i)] += _Z
        jac[np.ix_(j, j)] += _Z
        jac[np.ix_(i, j)] -= _Z
        jac[np.ix_(j, i)] -= _Z
    acc = float(abs(np.linalg.solve(jac + 10.0 * np.eye(15), np.ones(15))[0]))
    # ... and small dense solves, as in the dispatch and linear models.
    for k in range(10):
        acc += float(np.linalg.solve(_A, np.full(6, float(k)))[0])
    return acc + sum(d.values()) + float(np.linalg.solve(_B, np.ones(64))[0])


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def start(self) -> None:
        kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds the probe ran within [t0, t1)."""
        lo, hi = self._range(t0, t1)
        return sum(self.times[lo:hi])

    def kernel_s(self, t0: float, t1: float, long_op: bool) -> float:
        """Kernel time that stands for the machine's speed during [t0, t1).

        A long op (a second or more) takes the mean of the samples inside
        it: its time sums the speed over its whole length, often across
        several speed changes, and the samples are spread evenly in time.
        A short op sees few samples, so it takes the median over
        [t0 - LOOKBACK_S, t1), which one disturbed sample cannot move.
        The choice is fixed per workload, so that an op which gets faster
        or slower is still measured the same way.
        """
        if long_op:
            lo, hi = self._range(t0, t1)
            pick = statistics.fmean
        else:
            lo, hi = self._range(t0 - LOOKBACK_S, t1)
            pick = statistics.median
        if hi <= lo:
            raise RuntimeError("no speed samples around the op")
        return pick(self.times[lo:hi])
