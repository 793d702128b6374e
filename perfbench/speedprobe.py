"""Machine-speed probe: two micro-kernels sampled on a CPU-time timer.

The 2-vCPU sandbox this benchmark was built on runs the same interpreted
Python anywhere from 1x to 2x slower, switching within a second, with no
steal time reported (NumPy array code swings by about 1.3x).  Single
request times of identical work spread by 0.2-0.6 (interquartile range over
median), and run-level wall-clock figures of ten identical runs by up to 0.3.
While a workload
runs, SIGPROF fires every PERIOD_S of process CPU time and the handler times
two fixed kernels of the benchmark's own: one in the style of the program's
scalar code (a compensated power series like its erf, and a quadrature sweep
through closures, tuples and ``math`` calls) and one NumPy complex array
expression like the 2D CF inversion.  A latency is then reported at a
nominal speed: multiplied by REF_S / (median kernel time around it), using
the kernel of the request's kind of work.  The handler's own time is
subtracted from every latency, and the kernels do not depend on the program,
so a change to the program moves scaled and raw times alike.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

perf = time.perf_counter

PERIOD_S = 0.01
# nominal kernel times, near the fast end of what the sandbox showed; they
# only set the unit of the scaled figures
REF_S = {"python": 1.5e-4, "numpy": 3.0e-4}
# samples taken before a request that also count towards its speed
WINDOW = 4

_grid = None


def _density(x: float, mu: float = 0.3) -> float:
    z = x - mu
    return 0.3989422804014327 * math.exp(-0.5 * z * z)


def _node(t: float):
    u = 1.5707963267948966 * math.sinh(t)
    ex = math.exp(u)
    return ex, 1.5707963267948966 * math.cosh(t) * ex


def _series(x: float) -> float:
    # alternating Maclaurin sum with Kahan compensation
    x2 = x * x
    term = total = x
    comp = 0.0
    n = 0
    while True:
        n += 1
        term *= -x2 / n
        contrib = term / (2 * n + 1)
        y = contrib - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(contrib) <= 1e-17 * abs(total):
            return total


def kernel_python() -> float:
    total = sum(_series(0.1 * i) for i in range(12))
    for k in range(-60, 60):
        x, w = _node(k * 0.02)
        fv = _density(x * 0.7) * _density(x) * x
        if not math.isfinite(fv):
            raise ArithmeticError("non-finite kernel value")
        total += fv * w
    return total


def kernel_numpy() -> float:
    global _grid
    import numpy as np  # imported on first use, so set-up timing still pays for NumPy

    if _grid is None:
        _grid = np.linspace(1e-3, 3.0, 20 * 150).reshape(20, 150)
    z = np.exp(1j * _grid - 0.5 * _grid * _grid) / (1.0 - 2j * _grid) ** 1.5
    return float(z.real.sum())


KERNELS = {"python": kernel_python, "numpy": kernel_numpy}


class SpeedProbe:
    """Context manager that samples the kernels every PERIOD_S of CPU time."""

    def __init__(self, kinds=("python", "numpy")) -> None:
        self.samples = {k: [] for k in kinds}
        self.spent = 0.0  # seconds spent in the handler

    def _tick(self, signum=None, frame=None) -> None:
        h0 = perf()
        for kind, times in self.samples.items():
            k0 = perf()
            KERNELS[kind]()
            times.append(perf() - k0)
        self.spent += perf() - h0

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WINDOW):
            self._tick()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def count(self) -> int:
        return len(self.samples["python"])

    def scale(self, seconds: float, kind: str, i0: int, i1: int) -> float:
        """``seconds`` at the nominal speed, judged from the samples taken
        between sample counts i0 and i1 and the WINDOW samples before them."""
        around = self.samples[kind][max(0, i0 - WINDOW):max(i1, i0 + 1)]
        return seconds * REF_S[kind] / statistics.median(around)
