"""Machine-speed probe: CPU seconds expressed at a reference core speed.

The benchmark's machine shares its cores.  On the reference VM a fixed
kernel of small numpy products and Python arithmetic ran at one of two
speeds (6.8 ms or 4.4 ms for a larger version of it), depending on what
shared the physical core, and the mix changed within seconds, so one
3-second frontier sweep read anywhere from 2.3 to 3.2 CPU seconds back to
back.  Calibration between operations cannot see that, so the probe runs
*inside* them: every 20 ms of process CPU time a ``SIGPROF`` handler runs
the kernel once and records how long it took.

An operation's scaled time is its CPU time minus the probes that ran
inside it, multiplied by ``REFERENCE_S`` over the mean probe time during
the operation (and the few probes before it, so that a 30 ms operation is
not judged on one or two probes).  On the reference machine in its usual
state the scale is near 1, so the figures read as CPU seconds there.  A change
to loopcert changes the CPU time and not the probe, so it shows in full.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median probe time during a run on the reference machine (2-core x86_64
# VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on one thread).
REFERENCE_S = 0.56e-3
INTERVAL_S = 0.02       # of process CPU time between probes
CONTEXT = 8             # probes before an operation that also judge its speed

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(4, 4)) * 0.2
_BATCH = _RNG.normal(size=(64, 16))
_WIDE = _RNG.normal(size=(1024, 16))
_SQUARE = _RNG.normal(size=(16, 16))
_REGRESSORS = _RNG.normal(size=(200, 6))
_TARGETS = _RNG.normal(size=(200, 4))


def kernel() -> float:
    """Fixed work in the program's proportions.

    Tiny products and Python arithmetic (the simulator, single-row policy
    evaluation, the bisection loops) plus batch products and a least
    squares solve (relaxation, sampled gains, cloning, identification).
    """
    x = np.zeros(4)
    for _ in range(30):
        x = np.maximum(_A @ x + 1.0, 0.0)
    acc = 0
    for i in range(1500):
        acc += i * i
    for _ in range(3):
        acc += float((_BATCH @ _SQUARE).sum())
    acc += float(np.maximum(_WIDE @ _SQUARE, 0.0)[0, 0])
    theta, *_ = np.linalg.lstsq(_REGRESSORS, _TARGETS, rcond=None)
    return acc + float(theta[0, 0]) + float(x[0])


class SpeedProbe:
    """Samples the core's speed while running; one per process."""

    def __init__(self):
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # not SIG_DFL: a SIGPROF still pending would end the process
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def mark(self) -> int:
        """Position to pass to :meth:`scaled` once the operation has ended."""
        return len(self.samples)

    def scaled(self, cpu_seconds: float, mark: int) -> float:
        """CPU seconds since ``mark``, without the probes, at reference speed."""
        inside = self.samples[mark:]
        window = sorted(self.samples[max(0, mark - CONTEXT):])
        if not window:
            return cpu_seconds
        # the slowest tenth are probes that lost the core to another process
        window = window[:max(1, len(window) * 9 // 10)]
        return (cpu_seconds - sum(inside)) * REFERENCE_S / statistics.fmean(window)
