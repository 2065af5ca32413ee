"""The host's speed, sampled by a fixed kernel while the work runs.

The benchmark's host is a share of a larger machine whose speed changes
in phases of seconds to minutes for every process on it, so the CPU
time of the same work moves with the phase.  A fixed kernel of the same
make-up as the program's work (small dense solves through numpy and
interpreted Python arithmetic) slows down with it.

While a :class:`HostSpeed` is entered, a profiling timer interrupts the
process every ``GAP_S`` of its CPU time and the signal handler runs the
kernel once and records its CPU time.  ``stop`` reports an interval's
CPU time without the kernel's, both as measured and scaled to the
reference speed: times ``REF_S`` over the mean kernel time of the
samples taken in the interval.  The samples are spread evenly over the
interval's CPU time, so their mean follows the mean slowdown the work
met.  The kernel is not part of the program, so a change to the program
moves the scaled time as much as it moves the measured one.  The
handler runs between Python bytecodes of the main thread, so it never
interrupts a numpy or LAPACK call.

CPU times are those of the main thread (``time.thread_time``), which
does all the work: the thread pool and the BLAS threads are pinned to
one.  The process clock is no good here: while a profiling timer is
armed, Linux advances it only at scheduler ticks, 4 ms apart, half a
kernel run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# CPU seconds of one kernel run at the reference speed: close to its
# mean on the host of README.md's reference figures (9-10 ms)
REF_S = 0.009
# CPU time of the process between two timer samples
GAP_S = 0.25
KERNEL_STEPS = 500
_PROF = {signal.SIGPROF}


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((12, 12))
        self._b = rng.standard_normal((12, 3))
        self._eye = np.eye(12)
        self.samples: list[float] = []
        self.spent_cpu = 0.0
        self.spent_wall = 0.0

    def kernel(self) -> float:
        acc = 0.0
        for i in range(KERNEL_STEPS):
            x = np.linalg.solve(self._a + (i % 7) * self._eye, self._b)
            acc += float(x[0, 0]) * 1e-9
            acc += sum(j * 0.5 for j in range(20))
        return acc

    def _sample(self, *_signal) -> None:
        t0, w0 = time.thread_time(), time.perf_counter()
        self.kernel()
        t1, w1 = time.thread_time(), time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_cpu += t1 - t0
        self.spent_wall += w1 - w0

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, GAP_S, GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def start(self):
        """Samples once and opens an interval; pass the result to stop."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _PROF)
        self._sample()
        mark = (len(self.samples) - 1, time.thread_time(), time.perf_counter(),
                self.spent_cpu, self.spent_wall)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _PROF)
        return mark

    def stop(self, mark) -> tuple[float, float, float]:
        """(cpu, wall, scaled cpu) of the interval, kernel runs left out.
        The scale uses the samples from the start to one taken now."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _PROF)
        first, t0, w0, cpu0, wall0 = mark
        cpu = time.thread_time() - t0 - (self.spent_cpu - cpu0)
        wall = time.perf_counter() - w0 - (self.spent_wall - wall0)
        self._sample()
        speed = statistics.fmean(self.samples[first:])
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _PROF)
        return cpu, wall, cpu * REF_S / speed
