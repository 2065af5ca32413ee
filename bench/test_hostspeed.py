"""Tests that the host-speed scaling leaves the kernel's time out.

    python3 -m pytest -q bench/test_hostspeed.py
"""

from __future__ import annotations

import signal
import statistics
import time

import hostspeed


def spin(speed, cpu_s: float) -> None:
    """Busy until cpu_s of CPU time have passed, kernel runs left out."""
    t0, spent0 = time.thread_time(), speed.spent_cpu
    while time.thread_time() - t0 - (speed.spent_cpu - spent0) < cpu_s:
        sum(range(1000))


def test_interval_leaves_the_kernel_out_and_scales_by_its_mean():
    speed = hostspeed.HostSpeed()
    with speed:
        mark = speed.start()
        spin(speed, 1.6)
        cpu, wall, scaled = speed.stop(mark)
    taken = speed.samples[mark[0]:]
    # one sample at start and at stop, and the timer's in between
    assert len(taken) >= 2 + int(1.6 / hostspeed.GAP_S)
    assert 1.6 <= cpu < 1.7
    # a timer signal held back during stop may add one sample after it
    assert any(scaled == cpu * hostspeed.REF_S / statistics.fmean(taken[:n])
               for n in (len(taken) - 1, len(taken)))
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_no_timer_samples_outside_the_context():
    speed = hostspeed.HostSpeed()
    mark = speed.start()
    spin(speed, 0.6)
    speed.stop(mark)
    assert len(speed.samples) == 2
