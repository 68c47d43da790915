"""Tests of the benchmark's host-speed probing.

    PYTHONPATH=src python -m pytest bench/test_hostspeed.py -q
"""

from __future__ import annotations

import signal
import time

import hostspeed
from hostspeed import HostClock


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_exit_disarms_the_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as host:
        assert signal.getitimer(signal.ITIMER_REAL)[1] == hostspeed.PERIOD_S
        _busy(0.1)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(host.probes) >= 2


def test_now_leaves_out_the_probes():
    with HostClock() as host:
        t0, w0 = host.now(), time.perf_counter()
        _busy(0.3)
        elapsed, wall = host.now() - t0, time.perf_counter() - w0
    assert host.spent > 0
    assert abs((wall - elapsed) - host.spent) < 0.01
    assert elapsed < wall


def test_scale_is_reference_over_mean_probe():
    host = HostClock()
    host.probes = [0.001, 0.003, 0.004]
    assert host.scale(1) == hostspeed.PROBE_REF_S / 0.0035
    # no probe since: the last one stands in
    assert host.scale(3) == hostspeed.PROBE_REF_S / 0.004
    # no probe at all: one runs
    empty = HostClock()
    assert empty.scale(0) > 0 and len(empty.probes) == 1
