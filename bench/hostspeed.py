"""The host's speed, sampled while the benchmark measures.

The benchmark's machine is shared: its speed drifts by up to 2x within
seconds and from minute to minute, as other tenants load the host, and
wall times drift with it. ``HostClock`` samples that speed all through a
timed run. A timer interrupts the benchmark every ``PERIOD_S`` seconds and
runs ``probe``, a fixed piece of work that does not depend on qrepsim.
The clock ``HostClock.now`` leaves out the time spent probing, and a
sample timed with it is scaled by ``PROBE_REF_S`` over the mean time of
the probes that ran during it: the time it would have taken on the
reference machine, at the speed the probe measured there.

    with HostClock() as host:
        since, t0 = len(host.probes), host.now()
        work()
        seconds = (host.now() - t0) * host.scale(since)

The probe's code never changes with qrepsim, so a change that makes
qrepsim faster lowers the scaled time by the same factor as the wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02  # one probe every 20 ms: about a tenth of the time
# Seconds one probe takes on the reference machine: 2 vCPUs of an Intel
# Xeon at 2.0 GHz on a shared host, Python 3.11, numpy 2.4, one BLAS thread.
PROBE_REF_S = 0.002

_RNG = np.random.default_rng(20241016)
_A = _RNG.random((4, 4)) + 1j * _RNG.random((4, 4))
_STATE = _A @ _A.conj().T / np.trace(_A @ _A.conj().T)
_EYE = np.eye(4)


def _plan_like(i: int) -> int:
    """Interpreter work shaped like the plan search and the CSV emit."""
    best = None
    for n1 in range(9):
        pair = 1.0 + n1 * 0.37 + i * 1e-3
        for n2 in range(9):
            if 0.9 + 0.01 * ((n1 * 7 + n2 * 3 + i) % 10) < 0.93:
                continue
            purification = sum(0.5 / (0.5 + k * 0.05) for k in range(n2))
            key = (max(2**n2 * pair, purification), n2, n1)
            if best is None or key < best:
                best = key
    return len(f"{best[0]:.6g},{best[1]},{best[2]}")


def probe() -> None:
    """Fixed work, mixed as qrepsim's is: about half small complex linear
    algebra in numpy (16 x 16 Kronecker products, products and eigenvalues),
    half interpreter loops, tuples, floats and formatting."""
    for i in range(6):
        np.linalg.eigvalsh(np.kron(_STATE, _EYE))
        np.kron(_STATE, _EYE) @ np.kron(_EYE, _STATE)
    for i in range(6):
        _plan_like(i)


class HostClock:
    """Probes the host every PERIOD_S seconds while it is entered."""

    def __init__(self):
        self.probes = []  # seconds each probe took, in order
        self.spent = 0.0  # seconds spent in the timer's handler
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # the timer fired again while a probe ran
            return
        self._busy = True
        t0 = time.perf_counter()
        probe()
        self.probes.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def now(self) -> float:
        """Seconds on a clock that stands still while the probe runs."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return t - spent

    def scale(self, since: int) -> float:
        """PROBE_REF_S over the mean of the probes from index ``since`` on,
        which ran while a sample was timed (the last probe if none did)."""
        if len(self.probes) <= since:
            if not self.probes:
                self._tick(None, None)
            since = len(self.probes) - 1
        during = self.probes[since:]
        return PROBE_REF_S * len(during) / sum(during)

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
