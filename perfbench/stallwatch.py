"""Stall watchdog: abort an op whose simulated clock stops advancing.

A host interval timer (``SIGALRM``) samples ``sim.now`` a few times a
second.  When the simulated clock has not moved for ``STALL_HOST_S``
host seconds, the signal handler raises :class:`Stalled` in the main
thread, which unwinds the simulation loop, and marks the watchdog
``tripped``.  The simulator itself does no extra work per step, so an
untraced op pays nothing for the watchdog.

Legitimate ops also hold the clock still while the host computes (the
dataset is generated at t=0, a METHCOMP block is encoded inside one
step); at logical scale 1024 the longest such pause measured 0.56 s on a
2-vCPU x86-64 host, well below the threshold.
"""

from __future__ import annotations

import signal
import time

#: Host seconds the simulated clock may stand still before the op aborts.
STALL_HOST_S = 2.0
#: Simulated seconds of progress that count as the clock moving.
MIN_PROGRESS_S = 1e-6
#: Sampling period of the host timer.
TICK_S = 0.25


class Stalled(BaseException):
    """Raised into the running op when its simulated clock is stuck.

    Derives from ``BaseException`` so that the program's own
    ``except Exception`` retry paths cannot swallow it.  A simulated
    process body still can: ``sim/process.py`` turns any exception of a
    process into that process's failure, and the simulation may go on
    and finish.  The op must therefore count as failed whenever the
    watchdog ``tripped``, whatever the op returned.
    """

    def __init__(self, sim_now: float, host_s: float):
        super().__init__(f"simulated clock stuck at {sim_now!r} s for {host_s:.2f} host s")
        self.sim_now = sim_now
        self.host_s = host_s


class StallWatchdog:
    """Watches one simulator at a time; install once per process."""

    def __init__(self) -> None:
        self._sim = None
        self._mark_sim = 0.0
        self._mark_host = 0.0
        #: Whether a ``Stalled`` was raised since the last ``watch()``.
        self.tripped = False
        signal.signal(signal.SIGALRM, self._on_tick)

    def watch(self, sim) -> None:
        self._sim = sim
        self._mark_sim = sim.now
        self._mark_host = time.perf_counter()
        self.tripped = False
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def unwatch(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._sim = None

    def _on_tick(self, _signum, _frame) -> None:
        sim = self._sim
        if sim is None:
            return
        now = sim.now
        host = time.perf_counter()
        if now - self._mark_sim > MIN_PROGRESS_S:
            self._mark_sim = now
            self._mark_host = host
        elif host - self._mark_host >= STALL_HOST_S:
            self.tripped = True
            raise Stalled(now, host - self._mark_host)
