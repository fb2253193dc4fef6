"""Job times corrected for the speed of a shared host.

On a shared machine the core a process runs on changes speed from second to
second (other tenants load its sibling hyperthread or its cache), so the
same job list reads anywhere from 4 to 7.5 s.  Nothing inside the guest sees
this: it is neither steal time nor CPU time lost.  A :class:`SpeedClock`
therefore measures the speed itself, in the same thread, while the job runs:
a timer interrupts the job every ``INTERVAL_S`` and times ``probe``, a
fixed integer loop that shares no code with grakit.  Each stretch of job
time is scaled by ``REFERENCE_PROBE_S / probe time`` measured at its end,
which gives the job's time on a core as fast as the reference host's idle
one ("reference seconds").  Probe time is not counted as job time.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_LOOPS = 4000
# The probe's time on an idle core of the host the bounds were set on, a
# 2-vCPU "Intel Xeon Processor" VM with CPython 3.  It only fixes the unit:
# a reference second is a second there.
REFERENCE_PROBE_S = 0.000275
INTERVAL_S = 0.02


def probe() -> float:
    """Seconds taken by a fixed integer loop (about 0.3 ms)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def slowdown(samples: int = 7) -> float:
    """The host's current slowdown against the reference: median probe time
    over ``REFERENCE_PROBE_S``."""
    return statistics.median(probe() for _ in range(samples)) / REFERENCE_PROBE_S


class SpeedClock:
    """Times one job at a time: ``start()``, run the job, ``stop()``.

    ``stop`` returns ``(raw_s, ref_s)``: the job's wall time without the
    probes, and that time in reference seconds.  The timer is armed only
    between ``start`` and ``stop``, and the previous SIGALRM handler is put
    back by ``stop``.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self._raw = self._ref = self._last = 0.0
        self._armed = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if not self._armed:  # delivered late, after stop(), or during a probe
            return
        self._armed = False
        t0 = time.perf_counter()
        p = probe()
        self._add(t0 - self._last, p)
        self._last = time.perf_counter()
        self._armed = True

    def _add(self, stretch: float, probe_s: float) -> None:
        self._raw += stretch
        self._ref += stretch * REFERENCE_PROBE_S / probe_s

    def start(self) -> None:
        self._raw = self._ref = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._armed = False
        t_end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._add(t_end - self._last, probe())  # the stretch since the last sample
        return self._raw, self._ref
