"""Pieces every workload shares: operation accounting, host speed and
peak memory."""

from __future__ import annotations

import gc
import os
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional

from .tracer import Tracer

#: Scratch space inside the checkout: stream archives while a run lasts,
#: span files after a traced run.
WORK_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench"
)


class Checks:
    """Attempted and failed operations; a failure keeps its reason."""

    def __init__(self, log=None):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._log = log

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            if self._log is not None:
                self._log("FAILED: %s" % what)
        return ok


#: Records the host-speed probe walks; about 10 MB of heap while it runs.
PROBE_RECORDS = 30_000
#: Probe seconds on the reference host (a 2-core x86-64 container,
#: Python 3.11).  End-to-end times are reported as they would read on a
#: host where the probe takes this long.
PROBE_REF_S = 0.03
#: How closely the analyses follow the probe when the host changes
#: speed.  Between the host's fast and slow states the probe took ~1.95x
#: as long, the analyses 1.4-1.9x (median ~1.65x), and 1.95 ** 0.75 is
#: 1.65.  On recordings of 8-12 runs whose raw times spread 28-41%,
#: a plain ratio left 6-13% and this exponent 2-8%.
PROBE_EXPONENT = 0.75


def _probe_work(n: int) -> int:
    """Fixed interpreter work, independent of the program under test:
    allocation, a dict of tuple keys, and a walk over *n* records in a
    seeded random order, which misses the core's own caches the way the
    program's large heap does."""
    order = list(range(n))
    random.Random(0).shuffle(order)
    successor = [0] * n
    for here, there in zip(order, order[1:] + order[:1]):
        successor[here] = there
    records = [(index, str(index)) for index in range(n)]
    table = {("k", index): records[index] for index in range(0, n, 2)}
    total = 0
    at = order[0]
    for _ in range(n):
        total += records[at][0]
        at = successor[at]
    for key in table:
        total += len(table[key][1])
    return total


class HostSpeed:
    """How fast the host runs fixed work right now.

    The benchmark's host is a few cores of a shared machine.  It runs
    the same work at a fast or a slow speed, about twice as slow,
    switches between them within a second, and can stay slow for
    minutes, longer than a whole run; no statistic over one run's
    passes removes that.  A fixed probe, timed just before and just
    after each timed operation, slows down with it;
    :func:`at_reference_speed` rescales the operation's seconds by the
    two probes.  The probe runs with the collector off, so the
    program's heap cannot change its time.
    """

    def __init__(self):
        self.samples: List[float] = []

    def probe(self) -> float:
        """Time the probe once; returns its seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _probe_work(PROBE_RECORDS)
            seconds = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    def probe_s(self) -> float:
        """Median probe seconds of this run."""
        return median(self.samples)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """*seconds* of work timed between probes that took *before* and
    *after* seconds, as the work would take on the reference host."""
    return seconds * (PROBE_REF_S / ((before + after) / 2.0)) ** PROBE_EXPONENT


@dataclass
class Outcome:
    """What one workload run measured."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)
    tracer: Optional[Tracer] = None


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS (VmHWM) count at the current RSS.

    Called at the end of set-up so the peak covers the timed phase only.
    Returns ``False`` where ``/proc/self/clear_refs`` is unavailable; the
    peak then falls back to the whole process's ``ru_maxrss``.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
