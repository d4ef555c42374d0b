"""Thread-pool construction and the schedule model for per-thread fan-out.

Each traced thread's reassembled packet stream decodes, lifts, projects,
and recovers independently of every other thread's (paper Section 6,
Table 5), so :meth:`repro.core.pipeline.JPortal.analyze_trace` can run
the per-thread chains on a pool built by :func:`make_executor`.  Chains
are pure Python, so under the CPython GIL the pool cannot beat the
serial loop on CPU-bound traces; :func:`ideal_makespan` models what
truly concurrent workers could achieve from the measured per-thread
chain durations.
"""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Iterable, List


def make_executor(
    workers: int, thread_name_prefix: str = "jportal-decode"
) -> Executor:
    """The shared thread-pool constructor for in-host fan-out.

    Both the per-thread analysis pool of
    :meth:`~repro.core.pipeline.JPortal.analyze_trace` and the streaming
    supervisor's tenant-poll shards (:mod:`repro.stream`) draw workers
    from pools built here, so sizing and naming stay in one place.
    """
    return ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix=thread_name_prefix
    )


def ideal_makespan(durations: Iterable[float], workers: int) -> float:
    """Makespan of an LPT (longest-processing-time-first) schedule.

    Given the measured per-thread chain durations, this estimates the
    wall clock *workers* truly concurrent workers would need.  It is an
    estimate, not a floor: LPT is the classic 4/3-approximation to the
    (NP-hard) optimal makespan, and the model charges no pool overhead
    (task dispatch, interpreter-lock contention), so a real pool can
    land on either side of it.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1, got %r" % (workers,))
    loads: List[float] = [0.0] * workers
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)
