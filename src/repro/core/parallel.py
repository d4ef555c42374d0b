"""Parallel per-thread offline pipeline (paper Section 6, Table 5).

Each traced thread's reassembled packet stream decodes, lifts, projects,
and recovers independently of every other thread's, so the offline side
parallelises along the thread axis: :class:`ParallelPipeline` fans each
thread's full chain (:meth:`repro.core.pipeline.JPortal._analyze_thread`)
out to a ``concurrent.futures`` worker pool and merges the resulting
:class:`~repro.core.pipeline.ThreadFlow`s back in ascending-tid order.

Guarantees:

* ``max_workers=1`` takes the exact serial code path of
  :meth:`JPortal.analyze_trace` -- same iteration order, same objects --
  so its output is bit-for-bit identical to the serial pipeline's;
* any worker count produces identical flows (chains share only immutable
  state -- the code database, NFA, and ICFG are read-only after
  construction -- plus a thread-safe metrics registry), and the merge
  order is deterministic regardless of completion order;
* per-thread, per-phase timings land in
  ``result.timings.per_thread[tid]`` either way, so the achievable
  speedup is measurable even where the pool cannot realise it.

Two pool backends exist.  ``backend="thread"`` (the default) is a
``ThreadPoolExecutor``: chains are pure Python, so under the CPython GIL
the wall-clock win on CPU-bound traces is bounded -- it wins only where
chains block.  ``backend="process"`` is a ``ProcessPoolExecutor`` that
escapes the GIL: each worker process rebuilds the analyser once from a
picklable payload (program + configuration + code database, shipped via
the pool initializer), analyses whole threads, and returns the
:class:`~repro.core.pipeline.ThreadFlow` plus a
:meth:`~repro.core.metrics.MetricsRegistry.export` of its worker-local
metrics, which the parent :meth:`absorb`\\ s on join -- so the merged
registry and anomaly stats are identical to a serial run's.  Either way
``result.parallelism`` reports the actual vs ideal speedup
(:class:`~repro.core.pipeline.ParallelismReport`), making a GIL-bound
thread-pool run visible in metrics rather than only in this comment.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

from ..pt.perf import PTConfig, PTTrace, collect
from .metadata import CodeDatabase, collect_metadata
from .metrics import MetricsRegistry
from .multicore import ThreadTrace, split_by_thread
from .pipeline import JPortal, JPortalResult, ParallelismReport, ThreadFlow

#: Pool backends a :class:`ParallelPipeline` accepts.
BACKENDS = ("thread", "process")

# Worker-process globals, set once per worker by :func:`_process_init`.
# A ProcessPoolExecutor initializer is the one start-method-agnostic way
# to ship the (large, read-only) analyser state exactly once per worker
# instead of once per task.
_worker_jportal: Optional[JPortal] = None
_worker_database: Optional[CodeDatabase] = None


def _process_init(payload: dict) -> None:
    """Rebuild the analyser inside a pool worker (runs once per worker)."""
    global _worker_jportal, _worker_database
    _worker_database = payload["database"]
    _worker_jportal = JPortal(
        payload["program"],
        opaque_call_sites=payload["opaque_call_sites"],
        recovery=payload["recovery"],
        context_sensitive=payload["context_sensitive"],
        degradation=payload["degradation"],
        engine=payload["engine"],
        # Workers share the parent's persistent analysis cache, so the
        # per-worker static rebuild is a disk load, not a determinize.
        cache_dir=payload["cache_dir"],
        analysis_frontend=payload.get("analysis_frontend", "pt"),
    )


def _process_chain(
    tid: int, thread_trace: ThreadTrace
) -> Tuple[int, ThreadFlow, dict]:
    """One thread's chain inside a pool worker.

    Records into a worker-local registry and ships its picklable
    ``export()`` back alongside the flow; the parent absorbs it, so the
    merged metrics match a serial run's exactly.
    """
    metrics = MetricsRegistry()
    flow = _worker_jportal._analyze_thread_safe(
        tid, thread_trace, _worker_database, metrics
    )
    return tid, flow, metrics.export()


class ParallelPipeline:
    """Fans per-thread analysis chains out to a worker pool.

    Args:
        jportal: The configured analyser (static ICFG/NFA built once).
        max_workers: Pool width.  ``1`` reproduces the serial pipeline
            exactly; ``None`` uses one worker per host CPU.
        backend: ``"thread"`` (shared-memory pool, GIL-bound on CPU-heavy
            traces) or ``"process"`` (one analyser per worker process,
            true parallelism; requires the per-thread traces and flows to
            pickle, which they do by construction).
    """

    def __init__(
        self,
        jportal: JPortal,
        max_workers: Optional[int] = None,
        backend: str = "thread",
    ):
        if backend not in BACKENDS:
            raise ValueError(
                "backend must be one of %r, got %r" % (BACKENDS, backend)
            )
        self.jportal = jportal
        self.max_workers = max_workers
        self.backend = backend

    # ------------------------------------------------------------------- API
    def analyze_run(
        self, run, pt_config: Optional[PTConfig] = None
    ) -> JPortalResult:
        """Collect a trace from *run* (any frontend) and analyse it on
        the pool."""
        trace = collect(run, pt_config)
        database = collect_metadata(run)
        return self.analyze_trace(trace, database)

    def analyze_archive(
        self, path, database: Optional[CodeDatabase] = None, snapshot_path=None
    ) -> JPortalResult:
        """Salvage-read an on-disk archive and analyse it on the pool."""
        return self.jportal.analyze_archive(
            path,
            database=database,
            max_workers=self.max_workers,
            backend=self.backend,
            snapshot_path=snapshot_path,
        )

    def analyze_trace(
        self, trace: PTTrace, database: CodeDatabase
    ) -> JPortalResult:
        """Analyse an already collected trace, one worker per thread."""
        jportal = self.jportal
        metrics = MetricsRegistry()
        wall_started = time.perf_counter()
        with metrics.timer("split"):
            per_thread = split_by_thread(trace)
        tids = sorted(per_thread)
        workers = self._resolve_workers(len(tids))
        flows: Dict[int, ThreadFlow] = {}
        pooled = workers > 1 and len(tids) > 1
        if not pooled:
            # Serial path: identical to JPortal.analyze_trace(max_workers=1).
            for tid in tids:
                flows[tid] = jportal._analyze_thread_safe(
                    tid, per_thread[tid], database, metrics
                )
        elif self.backend == "process":
            self._run_process_pool(per_thread, tids, workers, database, metrics, flows)
        else:
            with self._executor(workers) as pool:
                # The _safe wrapper degrades a chain failure to an empty
                # flow on both the serial and pooled paths, keeping the
                # serial/parallel bit-identity under hostile input.
                futures = {
                    tid: pool.submit(
                        jportal._analyze_thread_safe,
                        tid,
                        per_thread[tid],
                        database,
                        metrics,
                    )
                    for tid in tids
                }
                # Merge in ascending tid order, not completion order.
                for tid in tids:
                    flows[tid] = futures[tid].result()
        result = jportal._finish(trace, database, flows, metrics, wall_started)
        self._attach_parallelism(result, workers, pooled)
        return result

    # ------------------------------------------------------------- internals
    def _run_process_pool(
        self,
        per_thread: Dict[int, ThreadTrace],
        tids: List[int],
        workers: int,
        database: CodeDatabase,
        metrics: MetricsRegistry,
        flows: Dict[int, ThreadFlow],
    ) -> None:
        """Fan chains out to worker processes and merge on join."""
        jportal = self.jportal
        payload = {
            "program": jportal.program,
            "opaque_call_sites": tuple(jportal.icfg.opaque_call_sites),
            "recovery": jportal.recovery_config,
            "context_sensitive": jportal.projector.context_sensitive,
            "degradation": jportal.degradation_policy,
            "engine": jportal.engine,
            "cache_dir": jportal.cache_dir,
            "analysis_frontend": jportal.analysis_frontend,
            "database": database,
        }
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_process_init, initargs=(payload,)
        ) as pool:
            futures = {
                tid: pool.submit(_process_chain, tid, per_thread[tid])
                for tid in tids
            }
            # Merge in ascending tid order, not completion order: flows
            # and absorbed metrics land identically regardless of which
            # worker finished first.
            for tid in tids:
                _tid, flow, exported = futures[tid].result()
                flows[tid] = flow
                metrics.absorb(exported)

    def _attach_parallelism(
        self, result: JPortalResult, workers: int, pooled: bool
    ) -> None:
        """Publish the actual-vs-ideal speedup for this run's backend."""
        durations = [
            timing.total_seconds
            for timing in result.timings.per_thread.values()
        ]
        result.parallelism = ParallelismReport(
            backend=self.backend if pooled else "serial",
            workers=workers if pooled else 1,
            chain_seconds=result.timings.total_seconds,
            wall_seconds=result.timings.wall_seconds,
            ideal_makespan_seconds=ideal_makespan(durations, workers),
            critical_path_seconds=result.timings.critical_path_seconds,
        )

    def _resolve_workers(self, thread_count: int) -> int:
        workers = self.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("max_workers must be >= 1, got %r" % (workers,))
        return min(workers, max(thread_count, 1))

    def _executor(self, workers: int) -> Executor:
        return make_executor(workers)


def make_executor(
    workers: int, thread_name_prefix: str = "jportal-decode"
) -> Executor:
    """The shared thread-pool constructor for in-host fan-out.

    Both the per-thread analysis pool above and the streaming
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
    (task dispatch, result pickling, per-process analyser construction),
    so a real backend can land on either side of it.  Every pooled run
    reports its measured speedup against this ideal on
    ``result.parallelism`` (:class:`~repro.core.pipeline.ParallelismReport`),
    which is how a GIL-bound thread-pool run (actual ~1x, ideal ~N x)
    shows up in metrics.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1, got %r" % (workers,))
    loads: List[float] = [0.0] * workers
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)
