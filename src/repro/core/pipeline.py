"""End-to-end JPortal pipeline.

Wires the whole offline side together, mirroring the paper's architecture:

1. **collect** (online, :mod:`repro.pt.perf`): trace packets per core --
   from whichever frontend the config names (Intel PT, RISC-V E-Trace)
   -- with data loss + machine-code metadata export;
2. **reassemble** (:mod:`repro.core.multicore`): per-core -> per-thread
   packet streams using thread-switch sideband;
3. **decode** (:mod:`repro.tracesource.engine`, lifting compiled code
   through :mod:`repro.core.batchflow`): packets -> observed bytecode
   columns (interp: opcode only; JIT: exact location) and loss holes;
4. **reconstruct** (:mod:`repro.core.reconstruct`): project each hole-free
   segment onto the ICFG NFA;
5. **recover** (:mod:`repro.core.recovery`): fill the holes from matching
   complete segments.

The result carries everything the evaluation needs: per-thread flows with
provenance, projection/recovery statistics, timing of each offline phase,
and the collected trace itself (sizes, loss).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..jvm.icfg import ICFG
from ..jvm.model import JProgram
from ..jvm.runtime import RunResult
from ..pt.decoder import DegradationPolicy
from ..pt.perf import PTConfig, PTTrace, collect
from ..tracesource import get_frontend
from .batchflow import JitLifter
from .degradation import anomaly_breakdown
from .metadata import CodeDatabase, collect_metadata
from .metrics import MetricsRegistry
from .multicore import ThreadTrace, split_by_thread
from .nfa import Node, ProgramNFA
from .observed import ObservedColumns
from .reconstruct import MatchStats, Projector
from .recovery import RecoveredFlow, RecoveryConfig, RecoveryEngine, RecoveryStats


@dataclass
class ThreadFlow:
    """One thread's fully analysed control flow."""

    tid: int
    observed: ObservedColumns
    segments: List[List[Optional[Node]]]
    flow: RecoveredFlow
    projection: MatchStats

    # -------- convenience views -------------------------------------------
    def reconstructed_nodes(self) -> List[Optional[Node]]:
        """Final flow: decoded + recovered entries in order."""
        return self.flow.nodes()

    def entry_counts(self) -> Dict[str, int]:
        counts = {"decoded": 0, "recovered": 0, "fallback": 0}
        for _entry, provenance in self.flow.entries:
            counts[provenance] += 1
        return counts


@dataclass
class ThreadPhaseTimings:
    """One thread's offline-phase breakdown (timings + key counts)."""

    tid: int
    decode_seconds: float = 0.0
    reconstruct_seconds: float = 0.0
    recovery_seconds: float = 0.0
    anomalies: int = 0
    holes: int = 0
    frontier_peak: int = 0

    @property
    def total_seconds(self) -> float:
        return self.decode_seconds + self.reconstruct_seconds + self.recovery_seconds


@dataclass
class PhaseTimings:
    """Wall-clock seconds per offline phase (Table 5's DT/RT split).

    The three phase fields aggregate (sum) the per-thread work recorded in
    ``per_thread``; ``wall_seconds`` is the measured end-to-end wall clock
    of the analysis.  The chains run one after another, so the wall clock
    covers their sum plus the split and the result assembly;
    :func:`ideal_makespan` models what truly concurrent chains could
    achieve from ``per_thread``.
    """

    decode_seconds: float = 0.0
    reconstruct_seconds: float = 0.0
    recovery_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: Static analysis + per-run metadata lint.  Deliberately *not* part
    #: of ``total_seconds``: the static share is paid once per program
    #: (amortised across runs), and Table 5's DT/RT split has no such
    #: column -- it is reported separately instead.
    analysis_seconds: float = 0.0
    per_thread: Dict[int, ThreadPhaseTimings] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.decode_seconds + self.reconstruct_seconds + self.recovery_seconds

    @property
    def critical_path_seconds(self) -> float:
        """The slowest single thread's chain: the ideal parallel wall clock."""
        if not self.per_thread:
            return 0.0
        return max(timing.total_seconds for timing in self.per_thread.values())


def ideal_makespan(durations: Iterable[float], workers: int) -> float:
    """Makespan of an LPT (longest-processing-time-first) schedule.

    Given the measured per-thread chain durations, this estimates the
    wall clock *workers* truly concurrent workers would need.  It is an
    estimate, not a floor: LPT is the classic 4/3-approximation to the
    (NP-hard) optimal makespan, and the model charges no dispatch or
    interpreter-lock cost, so a real pool can land on either side of it.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1, got %r" % (workers,))
    loads: List[float] = [0.0] * workers
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)


@dataclass
class JPortalResult:
    """Output of one analysis."""

    program: JProgram
    trace: PTTrace
    database: CodeDatabase
    flows: Dict[int, ThreadFlow]
    timings: PhaseTimings
    anomalies: int = 0
    metrics: Optional[MetricsRegistry] = None
    #: Per-kind anomaly counts (``AnomalyKind`` values -> count) folded
    #: from every stage's counters; empty when the run was clean.
    anomalies_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Holes declared by the decoder's error budget (not physical loss).
    synthetic_holes: int = 0
    #: Static decodability analysis (observability + ambiguity verdicts)
    #: with this run's database lint findings merged in.
    analysis_report: Optional[object] = None
    #: Disk-level salvage report (:class:`repro.pt.archive.SalvageStats`)
    #: when the trace came from :meth:`JPortal.analyze_archive`; ``None``
    #: for in-memory analyses.
    salvage: Optional[object] = None

    @property
    def loss_fraction(self) -> float:
        return self.trace.loss_fraction

    def flow_of(self, tid: int) -> ThreadFlow:
        return self.flows[tid]

    def total_entries(self) -> int:
        return sum(len(flow.flow.entries) for flow in self.flows.values())


class JPortal:
    """The profiler: build once per program, analyse many runs.

    Args:
        program: The target program (used to build the static ICFG/NFA).
        opaque_call_sites: Call sites hidden from the static ICFG
            (reflection simulation; reconstruction must fall back to the
            callback search for them).
        recovery: Recovery tuning.
        context_sensitive: ``True`` (default) carries a call stack during
            projection (the PDA alternative of Section 4 "Discussions");
            ``False`` is the paper's plain NFA.
        degradation: The error budget for hostile input; ``None`` uses
            the :class:`DegradationPolicy` default.
        engine: Must be ``"array"``, the only decode engine
            (:class:`~repro.tracesource.engine.BatchEventDecoder` +
            :meth:`~repro.core.reconstruct.Projector.project_arrays`);
            any other value raises ``ValueError``.  Kept for callers
            that still pass it.
        cache_dir: Directory for the persistent static-analysis cache
            (:mod:`repro.core.dfacache`).  When set, a repeated build
            for the same program loads the determinized per-method DFA
            verdicts and analysis report from disk instead of re-running
            subset construction; cache damage silently degrades to a
            cold build and surfaces as ``cache.anomaly.*`` counters on
            every result this profiler produces.  ``None`` (default)
            disables persistence.
    """

    def __init__(
        self,
        program: JProgram,
        opaque_call_sites: Tuple = (),
        recovery: Optional[RecoveryConfig] = None,
        context_sensitive: bool = True,
        degradation: Optional[DegradationPolicy] = None,
        engine: str = "array",
        cache_dir: Optional[str] = None,
        analysis_frontend: str = "pt",
    ):
        if engine != "array":
            raise ValueError("engine must be 'array', got %r" % (engine,))
        self.program = program
        self.cache_dir = cache_dir
        self.analysis_frontend = analysis_frontend
        self._opaque_call_sites = tuple(opaque_call_sites)
        self.icfg = ICFG(program, opaque_call_sites)
        self.nfa = ProgramNFA(self.icfg)
        # Reports are per-frontend artifacts; the default frontend's is
        # built eagerly (projector and recovery consume it), others
        # lazily on the first trace that names them.
        self._analysis_reports: Dict[str, object] = {}
        self._cache_events: Dict[str, int] = {}
        self.analysis_report = self.analysis_report_for(analysis_frontend)
        self.projector = Projector(
            self.nfa,
            context_sensitive=context_sensitive,
            analysis=self.analysis_report,
        )
        self.recovery_config = recovery or RecoveryConfig()
        self.recovery_engine = RecoveryEngine(self.icfg, self.recovery_config)
        self.degradation_policy = (
            degradation if degradation is not None else DegradationPolicy()
        )
        # Per-database JitLifter cache (block lift templates are a pure
        # function of (program, database); shared across thread chains).
        self._lifters: "weakref.WeakKeyDictionary[CodeDatabase, JitLifter]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------- API
    def analyze_run(
        self,
        run: RunResult,
        pt_config: Optional[PTConfig] = None,
    ) -> JPortalResult:
        """Collect a trace from *run* (any frontend) and analyse it."""
        trace = collect(run, pt_config)
        database = collect_metadata(run)
        return self.analyze_trace(trace, database)

    def analyze_trace(
        self, trace: PTTrace, database: CodeDatabase
    ) -> JPortalResult:
        """Analyse an already collected trace against exported metadata.

        Each thread's decode -> project -> recover chain is independent
        of every other thread's; the chains run in a loop in ascending
        tid order.  They are pure Python, so a thread pool would add
        dispatch cost under the interpreter lock and no parallelism.  A
        chain that fails degrades to an empty flow (counted under
        ``pipeline.thread_chain_failures``) instead of killing the whole
        analysis.
        """
        metrics = MetricsRegistry()
        wall_started = time.perf_counter()
        with metrics.timer("split"):
            per_thread = split_by_thread(trace)
        flows: Dict[int, ThreadFlow] = {}
        for tid in sorted(per_thread):
            try:
                flows[tid] = self._analyze_thread(
                    tid, per_thread[tid], database, metrics
                )
            except Exception:
                flows[tid] = self._degraded_flow(tid, metrics)
        return self._finish(trace, database, flows, metrics, wall_started)

    def analyze_archive(
        self,
        path,
        database: Optional[CodeDatabase] = None,
        snapshot_path=None,
    ) -> JPortalResult:
        """Salvage-read a durable ``RPT2`` (or legacy ``RPT1``) archive
        from disk and analyse whatever survived.

        Disk damage never raises: corrupt segments become synthetic loss
        records handed to hole recovery, and every salvage event is
        folded into ``anomalies_by_kind`` (``archive.anomaly.*``
        counters) alongside the decode-level anomalies.  The full
        :class:`~repro.pt.archive.SalvageStats` lands on
        ``result.salvage``.

        *database* overrides the archive's metadata snapshot + journal
        (e.g. when the sidecar is lost but metadata was exported through
        another channel).  The seconds :func:`read_archive` took are
        recorded under ``archive.read`` in ``result.metrics``.
        """
        from ..pt.archive import read_archive

        started = time.perf_counter()
        contents = read_archive(path, snapshot_path=snapshot_path)
        read_seconds = time.perf_counter() - started
        salvaged_db = database if database is not None else contents.database_or_empty()
        trace = contents.to_trace()
        result = self.analyze_trace(trace, salvaged_db)
        result.metrics.add_time("archive.read", read_seconds)
        self._attach_salvage(result, contents.stats)
        return result

    # ------------------------------------------------------------- internals
    def analysis_report_for(self, frontend: str):
        """The static analysis report under *frontend*'s projection model.

        Memoized per frontend; the cache events of every build fold into
        this profiler's shared ``cache.*`` counters.
        """
        report = self._analysis_reports.get(frontend)
        if report is None:
            report, events = self._static_analysis(
                self.program, self._opaque_call_sites, self.cache_dir, frontend
            )
            self._analysis_reports[frontend] = report
            for name, count in events.items():
                self._cache_events[name] = (
                    self._cache_events.get(name, 0) + count
                )
        return report

    def _static_analysis(self, program, opaque_call_sites, cache_dir, frontend):
        """The static decodability analysis, once per (program, frontend)
        (amortised over every run this profiler analyses) -- loaded from
        the persistent cache when *cache_dir* is set and holds a valid
        entry for this program under this frontend's projection model,
        rebuilt (and stored) otherwise.

        The analysis package builds on ``repro.core.nfa``, so its import
        stays local to avoid a cycle.  Returns ``(report, cache_events)``
        where the events dict carries the ``cache.*`` counters this
        build produced (empty when caching is off).
        """
        from ..analysis.report import analyze_program

        if cache_dir is None:
            report = analyze_program(
                program,
                icfg=self.icfg,
                opaque_call_sites=opaque_call_sites,
                frontend=frontend,
            )
            return report, {}
        from .dfacache import AnalysisCache, analysis_cache_key

        cache = AnalysisCache(cache_dir)
        key = analysis_cache_key(program, opaque_call_sites, frontend=frontend)
        started = time.perf_counter()
        report = cache.load(key)
        if report is not None:
            # static_seconds reflects what *this* build paid -- the disk
            # load, not the original subset construction -- so warm runs
            # report ~zero analysis time.
            report = replace(
                report, static_seconds=time.perf_counter() - started
            )
        else:
            report = analyze_program(
                program,
                icfg=self.icfg,
                opaque_call_sites=opaque_call_sites,
                frontend=frontend,
            )
            cache.store(key, report)
        return report, cache.events

    @staticmethod
    def _attach_salvage(result: JPortalResult, stats) -> None:
        """Publish salvage stats onto the result's metric surface."""
        from .degradation import ARCHIVE_METRIC_PREFIX

        metrics = result.metrics
        if metrics is not None:
            for kind, count in stats.by_kind().items():
                metrics.incr(ARCHIVE_METRIC_PREFIX + kind, count)
            metrics.incr("archive.segments_salvaged", stats.segments_salvaged)
            metrics.incr("archive.segments_dropped", stats.segments_dropped)
            metrics.incr("archive.bytes_salvaged", stats.bytes_salvaged)
            metrics.incr(
                "archive.metadata_snapshots_missing",
                stats.metadata_snapshots_missing,
            )
            result.anomalies_by_kind = anomaly_breakdown(metrics)
        result.salvage = stats

    @staticmethod
    def _degraded_flow(tid: int, metrics: MetricsRegistry) -> ThreadFlow:
        """The empty flow a failed per-thread chain degrades to."""
        metrics.incr("pipeline.thread_chain_failures", tid=tid)
        return ThreadFlow(
            tid=tid,
            observed=ObservedColumns(tid),
            segments=[],
            flow=RecoveredFlow(entries=[], stats=RecoveryStats()),
            projection=MatchStats(),
        )

    def _analyze_thread(
        self,
        tid: int,
        thread_trace: ThreadTrace,
        database: CodeDatabase,
        metrics: MetricsRegistry,
    ) -> ThreadFlow:
        """One thread's full decode -> lift -> project -> recover chain.

        Self-contained and side-effect-free apart from *metrics*, so
        chains for different tids are independent of each other.  The
        decoder class comes from the frontend registry keyed by the
        thread trace's ``source`` (``"pt"``, ``"etrace"``, ...), so a
        second trace format flows through this chain unchanged.
        """
        frontend = get_frontend(thread_trace.source)
        with metrics.timer("decode", tid=tid):
            decoder = frontend.batch_decoder(
                database,
                self._lifter_for(database),
                metrics=metrics,
                tid=tid,
                policy=self.degradation_policy,
            )
            observed = decoder.decode_into(
                thread_trace.stream, ObservedColumns(tid)
            )
        return self._project_and_recover(observed, metrics, tid)

    def _project_and_recover(
        self,
        observed: ObservedColumns,
        metrics: MetricsRegistry,
        tid: int,
    ) -> ThreadFlow:
        """Project + recover fully-decoded columns into a ThreadFlow.

        The back half of :meth:`_analyze_thread`, split out so the
        streaming service -- which fills the columns incrementally with
        its own decoder lifecycle -- finalises through exactly the batch
        code path.
        """
        with metrics.timer("reconstruct", tid=tid):
            segments: List[List[Optional[Node]]] = []
            stats = MatchStats()
            symbols = observed.symbols
            takens = observed.takens
            locations = observed.locations
            for lo, hi in observed.segment_ranges():
                projection = self.projector.project_arrays(
                    symbols, takens, locations, lo, hi,
                    metrics=metrics, tid=tid,
                )
                segments.append(projection.path)
                _merge_stats(stats, projection.stats)
        with metrics.timer("recovery", tid=tid):
            recovered = self.recovery_engine.recover(
                segments, observed.holes(), metrics=metrics, tid=tid
            )
        return ThreadFlow(
            tid=observed.tid,
            observed=observed,
            segments=segments,
            flow=recovered,
            projection=stats,
        )

    def _finish(
        self,
        trace: PTTrace,
        database: CodeDatabase,
        flows: Dict[int, ThreadFlow],
        metrics: MetricsRegistry,
        wall_started: float,
    ) -> JPortalResult:
        """Assemble the result: per-thread breakdowns and aggregates."""
        from ..analysis.lint import lint_database

        # The attached report reflects the frontend that produced this
        # trace: per-frontend projection models mean per-frontend
        # verdicts.  Unknown/model-less frontends fall back to the
        # profiler's default report rather than failing the run.
        frontend = getattr(
            getattr(trace, "config", None), "frontend", None
        ) or self.analysis_frontend
        try:
            static_report = self.analysis_report_for(frontend)
        except (KeyError, ValueError):
            static_report = self.analysis_report
        # Every result carries the cache counters of the build that
        # produced its analyser (hits/misses/anomalies), so cache damage
        # is visible on the same surface as decode/archive damage.
        for name, count in self._cache_events.items():
            metrics.incr(name, count)
        with metrics.timer("analysis"):
            analysis_report = static_report.with_database_findings(
                lint_database(database, self.program)
            )
        # Publish the static (subset-construction) share as its own
        # phase: `timings_by_prefix("analysis")` then shows ~zero
        # `.static` on a warm-cache build, which is how the cache's
        # "skips determinization" contract is verified.
        metrics.add_time("analysis.static", static_report.static_seconds)
        timings = PhaseTimings(wall_seconds=time.perf_counter() - wall_started)
        timings.analysis_seconds = (
            metrics.timing("analysis") + static_report.static_seconds
        )
        total_anomalies = 0
        for tid in sorted(flows):
            flow = flows[tid]
            breakdown = ThreadPhaseTimings(
                tid=tid,
                decode_seconds=metrics.timing("decode", tid=tid),
                reconstruct_seconds=metrics.timing("reconstruct", tid=tid),
                recovery_seconds=metrics.timing("recovery", tid=tid),
                anomalies=flow.observed.anomalies,
                holes=len(flow.observed.holes()),
                frontier_peak=flow.projection.frontier_peak,
            )
            timings.per_thread[tid] = breakdown
            timings.decode_seconds += breakdown.decode_seconds
            timings.reconstruct_seconds += breakdown.reconstruct_seconds
            timings.recovery_seconds += breakdown.recovery_seconds
            total_anomalies += breakdown.anomalies
        return JPortalResult(
            program=self.program,
            trace=trace,
            database=database,
            flows=flows,
            timings=timings,
            anomalies=total_anomalies,
            metrics=metrics,
            anomalies_by_kind=anomaly_breakdown(metrics),
            synthetic_holes=metrics.counter("decode.synthetic_holes"),
            analysis_report=analysis_report,
        )

    def _lifter_for(self, database: CodeDatabase) -> JitLifter:
        lifter = self._lifters.get(database)
        if lifter is None:
            lifter = JitLifter(database, self.program)
            self._lifters[database] = lifter
        return lifter


def _merge_stats(into: MatchStats, other: MatchStats) -> None:
    into.steps += other.steps
    into.matched += other.matched
    into.restarts += other.restarts
    into.callback_fallbacks += other.callback_fallbacks
    into.ambiguous_steps += other.ambiguous_steps
    into.frontier_peak = max(into.frontier_peak, other.frontier_peak)
