"""The traced analysis chain, composed from the program's public calls.

:func:`traced_analyze` mirrors ``JPortal.analyze_trace`` with the array
engine -- ``split_by_thread``, then per thread
``batch_decoder(...).decode_into``, ``projector.project_arrays`` per
segment and ``recovery_engine.recover``, then ``lint_database`` -- and
records one span around each call.  Its flows must equal the untraced
``analyze_trace`` flows for the same input; the benchmark checks that on
every traced pass, so this copy of the chain cannot drift from the
program unnoticed.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from typing import Dict, List, Mapping, Tuple

from repro.analysis.lint import lint_database
from repro.core.batchflow import JitLifter
from repro.core.metrics import MetricsRegistry
from repro.core.multicore import split_by_thread
from repro.core.observed import ObservedColumns
from repro.tracesource import get_frontend

from .tracer import Tracer

#: Span under which one whole analysis runs; its self time is the glue
#: between layer calls and must stay a small share of its duration.
ROOT = "analyze"
#: Largest share of the traced wall the root's own glue may take before
#: the run is flagged: more means a layer call has no span around it.
MAX_SELF_SHARE = 0.05

#: (span name, per-layer metric of its summed self time).
LAYER_SPANS = (
    ("multicore.split", "multicore.split_s"),
    ("tracesource.decode", "tracesource.decode_s"),
    ("reconstruct.project", "reconstruct.project_s"),
    ("recovery.recover", "recovery.recover_s"),
    ("analysis.lint", "analysis.lint_s"),
    (ROOT, "analyze.self_s"),
)
#: Counts recorded at the layer boundaries and reported as they are.
LAYER_COUNTS = (
    "tracesource.anomalies",
    "reconstruct.steps",
    "reconstruct.restarts",
    "reconstruct.callback_fallbacks",
    "recovery.zero_hole_s",
    "recovery.holes",
    "recovery.candidates_tested",
    "recovery.fallback_fills",
    "recovery.recovered_instructions",
)


def subject_of(op: str) -> str:
    """The subject (or tenant) of a ``subject/pass`` operation id."""
    return op.rsplit("/", 1)[0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def chain_metrics(tracer: Tracer, kept_bytes: Mapping[str, int]) -> Dict[str, float]:
    """Per-layer metrics from the :func:`traced_analyze` spans and counts.

    Each quantity is the per-subject median over passes, summed over
    subjects -- the same aggregation as the end-to-end ``analyze_s``.
    *kept_bytes* is each subject's trace bytes that reached the decoder.
    """
    selfs = tracer.self_by_op(ROOT)
    counts = tracer.counts_by_op()
    walls = {span.op: span.duration for span in tracer.spans if span.name == ROOT}
    ops_of = defaultdict(list)
    for op in walls:
        ops_of[subject_of(op)].append(op)

    def total(value_of) -> float:
        return sum(median([value_of(op) for op in ops]) for ops in ops_of.values())

    out: Dict[str, float] = {}
    for span_name, metric in LAYER_SPANS:
        out[metric] = total(lambda op: selfs[op].get(span_name, 0.0))
    for name in LAYER_COUNTS:
        out[name] = total(lambda op: counts[op].get(name, 0.0))
    matched = total(lambda op: counts[op].get("reconstruct.matched", 0.0))
    filled = total(lambda op: counts[op].get("recovery.filled_from_cs", 0.0))
    out["reconstruct.match_ratio"] = _ratio(matched, out["reconstruct.steps"])
    out["recovery.fill_ratio"] = _ratio(filled, out["recovery.holes"])
    out["recovery.candidate_yield"] = _ratio(filled, out["recovery.candidates_tested"])
    out["tracesource.decode_kbs"] = _ratio(
        sum(kept_bytes[subject] for subject in ops_of) / 1024.0,
        out["tracesource.decode_s"],
    )
    out["analyze.traced_s"] = total(lambda op: walls[op])
    out["analyze.self_share"] = _ratio(out["analyze.self_s"], out["analyze.traced_s"])
    return out


def traced_analyze(jportal, trace, database, tracer: Tracer, op: str) -> Dict[int, List[Tuple[object, str]]]:
    """Analyse *trace* under spans; returns ``{tid: flow entries}``."""
    span = tracer.span
    count = tracer.count
    flows = {}
    with span(ROOT, op):
        metrics = MetricsRegistry()
        lifter = JitLifter(database, jportal.program)
        with span("multicore.split", op):
            per_thread = split_by_thread(trace)
        for tid in sorted(per_thread):
            thread_trace = per_thread[tid]
            frontend = get_frontend(thread_trace.source)
            with span("tracesource.decode", op):
                decoder = frontend.batch_decoder(
                    database,
                    lifter,
                    metrics=metrics,
                    tid=tid,
                    policy=jportal.degradation_policy,
                )
                observed = decoder.decode_into(thread_trace.stream, ObservedColumns(tid))
            count("tracesource.anomalies", op, observed.anomalies)
            symbols, takens, locations = observed.symbols, observed.takens, observed.locations
            segments = []
            steps = matched = restarts = fallbacks = 0
            for lo, hi in observed.segment_ranges():
                with span("reconstruct.project", op):
                    projection = jportal.projector.project_arrays(
                        symbols, takens, locations, lo, hi, metrics=metrics, tid=tid
                    )
                segments.append(projection.path)
                stats = projection.stats
                steps += stats.steps
                matched += stats.matched
                restarts += stats.restarts
                fallbacks += stats.callback_fallbacks
            count("reconstruct.steps", op, steps)
            count("reconstruct.matched", op, matched)
            count("reconstruct.restarts", op, restarts)
            count("reconstruct.callback_fallbacks", op, fallbacks)
            holes = observed.holes()
            with span("recovery.recover", op) as recover:
                recovered = jportal.recovery_engine.recover(
                    segments, holes, metrics=metrics, tid=tid
                )
            if not holes:
                count("recovery.zero_hole_s", op, recover.duration)
            stats = recovered.stats
            count("recovery.holes", op, stats.holes)
            count("recovery.candidates_tested", op, stats.candidates_tested)
            count("recovery.filled_from_cs", op, stats.filled_from_cs)
            count("recovery.fallback_fills", op, stats.filled_fallback)
            count("recovery.recovered_instructions", op, stats.recovered_instructions)
            flows[tid] = recovered.entries
        with span("analysis.lint", op):
            lint_database(database, jportal.program)
    return flows
