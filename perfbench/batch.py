"""Batch workloads: ``JPortal.analyze_trace`` over a fixed subject set.

One pass analyses every subject once, serially, in a fixed order.
A warm-up pass comes first: it fills the profiler's lazy memos (as any
long-lived profiler has them filled after its first trace), and its
result is the reference every timed pass must reproduce -- its digest is
compared with the golden digest when the seed has one, and its accuracy
against the simulator's ground truth is computed there, outside timing.
Timed passes then repeat until ``--seconds`` have passed (at least
:data:`MIN_PASSES`).  A host-speed probe runs between consecutive
timed passes (:class:`HostSpeed`); each pass is rescaled to reference
speed by the probes on either side of it, and each subject's time is
the median of its rescaled passes.
"""

from __future__ import annotations

import gc
import time
from statistics import median
from typing import Dict, List

from repro.core.metadata import collect_metadata
from repro.profiling.accuracy import (
    RunAccuracy,
    ThreadAccuracy,
    run_accuracy,
    sequence_similarity,
)

from . import chain
from .harness import Checks, HostSpeed, Outcome, at_reference_speed, peak_rss_mb, reset_peak_rss
from .inputs import Prepared, SetupTimes, prepare
from .oracle import digest_entries, digest_result, fingerprint, golden_for, result_entries
from .stats import geomean
from .tracer import Tracer

MIN_PASSES = 3


def analyze(item: Prepared):
    """Time one ``analyze_trace`` of *item*; returns ``(seconds, result)``.

    Every pass gets a fresh metadata database, built before the clock
    starts, so the profiler's per-database lift cache never carries
    over from an earlier pass.  Collecting garbage first starts every
    pass from the same collector state.
    """
    database = collect_metadata(item.run)
    gc.collect()
    started = time.perf_counter()
    result = item.jportal.analyze_trace(item.trace, database)
    return time.perf_counter() - started, result


def chain_failures(result) -> int:
    """Threads whose chain raised and was replaced by an empty flow."""
    return result.metrics.counter("pipeline.thread_chain_failures")


def accuracy_of(run, result, breakdown: bool) -> RunAccuracy:
    """Accuracy of *result* against the simulator's ground truth.

    With *breakdown*, this is ``run_accuracy`` with Table 3's breakdown.
    Without it, only ``.overall`` (Figure 7's number) is meaningful: it
    takes one alignment per thread instead of the two ``run_accuracy``
    makes -- the slowest part of a run outside set-up -- and leaves the
    breakdown counts 0.
    """
    if breakdown:
        return run_accuracy(run, result)
    threads = []
    for thread in run.threads:
        flow = result.flows.get(thread.tid)
        overall = 0.0 if flow is None else sequence_similarity(thread.truth, flow.flow.nodes())
        threads.append(ThreadAccuracy(thread.tid, len(thread.truth), overall, 0, 0, 0, 0))
    return RunAccuracy(threads=threads, percent_missing_data=result.loss_fraction)


def run(workload: str, seed: int, seconds: float, traced: bool, log) -> Outcome:
    outcome = Outcome(checks=Checks(log))
    checks = outcome.checks
    log("set-up: %s seed %d" % (workload, seed))
    speed = HostSpeed()
    prepared, setup = prepare(workload, seed, probe=speed.probe)
    golden = golden_for(workload, seed)

    reference: Dict[str, tuple] = {}
    accuracy = {}
    for item in prepared:
        _seconds, result = analyze(item)
        digest = digest_result(result)
        ok = chain_failures(result) == 0
        if golden is not None:
            ok = ok and golden.get(item.name) == digest
        checks.record(ok, "%s warm-up digest %s" % (item.name, digest[:12]))
        reference[item.name] = (digest, fingerprint(result_entries(result)))
        accuracy[item.name] = accuracy_of(item.run, result, breakdown=traced)
        log("%s: size %d, digest %s, accuracy %.4f"
            % (item.name, item.size, digest[:12], accuracy[item.name].overall))
        del result

    tracer = Tracer() if traced else None
    times: Dict[str, List[float]] = {item.name: [] for item in prepared}
    scaled: Dict[str, List[float]] = {item.name: [] for item in prepared}
    gc.collect()
    rss_reset = reset_peak_rss()
    deadline = time.perf_counter() + seconds
    passes = 0
    # The probe after one pass is the probe before the next.
    before = speed.probe()
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for item in prepared:
            op = "%s/%d" % (item.name, passes)
            try:
                elapsed, result = analyze(item)
            except Exception as exc:  # counted, the run goes on
                checks.record(False, "%s raised %r" % (op, exc))
                before = speed.probe()
                continue
            after = speed.probe()
            same = fingerprint(result_entries(result)) == reference[item.name][1]
            if checks.record(same and chain_failures(result) == 0, "%s output differs" % op):
                times[item.name].append(elapsed)
                scaled[item.name].append(at_reference_speed(elapsed, before, after))
            del result
            if tracer is not None:
                _traced_pass(item, tracer, op, reference[item.name], checks, first=passes == 0)
                after = speed.probe()
            before = after
        passes += 1
    peak = peak_rss_mb()
    log("%d timed passes, peak-RSS reset %s, median probe %.4f s"
        % (passes, "ok" if rss_reset else "unavailable", speed.probe_s()))

    for name, values in times.items():
        if values:
            log("%s: median %.4f s, min %.4f, max %.4f over %d passes; %.4f s at reference speed"
                % (name, median(values), min(values), max(values), len(values), median(scaled[name])))
    medians = {name: median(values) for name, values in times.items() if values}
    if len(medians) != len(prepared):
        checks.record(False, "a subject has no successful timed pass")
        return outcome
    outcome.end_to_end = {
        "analyze_s": sum(median(values) for values in scaled.values()),
        "accuracy": sum(a.overall for a in accuracy.values()) / len(accuracy),
        "setup_s": setup.total(),
        "peak_rss_mb": peak,
    }
    if tracer is not None:
        outcome.tracer = tracer
        outcome.per_layer = _per_layer(prepared, setup, tracer, medians, accuracy, checks)
        outcome.per_layer["host.probe_s"] = speed.probe_s()
    return outcome


def _traced_pass(item, tracer, op, reference, checks, first) -> None:
    database = collect_metadata(item.run)
    gc.collect()
    try:
        flows = chain.traced_analyze(item.jportal, item.trace, database, tracer, op)
    except Exception as exc:
        checks.record(False, "traced %s raised %r" % (op, exc))
        return
    digest, print_ = reference
    # The full digest once per subject; the cheap fingerprint after that.
    same = digest_entries(flows) == digest if first else fingerprint(flows) == print_
    checks.record(same, "traced %s differs from analyze_trace" % op)


def recovery_accuracy(accuracies) -> float:
    """Table 3's RA over every thread of every subject."""
    entries = correct = 0
    for run_accuracy_ in accuracies:
        for thread in run_accuracy_.threads:
            entries += thread.recovered_entries
            correct += thread.recovered_correct
    return correct / entries if entries else 0.0


def layer_metrics(prepared, setup: SetupTimes, tracer, seconds, accuracy, checks) -> Dict[str, float]:
    """Per-layer metrics every workload reports.

    *seconds* is each subject's median time to final flows (the
    ``analyze_s`` terms); the traced chain's glue share is checked here.
    """
    kept = {item.name: item.trace.bytes_kept for item in prepared}
    out = chain.chain_metrics(tracer, kept)
    share = out["analyze.self_share"]
    checks.record(
        share <= chain.MAX_SELF_SHARE,
        "untimed glue is %.1f%% of the traced wall" % (100.0 * share),
    )
    out["analyze_s_geomean"] = geomean(list(seconds.values()))
    out["recovery.accuracy"] = recovery_accuracy(accuracy.values())
    for name, value in seconds.items():
        out["subject.%s.analyze_s" % name] = value
        out["subject.%s.accuracy" % name] = accuracy[name].overall
    out.update({
        "setup.run_s": setup.phase("run"),
        "setup.calibrate_s": setup.calibrate_s,
        "setup.collect_s": setup.phase("collect"),
        "setup.metadata_s": setup.phase("metadata"),
        "setup.static_analysis_s": setup.phase("static_analysis"),
    })
    return out


def _per_layer(prepared, setup, tracer, medians, accuracy, checks) -> Dict[str, float]:
    out = layer_metrics(prepared, setup, tracer, medians, accuracy, checks)
    out["analyze.untraced_s"] = sum(medians.values())
    out["trace.overhead_s"] = out["analyze.traced_s"] - out["analyze.untraced_s"]
    return out
