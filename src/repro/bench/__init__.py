"""Machine-readable performance trajectory (``python -m repro.bench``).

The pytest benchmarks under ``benchmarks/`` assert *shapes*; this module
records *numbers*.  One invocation runs the Table 5 decode/recovery
measurement (every DaCapo-style subject, the same ``BUFFER_128``
calibration the pytest suite uses) plus the archive-overhead benchmark,
and merges the result -- tagged with a host/timestamp run id -- into a
``BENCH_<date>.json`` file.  Committing that file per PR gives the repo
a perf trajectory that survives host changes (every entry names its
host) and makes regressions diffable.

The committed ``BENCH_2026-08-08.json`` holds two runs: ``pre``, measured
on the per-item object decode core that has since been deleted (kept as
history), and ``post``, the fused columnar core every run now uses.

Every Table 5 row carries ``flow_sha256``, a sha256 over the subject's
final flows, and ``gc_s``, the cyclic collector's seconds inside the
analysis.

CI's ``perf-smoke`` job reruns a reduced subject matrix and calls
:func:`check_regression` against the committed ``post`` entry, failing
on a >20% decode-throughput drop, a >20% rise in aggregate split,
reconstruct or recovery time, a changed ``flow_sha256`` on any subject,
a checkpoint restore slower than a cold replay (beyond the same 20%),
or checkpoint writes costing as much as the polls they protect (see
``--check-against``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import socket
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..core import JPortal
from ..core.metadata import collect_metadata
from ..core.recovery import RecoveryConfig
from ..pt.buffer import RingBufferConfig
from ..pt.encoder import PTEncoder
from ..pt.perf import PTConfig, calibrate_drain_period, collect
from ..workloads import SUBJECT_NAMES, build_subject, default_config

#: The "128 MB" equivalent in scaled bytes (same as benchmarks/conftest).
BUFFER_128 = 2048

#: Reduced matrix for the CI perf-smoke job: the biggest interpreter-heavy
#: subject, the most multi-threaded one, and the highest-throughput one.
SMOKE_SUBJECTS = ("avrora", "h2", "luindex")


# --------------------------------------------------------------------- runs
def run_id() -> Dict[str, str]:
    """Host/timestamp identity stamped onto every bench entry."""
    identity = {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    try:
        identity["commit"] = (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip()
            or "unknown"
        )
    except Exception:
        identity["commit"] = "unknown"
    return identity


def _subject_setup(name: str):
    subject = build_subject(name)
    run = subject.run(default_config())
    drain_period = calibrate_drain_period(run, BUFFER_128)
    config = PTConfig(
        buffer=RingBufferConfig(
            capacity_bytes=BUFFER_128, drain_period=drain_period
        )
    )
    return subject, run, config


def flow_sha256(result) -> str:
    """sha256 over every final flow entry of *result*, threads in tid
    order: ``"%d\\t%r\\t%s\\n" % (tid, node, provenance)`` per entry, the
    same text perfbench's ``digest_entries`` hashes."""
    sha = hashlib.sha256()
    for tid in sorted(result.flows):
        sha.update(
            "".join(
                "%d\t%r\t%s\n" % (tid, node, provenance)
                for node, provenance in result.flows[tid].flow.entries
            ).encode("utf-8")
        )
    return sha.hexdigest()


class _CollectorClock:
    """Seconds the cyclic garbage collector runs inside a ``with`` block,
    from a ``gc.callbacks`` hook installed only for that block."""

    def __init__(self):
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, _info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "_CollectorClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self)


def run_table5(
    subjects: Optional[Iterable[str]] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, object]:
    """The Table 5 measurement: per-subject phase timings + totals."""
    rows: Dict[str, Dict[str, float]] = {}
    for name in subjects or SUBJECT_NAMES:
        subject, run, config = _subject_setup(name)
        pt_bytes = sum(
            sum(p.size for p in PTEncoder().encode(events))
            for events in run.core_events
        )
        jportal = JPortal(
            subject.program,
            recovery=RecoveryConfig(
                cost_per_instruction=run.config.compiled_step_cost
            ),
            cache_dir=cache_dir,
        )
        trace = collect(run, config)
        database = collect_metadata(run)
        with _CollectorClock() as collector:
            result = jportal.analyze_trace(trace, database)
        timings = result.timings
        rows[name] = {
            "pt_bytes": pt_bytes,
            "split_s": result.metrics.timing("split"),
            "decode_s": timings.decode_seconds,
            "reconstruct_s": timings.reconstruct_seconds,
            "recovery_s": timings.recovery_seconds,
            "analysis_s": timings.analysis_seconds,
            "wall_s": timings.wall_seconds,
            "entries": result.total_entries(),
            "anomalies": result.anomalies,
            "loss_fraction": result.loss_fraction,
            "threads": len(timings.per_thread),
            "flow_sha256": flow_sha256(result),
            "gc_s": collector.seconds,
        }
    return {"rows": rows, "totals": _totals(rows)}


def _totals(rows: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    total = lambda key: sum(row[key] for row in rows.values())  # noqa: E731
    pt_bytes = total("pt_bytes")
    decode = total("decode_s")
    dt = decode + total("reconstruct_s")
    return {
        "pt_bytes": pt_bytes,
        "split_s": total("split_s"),
        "decode_s": decode,
        "reconstruct_s": total("reconstruct_s"),
        "recovery_s": total("recovery_s"),
        "decode_throughput_kbs": (pt_bytes / decode / 1024.0) if decode else 0.0,
        "dt_throughput_kbs": (pt_bytes / dt / 1024.0) if dt else 0.0,
    }


def run_archive_overhead(subject_name: str = "sunflow") -> Dict[str, object]:
    """The archive-overhead measurement: framing cost + IO throughput."""
    import tempfile

    from ..pt.archive import merge_core_stream, read_archive, write_archive
    from ..pt.serialize import dump_bytes

    subject, run, _config = _subject_setup(subject_name)
    lossless = PTConfig(
        buffer=RingBufferConfig(capacity_bytes=10**9, drain_bandwidth=1e9)
    )
    trace = collect(run, lossless)
    database = collect_metadata(run)
    flat_bytes = sum(
        len(dump_bytes(merge_core_stream(core.packets, core.losses)))
        for core in trace.cores
    )
    results: Dict[str, object] = {"subject": subject_name, "flat_bytes": flat_bytes}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.rpt2")
        started = time.perf_counter()
        write_archive(trace, database, path, segment_packets=256)
        write_seconds = time.perf_counter() - started
        archive_bytes = os.path.getsize(path)
        started = time.perf_counter()
        read_archive(path)
        read_seconds = time.perf_counter() - started
    results.update(
        archive_bytes=archive_bytes,
        framing_overhead=archive_bytes / flat_bytes - 1.0 if flat_bytes else 0.0,
        write_s=write_seconds,
        read_s=read_seconds,
        write_throughput_kbs=archive_bytes / write_seconds / 1024.0,
        read_throughput_kbs=archive_bytes / read_seconds / 1024.0,
    )
    return results


def run_stream_lag(subject_name: str = "luindex") -> Dict[str, object]:
    """The streaming-lag measurement: delta latency and segment lag of
    the incremental decoder following a live writer, plus the cost of
    the sealed-tail ``finalize`` relative to a one-shot batch decode."""
    import tempfile

    from ..pt.archive import (
        ArchiveWriter,
        iter_archive_events,
        write_archive_event,
    )
    from ..stream import StreamDecoder

    subject, run, _config = _subject_setup(subject_name)
    lossless = PTConfig(
        buffer=RingBufferConfig(capacity_bytes=10**9, drain_bandwidth=1e9)
    )
    trace = collect(run, lossless)
    database = collect_metadata(run)
    jportal = JPortal(
        subject.program,
        recovery=RecoveryConfig(
            cost_per_instruction=run.config.compiled_step_cost
        ),
    )
    latencies: List[float] = []
    max_lag = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.rpt2")
        writer = ArchiveWriter(path)
        writer.snapshot_metadata(database, include_dumps=False)
        tenant = StreamDecoder(jportal, path, name="bench")
        events = list(iter_archive_events(trace, database, 256))
        started = time.perf_counter()
        for index, event in enumerate(events):
            write_archive_event(writer, event)
            if index % 4 == 3:
                delta = tenant.poll()
                latencies.append(delta.latency_seconds)
                max_lag = max(max_lag, delta.lag_segments)
        writer.close()
        delta = tenant.poll()
        latencies.append(delta.latency_seconds)
        max_lag = max(max_lag, delta.lag_segments)
        stream_wall = time.perf_counter() - started
        started = time.perf_counter()
        result = tenant.finalize()
        finalize_seconds = time.perf_counter() - started
        started = time.perf_counter()
        batch = jportal.analyze_archive(path)
        batch_seconds = time.perf_counter() - started
        if result.total_entries() != batch.total_entries():
            raise AssertionError(
                "stream/batch divergence: %d != %d"
                % (result.total_entries(), batch.total_entries())
            )
    return {
        "subject": subject_name,
        "records": len(events) + 1,
        "entries": result.total_entries(),
        "replayed": tenant.replayed,
        "poll_latency_mean_s": sum(latencies) / len(latencies),
        "poll_latency_max_s": max(latencies),
        "max_lag_segments": max_lag,
        "stream_wall_s": stream_wall,
        "finalize_s": finalize_seconds,
        "batch_s": batch_seconds,
    }


def run_resilience(subject_name: str = "luindex") -> Dict[str, object]:
    """The resilience measurement: what a ``JPSC`` checkpoint costs per
    poll and what it buys after a crash.

    Streams a run into a growing archive while checkpointing on every
    poll (the worst-case ``checkpoint_interval=1`` write amplification),
    snapshots the sidecar once the reader has consumed roughly half the
    archive, then compares two restarts against the sealed file: a
    *recovery* that restores from the half-way checkpoint and drains the
    remaining tail, and a *cold replay* that re-reads from offset zero.
    Both must finalize bit-identical to the uninterrupted stream, and
    the restore must be clean (no finalize replay).  The checkpoint is
    a cursor and the restore re-reads the prefix up to it, so the two
    restart times are about equal by design; ``check_regression`` keeps
    recovery from falling behind cold replay and the write cost below
    the poll time it protects.
    """
    import shutil
    import tempfile

    from ..pt.archive import (
        ArchiveWriter,
        iter_archive_events,
        write_archive_event,
    )
    from ..stream import StreamDecoder, checkpoint_path_for

    subject, run, _config = _subject_setup(subject_name)
    lossless = PTConfig(
        buffer=RingBufferConfig(capacity_bytes=10**9, drain_bandwidth=1e9)
    )
    trace = collect(run, lossless)
    database = collect_metadata(run)
    jportal = JPortal(
        subject.program,
        recovery=RecoveryConfig(
            cost_per_instruction=run.config.compiled_step_cost
        ),
    )
    poll_times: List[float] = []
    checkpoint_times: List[float] = []
    checkpoint_bytes = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.rpt2")
        sidecar = checkpoint_path_for(path)
        half_sidecar = os.path.join(tmp, "half.jpsc")
        half_offset = None
        writer = ArchiveWriter(path)
        writer.snapshot_metadata(database, include_dumps=False)
        tenant = StreamDecoder(jportal, path, name="bench")
        events = list(iter_archive_events(trace, database, 256))
        for index, event in enumerate(events):
            write_archive_event(writer, event)
            if index % 4 == 3:
                started = time.perf_counter()
                tenant.poll()
                poll_times.append(time.perf_counter() - started)
                started = time.perf_counter()
                size = tenant.write_checkpoint(sidecar)
                checkpoint_times.append(time.perf_counter() - started)
                checkpoint_bytes = max(checkpoint_bytes, size or 0)
                if half_offset is None and index >= len(events) // 2:
                    shutil.copy(sidecar, half_sidecar)
                    half_offset = tenant.reader.offset
        writer.close()
        tenant.poll()
        reference = tenant.finalize()
        archive_bytes = os.path.getsize(path)

        # Both restarts start from the same collector state, as in
        # perfbench: a full collection must not land in only one window.
        gc.collect()
        started = time.perf_counter()
        restored, anomaly = StreamDecoder.restore(
            jportal, path, name="restored", checkpoint_path=half_sidecar
        )
        recovered = restored.finalize()
        recovery_seconds = time.perf_counter() - started
        if anomaly is not None:
            raise AssertionError(
                "half-way checkpoint failed to load: %s" % anomaly
            )
        if restored.replayed:
            raise AssertionError(
                "restore fell back to a finalize replay: %s"
                % restored.replay_reason
            )

        gc.collect()
        started = time.perf_counter()
        cold = StreamDecoder(jportal, path, name="cold").finalize()
        cold_seconds = time.perf_counter() - started

        for label, result in (("recovery", recovered), ("cold", cold)):
            if result.total_entries() != reference.total_entries():
                raise AssertionError(
                    "%s diverged from the uninterrupted stream: %d != %d"
                    % (
                        label,
                        result.total_entries(),
                        reference.total_entries(),
                    )
                )
    return {
        "subject": subject_name,
        "polls": len(poll_times),
        "entries": reference.total_entries(),
        "archive_bytes": archive_bytes,
        "checkpoint_bytes": checkpoint_bytes,
        "checkpoint_write_mean_s": sum(checkpoint_times) / len(checkpoint_times),
        "checkpoint_write_max_s": max(checkpoint_times),
        "checkpoint_overhead_fraction": (
            sum(checkpoint_times) / sum(poll_times) if sum(poll_times) else 0.0
        ),
        "resume_offset": half_offset,
        "resume_fraction": (
            half_offset / archive_bytes if archive_bytes else 0.0
        ),
        "recovery_s": recovery_seconds,
        "cold_replay_s": cold_seconds,
        "recovery_speedup": (
            cold_seconds / recovery_seconds if recovery_seconds else 0.0
        ),
    }


def run_cross_format(subject_name: str = "sunflow") -> Dict[str, object]:
    """The cross-format measurement: PT vs E-Trace encoding density.

    Collects the same run through both frontends and records bytes per
    conditional branch, the overall compression ratio (PT bytes over
    E-Trace bytes -- >1 means the branch-map/delta-address format is
    denser), and the loss behaviour of each format at the same
    ``BUFFER_128`` buffer bytes and drain schedule.
    """
    from ..tracesource.events import ConditionalOutcomes, IndirectTarget

    subject, run, lossy_config = _subject_setup(subject_name)
    database = collect_metadata(run)
    jportal = JPortal(
        subject.program,
        recovery=RecoveryConfig(
            cost_per_instruction=run.config.compiled_step_cost
        ),
    )
    results: Dict[str, object] = {
        "subject": subject_name,
        "buffer_bytes": BUFFER_128,
        "formats": {},
    }
    for name in ("pt", "etrace"):
        lossless = PTConfig(
            buffer=RingBufferConfig(
                capacity_bytes=10**9, drain_bandwidth=1e9
            ),
            frontend=name,
        )
        trace = collect(run, lossless)
        packets = [p for core in trace.cores for p in core.packets]
        stream_bytes = sum(p.size for p in packets)
        branches = sum(
            len(p.bits) for p in packets if isinstance(p, ConditionalOutcomes)
        )
        indirects = sum(1 for p in packets if isinstance(p, IndirectTarget))
        lossy = collect(
            run,
            PTConfig(
                buffer=RingBufferConfig(
                    capacity_bytes=BUFFER_128,
                    drain_period=lossy_config.buffer.drain_period,
                ),
                frontend=name,
            ),
        )
        analysis = jportal.analyze_trace(lossy, database)
        results["formats"][name] = {
            "stream_bytes": stream_bytes,
            "branches": branches,
            "indirect_targets": indirects,
            "bytes_per_branch": stream_bytes / branches if branches else 0.0,
            "lossy_bytes_lost": lossy.bytes_lost,
            "lossy_loss_fraction": analysis.loss_fraction,
            "lossy_anomalies": analysis.anomalies,
            "lossy_entries": analysis.total_entries(),
        }
    pt_bytes = results["formats"]["pt"]["stream_bytes"]
    et_bytes = results["formats"]["etrace"]["stream_bytes"]
    results["compression_ratio"] = pt_bytes / et_bytes if et_bytes else 0.0
    return results


def run_advisor_accuracy(
    subject_name: str = "sunflow",
    cross_format: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Static trace-plan predictions against the measured cross-format run.

    Runs the advisor (:func:`repro.analysis.advisor.plan_trace`) on the
    subject, measures the same subject through both frontends
    (:func:`run_cross_format`, or the caller's entry), and records, per
    frontend, the predicted vs measured bytes-per-branch and the
    relative error -- plus whether the advisor's recommendation matches
    the measured densest frontend and whether every measurement fell
    inside the static bounds.  The entry is the soundness oracle the
    acceptance criteria name: ``sound`` must be ``True`` and every
    ``relative_error`` must stay within the documented
    :data:`repro.analysis.advisor.BYTES_PER_BRANCH_RTOL`.
    """
    from ..analysis.advisor import (
        BYTES_PER_BRANCH_RTOL,
        plan_trace,
        verify_against_measurement,
    )

    if cross_format is None:
        cross_format = run_cross_format(subject_name)
    subject = build_subject(subject_name)
    run = subject.run(default_config())
    plan = plan_trace(
        subject.program,
        template_table=run.template_table,
        subject=subject_name,
        opaque_call_sites=subject.opaque_call_sites,
    )
    problems = verify_against_measurement(plan, cross_format)
    formats = cross_format.get("formats", {})
    measured = {
        name: float(entry["bytes_per_branch"])
        for name, entry in formats.items()
    }
    per_frontend = {}
    for row in plan.plans:
        value = measured.get(row.frontend)
        per_frontend[row.frontend] = {
            "predicted_bytes_per_branch": row.bytes_per_branch_estimate,
            "predicted_low": row.bytes_per_branch_low,
            "predicted_high": row.bytes_per_branch_high,
            "measured_bytes_per_branch": value,
            "relative_error": (
                abs(row.bytes_per_branch_estimate - value) / value
                if value
                else None
            ),
        }
    return {
        "subject": subject_name,
        "recommended": plan.recommended.frontend,
        "measured_best": (
            min(measured, key=lambda name: measured[name]) if measured else None
        ),
        "error_bound": BYTES_PER_BRANCH_RTOL,
        "frontends": per_frontend,
        "violations": problems,
        "sound": not problems,
    }


# ------------------------------------------------------------------ storage
def merge_into(path: str, label: str, entry: Dict[str, object]) -> Dict[str, object]:
    """Merge one labelled run into the bench file (atomic rewrite)."""
    document: Dict[str, object] = {"format": "repro-bench-v1", "runs": {}}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            pass  # unreadable trajectory: start fresh rather than crash
        document.setdefault("runs", {})
    document["runs"][label] = entry
    temp_path = path + ".tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(temp_path, path)
    return document


# ---------------------------------------------------------------- CI gate
def check_regression(
    current: Dict[str, object],
    committed_path: str,
    against: str = "post",
    tolerance: float = 0.20,
    subjects: Optional[Iterable[str]] = None,
) -> Tuple[bool, List[str]]:
    """Compare *current* Table 5 numbers against a committed baseline run.

    The gate is the **aggregate** decode throughput over the common
    subjects (total bytes / total decode seconds): byte counts are
    deterministic, so a reduced CI matrix stays comparable with the full
    committed run, and aggregating over subjects averages out the
    per-subject timer noise that dominates sub-100ms decodes.
    Per-subject ratios are reported informationally.  Three more gates
    cover thread reassembly, projection and hole recovery: the aggregate
    ``split_s``, ``reconstruct_s`` and ``recovery_s`` over the same
    subjects may not rise beyond *tolerance* (each skipped, with a "not
    gated" line, when the baseline rows predate its column).  Outputs
    are gated exactly: a common subject whose baseline row has a
    ``flow_sha256`` must reproduce it, so a speed-up that also changes
    the flows fails instead of being averaged away (a "not gated" line
    when no baseline row has the column).  ``gc_s`` is recorded, not
    gated.  When
    *current* carries a ``resilience`` run, restoring from its half-way
    checkpoint may not take longer than a cold replay beyond
    *tolerance*, and its ``checkpoint_overhead_fraction`` must stay
    below 1.0.  Returns ``(ok, messages)``; any aggregate
    regressing beyond *tolerance* (fractional), or either resilience
    check failing, flips ``ok``.  Host differences are real differences
    here -- the committed baseline names its host, and the perf-smoke
    job is expected to run on comparable runners.
    """
    messages: List[str] = []
    try:
        with open(committed_path, "r", encoding="utf-8") as handle:
            committed = json.load(handle)
        baseline = committed["runs"][against]["table5"]["rows"]
    except (OSError, ValueError, KeyError) as error:
        return False, ["cannot read baseline %r: %s" % (committed_path, error)]
    current_rows = current["table5"]["rows"]
    names = [
        name
        for name in (subjects or current_rows)
        if name in current_rows and name in baseline
    ]
    if not names:
        return False, ["no common subjects between current run and baseline"]
    for name in names:
        base_row, cur_row = baseline[name], current_rows[name]
        base_tp = base_row["pt_bytes"] / base_row["decode_s"]
        cur_tp = cur_row["pt_bytes"] / cur_row["decode_s"]
        messages.append(
            "%-10s decode throughput %7.1f KB/s vs baseline %7.1f KB/s (%.2fx)"
            % (name, cur_tp / 1024.0, base_tp / 1024.0, cur_tp / base_tp)
        )
    base_total = sum(baseline[n]["pt_bytes"] for n in names) / sum(
        baseline[n]["decode_s"] for n in names
    )
    cur_total = sum(current_rows[n]["pt_bytes"] for n in names) / sum(
        current_rows[n]["decode_s"] for n in names
    )
    ratio = cur_total / base_total if base_total else 1.0
    verdict = "aggregate   decode throughput %7.1f KB/s vs baseline %7.1f KB/s (%.2fx)" % (
        cur_total / 1024.0, base_total / 1024.0, ratio
    )
    ok = ratio >= 1.0 - tolerance
    if not ok:
        verdict += "  REGRESSION (>%d%%)" % round(tolerance * 100)
    messages.append(verdict)
    fingerprinted = [n for n in names if "flow_sha256" in baseline[n]]
    if fingerprinted:
        changed = [
            n
            for n in fingerprinted
            if current_rows[n].get("flow_sha256") != baseline[n]["flow_sha256"]
        ]
        line = "aggregate   fingerprint %d/%d subjects match baseline" % (
            len(fingerprinted) - len(changed), len(fingerprinted)
        )
        if changed:
            ok = False
            line += "  REGRESSION (flows changed: %s)" % ", ".join(changed)
        messages.append(line)
    else:
        messages.append(
            "aggregate   fingerprint not gated (baseline predates column)"
        )
    for phase in ("split", "reconstruct", "recovery"):
        column = phase + "_s"
        if not all(column in baseline[n] for n in names):
            messages.append(
                "aggregate   %s not gated (baseline predates column)" % phase
            )
            continue
        base_time = sum(baseline[n][column] for n in names)
        cur_time = sum(current_rows[n][column] for n in names)
        ratio = cur_time / base_time if base_time else 1.0
        line = "aggregate   %s %.3fs vs baseline %.3fs (%.2fx)" % (
            phase, cur_time, base_time, ratio
        )
        if ratio > 1.0 + tolerance:
            ok = False
            line += "  REGRESSION (>%d%%)" % round(tolerance * 100)
        messages.append(line)
    resilience = current.get("resilience")
    if resilience:
        # Self-consistency gate on the resilience run: restoring from a
        # half-way checkpoint must not be slower than replaying the whole
        # archive cold (within the same fractional tolerance) -- if it
        # is, checkpoints have stopped paying for themselves.
        recovery = resilience["recovery_s"]
        cold = resilience["cold_replay_s"]
        line = (
            "resilience  recovery %.3fs vs cold replay %.3fs (%.2fx speedup)"
            % (recovery, cold, resilience["recovery_speedup"])
        )
        if recovery > cold * (1.0 + tolerance):
            ok = False
            line += "  REGRESSION (checkpoint slower than cold replay)"
        messages.append(line)
        # Fixed bound: a checkpoint may not cost more than the poll
        # work it protects.
        overhead = resilience["checkpoint_overhead_fraction"]
        line = (
            "resilience  checkpoint writes cost %.2fx the poll time" % overhead
        )
        if overhead >= 1.0:
            ok = False
            line += "  REGRESSION (checkpoint costs more than the polls)"
        messages.append(line)
    return ok, messages
