"""Stream-live workload: tenants' archives written open-loop and tail-read.

Each round writes every tenant's lossy archive record by record on a
fixed schedule -- :data:`RATE` segment records per second in aggregate,
whatever the readers do (an open loop) -- while one
``StreamSupervisor(max_workers=2)`` tail-reads all of them with a
``poll_all()`` every :data:`POLL_EVERY` seconds of schedule.  Every
:data:`CHECKPOINT_EVERY` seconds of schedule it calls
``checkpoint_all()``; the checkpoint nearest half the schedule is
hard-linked aside.  Once the archives are sealed, each tenant is
finalized, then restored from its half-way checkpoint in a fresh
supervisor and finalized again.

Release latency runs from a segment record's due time to the end of the
``poll_all`` after which it is released, so a stalled poll delays every
record due behind it.  A tenant's released count is its cumulative
``delta.segments`` minus its current ``delta.lag_segments``, taken in
write order.  Records only ``finalize`` releases (the tail the
watermark holds back) have no latency sample; their cost is the
finalize time.

The stream's ``analyze_s`` is the seconds a round spends turning the
archives into final flows: every ``poll_all`` plus every ``finalize``,
median over rounds.  Spread over the whole round, it is the streaming
counterpart of a batch analysis, and a slower poll path shows in it.
The polls are rescaled to reference speed by the host-speed probes
before and after the schedule, the finalizes by the probes before and
after them (``harness.HostSpeed``).

Before the rounds, each tenant's archive is written in one go and
analysed by ``JPortal.analyze_archive`` (the cold replay): the batch
reference every finalize and restore must reproduce, and the warm-up of
each profiler's lazy memos.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

from repro.pt.archive import ArchiveWriter, read_archive, write_archive, write_archive_event
from repro.stream import StreamSupervisor, checkpoint_path_for

from . import chain
from .batch import accuracy_of, layer_metrics
from .harness import (
    WORK_ROOT,
    Checks,
    HostSpeed,
    Outcome,
    at_reference_speed,
    peak_rss_mb,
    reset_peak_rss,
)
from .inputs import SEGMENT_PACKETS, prepare
from .oracle import digest_entries, digest_result, fingerprint, golden_for, result_entries
from .stats import highest_supported, percentile, supported
from .tracer import Tracer

#: Aggregate segment records per second the generator writes (64-packet
#: records, so about 16k trace packets per second).
RATE = 250.0
#: Seconds of schedule between reader wake-ups (``poll_all()`` calls).
POLL_EVERY = 0.02
#: Seconds of schedule between ``checkpoint_all()`` calls; a round's
#: schedule lasts about two of them.
CHECKPOINT_EVERY = 1.0
#: The supervisor's poll pool: one thread per core of a 2-core host.
POOL_WORKERS = 2
#: Rounds are short (~3 s), so a run takes at least five: the median
#: round then rides out the host's second-scale speed swings, and the
#: release latency gets well over the 1000 samples a p99 needs.
MIN_ROUNDS = 5

Plan = List[Tuple[float, str, int]]


def record_groups(events: Sequence[tuple]) -> List[List[tuple]]:
    """Split an archive event sequence into one group per segment record.

    Sideband, format and code-dump records are written together with
    the segment that follows them (trailing ones with the last), so the
    on-disk order is exactly the batch writer's.
    """
    groups: List[List[tuple]] = []
    pending: List[tuple] = []
    for event in events:
        pending.append(event)
        if event[0] == "segment":
            groups.append(pending)
            pending = []
    if pending:
        if groups:
            groups[-1].extend(pending)
        else:
            groups.append(pending)
    return groups


def schedule(counts: Dict[str, int], rate: float) -> Plan:
    """Due time of every record: ``[(due, tenant, index)]`` in due order.

    Tenants interleave in proportion to their record counts, so all of
    them finish together, and the aggregate rate is exactly *rate*.
    """
    order = sorted(
        ((index + 0.5) / count, tenant, index)
        for tenant, count in counts.items()
        for index in range(count)
    )
    return [(position / rate, tenant, index) for position, (_, tenant, index) in enumerate(order)]


class ReleaseLedger:
    """Release latency of each segment record, from its due time."""

    def __init__(self):
        self.due: Dict[str, List[float]] = defaultdict(list)
        self.consumed: Dict[str, int] = defaultdict(int)
        self.released: Dict[str, int] = defaultdict(int)
        self.latencies: List[float] = []

    def written(self, tenant: str, due: float) -> None:
        self.due[tenant].append(due)

    def polled(self, tenant: str, delta, now: float) -> None:
        self.consumed[tenant] += delta.segments
        released = self.consumed[tenant] - delta.lag_segments
        for due in self.due[tenant][self.released[tenant]:released]:
            self.latencies.append(now - due)
        self.released[tenant] = max(self.released[tenant], released)

    def unreleased(self) -> int:
        return sum(len(self.due[t]) - self.released[t] for t in self.due)


def drive(
    plan: Plan,
    write: Callable[[str, int], None],
    poll: Callable[[], Dict[str, object]],
    checkpoint: Callable[[float], None],
    seal: Callable[[], None],
    ledger: ReleaseLedger,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    poll_every: float = POLL_EVERY,
    checkpoint_every: float = CHECKPOINT_EVERY,
) -> List[float]:
    """Run the open loop; returns how late each record was written.

    Records are written when they fall due; the reader polls every
    *poll_every* and checkpoints every *checkpoint_every* seconds of
    schedule.  Nothing waits for anything else, and a turn that fell
    behind skips the wake-ups it missed instead of bunching them, so
    the number of polls does not depend on how fast the host runs.
    After the last record the archives are sealed and polled once more.
    """
    start = clock()
    late: List[float] = []
    position = 0
    next_poll = poll_every
    next_checkpoint = checkpoint_every

    def elapsed() -> float:
        return clock() - start

    def poll_and_account():
        deltas = poll()
        polled_at = elapsed()
        for tenant, delta in deltas.items():
            ledger.polled(tenant, delta, polled_at)

    while position < len(plan):
        while position < len(plan) and plan[position][0] <= elapsed():
            due, tenant, index = plan[position]
            late.append(elapsed() - due)
            write(tenant, index)
            ledger.written(tenant, due)
            position += 1
        now = elapsed()
        if now >= next_checkpoint:
            checkpoint(now)
            while next_checkpoint <= now:
                next_checkpoint += checkpoint_every
        if now >= next_poll:
            poll_and_account()
            while next_poll <= elapsed():
                next_poll += poll_every
        if position < len(plan):
            wait = min(plan[position][0], next_poll) - elapsed()
            if wait > 0:
                sleep(wait)
    seal()
    poll_and_account()
    return late


class _Round:
    """One open-loop round's measurements."""

    def __init__(self):
        self.poll_s: List[float] = []
        self.append_s = 0.0
        self.checkpoint_s: List[float] = []
        self.restore_call_s = 0.0
        self.finalize_s: Dict[str, float] = {}
        self.restore_s: Dict[str, float] = {}
        self.pending_peak = 0
        self.lag_peak = 0
        self.bytes_ratio = 0.0
        self.archive_bytes = 0
        self.records = 0
        self.late: List[float] = []
        self.latencies: List[float] = []
        #: Host-speed probes before the schedule, between the schedule
        #: and the finalizes, and after the finalizes.
        self.probes: List[float] = []

    def analyze_s(self) -> float:
        """Polls plus finalizes, each at reference speed."""
        first, middle, last = self.probes
        return at_reference_speed(sum(self.poll_s), first, middle) + at_reference_speed(
            sum(self.finalize_s.values()), middle, last
        )


def _run_round(prepared, number, workdir, reference, checks, tracer, speed, log) -> _Round:
    measured = _Round()
    measured.probes.append(speed.probe())
    directory = os.path.join(workdir, "round%d" % number)
    os.makedirs(directory)
    groups = {item.name: record_groups(item.events) for item in prepared}
    plan = schedule({name: len(g) for name, g in groups.items()}, RATE)
    measured.records = len(plan)
    half_time = plan[-1][0] / 2.0
    paths = {item.name: os.path.join(directory, item.name + ".rpt2") for item in prepared}
    halves = {name: path + ".half" for name, path in paths.items()}
    indices = {item.name: index for index, item in enumerate(prepared)}
    writers = {}
    ledger = ReleaseLedger()
    linked = []

    def span(name, op):
        return tracer.span(name, op) if tracer is not None else nullcontext()

    def write(tenant, index):
        started = time.perf_counter()
        with span("archive.append", "%s/%d" % (tenant, number)):
            for event in groups[tenant][index]:
                write_archive_event(writers[tenant], event)
        measured.append_s += time.perf_counter() - started

    def poll():
        started = time.perf_counter()
        with span("stream.poll", "all/%d" % number):
            deltas = supervisor.poll_all()
        measured.poll_s.append(time.perf_counter() - started)
        for tenant in paths:
            delta = deltas.get(tenant)
            checks.record(
                delta is not None and delta.error is None,
                "round %d poll of %s: %s" % (number, tenant, delta and delta.error),
            )
        measured.pending_peak = max(measured.pending_peak, sum(d.pending_entries for d in deltas.values()))
        measured.lag_peak = max(measured.lag_peak, sum(d.lag_segments for d in deltas.values()))
        return deltas

    def checkpoint(now):
        started = time.perf_counter()
        with span("checkpoint.write", "all/%d" % number):
            sizes = supervisor.checkpoint_all()
        measured.checkpoint_s.append(time.perf_counter() - started)
        for tenant, size in sorted(sizes.items()):
            checks.record(size is not None, "round %d checkpoint of %s" % (number, tenant))
        if not linked and now >= half_time - CHECKPOINT_EVERY / 2.0:
            # Checkpoints replace their sidecar atomically, so a hard
            # link keeps this one intact for the restore below.
            for tenant, path in paths.items():
                try:
                    os.link(checkpoint_path_for(path), halves[tenant])
                except OSError:  # file system without hard links
                    shutil.copyfile(checkpoint_path_for(path), halves[tenant])
            linked.append(now)
            measured.bytes_ratio = sum(s or 0 for s in sizes.values()) / sum(
                os.path.getsize(path) for path in paths.values()
            )

    def seal():
        for writer in writers.values():
            writer.close()

    supervisor = StreamSupervisor(max_workers=POOL_WORKERS)
    restorer = None
    try:
        for item in prepared:
            writer = ArchiveWriter(paths[item.name])
            writer.snapshot_metadata(item.database, include_dumps=False)
            writers[item.name] = writer
            supervisor.add_tenant(item.name, paths[item.name], item.jportal)
        measured.late = drive(plan, write, poll, checkpoint, seal, ledger)
        measured.probes.append(speed.probe())
        measured.latencies = ledger.latencies
        measured.archive_bytes = sum(os.path.getsize(path) for path in paths.values())
        checks.record(bool(linked), "round %d took no half-way checkpoint" % number)

        for item in prepared:
            name = item.name
            gc.collect()  # as before every batch pass: same collector state
            started = time.perf_counter()
            try:
                with span("stream.finalize", "%s/%d" % (name, number)):
                    result = supervisor.finalize(name)
            except Exception as exc:
                checks.record(False, "round %d finalize of %s raised %r" % (number, name, exc))
                continue
            measured.finalize_s[name] = time.perf_counter() - started
            replays = supervisor.metrics.counter("stream.finalize_replays", tid=indices[name])
            same = fingerprint(result_entries(result)) == reference[name]
            checks.record(
                same and replays == 0,
                "round %d finalize of %s: %d replays, equal to batch: %s" % (number, name, replays, same),
            )
            del result
        measured.probes.append(speed.probe())
        supervisor.close()

        restorer = StreamSupervisor(max_workers=POOL_WORKERS)
        for item in prepared:
            name = item.name
            gc.collect()
            started = time.perf_counter()
            try:
                with span("stream.restore", "%s/%d" % (name, number)):
                    with span("checkpoint.restore_call", "%s/%d" % (name, number)):
                        restorer.add_tenant(
                            name, paths[name], item.jportal, resume=True, checkpoint_path=halves[name]
                        )
                    measured.restore_call_s += time.perf_counter() - started
                    result = restorer.finalize(name)
            except Exception as exc:
                checks.record(False, "round %d restore of %s raised %r" % (number, name, exc))
                continue
            measured.restore_s[name] = time.perf_counter() - started
            restored = restorer.metrics.counter("stream.checkpoint.restored", tid=indices[name])
            replays = restorer.metrics.counter("stream.finalize_replays", tid=indices[name])
            same = fingerprint(result_entries(result)) == reference[name]
            checks.record(
                restored == 1 and replays == 0 and same,
                "round %d restore of %s: restored %d, %d replays, equal to uninterrupted: %s"
                % (number, name, restored, replays, same),
            )
            del result
    finally:
        supervisor.close()
        if restorer is not None:
            restorer.close()
        for writer in writers.values():
            writer.close()
        shutil.rmtree(directory, ignore_errors=True)
    log("round %d: %d records, %d released only at finalize, %d polls %.4f s, finalize %.4f s"
        % (number, measured.records, ledger.unreleased(), len(measured.poll_s),
           sum(measured.poll_s), sum(measured.finalize_s.values())))
    return measured


def run(workload: str, seed: int, seconds: float, traced: bool, log) -> Outcome:
    outcome = Outcome(checks=Checks(log))
    checks = outcome.checks
    log("set-up: %s seed %d" % (workload, seed))
    speed = HostSpeed()
    prepared, setup = prepare(workload, seed, probe=speed.probe)
    golden = golden_for(workload, seed)
    tracer = Tracer() if traced else None
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="stream-", dir=WORK_ROOT)
    reference: Dict[str, int] = {}
    accuracy = {}
    cold: Dict[str, float] = {}
    rounds: List[_Round] = []
    try:
        for item in prepared:
            name = item.name
            path = os.path.join(workdir, name + ".rpt2")
            write_archive(item.trace, item.database, path, segment_packets=SEGMENT_PACKETS)
            result = item.jportal.analyze_archive(path)
            digest = digest_result(result)
            ok = result.salvage.clean and result.metrics.counter("pipeline.thread_chain_failures") == 0
            if golden is not None:
                ok = ok and golden.get(name) == digest
            checks.record(ok, "%s cold replay digest %s" % (name, digest[:12]))
            reference[name] = fingerprint(result_entries(result))
            accuracy[name] = accuracy_of(item.run, result, breakdown=traced)
            log("%s: size %d, %d records, digest %s, accuracy %.4f"
                % (name, item.size, len(record_groups(item.events)), digest[:12],
                   accuracy[name].overall))
            del result
            if tracer is not None:
                cold[name] = _traced_replay(item, path, digest, reference[name], tracer, checks)
        gc.collect()
        rss_reset = reset_peak_rss()
        deadline = time.perf_counter() + seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.append(
                _run_round(prepared, len(rounds), workdir, reference, checks, tracer, speed, log)
            )
        peak = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log("%d rounds, peak-RSS reset %s, median probe %.4f s"
        % (len(rounds), "ok" if rss_reset else "unavailable", speed.probe_s()))

    finalize = _tenant_medians(rounds, "finalize_s")
    if len(finalize) != len(prepared):
        checks.record(False, "a tenant never finalized")
        return outcome
    outcome.end_to_end = {
        "analyze_s": median([m.analyze_s() for m in rounds]),
        "accuracy": sum(a.overall for a in accuracy.values()) / len(accuracy),
        "setup_s": setup.total(),
        "peak_rss_mb": peak,
    }
    if tracer is not None:
        outcome.tracer = tracer
        outcome.per_layer = _per_layer(prepared, setup, rounds, cold, tracer, accuracy, finalize, checks, log)
        outcome.per_layer["host.probe_s"] = speed.probe_s()
    return outcome


def _traced_replay(item, path, digest, print_, tracer, checks) -> float:
    """Cold replay timed untraced, then again through the traced chain."""
    op = "%s/cold" % item.name
    gc.collect()
    started = time.perf_counter()
    result = item.jportal.analyze_archive(path)
    seconds = time.perf_counter() - started
    checks.record(
        fingerprint(result_entries(result)) == print_, "%s second cold replay differs" % item.name
    )
    del result
    gc.collect()
    with tracer.span("archive.read", op):
        contents = read_archive(path)
        trace = contents.to_trace()
        database = contents.database_or_empty()
    flows = chain.traced_analyze(item.jportal, trace, database, tracer, op)
    checks.record(digest_entries(flows) == digest, "traced %s differs from analyze_archive" % op)
    return seconds


def _tenant_medians(rounds: List[_Round], attribute: str) -> Dict[str, float]:
    samples: Dict[str, List[float]] = defaultdict(list)
    for measured in rounds:
        for name, seconds in getattr(measured, attribute).items():
            samples[name].append(seconds)
    return {name: median(values) for name, values in samples.items()}


def _per_layer(prepared, setup, rounds, cold, tracer, accuracy, finalize, checks, log) -> Dict[str, float]:
    out = layer_metrics(prepared, setup, tracer, finalize, accuracy, checks)
    read_s = sum(tracer.durations("archive.read"))
    out["archive.read_s"] = read_s
    out["stream.cold_replay_s"] = sum(cold.values())
    out["analyze.untraced_s"] = out["stream.cold_replay_s"]
    out["trace.overhead_s"] = read_s + out["analyze.traced_s"] - out["stream.cold_replay_s"]

    def per_round(value_of) -> float:
        return median([value_of(measured) for measured in rounds])

    polls = [s for measured in rounds for s in measured.poll_s]
    latencies = [s for measured in rounds for s in measured.latencies]
    late = [s for measured in rounds for s in measured.late]
    checkpoints = [s for measured in rounds for s in measured.checkpoint_s]
    for label, sample, p in (("release", latencies, 99.0), ("poll", polls, 95.0), ("lateness", late, 95.0)):
        if not supported(len(sample), p):
            log("%d %s samples support p%s at most, not p%g"
                % (len(sample), label, highest_supported(len(sample)), p))
    out.update({
        "archive.append_s": per_round(lambda m: m.append_s),
        "archive.bytes": per_round(lambda m: m.archive_bytes),
        "stream.poll_s": per_round(lambda m: sum(m.poll_s)),
        "stream.poll_p95_ms": 1e3 * percentile(polls, 95.0),
        "stream.pending_peak": max(m.pending_peak for m in rounds),
        "stream.lag_segments_peak": max(m.lag_peak for m in rounds),
        "stream.release_p50_ms": 1e3 * median(latencies),
        "stream.release_p99_ms": 1e3 * percentile(latencies, 99.0),
        "stream.finalize_s": sum(finalize.values()),
        "stream.restore_s": sum(_tenant_medians(rounds, "restore_s").values()),
        "checkpoint.write_s": per_round(lambda m: sum(m.checkpoint_s)),
        "checkpoint.write_max_ms": 1e3 * max(checkpoints) if checkpoints else 0.0,
        "checkpoint.bytes_ratio": per_round(lambda m: m.bytes_ratio),
        "checkpoint.restore_call_s": per_round(lambda m: m.restore_call_s),
        "loadgen.late_p95_ms": 1e3 * percentile(late, 95.0),
        "loadgen.late_max_ms": 1e3 * max(late),
    })
    return out
