"""Streaming incremental decode service (tail-follow the online side).

JPortal's online component periodically drains the trace buffer while the
JVM keeps running (paper Section 5); this module gives the *offline*
side the matching shape: instead of waiting for a sealed archive and
batch-decoding it, a :class:`StreamDecoder` tail-follows a growing
``RPT2`` archive through :class:`~repro.pt.archive.ArchiveTailReader`,
decodes each committed segment with the array engine as it lands, and
emits a :class:`~repro.stream.delta.FlowDelta` per poll.  A
:class:`StreamSupervisor` multiplexes many concurrently traced
processes (tenants), sharding their polls onto one shared worker pool
and publishing per-tenant ``stream.*`` metrics.

**The correctness contract** is bit-identity: ``finalize()`` on a
sealed archive produces exactly the flows, anomaly taxonomy, and
salvage accounting of a batch
:meth:`~repro.core.pipeline.JPortal.analyze_archive` over the same
file.  Two mechanisms enforce it:

* the **watermark release** rule: a parsed entry is handed to a
  decoder only once its timestamp is strictly below the commit
  watermark, the timestamp of the latest record on disk, so
  equal-timestamp ties cannot straddle a release; each release is split
  by the batch reassembly's own window splitter
  (:func:`~repro.core.multicore.split_windows`), so the per-thread
  streams concatenate to :func:`~repro.core.multicore.split_by_thread`'s
  exactly;
* the **replay fallback**: any condition under which incremental state
  might diverge from a batch read -- archive damage (torn tails,
  CRC failures, sequence gaps, a missing snapshot), sideband or
  metadata arriving behind the released watermark, out-of-order
  entries, a shrunk file, or a feed error -- flips a flag, and
  ``finalize()`` then discards the incremental state and delegates to
  batch ``analyze_archive`` (counted under
  ``stream.finalize_replays``).  Degradation costs a re-decode, never
  correctness.  A missing seal alone is not damage: when the writer
  stopped between records and every committed record went through
  ``poll()``, the batch read holds exactly the entries the incremental
  path decoded, so ``finalize()`` keeps them and carries the
  ``archive_unsealed`` event onto the result as batch does.

The incremental path decodes with the metadata available *so far*
(snapshot + journal prefix); that equals batch decoding because a
physically consistent trace only branches into code at or after the
code's ``load_tsc``, and any dump arriving at or behind the released
watermark triggers replay instead.

**Fault tolerance** (see :mod:`repro.stream.resilience` and DESIGN.md
section 3j) extends the same degrade-to-replay contract to the process
level: tenants checkpoint a cursor -- where their reader stood in the
archive -- into an atomically written ``JPSC`` sidecar, and a restarted
supervisor rebuilds each tenant by re-reading that archive prefix
through the ordinary poll path; transient I/O faults are retried
under a per-tenant HEALTHY -> DEGRADED -> QUARANTINED health machine
with capped, deterministically jittered backoff; hung polls are
abandoned by a watchdog deadline; and per-tenant/global memory caps
shed an over-budget tenant's incremental state to the replay path.
Every degradation costs a re-decode, never correctness, and never an
escaping exception.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from itertools import islice
from operator import le
from typing import Dict, List, Optional, Tuple

from ..core.metrics import MetricsRegistry
from ..core.multicore import split_windows, switch_timelines
from ..core.observed import ObservedColumns
from ..pt.archive import (
    REC_CODE_DUMP,
    REC_FORMAT,
    REC_SEGMENT,
    REC_SIDEBAND,
    ArchiveTailReader,
    SalvageStats,
    _load_snapshot,
)
from ..tracesource import get_frontend
from ..tracesource.engine import AnomalyKind, BatchEventDecoder
from .delta import FlowDelta
from .resilience import (
    ANOMALY_CORRUPT,
    ANOMALY_STALE,
    ANOMALY_STORE_FAILED,
    CHECKPOINT_METRIC_PREFIX,
    BackpressureConfig,
    ResilienceConfig,
    TenantFailure,
    TenantHealth,
    TenantSupervision,
    archive_fingerprint,
    checkpoint_path_for,
    fingerprint_matches,
    load_checkpoint,
    write_checkpoint_file,
)


class StreamDecoder:
    """Incrementally decode one tenant's growing archive.

    Call :meth:`poll` as often as desired while the writer appends;
    call :meth:`finalize` once the writer is done (sealed or crashed).
    Never raises on file content -- damage degrades to the batch-replay
    path.  This class holds parsed entries only between arrival and
    watermark release, and raw bytes live only in the tail reader's
    pending buffer; both are bounded by the undecoded tail.  Two stores
    grow with the archive: the reader's scanner keeps every accepted
    segment's entries until :meth:`finalize` assembles the batch-equal
    contents, and decoded steps accumulate in the per-thread columns the
    batch pipeline would have built anyway.  :meth:`shed` drops all of
    it.  :attr:`metrics` times every call into the tail reader under
    ``archive.read`` and every watermark release and split under
    ``stream.release``.
    """

    def __init__(self, jportal, path, snapshot_path=None, name: str = "tenant"):
        self.jportal = jportal
        self.name = name
        self.reader = ArchiveTailReader(path, snapshot_path=snapshot_path)
        self.metrics = MetricsRegistry()
        self.polls = 0
        self.replayed = False
        self.replay_reason: Optional[str] = None
        #: Transient reader I/O failures survived so far (each one left
        #: the incremental state untouched and was simply retried).
        self.io_errors = 0
        #: Why the incremental state was shed, when it was.
        self.shed_reason: Optional[str] = None
        #: Per-tenant memory caps (set by the supervisor; ``None`` off).
        self.backpressure: Optional[BackpressureConfig] = None
        self._wall_started = time.perf_counter()
        self._replay = False
        self._shed = False
        self._finalized = None
        # Switch timelines of the reader's sideband, rebuilt at the first
        # release after sideband arrives.
        self._timelines = None
        # Per core: the parsed-but-unreleased entries in arrival order,
        # their keys (2 * tsc + is_loss sorts as (tsc, is_loss)), the last
        # key seen, and where in the pending list each segment ends.
        self._pending: Dict[int, List[Tuple[str, object]]] = {}
        self._keys: Dict[int, List[int]] = {}
        self._last_key: Dict[int, int] = {}
        self._segment_ends: Dict[int, List[int]] = {}
        self._released_any = False
        self._max_released_tsc = -1
        # Commit-order watermark: the writer appends records globally
        # sorted by (tsc, dump-before-segment), so every future record
        # -- on any core, dump or segment -- carries tsc >= this.
        self._commit_tsc = -1
        # Incremental metadata: snapshot sidecar + the reader's journal.
        self._snapshot = None
        self._database = None
        self._db_dirty = True
        # Trace format: "pt" unless a format record says otherwise (the
        # writer commits it first, before any segment).
        self._frontend_name = "pt"
        # Per-thread decode state.
        self._decoders: Dict[int, BatchEventDecoder] = {}
        self._columns: Dict[int, ObservedColumns] = {}
        self._prior_steps: Dict[int, int] = {}
        self._prior_holes = 0
        self._prior_anomalies = 0
        self._prior_events = 0

    # ---------------------------------------------------------------- polling
    def poll(self) -> FlowDelta:
        """Consume newly committed records; decode what the watermark
        releases; return the delta.  Never raises on file content."""
        started = time.perf_counter()
        self.polls += 1
        delta = FlowDelta(tenant=self.name, poll_index=self.polls)
        if self._finalized is not None:
            delta.sealed = self.reader.sealed
            return delta
        if self._shed:
            # Incremental state is gone; finalize() replays from the
            # file.  Polls stay cheap no-ops so memory stays at zero.
            delta.shed = True
            delta.sealed = self.reader.sealed
            delta.latency_seconds = time.perf_counter() - started
            return delta
        records = []
        try:
            with self.metrics.timer("archive.read"):
                records = self.reader.poll()
        except OSError as exc:
            # Transient I/O fault (this used to escape the no-raise
            # contract).  The reader consumed nothing, so the
            # incremental state is still exactly consistent: report it
            # on the delta and let the caller retry a later poll --
            # no replay needed.
            self.io_errors += 1
            delta.error = "reader I/O error: %r" % (exc,)
            delta.transient = True
            self._fill_delta(delta)
            delta.latency_seconds = time.perf_counter() - started
            return delta
        except Exception as exc:  # non-I/O reader failure: replay
            delta.error = "reader error: %r" % (exc,)
            self._flag_replay("reader error: %r" % (exc,))
        if self.reader.dirty:
            self._flag_replay("archive shrank or was replaced under the reader")
        try:
            self._load_snapshot_once()
            for record in records:
                if record.rtype == REC_SIDEBAND:
                    self._on_sideband(record.payload)
                elif record.rtype == REC_CODE_DUMP:
                    self._on_dump(record.payload)
                elif record.rtype == REC_FORMAT:
                    self._on_format(record.payload)
                elif record.rtype == REC_SEGMENT:
                    delta.segments += 1
                    self._on_segment(record)
            if not self._replay:
                with self.metrics.timer("stream.release"):
                    runs = self._release(final=False)
                self._feed(runs)
        except Exception as exc:  # no-crash contract: degrade to replay
            self._flag_replay("feed error: %r" % (exc,))
        delta.records = len(records)
        self._enforce_backpressure(delta)
        self._fill_delta(delta)
        delta.latency_seconds = time.perf_counter() - started
        return delta

    def finalize(self):
        """Declare the archive done; return the terminal result.

        Bit-identical to ``jportal.analyze_archive(path, ...)`` on the
        same final file: directly so on the replay path, and by
        construction (same reassembly order, same decoders, same
        projection/recovery code path) on the incremental fast path.
        """
        if self._finalized is not None:
            return self._finalized
        contents = None
        drained = False
        try:
            if not self._shed:
                # End-of-stream: lift fault hooks and read caps, then
                # drain the remaining tail *through the decoder* so
                # every still-unread committed record reaches the
                # incremental path.  (reader.finalize() alone would
                # feed the scanner but bypass _on_segment, silently
                # dropping those entries from the fast path -- only
                # reachable when a partial read left bytes behind.)
                self.reader.io_hooks = None
                self.reader.max_poll_bytes = None
                while not (
                    self._replay or self.reader.dirty or self.reader.finished
                ):
                    before = self.reader.offset
                    self.poll()
                    if self.reader.offset == before:
                        break
            if not self._shed:
                # A shed reader is dirty by construction and its
                # finalize would burn a full batch read whose result
                # the replay below re-derives anyway; skip it.
                consumed = self.reader.records_read
                pending = self.reader.buffered_bytes()
                with self.metrics.timer("archive.read"):
                    contents = self.reader.finalize()
                # Every committed record went through poll(): the
                # reader's own end-of-file pass found no new record and
                # had no held-back bytes to judge.
                drained = self.reader.records_read == consumed and not pending
        except Exception as exc:
            # A finalize-time read failure (file gone, EIO) degrades to
            # the batch replay below; if *that* read fails too, the
            # error is real and propagates to the supervisor's
            # per-tenant isolation.
            self._flag_replay("finalize read error: %r" % (exc,))
        if self.reader.dirty:
            self._flag_replay("archive shrank or was replaced under the reader")
        if contents is not None and contents.stats.events and not (
            drained and _clean_stop(contents.stats)
        ):
            # Any other salvage event (torn tail, CRC damage, missing
            # snapshot, sequence gaps) means the batch reader degraded
            # somewhere the incremental path did not follow entry by
            # entry; replay rather than re-derive the accounting.
            self._flag_replay(
                "salvage events present (%d)" % len(contents.stats.events)
            )
        if self._replay or contents is None:
            self.replayed = True
            self._finalized = self.jportal.analyze_archive(
                self.reader.path, snapshot_path=self.reader.snapshot_path
            )
            return self._finalized
        metrics = self.metrics
        try:
            with metrics.timer("stream.release"):
                runs = self._release(final=True)
            self._feed(runs)
            flows = {}
            for tid in sorted(self._decoders):
                with metrics.timer("decode", tid=tid):
                    self._decoders[tid].finish()
            for tid in sorted(self._columns):
                try:
                    flows[tid] = self.jportal._project_and_recover(
                        self._columns[tid], metrics, tid
                    )
                except Exception:
                    flows[tid] = self.jportal._degraded_flow(tid, metrics)
            result = self.jportal._finish(
                contents.to_trace(),
                contents.database_or_empty(),
                flows,
                metrics,
                self._wall_started,
            )
            self.jportal._attach_salvage(result, contents.stats)
        except Exception as exc:
            # Last-ditch backstop: even a bug in the incremental path
            # degrades to a batch replay, never an escaping exception.
            self._flag_replay("finalize error: %r" % (exc,))
            self.replayed = True
            result = self.jportal.analyze_archive(
                self.reader.path, snapshot_path=self.reader.snapshot_path
            )
        self._finalized = result
        return result

    def pending_entries(self) -> int:
        return sum(len(entries) for entries in self._pending.values())

    def lag_segments(self) -> int:
        return sum(len(ends) for ends in self._segment_ends.values())

    def buffered_bytes(self) -> int:
        """Raw tail bytes held by the reader (memory high-water input)."""
        return self.reader.buffered_bytes()

    # ----------------------------------------------------------- backpressure
    def shed(self, reason: str) -> None:
        """Drop every byte of incremental state; rely on batch replay.

        The bounded-memory degradation: pending entries, decoder state,
        sideband, metadata, and the reader's scan buffers are all
        released, ``poll()`` becomes a no-op, and ``finalize()`` takes
        the replay path -- memory goes to (and stays at) zero at the
        cost of one re-decode, never at the cost of correctness.
        Idempotent.
        """
        self._flag_replay(reason)
        if self._shed:
            return
        self._shed = True
        self.shed_reason = reason
        self.reader.release()
        self._pending.clear()
        self._keys.clear()
        self._last_key.clear()
        self._segment_ends.clear()
        self._decoders.clear()
        self._columns.clear()
        self._timelines = None
        self._snapshot = None
        self._database = None
        self._db_dirty = True
        # Delta bookkeeping restarts from the now-empty state, so later
        # polls report zero change rather than negative deltas.
        self._prior_steps = {}
        self._prior_holes = 0
        self._prior_anomalies = 0
        self._prior_events = 0

    def _enforce_backpressure(self, delta: FlowDelta) -> None:
        config = self.backpressure
        if config is None or self._shed:
            return
        if (
            config.max_pending_entries is not None
            and self.pending_entries() > config.max_pending_entries
        ):
            self.shed(
                "pending entries %d exceed cap %d"
                % (self.pending_entries(), config.max_pending_entries)
            )
        elif (
            config.max_buffered_bytes is not None
            and self.buffered_bytes() > config.max_buffered_bytes
        ):
            self.shed(
                "buffered bytes %d exceed cap %d"
                % (self.buffered_bytes(), config.max_buffered_bytes)
            )
        if self._shed:
            delta.shed = True

    # ---------------------------------------------------------- checkpointing
    def write_checkpoint(self, path=None) -> Optional[int]:
        """Atomically persist a ``JPSC`` checkpoint sidecar: a cursor.

        The archive is already the durable log, so the sidecar records
        only where in it this tenant stood: the reader offset (inside
        an :func:`~repro.stream.resilience.archive_fingerprint`, which
        lets a restore detect a truncated or replaced file as *stale*),
        the poll and I/O-error counters, and the replay/shed reasons.
        :meth:`restore` rebuilds everything else from the archive.

        Returns the sidecar's byte size, or ``None`` (plus a
        ``stream.checkpoint.store_failed`` counter) on any failure -- a
        tenant that cannot checkpoint simply stays hot, mirroring the
        DFA cache's store contract.  Default path: ``<archive>.jpsc``.
        """
        target = path if path is not None else checkpoint_path_for(self.reader.path)
        try:
            if self._finalized is not None:
                raise ValueError("cannot checkpoint a finalized tenant")
            cursor = {
                "polls": self.polls,
                "io_errors": self.io_errors,
                "replay_reason": self.replay_reason,
                "shed_reason": self.shed_reason,
                "archive_fingerprint": archive_fingerprint(
                    self.reader.path, self.reader.offset
                ),
            }
            size = write_checkpoint_file(target, cursor)
        except Exception:
            self.metrics.incr(CHECKPOINT_METRIC_PREFIX + ANOMALY_STORE_FAILED)
            return None
        self.metrics.incr(CHECKPOINT_METRIC_PREFIX + "writes")
        return size

    @classmethod
    def restore(
        cls,
        jportal,
        path,
        snapshot_path=None,
        name: str = "tenant",
        checkpoint_path=None,
    ) -> Tuple["StreamDecoder", Optional[str]]:
        """Resume a tenant from its ``JPSC`` cursor sidecar, if possible.

        Returns ``(decoder, anomaly)``.  On a clean resume *anomaly* is
        ``None``: a fresh decoder has re-read the archive up to the
        cursor's offset through the ordinary :meth:`poll` (capped with
        the reader's ``max_poll_bytes``), then taken over the cursor's
        counters and replay/shed flags.  That is the same code an
        uninterrupted tenant ran on the same bytes, so the decoder
        continues tail-follow exactly where the checkpointed one stood.
        A shed tenant skips the re-read: its state was dropped anyway.
        Any failure -- missing sidecar, corrupt or version-skewed blob,
        an archive that no longer carries the checkpointed prefix
        (*stale*) -- yields a cold-start decoder plus the
        ``stream.checkpoint.<kind>`` suffix explaining why; the cold
        start re-reads from offset zero, which is the replay cost,
        never an exception.
        """
        target = (
            checkpoint_path
            if checkpoint_path is not None
            else checkpoint_path_for(path)
        )
        decoder = cls(jportal, path, snapshot_path=snapshot_path, name=name)
        cursor, anomaly = load_checkpoint(target)
        if cursor is None:
            return decoder, anomaly
        fingerprint = cursor.get("archive_fingerprint")
        if fingerprint is None or not fingerprint_matches(
            fingerprint, decoder.reader.path
        ):
            return decoder, ANOMALY_STALE
        try:
            offset = int(fingerprint["offset"])
            polls = int(cursor["polls"])
            io_errors = int(cursor["io_errors"])
            replay_reason = cursor["replay_reason"]
            shed_reason = cursor["shed_reason"]
            for reason in (replay_reason, shed_reason):
                if reason is not None and not isinstance(reason, str):
                    raise TypeError("reason %r is not a string" % (reason,))
        except (KeyError, TypeError, ValueError):
            # A well-framed sidecar whose body is not a cursor (e.g.
            # hand-edited): same degradation as a corrupt blob.
            return decoder, ANOMALY_CORRUPT
        if shed_reason is None:
            # Normally one poll.  It processes every record before it
            # releases any, so it trips a subset of the replay triggers
            # the original polls did (the carried reason restores the
            # rest), and since the commit watermark only grows it leaves
            # the same released/pending split.  A transient read error
            # stops early; later polls catch up from there.
            reader = decoder.reader
            while reader.offset < offset:
                before = reader.offset
                reader.max_poll_bytes = offset - before
                if decoder.poll().error is not None or reader.offset == before:
                    break
            reader.max_poll_bytes = None
        # The re-read regenerated the decode metrics; only the counters
        # it cannot regenerate come from the cursor.
        decoder.polls = polls
        decoder.io_errors += io_errors
        if replay_reason is not None:
            decoder._replay = True
            decoder.replay_reason = replay_reason
        if shed_reason is not None:
            decoder.shed(shed_reason)
        return decoder, None

    # -------------------------------------------------------------- ingestion
    def _flag_replay(self, reason: str) -> None:
        if not self._replay:
            self._replay = True
            self.replay_reason = reason

    def _load_snapshot_once(self) -> None:
        if self._snapshot is not None:
            return
        probe = SalvageStats()  # throwaway: finalize() does the real accounting
        snapshot = _load_snapshot(self.reader.snapshot_path, probe)
        if snapshot is not None:
            if self._released_any:
                self._flag_replay("metadata snapshot appeared after release")
            self._snapshot = snapshot
            self._db_dirty = True

    def _on_sideband(self, switches) -> None:
        if self._released_any and switches:
            # Released entries were attributed with the old switch set;
            # a new switch could re-own them.
            self._flag_replay("sideband records arrived after release")
        self._timelines = None

    def _on_format(self, name: str) -> None:
        if name == self._frontend_name:
            return
        if self._released_any:
            # Released entries were decoded with the wrong frontend's
            # decoder (a format record belongs at the head of the file).
            self._flag_replay("format record arrived after release")
        self._frontend_name = name
        get_frontend(name)  # unknown name raises -> replay via poll()

    def _on_dump(self, dump) -> None:
        self._commit_tsc = max(self._commit_tsc, dump.load_tsc)
        if dump.load_tsc <= self._max_released_tsc:
            # Already-released entries were decoded without this code.
            self._flag_replay("code dump arrived behind the released watermark")
        self._db_dirty = True

    def _on_segment(self, record) -> None:
        self._commit_tsc = max(self._commit_tsc, record.tsc_lo)
        core = record.core
        entries = record.payload
        if not entries:
            return
        keys = [
            2 * item.start_tsc + 1 if tag == "loss" else 2 * item.tsc
            for tag, item in entries
        ]
        if keys[0] < self._last_key.get(core, keys[0]) or not all(
            map(le, keys, islice(keys, 1, None))
        ):
            # Clean archives commit segments in canonical stream order;
            # a decrease means this is not a stream we can decode
            # incrementally in arrival order.
            self._flag_replay("out-of-order entries on core %d" % core)
        if core not in self._last_key and keys[0] // 2 <= self._max_released_tsc:
            # This core's entries interleave below timestamps we already
            # released for other cores.
            self._flag_replay("core %d first appeared behind the watermark" % core)
        self._last_key[core] = keys[-1]
        pending = self._pending.setdefault(core, [])
        pending += entries
        self._keys.setdefault(core, []).extend(keys)
        self._segment_ends.setdefault(core, []).append(len(pending))

    # ------------------------------------------------------ release + decode
    def _release(self, final: bool):
        """Per-thread streams of the entries whose order relative to all
        future input is settled.

        The watermark ``W`` is the commit-order tsc of the *latest*
        record on disk.  The writer commits records globally sorted by
        ``(tsc, dump-before-segment)`` and a segment's header tsc is
        the minimum of its entries', so every future entry -- on any
        core, including cores that have not appeared yet -- and every
        future code dump carries a timestamp at or above ``W``.
        Releasing strictly-below-``W`` entries therefore can never race
        a tie, and released code can never be invalidated by a
        later-arriving dump, regardless of poll cadence.  Inputs that
        break the sort premise trip the replay triggers instead.
        ``final=True`` (end of file) releases everything.

        The slices go through the batch splitter,
        :func:`~repro.core.multicore.split_windows`, and per thread the
        splits of successive releases concatenate to the batch split.
        """
        watermark = 2 * self._commit_tsc  # the smallest unreleasable key
        slices = []
        for core in sorted(self._pending):
            entries = self._pending[core]
            keys = self._keys[core]
            cut = len(keys) if final else bisect_left(keys, watermark)
            if not cut:
                continue
            released = entries[:cut]
            self._max_released_tsc = max(
                self._max_released_tsc, keys[cut - 1] // 2
            )
            del entries[:cut]
            del keys[:cut]
            self._segment_ends[core] = [
                end - cut for end in self._segment_ends[core] if end > cut
            ]
            packets = [item for tag, item in released if tag == "packet"]
            losses = [item for tag, item in released if tag == "loss"]
            slices.append((core, packets, losses))
        if not slices:
            return {}
        self._released_any = True
        if self._timelines is None:
            self._timelines = switch_timelines(
                self.reader.contents.thread_switches
            )
        return split_windows(slices, *self._timelines)

    def _feed(self, runs) -> None:
        if not runs:
            return
        database = self._current_database()
        jportal = self.jportal
        batch_decoder = get_frontend(self._frontend_name).batch_decoder
        for tid in sorted(runs):
            decoder = self._decoders.get(tid)
            if decoder is None:
                decoder = batch_decoder(
                    database,
                    jportal._lifter_for(database),
                    metrics=self.metrics,
                    tid=tid,
                    policy=jportal.degradation_policy,
                )
                self._decoders[tid] = decoder
                self._columns[tid] = ObservedColumns(tid)
            with self.metrics.timer("decode", tid=tid):
                decoder.feed(runs[tid], self._columns[tid])

    def _current_database(self):
        if self._db_dirty or self._database is None:
            dumps = self.reader.contents.journal_dumps
            if self._snapshot is not None:
                self._database = self._snapshot.with_dumps(dumps)
            else:
                from ..core.metadata import CodeDatabase
                from ..jvm.machine import AddressSpace

                self._database = CodeDatabase({}, list(dumps), AddressSpace())
            self._db_dirty = False
            # Live decoders rebind to the enlarged database mid-stream:
            # a fresh decoder adopts the old one's state, so the
            # concatenated feeds equal one decode over the full stream.
            jportal = self.jportal
            batch_decoder = get_frontend(self._frontend_name).batch_decoder
            for tid, old in list(self._decoders.items()):
                self._decoders[tid] = batch_decoder(
                    self._database,
                    jportal._lifter_for(self._database),
                    metrics=self.metrics,
                    tid=tid,
                    policy=jportal.degradation_policy,
                ).adopt_state(old)
        return self._database

    def _fill_delta(self, delta: FlowDelta) -> None:
        holes = 0
        anomalies = 0
        for tid, columns in self._columns.items():
            steps = len(columns.symbols)
            prior = self._prior_steps.get(tid, 0)
            if steps != prior:
                delta.new_steps[tid] = steps - prior
            self._prior_steps[tid] = steps
            delta.cursors[tid] = steps
            holes += len(columns.holes())
            anomalies += columns.anomalies
        delta.new_holes = holes - self._prior_holes
        self._prior_holes = holes
        delta.new_anomalies = anomalies - self._prior_anomalies
        self._prior_anomalies = anomalies
        events = len(self.reader.stats.events)
        delta.salvage_events = events - self._prior_events
        self._prior_events = events
        delta.pending_entries = self.pending_entries()
        delta.lag_segments = self.lag_segments()
        delta.sealed = self.reader.sealed


def _clean_stop(stats: SalvageStats) -> bool:
    """The archive's one salvage event is its missing seal: the writer
    stopped between records, so every committed record is whole."""
    return (
        len(stats.events) == 1
        and stats.events[0].kind is AnomalyKind.ARCHIVE_UNSEALED
    )


class StreamSupervisor:
    """Multiplex many streaming tenants onto one shared worker pool.

    Each tenant is one concurrently traced process (its own archive,
    program, and analyser).  ``poll_all()`` shards the per-tenant polls
    onto a shared thread pool and joins deterministically in tenant-name
    order; per-tenant ``stream.*`` metrics land in :attr:`metrics` keyed
    by tenant index.  *max_workers* sizes that pool (``None``: one worker
    per tenant, at most one per host CPU).  The pool is the only place
    the analysis runs threads: the ``poll_deadline`` watchdog needs a
    poll on a thread it can abandon.  ``finalize()`` and its batch
    replay run on the caller's thread.

    Supervision is fault-isolated per tenant (see
    :mod:`repro.stream.resilience`): a poll that reports a failure puts
    only *that* tenant into DEGRADED (retried under backoff) and
    eventually QUARANTINED (excluded from rounds, finalized via batch
    replay); a poll that outlives ``poll_deadline`` is abandoned by the
    watchdog and its thread left to drain; memory caps shed the largest
    offender; and with ``checkpoint`` enabled every round persists each
    tenant's ``JPSC`` sidecar so `add_tenant(..., resume=True)`` in a
    restarted process continues where this one stopped.  *clock* is the
    monotonic time source for backoff eligibility (injectable so the
    directed tests can run the schedule without sleeping).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        resilience: Optional[ResilienceConfig] = None,
        clock=time.monotonic,
    ):
        self.max_workers = max_workers
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.clock = clock
        self.metrics = MetricsRegistry()
        self._tenants: Dict[str, StreamDecoder] = {}
        self._indices: Dict[str, int] = {}
        self._states: Dict[str, TenantSupervision] = {}
        self._checkpoint_paths: Dict[str, Optional[str]] = {}
        #: Polls the watchdog abandoned, still running on the pool.
        self._inflight: Dict[str, object] = {}
        self._rounds = 0
        self._pool = None

    # -------------------------------------------------------------------- API
    def add_tenant(
        self,
        name: str,
        path,
        jportal,
        snapshot_path=None,
        resume: bool = False,
        checkpoint_path=None,
    ) -> StreamDecoder:
        """Register a tenant; with ``resume=True``, restore it from its
        ``JPSC`` checkpoint sidecar (cold start, plus a
        ``stream.checkpoint.<kind>`` anomaly counter, if the sidecar is
        missing, damaged, version-skewed, or stale)."""
        if name in self._tenants:
            raise ValueError("duplicate tenant %r" % name)
        config = self.resilience
        target = checkpoint_path
        if target is None and (resume or config.checkpoint):
            target = checkpoint_path_for(path)
        index = len(self._tenants)
        anomaly = None
        if resume:
            tenant, anomaly = StreamDecoder.restore(
                jportal,
                path,
                snapshot_path=snapshot_path,
                name=name,
                checkpoint_path=target,
            )
        else:
            tenant = StreamDecoder(
                jportal, path, snapshot_path=snapshot_path, name=name
            )
        tenant.backpressure = config.backpressure
        if config.backpressure.max_buffered_bytes is not None:
            # Cap each raw read too, so a single poll cannot balloon
            # the scan buffer far past the configured bound.
            tenant.reader.max_poll_bytes = config.backpressure.max_buffered_bytes
        self._indices[name] = index
        self._tenants[name] = tenant
        self._states[name] = TenantSupervision(name=name, policy=config.retry)
        self._checkpoint_paths[name] = target
        if anomaly is not None:
            self.metrics.incr(CHECKPOINT_METRIC_PREFIX + anomaly, tid=index)
        elif resume:
            self.metrics.incr(CHECKPOINT_METRIC_PREFIX + "restored", tid=index)
        self.metrics.set_state(
            "stream.health", self._states[name].health.value, tid=index
        )
        return tenant

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def health(self, name: str) -> TenantHealth:
        """The tenant's current supervision state."""
        return self._states[name].health

    def poll_all(self) -> Dict[str, FlowDelta]:
        """Poll every eligible tenant once; deterministic join order.

        Fault-isolated: a failing, hanging, or backing-off tenant never
        affects the others' polls.  Quarantined tenants and tenants
        still inside their backoff window are skipped (no delta in the
        result); a poll abandoned by the watchdog stays in flight and
        is reaped by a later round.  Never raises.
        """
        self._rounds += 1
        now = self.clock()
        deltas: Dict[str, FlowDelta] = {}
        for name in sorted(self._inflight):
            future = self._inflight[name]
            if future.done():
                del self._inflight[name]
                self._join(name, future, None, deltas, now)
        due = [
            name
            for name in self.tenants()
            if name not in self._inflight and self._states[name].should_poll(now)
        ]
        deadline = self.resilience.poll_deadline
        if len(due) > 1 or (due and deadline is not None):
            pool = self._executor()
            futures = {
                name: pool.submit(self._tenants[name].poll) for name in due
            }
            stop_at = (
                None if deadline is None else time.monotonic() + deadline
            )
            for name in due:
                timeout = (
                    None
                    if stop_at is None
                    else max(0.0, stop_at - time.monotonic())
                )
                self._join(name, futures[name], timeout, deltas, now)
        else:
            for name in due:
                try:
                    delta = self._tenants[name].poll()
                except Exception as exc:  # isolation backstop
                    self._on_failure(name, "poll raised: %r" % (exc,), now)
                    continue
                deltas[name] = delta
                self._account(name, delta, now)
        self._enforce_global_caps(deltas)
        for name in sorted(deltas):
            self._publish(name, deltas[name])
        self._maybe_checkpoint()
        return deltas

    def checkpoint_all(self) -> Dict[str, Optional[int]]:
        """Write every joinable tenant's ``JPSC`` sidecar now.

        Returns ``{name: sidecar bytes}``; ``None`` marks a tenant that
        was skipped (in-flight poll, already finalized) or whose store
        failed (counted under ``stream.checkpoint.store_failed``).
        """
        return {name: self._checkpoint_tenant(name) for name in self.tenants()}

    def finalize(self, name: str):
        """Finalize one tenant; still correct for degraded, shed,
        quarantined, and even hung tenants (those replay from the file
        without touching racy decoder state)."""
        tenant = self._tenants[name]
        state = self._states[name]
        index = self._indices[name]
        future = self._inflight.pop(name, None)
        if future is not None and (
            not future.done() or future.exception() is not None
        ):
            # The poll thread may still be mutating the decoder (or
            # died mid-mutation): its incremental state cannot be
            # trusted, so replay from the file instead of joining it.
            state.force_replay = True
        if state.force_replay:
            self.metrics.incr("stream.forced_replays", tid=index)
            self.metrics.incr("stream.finalize_replays", tid=index)
            return tenant.jportal.analyze_archive(
                tenant.reader.path, snapshot_path=tenant.reader.snapshot_path
            )
        result = tenant.finalize()
        if tenant.replayed:
            self.metrics.incr("stream.finalize_replays", tid=index)
        return result

    def finalize_all(self) -> Dict[str, object]:
        """Finalize every tenant, isolating failures per tenant.

        A finalize that raises even after its replay fallback (e.g. the
        archive file was deleted outright) yields a
        :class:`~repro.stream.resilience.TenantFailure` in that
        tenant's slot instead of aborting the remaining tenants.
        """
        results: Dict[str, object] = {}
        for name in self.tenants():
            try:
                results[name] = self.finalize(name)
            except Exception as exc:
                self.metrics.incr(
                    "stream.finalize_failures", tid=self._indices[name]
                )
                results[name] = TenantFailure(tenant=name, error=repr(exc))
        return results

    def close(self) -> None:
        if self._pool is not None:
            # Abandoned (hung) polls still occupy pool threads; waiting
            # on them here would turn one hung tenant into a hung
            # shutdown.
            self._pool.shutdown(wait=not self._inflight)
            self._pool = None

    def __enter__(self) -> "StreamSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- internals
    def _executor(self):
        if self._pool is None:
            import os

            workers = self.max_workers or min(
                max(len(self._tenants), 1), os.cpu_count() or 1
            )
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="jportal-stream"
            )
        return self._pool

    def _join(self, name, future, timeout, deltas, now) -> None:
        """Collect one tenant's poll future into *deltas* (watchdog)."""
        try:
            delta = future.result(timeout=timeout)
        except _FuturesTimeout:
            self._inflight[name] = future
            self.metrics.incr(
                "stream.watchdog_timeouts", tid=self._indices[name]
            )
            self._on_failure(name, "poll deadline exceeded", now, hung=True)
            return
        except Exception as exc:  # isolation backstop
            self._on_failure(name, "poll raised: %r" % (exc,), now)
            return
        deltas[name] = delta
        self._account(name, delta, now)

    def _account(self, name: str, delta: FlowDelta, now: float) -> None:
        state = self._states[name]
        index = self._indices[name]
        if delta.error is not None:
            self.metrics.incr("stream.poll_errors", tid=index)
            if delta.transient:
                self.metrics.incr("stream.transient_io_errors", tid=index)
            self._note_failure(name, delta.error, now)
        elif state.record_success():
            self.metrics.incr("stream.recoveries", tid=index)
        if delta.shed:
            self.metrics.incr("stream.sheds", tid=index)
        self.metrics.set_state("stream.health", state.health.value, tid=index)

    def _on_failure(self, name: str, error: str, now: float, hung: bool = False) -> None:
        index = self._indices[name]
        self.metrics.incr("stream.poll_errors", tid=index)
        self._note_failure(name, error, now, hung=hung)
        self.metrics.set_state(
            "stream.health", self._states[name].health.value, tid=index
        )

    def _note_failure(
        self, name: str, error: str, now: float, hung: bool = False
    ) -> None:
        state = self._states[name]
        index = self._indices[name]
        exhausted = state.record_failure(error, now)
        if state.health is TenantHealth.DEGRADED:
            self.metrics.incr("stream.retries_scheduled", tid=index)
        if exhausted:
            self.metrics.incr("stream.quarantines", tid=index)
            if hung or name in self._inflight:
                # The poll thread is still running: shedding would race
                # it, so just mark the decoder state untrusted.
                state.force_replay = True
            else:
                self._tenants[name].shed("quarantined: %s" % error)

    def _enforce_global_caps(self, deltas: Dict[str, FlowDelta]) -> None:
        config = self.resilience.backpressure
        bounds = (
            (
                "pending entries",
                config.global_max_pending_entries,
                lambda tenant: tenant.pending_entries(),
            ),
            (
                "buffered bytes",
                config.global_max_buffered_bytes,
                lambda tenant: tenant.buffered_bytes(),
            ),
        )
        for label, cap, measure in bounds:
            if cap is None:
                continue
            while True:
                loads = {
                    name: measure(tenant)
                    for name, tenant in self._tenants.items()
                    if name not in self._inflight and not tenant._shed
                }
                total = sum(loads.values())
                if total <= cap or not loads:
                    break
                # Shed the largest offender first: one shed frees the
                # most memory, so the fewest tenants pay the re-decode.
                victim = max(sorted(loads), key=lambda name: loads[name])
                if loads[victim] == 0:
                    break
                self._tenants[victim].shed(
                    "global %s cap breached (%d > %d)" % (label, total, cap)
                )
                self.metrics.incr("stream.sheds", tid=self._indices[victim])
                if victim in deltas:
                    delta = deltas[victim]
                    delta.shed = True
                    delta.pending_entries = 0
                    delta.lag_segments = 0

    def _maybe_checkpoint(self) -> None:
        config = self.resilience
        if not config.checkpoint:
            return
        if self._rounds % max(1, config.checkpoint_interval):
            return
        for name in self.tenants():
            self._checkpoint_tenant(name)

    def _checkpoint_tenant(self, name: str) -> Optional[int]:
        tenant = self._tenants[name]
        if name in self._inflight or tenant._finalized is not None:
            return None
        index = self._indices[name]
        size = tenant.write_checkpoint(self._checkpoint_paths[name])
        if size is None:
            self.metrics.incr(
                CHECKPOINT_METRIC_PREFIX + ANOMALY_STORE_FAILED, tid=index
            )
        else:
            self.metrics.incr(CHECKPOINT_METRIC_PREFIX + "writes", tid=index)
            self.metrics.observe_max(
                CHECKPOINT_METRIC_PREFIX + "bytes", size, tid=index
            )
        return size

    def _publish(self, name: str, delta: FlowDelta) -> None:
        index = self._indices[name]
        tenant = self._tenants[name]
        metrics = self.metrics
        metrics.incr("stream.polls", tid=index)
        if delta.records:
            metrics.incr("stream.records", delta.records, tid=index)
        if delta.segments:
            metrics.incr("stream.segments", delta.segments, tid=index)
        metrics.add_time("stream.delta_latency", delta.latency_seconds, tid=index)
        metrics.set_gauge("stream.lag_segments", delta.lag_segments, tid=index)
        metrics.set_gauge("stream.queue_depth", delta.pending_entries, tid=index)
        metrics.observe_max(
            "stream.queue_depth_peak", delta.pending_entries, tid=index
        )
        metrics.observe_max(
            "stream.buffer_bytes", tenant.buffered_bytes(), tid=index
        )
