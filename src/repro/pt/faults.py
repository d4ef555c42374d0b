"""Seeded fault injection for packet/loss streams and code metadata.

The decode pipeline's robustness contract (``PTBatchDecoder.decode_into``
never raises; corruption degrades into anomalies and holes) is only credible if
it is exercised against failure shapes *other* than the one our own
:class:`~repro.pt.buffer.RingBuffer` produces.  Hardware trace encoders
are validated the same way -- against injected error patterns -- and this
module provides the software equivalent: a seeded :class:`FaultInjector`
that mutates a collected trace (or a single merged packet/loss stream)
with realistic malformations:

* truncation at arbitrary packet boundaries and *inside* a TNT byte;
* dropped, duplicated, and overlapping ``perf_record_aux`` loss records;
* TIP targets corrupted into unmapped address space;
* TNT packets split or merged (merging drops overflow bits -- a short
  TNT byte holds at most six);
* reordering within one TSC tick (losing the packet-first tie order);
* invalidated debug-info entries, simulating the pre-GC export race
  where compiled code is reclaimed before its metadata is flushed.

Every mutation is reported as an :class:`InjectedFault`, so fuzz tests
can assert kind coverage.  All randomness flows from the seed passed to
:class:`FaultInjector` -- a given seed always produces the same
corruption, which keeps fuzz failures reproducible.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .packets import AuxLossRecord, TIPPacket, TNTPacket

#: Base of an address range no component ever maps (far below the
#: template area and the code cache); corrupted TIP targets land here.
UNMAPPED_BASE = 0x0BAD00000000

TaggedStream = List[Tuple[str, object]]


class FaultKind(str, Enum):
    """The malformation vocabulary (see the module docstring)."""

    #: Cut the stream at a packet boundary (truncated export).
    TRUNCATE_STREAM = "truncate_stream"
    #: Cut *inside* a TNT packet: a bit-prefix survives, the rest is lost.
    TRUNCATE_MID_TNT = "truncate_mid_tnt"
    #: Split one TNT packet into two carrying the same bits.
    SPLIT_TNT = "split_tnt"
    #: Merge two adjacent TNT packets; bits beyond six are dropped.
    MERGE_TNT = "merge_tnt"
    #: Remove a loss record (the hole stays, its sideband marker is gone).
    DROP_LOSS = "drop_loss"
    #: Emit a loss record twice.
    DUPLICATE_LOSS = "duplicate_loss"
    #: Extend a loss span past packets that were actually kept.
    OVERLAP_LOSS = "overlap_loss"
    #: Rewrite a TIP target into unmapped address space.
    CORRUPT_TIP = "corrupt_tip"
    #: Shuffle a run of equal-TSC stream entries.
    REORDER_TIE = "reorder_tie"
    #: Invalidate debug-info entries (database-level, not stream-level).
    STALE_DEBUG = "stale_debug"
    # ---- archive (disk) level: byte mutations of an ``RPT2`` file
    # applied by :meth:`FaultInjector.corrupt_archive` /
    # :meth:`FaultInjector.corrupt_snapshot`, not a packet stream.
    #: Cut the archive file at an arbitrary byte (crash mid-dump).
    TRUNCATE_ARCHIVE = "truncate_archive"
    #: Flip one bit anywhere in the file (media rot, transfer damage).
    BIT_FLIP = "bit_flip"
    #: Remove one whole committed segment record (lost dump window).
    DROP_SEGMENT = "drop_segment"
    #: Replay one committed segment record (retransmitted dump window).
    DUPLICATE_SEGMENT = "duplicate_segment"
    #: Remove or corrupt the metadata snapshot sidecar (stale export).
    STALE_SNAPSHOT = "stale_snapshot"
    # ---- process / I/O level: runtime faults against a *live* reader
    # or supervisor (``repro.stream`` resilience), not byte mutations.
    #: Transient ``OSError`` raised from one read attempt.
    IO_ERROR = "io_error"
    #: One read returns fewer bytes than available (short read).
    PARTIAL_READ = "partial_read"
    #: One read stalls (slow media / contended device).
    SLOW_READ = "slow_read"
    #: The archive file is replaced wholesale under the reader.
    FILE_REPLACED = "file_replaced"
    #: The JPSC checkpoint sidecar is deleted/truncated/bit-rotted.
    CHECKPOINT_CORRUPT = "checkpoint_corrupt"
    #: The supervisor process dies at a seeded poll index and restarts.
    SUPERVISOR_KILL = "supervisor_kill"


#: Kinds applied at the archive-byte level by ``corrupt_archive``
#: (``STALE_SNAPSHOT`` is file-level: see ``corrupt_snapshot``).
ARCHIVE_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.TRUNCATE_ARCHIVE,
    FaultKind.BIT_FLIP,
    FaultKind.DROP_SEGMENT,
    FaultKind.DUPLICATE_SEGMENT,
)

#: Every disk-durability fault, including the sidecar one.
DISK_FAULT_KINDS: Tuple[FaultKind, ...] = ARCHIVE_FAULT_KINDS + (
    FaultKind.STALE_SNAPSHOT,
)

#: Runtime process/I/O faults for the streaming resilience layer: the
#: read-path ones drive :class:`IOFaultSchedule`, the rest are applied
#: by the chaos harness (file replacement, checkpoint corruption via
#: :meth:`FaultInjector.corrupt_checkpoint`, seeded supervisor kills).
PROCESS_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.IO_ERROR,
    FaultKind.PARTIAL_READ,
    FaultKind.SLOW_READ,
    FaultKind.FILE_REPLACED,
    FaultKind.CHECKPOINT_CORRUPT,
    FaultKind.SUPERVISOR_KILL,
)

#: Kinds that mutate a packet/loss stream (everything except the
#: metadata-level fault, which :meth:`FaultInjector.corrupt_database`
#: applies to a code database instead, the archive-byte-level faults,
#: which mutate serialised files, and the runtime process faults).
STREAM_FAULT_KINDS: Tuple[FaultKind, ...] = tuple(
    kind for kind in FaultKind
    if kind is not FaultKind.STALE_DEBUG
    and kind not in DISK_FAULT_KINDS
    and kind not in PROCESS_FAULT_KINDS
)


class IOFaultSchedule:
    """Seeded transient-fault hooks for an ``ArchiveTailReader``.

    Plugs into :attr:`~repro.pt.archive.ArchiveTailReader.io_hooks`:
    ``before_read`` fires on every poll and, per the seeded schedule,
    raises a transient ``OSError`` (``EIO``) or sleeps (slow media);
    ``read_limit`` occasionally shortens one read (partial read).  All
    decisions flow from the seed, so a chaos run is reproducible; every
    fired fault is recorded in :attr:`applied` for coverage assertions.
    """

    def __init__(
        self,
        seed: int,
        error_rate: float = 0.0,
        partial_rate: float = 0.0,
        stall_rate: float = 0.0,
        stall_seconds: float = 0.01,
        max_faults: Optional[int] = None,
    ):
        self.rng = random.Random(seed)
        self.error_rate = error_rate
        self.partial_rate = partial_rate
        self.stall_rate = stall_rate
        self.stall_seconds = stall_seconds
        self.max_faults = max_faults
        self.polls = 0
        self.applied: List[InjectedFault] = []

    def _exhausted(self) -> bool:
        return (
            self.max_faults is not None and len(self.applied) >= self.max_faults
        )

    def before_read(self, reader) -> None:
        import errno
        import time as _time

        self.polls += 1
        if self._exhausted():
            return
        if self.stall_rate and self.rng.random() < self.stall_rate:
            self.applied.append(
                InjectedFault(
                    FaultKind.SLOW_READ, self.polls,
                    "read stalled %.3fs" % self.stall_seconds,
                )
            )
            _time.sleep(self.stall_seconds)
        if self.error_rate and self.rng.random() < self.error_rate:
            self.applied.append(
                InjectedFault(
                    FaultKind.IO_ERROR, self.polls, "transient EIO on poll"
                )
            )
            raise OSError(errno.EIO, "injected transient I/O error")

    def read_limit(self, available: int) -> Optional[int]:
        if self._exhausted() or available <= 1:
            return None
        if self.partial_rate and self.rng.random() < self.partial_rate:
            limit = self.rng.randrange(1, available)
            self.applied.append(
                InjectedFault(
                    FaultKind.PARTIAL_READ, self.polls,
                    "read shortened to %d of %d bytes" % (limit, available),
                )
            )
            return limit
        return None


@dataclass(frozen=True)
class InjectedFault:
    """One applied mutation (``index`` is -1 for database faults)."""

    kind: FaultKind
    index: int
    detail: str


class FaultInjector:
    """Deterministic, seeded mutator for traces and code databases."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    # ----------------------------------------------------------- stream level
    def mutate_stream(
        self,
        stream: Sequence[Tuple[str, object]],
        kinds: Optional[Sequence[FaultKind]] = None,
        faults: int = 1,
    ) -> Tuple[TaggedStream, List[InjectedFault]]:
        """Apply *faults* mutations drawn from *kinds* to a merged
        ``("packet"|"loss", item)`` stream; returns the mutated stream and
        the faults actually applied (a kind whose precondition fails --
        e.g. no TNT packet to split -- is skipped, not an error)."""
        mutated: TaggedStream = list(stream)
        applied: List[InjectedFault] = []
        pool = [
            k for k in (kinds or STREAM_FAULT_KINDS) if k in STREAM_FAULT_KINDS
        ]
        for _ in range(faults):
            if not pool or not mutated:
                break
            kind = self.rng.choice(pool)
            fault = self._apply(mutated, kind)
            if fault is not None:
                applied.append(fault)
        return mutated, applied

    def _apply(
        self, stream: TaggedStream, kind: FaultKind
    ) -> Optional[InjectedFault]:
        handler = getattr(self, "_fault_%s" % kind.value)
        return handler(stream)

    def _indices(self, stream: TaggedStream, predicate) -> List[int]:
        return [i for i, entry in enumerate(stream) if predicate(entry)]

    def _fault_truncate_stream(self, stream) -> Optional[InjectedFault]:
        if len(stream) < 2:
            return None
        cut = self.rng.randrange(1, len(stream))
        del stream[cut:]
        return InjectedFault(
            FaultKind.TRUNCATE_STREAM, cut, "cut at entry %d" % cut
        )

    def _fault_truncate_mid_tnt(self, stream) -> Optional[InjectedFault]:
        candidates = self._indices(
            stream, lambda e: e[0] == "packet" and isinstance(e[1], TNTPacket)
        )
        if not candidates:
            return None
        index = self.rng.choice(candidates)
        packet: TNTPacket = stream[index][1]
        if len(packet.bits) > 1:
            keep = self.rng.randrange(1, len(packet.bits))
            stream[index] = (
                "packet", TNTPacket(tsc=packet.tsc, bits=packet.bits[:keep])
            )
            detail = "kept %d of %d bits" % (keep, len(packet.bits))
        else:
            # A 1-bit packet has no proper prefix: the whole byte is lost.
            del stream[index]
            detail = "single-bit TNT removed"
        return InjectedFault(FaultKind.TRUNCATE_MID_TNT, index, detail)

    def _fault_split_tnt(self, stream) -> Optional[InjectedFault]:
        candidates = self._indices(
            stream,
            lambda e: e[0] == "packet"
            and isinstance(e[1], TNTPacket)
            and len(e[1].bits) >= 2,
        )
        if not candidates:
            return None
        index = self.rng.choice(candidates)
        packet: TNTPacket = stream[index][1]
        at = self.rng.randrange(1, len(packet.bits))
        stream[index : index + 1] = [
            ("packet", TNTPacket(tsc=packet.tsc, bits=packet.bits[:at])),
            ("packet", TNTPacket(tsc=packet.tsc, bits=packet.bits[at:])),
        ]
        return InjectedFault(
            FaultKind.SPLIT_TNT, index, "split %d bits at %d" % (len(packet.bits), at)
        )

    def _fault_merge_tnt(self, stream) -> Optional[InjectedFault]:
        candidates = [
            i
            for i in range(len(stream) - 1)
            if stream[i][0] == "packet"
            and isinstance(stream[i][1], TNTPacket)
            and stream[i + 1][0] == "packet"
            and isinstance(stream[i + 1][1], TNTPacket)
        ]
        if not candidates:
            return None
        index = self.rng.choice(candidates)
        first: TNTPacket = stream[index][1]
        second: TNTPacket = stream[index + 1][1]
        bits = (first.bits + second.bits)[:6]  # overflow bits are LOST
        dropped = len(first.bits) + len(second.bits) - len(bits)
        stream[index : index + 2] = [
            ("packet", TNTPacket(tsc=first.tsc, bits=bits))
        ]
        return InjectedFault(
            FaultKind.MERGE_TNT, index, "merged; %d bits dropped" % dropped
        )

    def _fault_drop_loss(self, stream) -> Optional[InjectedFault]:
        candidates = self._indices(stream, lambda e: e[0] == "loss")
        if not candidates:
            return None
        index = self.rng.choice(candidates)
        del stream[index]
        return InjectedFault(FaultKind.DROP_LOSS, index, "loss record removed")

    def _fault_duplicate_loss(self, stream) -> Optional[InjectedFault]:
        candidates = self._indices(stream, lambda e: e[0] == "loss")
        if not candidates:
            return None
        index = self.rng.choice(candidates)
        stream.insert(index + 1, stream[index])
        return InjectedFault(
            FaultKind.DUPLICATE_LOSS, index, "loss record duplicated"
        )

    def _fault_overlap_loss(self, stream) -> Optional[InjectedFault]:
        candidates = self._indices(stream, lambda e: e[0] == "loss")
        if not candidates:
            return None
        index = self.rng.choice(candidates)
        loss: AuxLossRecord = stream[index][1]
        # Stretch the span past the next few kept packets.
        horizon = loss.end_tsc
        seen = 0
        for tag, item in stream[index + 1 :]:
            if tag == "packet":
                horizon = max(horizon, item.tsc)
                seen += 1
                if seen >= self.rng.randrange(1, 5):
                    break
        stream[index] = (
            "loss", replace(loss, end_tsc=horizon + self.rng.randrange(0, 3))
        )
        return InjectedFault(
            FaultKind.OVERLAP_LOSS,
            index,
            "span stretched to %d" % stream[index][1].end_tsc,
        )

    def _fault_corrupt_tip(self, stream) -> Optional[InjectedFault]:
        candidates = self._indices(
            stream, lambda e: e[0] == "packet" and isinstance(e[1], TIPPacket)
        )
        if not candidates:
            return None
        index = self.rng.choice(candidates)
        packet: TIPPacket = stream[index][1]
        bogus = UNMAPPED_BASE | self.rng.getrandbits(24)
        stream[index] = ("packet", replace(packet, target=bogus))
        return InjectedFault(
            FaultKind.CORRUPT_TIP, index, "target -> 0x%x" % bogus
        )

    def _fault_reorder_tie(self, stream) -> Optional[InjectedFault]:
        def tsc_of(entry):
            tag, item = entry
            return item.start_tsc if tag == "loss" else item.tsc

        runs = []
        start = 0
        for i in range(1, len(stream) + 1):
            if i == len(stream) or tsc_of(stream[i]) != tsc_of(stream[start]):
                if i - start >= 2:
                    runs.append((start, i))
                start = i
        if not runs:
            return None
        lo, hi = self.rng.choice(runs)
        run = stream[lo:hi]
        self.rng.shuffle(run)
        stream[lo:hi] = run
        return InjectedFault(
            FaultKind.REORDER_TIE, lo, "shuffled %d-entry tie run" % (hi - lo)
        )

    # ------------------------------------------------------------ trace level
    def mutate_trace(
        self,
        trace,
        kinds: Optional[Sequence[FaultKind]] = None,
        faults_per_core: int = 2,
    ):
        """Deep-copy a :class:`~repro.pt.perf.PTTrace` and corrupt each
        core's packets/losses.  Returns ``(mutated_trace, faults)``."""
        mutated = copy.deepcopy(trace)
        applied: List[InjectedFault] = []
        for core in mutated.cores:
            stream = _merge_core(core.packets, core.losses)
            stream, faults = self.mutate_stream(stream, kinds, faults_per_core)
            applied.extend(faults)
            core.packets = [item for tag, item in stream if tag == "packet"]
            core.losses = [item for tag, item in stream if tag == "loss"]
        return mutated, applied

    # ---------------------------------------------------------- archive level
    def corrupt_archive(
        self,
        data: bytes,
        kinds: Optional[Sequence[FaultKind]] = None,
        faults: int = 1,
    ) -> Tuple[bytes, List[InjectedFault]]:
        """Apply *faults* disk-level mutations to serialised ``RPT2``
        archive bytes; returns the mutated bytes and the faults applied.

        Like :meth:`mutate_stream`, a kind whose precondition fails (no
        committed segment left to drop, nothing left to truncate) is
        skipped rather than an error, so fuzz loops stay total.  The
        salvage contract under test: for every mutation produced here,
        :func:`repro.pt.archive.read_archive` completes and reports the
        damage in its salvage stats.
        """
        from .archive import REC_SEGMENT, scan_record_spans

        mutated = bytearray(data)
        applied: List[InjectedFault] = []
        pool = [
            k for k in (kinds or ARCHIVE_FAULT_KINDS) if k in ARCHIVE_FAULT_KINDS
        ]
        for _ in range(faults):
            if not pool or not mutated:
                break
            kind = self.rng.choice(pool)
            if kind is FaultKind.TRUNCATE_ARCHIVE:
                if len(mutated) < 6:
                    continue
                cut = self.rng.randrange(5, len(mutated))
                del mutated[cut:]
                applied.append(
                    InjectedFault(kind, cut, "file cut at byte %d" % cut)
                )
            elif kind is FaultKind.BIT_FLIP:
                position = self.rng.randrange(len(mutated))
                bit = self.rng.randrange(8)
                mutated[position] ^= 1 << bit
                applied.append(
                    InjectedFault(
                        kind, position, "bit %d flipped at byte %d" % (bit, position)
                    )
                )
            else:  # drop / duplicate a committed segment record
                spans = [
                    span for span in scan_record_spans(bytes(mutated))
                    if span.rtype == REC_SEGMENT
                ]
                if not spans:
                    continue
                span = self.rng.choice(spans)
                if kind is FaultKind.DROP_SEGMENT:
                    del mutated[span.start:span.end]
                    applied.append(
                        InjectedFault(
                            kind, span.start,
                            "segment seq %d removed (%d bytes)"
                            % (span.seq, span.end - span.start),
                        )
                    )
                else:
                    mutated[span.end:span.end] = mutated[span.start:span.end]
                    applied.append(
                        InjectedFault(
                            kind, span.end,
                            "segment seq %d replayed" % span.seq,
                        )
                    )
        return bytes(mutated), applied

    def corrupt_snapshot(self, snapshot_path) -> Optional[InjectedFault]:
        """Make the metadata snapshot sidecar stale: delete it, truncate
        it mid-payload, or rot one byte -- the pre-GC export race at the
        file level.  Returns the fault, or ``None`` if no sidecar exists.
        """
        import os

        path = str(snapshot_path)
        if not os.path.exists(path):
            return None
        mode = self.rng.randrange(3)
        if mode == 0:
            os.unlink(path)
            detail = "snapshot deleted"
        else:
            with open(path, "rb") as source:
                blob = bytearray(source.read())
            if mode == 1 and len(blob) > 1:
                blob = blob[:self.rng.randrange(1, len(blob))]
                detail = "snapshot truncated to %d bytes" % len(blob)
            elif blob:
                position = self.rng.randrange(len(blob))
                blob[position] ^= 1 << self.rng.randrange(8)
                detail = "snapshot byte %d rotted" % position
            else:
                os.unlink(path)
                detail = "empty snapshot deleted"
            if os.path.exists(path):
                with open(path, "wb") as sink:
                    sink.write(bytes(blob))
        return InjectedFault(FaultKind.STALE_SNAPSHOT, -1, detail)

    # ---------------------------------------------------- process / I/O level
    def io_schedule(
        self,
        error_rate: float = 0.0,
        partial_rate: float = 0.0,
        stall_rate: float = 0.0,
        stall_seconds: float = 0.01,
        max_faults: Optional[int] = None,
    ) -> IOFaultSchedule:
        """A seeded :class:`IOFaultSchedule` derived from this injector
        (its own child seed, so archive and I/O faults stay independent
        yet both reproduce from the one top-level seed)."""
        return IOFaultSchedule(
            seed=self.rng.getrandbits(32),
            error_rate=error_rate,
            partial_rate=partial_rate,
            stall_rate=stall_rate,
            stall_seconds=stall_seconds,
            max_faults=max_faults,
        )

    def kill_index(self, polls: int) -> int:
        """A seeded supervisor-kill point within *polls* rounds."""
        return self.rng.randrange(1, max(polls, 2))

    def corrupt_checkpoint(self, checkpoint_path) -> Optional[InjectedFault]:
        """Damage a JPSC checkpoint sidecar: delete it, truncate it
        mid-payload, or rot one byte.  The resilience contract under
        test: every variant loads as a counted anomaly and a cold
        start, never an exception.  Returns ``None`` if no sidecar
        exists."""
        import os

        path = str(checkpoint_path)
        if not os.path.exists(path):
            return None
        mode = self.rng.randrange(3)
        if mode == 0:
            os.unlink(path)
            detail = "checkpoint deleted"
        else:
            with open(path, "rb") as source:
                blob = bytearray(source.read())
            if mode == 1 and len(blob) > 1:
                blob = blob[:self.rng.randrange(1, len(blob))]
                detail = "checkpoint truncated to %d bytes" % len(blob)
            elif blob:
                position = self.rng.randrange(len(blob))
                blob[position] ^= 1 << self.rng.randrange(8)
                detail = "checkpoint byte %d rotted" % position
            else:
                os.unlink(path)
                detail = "empty checkpoint deleted"
            if os.path.exists(path):
                with open(path, "wb") as sink:
                    sink.write(bytes(blob))
        return InjectedFault(FaultKind.CHECKPOINT_CORRUPT, -1, detail)

    # --------------------------------------------------------- metadata level
    def corrupt_database(self, database, entries: int = 4):
        """Deep-copy a code database and invalidate debug info in it,
        simulating the pre-GC export race: records vanish, frames point at
        methods that no longer resolve, bytecode indices run off the end.
        Returns ``(corrupt_database, faults)``."""
        mutated = copy.deepcopy(database)
        applied: List[InjectedFault] = []
        dumps = [d for d in mutated.code_dumps if d.debug]
        for _ in range(entries):
            if not dumps:
                break
            dump = self.rng.choice(dumps)
            addresses = sorted(dump.debug)
            if not addresses:
                continue
            address = self.rng.choice(addresses)
            mode = self.rng.randrange(4)
            if mode == 0:
                del dump.debug[address]
                detail = "debug entry at 0x%x deleted" % address
            elif mode == 1:
                dump.debug[address] = (("lost", -1),)  # qname without a dot
                detail = "debug entry at 0x%x mangled (bogus qname)" % address
            elif mode == 2:
                dump.debug[address] = (("no.such.Klass.method", 0),)
                detail = "debug entry at 0x%x points at unknown method" % address
            else:
                frames = dump.debug[address]
                qname, _bci = frames[-1]
                dump.debug[address] = frames[:-1] + ((qname, 10_000_000),)
                detail = "debug entry at 0x%x bci out of range" % address
            applied.append(InjectedFault(FaultKind.STALE_DEBUG, -1, detail))
        return mutated, applied


def _merge_core(packets, losses) -> TaggedStream:
    """Merge one core's packets and losses into a tagged stream with the
    canonical tie order (packets first within a TSC tick)."""
    merged: TaggedStream = [("packet", p) for p in packets]
    merged.extend(("loss", l) for l in losses)
    merged.sort(
        key=lambda entry: (
            entry[1].start_tsc if entry[0] == "loss" else entry[1].tsc,
            entry[0] == "loss",
        )
    )
    return merged
