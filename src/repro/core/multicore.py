"""Per-core -> per-thread trace reassembly (paper Section 6).

Hardware tracing records per physical core, but a thread migrates
between cores; its trace is distributed.  JPortal:

1. obtains, for each core, the thread-switch records (timestamps at which
   each thread begins running there);
2. partitions each core's packet stream into windows owned by one thread;
3. concatenates each thread's windows from all cores in timestamp order.

The switch timestamps come from the OS sideband and "can be inconsistent
with those embedded in the hardware trace, resulting in occasional
mistakes in data separation" (Section 7.2) -- reproduced here via the
runtime's ``switch_timestamp_jitter``, which makes boundary packets land
in the wrong thread's stream exactly as in the paper.

Loss records are split into the same windows: a loss span that crosses
one or more thread-switch boundaries is cut at each boundary
(:func:`split_loss_at_switches`), its ``bytes_lost``/``packets_lost``
apportioned by span fraction, so every thread that owned the core during
the hole sees its share -- and per-core totals stay conserved.  Each
per-thread stream is then a TSC-ordered list of
``("packet" | "loss", item)`` entries ready for the trace-source engine
(:mod:`repro.tracesource.engine`).

One function, :func:`split_windows`, holds this rule.  Batch analysis
applies it to a whole trace (:func:`split_by_thread`); the stream service
(:mod:`repro.stream.service`) applies it to each slice of entries below
its commit watermark, and the slices' splits concatenate to the batch's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import attrgetter, le
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from ..jvm.machine import ThreadSwitchRecord
from ..pt.packets import AuxLossRecord
from ..pt.perf import PTTrace

TaggedStream = List[Tuple[str, object]]


@dataclass
class ThreadTrace:
    """One thread's reassembled, TSC-ordered packet/loss stream.

    ``source`` names the trace frontend that produced the packets
    (``"pt"``, ``"etrace"``), so the pipeline can resolve the matching
    decoder classes through the trace-source registry.
    """

    tid: int
    stream: TaggedStream = field(default_factory=list)
    source: str = "pt"

    def packet_count(self) -> int:
        return sum(1 for tag, _ in self.stream if tag == "packet")

    def loss_count(self) -> int:
        return sum(1 for tag, _ in self.stream if tag == "loss")


def split_loss_at_switches(
    loss: AuxLossRecord,
    timestamps: Sequence[int],
    owner_of: Callable[[int], int],
) -> List[Tuple[int, AuxLossRecord]]:
    """Cut one loss span at the thread-switch boundaries inside it.

    Returns ``[(tid, piece), ...]`` in timestamp order.  *timestamps* is
    the core's sorted switch-timestamp list and *owner_of* maps a tsc to
    the owning tid (the same ``bisect`` attribution used for packets).
    Boundaries strictly inside ``(start_tsc, end_tsc]`` cut the span;
    adjacent pieces with the same owner are re-merged, so a span that
    never changes hands comes back as the *original* record (splitting
    only happens when attribution actually differs).  ``bytes_lost`` and
    ``packets_lost`` are apportioned by each piece's fraction of the
    inclusive span length using cumulative rounding, so the piece totals
    equal the original counts exactly -- the per-core conservation
    property the reassembly tests pin.
    """
    start, end = loss.start_tsc, loss.end_tsc
    if end <= start or not timestamps:
        return [(owner_of(start), loss)]
    lo = bisect_right(timestamps, start)
    hi = bisect_right(timestamps, end)
    if lo >= hi:
        return [(owner_of(start), loss)]
    cuts: List[int] = []
    for index in range(lo, hi):
        tsc = timestamps[index]
        if not cuts or cuts[-1] != tsc:
            cuts.append(tsc)
    # Piece i covers [bounds[i], bounds[i+1] - 1]; the last runs to end.
    bounds = [start] + cuts
    pieces: List[List[int]] = []  # [tid, piece_start, piece_end]
    for index, piece_start in enumerate(bounds):
        piece_end = bounds[index + 1] - 1 if index + 1 < len(bounds) else end
        tid = owner_of(piece_start)
        if pieces and pieces[-1][0] == tid:
            pieces[-1][2] = piece_end
        else:
            pieces.append([tid, piece_start, piece_end])
    if len(pieces) == 1:
        return [(pieces[0][0], loss)]
    total = end - start + 1
    out: List[Tuple[int, AuxLossRecord]] = []
    cum = prev_bytes = prev_packets = 0
    for tid, piece_start, piece_end in pieces:
        cum += piece_end - piece_start + 1
        cum_bytes = loss.bytes_lost * cum // total
        cum_packets = loss.packets_lost * cum // total
        out.append(
            (
                tid,
                AuxLossRecord(
                    start_tsc=piece_start,
                    end_tsc=piece_end,
                    bytes_lost=cum_bytes - prev_bytes,
                    packets_lost=cum_packets - prev_packets,
                ),
            )
        )
        prev_bytes, prev_packets = cum_bytes, cum_packets
    return out


def switch_timelines(
    switches: Sequence[ThreadSwitchRecord],
) -> Tuple[Dict[int, Tuple[List[int], List[int]]], int]:
    """Per core, the switch timestamps and tids, stably sorted by
    (possibly jittered) timestamp; plus the owner of cores without
    sideband: the earliest owner observed anywhere, never a phantom tid
    0 (unless there is no sideband at all)."""
    by_core: Dict[int, List[ThreadSwitchRecord]] = {}
    for record in sorted(switches, key=attrgetter("tsc")):
        by_core.setdefault(record.core, []).append(record)
    timelines = {
        core: ([r.tsc for r in records], [r.tid for r in records])
        for core, records in by_core.items()
    }
    default_tid = min(switches, key=attrgetter("tsc")).tid if switches else 0
    return timelines, default_tid


def split_windows(
    cores: Iterable[Tuple[int, Sequence[object], Sequence[AuxLossRecord]]],
    timelines: Dict[int, Tuple[List[int], List[int]]],
    default_tid: int,
) -> Dict[int, TaggedStream]:
    """Per-thread tagged streams of ``(core, packets, losses)`` triples:
    the attribution rule of a whole trace (:func:`split_by_thread`) and
    of each watermark slice the stream service releases.

    Each core's packets are cut into windows at the switch timestamps
    inside their tsc range; a packet belongs to the last record at or
    below its tsc (on equal timestamps the last record wins), or before
    the core's first record to that record's tid.  A loss
    sits after the packets with ``tsc <= start_tsc``.  Per thread the
    order is ``(tsc, sequence)``, the sequence being the order of
    *cores*, then position within the core: runs are appended in
    sequence order and each thread's concatenation gets one stable sort
    on the timestamp key.  That sort, not the runs' first timestamps, is
    what orders equal-timestamp entries across a migration.  So cutting
    every core below one timestamp and splitting both sides gives, per
    thread, the two halves of the split of the whole.
    """
    # Per thread, in sequence order: the entries and their timestamp keys.
    streams: Dict[int, TaggedStream] = {}
    keys: Dict[int, List[int]] = {}

    def emit(tid: int, entries: TaggedStream, entry_keys: List[int]) -> None:
        if tid not in streams:
            streams[tid], keys[tid] = [], []
        streams[tid] += entries
        keys[tid] += entry_keys

    for core, packets, losses in cores:
        timestamps, tids = timelines.get(core, ((), ()))

        def owner_of(tsc: int) -> int:
            if not tids:
                return default_tid
            return tids[max(bisect_right(timestamps, tsc) - 1, 0)]

        tscs = list(map(attrgetter("tsc"), packets))
        if not all(map(le, tscs, islice(tscs, 1, None))):
            # Salvaged archives can be out of order: stable sort first.
            order = sorted(range(len(tscs)), key=tscs.__getitem__)
            packets = list(map(packets.__getitem__, order))
            tscs = list(map(tscs.__getitem__, order))
        entries = list(zip(repeat("packet"), packets))

        # Window k owns packets [cuts[k][0], cuts[k + 1][0]); records at
        # or below the first packet only pick the first window's owner.
        cuts = [(0, owner_of(tscs[0]) if tscs else default_tid)]
        if tscs:
            first = max(bisect_right(timestamps, tscs[0]), 1)
            position = 0
            for index in range(first, bisect_right(timestamps, tscs[-1])):
                position = bisect_left(tscs, timestamps[index], position)
                cuts.append((position, tids[index]))
        cuts.append((len(tscs), None))

        losses = sorted(losses, key=attrgetter("start_tsc"))
        next_loss = 0
        for (start, tid), (end, _) in zip(cuts, cuts[1:]):
            while next_loss < len(losses):
                loss = losses[next_loss]
                at = bisect_right(tscs, loss.start_tsc, start)
                if at > end:
                    break
                if start < at:
                    emit(tid, entries[start:at], tscs[start:at])
                    start = at
                # A loss span crossing switch boundaries is cut per
                # owner; the pieces stay contiguous at the original
                # stream position (key = the span's start).
                for piece_tid, piece in split_loss_at_switches(
                    loss, timestamps, owner_of
                ):
                    emit(piece_tid, [("loss", piece)], [loss.start_tsc])
                next_loss += 1
            if start < end:
                emit(tid, entries[start:end], tscs[start:end])

    for tid, stream in streams.items():
        # A stable sort keeps sequence order among equal timestamps.
        order = sorted(range(len(stream)), key=keys[tid].__getitem__)
        streams[tid] = list(map(stream.__getitem__, order))
    return streams


def split_by_thread(trace: PTTrace) -> Dict[int, ThreadTrace]:
    """Reassemble per-thread streams from a collected :class:`PTTrace`:
    :func:`split_windows` over every core, in ``trace.cores`` order."""
    timelines, default_tid = switch_timelines(trace.thread_switches)
    streams = split_windows(
        ((core.core, core.packets, core.losses) for core in trace.cores),
        timelines,
        default_tid,
    )
    source = getattr(trace.config, "frontend", "pt") or "pt"
    return {
        tid: ThreadTrace(tid=tid, stream=stream, source=source)
        for tid, stream in streams.items()
    }
