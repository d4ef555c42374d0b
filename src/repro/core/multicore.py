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
``("packet" | "loss", item)`` entries ready for the trace-source engines
(:mod:`repro.tracesource.engine`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import attrgetter, le
from typing import Callable, Dict, List, Sequence, Tuple

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


def split_by_thread(trace: PTTrace) -> Dict[int, ThreadTrace]:
    """Reassemble per-thread streams from a collected :class:`PTTrace`.

    Each core's packets are cut into windows at its switch timestamps; a
    packet belongs to the last record at or below its tsc (on equal
    timestamps the last record wins).  A loss sits after the packets with
    ``tsc <= start_tsc``.  Per thread the order is ``(tsc, sequence)``,
    the sequence being core order, then position within the core.  Runs
    are appended in sequence order and each thread's concatenation gets
    one stable sort on the timestamp key (a single pass when one core fed
    the thread).  That sort, not the runs' first timestamps, is what
    orders equal-timestamp entries across a migration.
    """
    # Switch records per core, sorted by (possibly jittered) timestamp.
    switches_by_core: Dict[int, List[ThreadSwitchRecord]] = {}
    for record in trace.thread_switches:
        switches_by_core.setdefault(record.core, []).append(record)
    for records in switches_by_core.values():
        records.sort(key=lambda record: record.tsc)

    # A core with packets but no switch records has no sideband at all;
    # attributing to tid 0 would invent a phantom thread whenever tid 0
    # never ran there.  Fall back to the earliest owner observed anywhere.
    default_tid = 0
    if trace.thread_switches:
        default_tid = min(trace.thread_switches, key=lambda record: record.tsc).tid

    source = getattr(trace.config, "frontend", "pt") or "pt"

    # Per thread, in sequence order: the entries and their timestamp keys.
    streams: Dict[int, TaggedStream] = {}
    keys: Dict[int, List[int]] = {}

    def emit(tid: int, entries: TaggedStream, entry_keys: List[int]) -> None:
        if tid not in streams:
            streams[tid], keys[tid] = [], []
        streams[tid] += entries
        keys[tid] += entry_keys

    for core_trace in trace.cores:
        records = switches_by_core.get(core_trace.core, [])
        timestamps = [record.tsc for record in records]

        def owner_of(tsc: int) -> int:
            position = bisect_right(timestamps, tsc) - 1
            if position < 0:
                # Before the first switch: attribute to this core's first
                # real owner (never a phantom tid 0).
                return records[0].tid if records else default_tid
            return records[position].tid

        packets = core_trace.packets
        tscs = list(map(attrgetter("tsc"), packets))
        if not all(map(le, tscs, islice(tscs, 1, None))):
            # Salvaged archives can be out of order: stable sort first.
            order = sorted(range(len(tscs)), key=tscs.__getitem__)
            packets = list(map(packets.__getitem__, order))
            tscs = list(map(tscs.__getitem__, order))
        entries = list(zip(repeat("packet"), packets))

        # Window k owns packets [cuts[k][0], cuts[k + 1][0]).
        cuts = [(0, records[0].tid if records else default_tid)]
        position = 0
        for record in records[1:]:
            position = bisect_left(tscs, record.tsc, position)
            cuts.append((position, record.tid))
        cuts.append((len(tscs), None))

        losses = sorted(core_trace.losses, key=attrgetter("start_tsc"))
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
                # stream position (key = the span's start) so the
                # streaming release order reproduces this exactly.
                for piece_tid, piece in split_loss_at_switches(
                    loss, timestamps, owner_of
                ):
                    emit(piece_tid, [("loss", piece)], [loss.start_tsc])
                next_loss += 1
            if start < end:
                emit(tid, entries[start:end], tscs[start:end])

    threads: Dict[int, ThreadTrace] = {}
    for tid, stream in streams.items():
        # A stable sort keeps sequence order among equal timestamps.
        order = sorted(range(len(stream)), key=keys[tid].__getitem__)
        stream = list(map(stream.__getitem__, order))
        threads[tid] = ThreadTrace(tid=tid, stream=stream, source=source)
    return threads
