"""Unit tests for per-core -> per-thread trace reassembly (Section 6)."""

import random
from bisect import bisect_right
from operator import attrgetter

from repro.core.multicore import (
    ThreadTrace,
    split_by_thread,
    split_loss_at_switches,
    split_windows,
    switch_timelines,
)
from repro.jvm.jit import JITPolicy
from repro.jvm.machine import ThreadSwitchRecord
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.pt.packets import AuxLossRecord, TIPPacket
from repro.pt.perf import CoreTrace, PTConfig, PTTrace, collect

from ..conftest import build_figure2_program, lossless_config


def _synthetic_trace(switches, packets_by_core):
    cores = []
    for core_id, packets in enumerate(packets_by_core):
        cores.append(
            CoreTrace(
                core=core_id,
                packets=packets,
                losses=[],
                bytes_generated=sum(p.size for p in packets),
                bytes_lost=0,
                encoder_stats=None,
            )
        )
    return PTTrace(cores=cores, thread_switches=switches, config=PTConfig())


def _tip(tsc):
    return TIPPacket(tsc=tsc, target=0x1000)


class TestSyntheticSplitting:
    def test_single_thread_single_core(self):
        switches = [ThreadSwitchRecord(core=0, tid=0, tsc=0)]
        trace = _synthetic_trace(switches, [[_tip(1), _tip(5)]])
        threads = split_by_thread(trace)
        assert set(threads) == {0}
        assert threads[0].packet_count() == 2

    def test_windows_assign_by_timestamp(self):
        switches = [
            ThreadSwitchRecord(core=0, tid=0, tsc=0),
            ThreadSwitchRecord(core=0, tid=1, tsc=10),
            ThreadSwitchRecord(core=0, tid=0, tsc=20),
        ]
        packets = [_tip(1), _tip(11), _tip(15), _tip(25)]
        threads = split_by_thread(_synthetic_trace(switches, [packets]))
        assert threads[0].packet_count() == 2
        assert threads[1].packet_count() == 2

    def test_cross_core_merge_in_tsc_order(self):
        switches = [
            ThreadSwitchRecord(core=0, tid=0, tsc=0),
            ThreadSwitchRecord(core=1, tid=0, tsc=10),
        ]
        trace = _synthetic_trace(
            switches, [[_tip(1), _tip(2)], [_tip(11), _tip(12)]]
        )
        threads = split_by_thread(trace)
        timestamps = [p.tsc for _tag, p in threads[0].stream]
        assert timestamps == sorted(timestamps)
        assert threads[0].packet_count() == 4

    def test_packet_before_any_switch_goes_to_first_owner(self):
        switches = [ThreadSwitchRecord(core=0, tid=3, tsc=100)]
        trace = _synthetic_trace(switches, [[_tip(5)]])
        threads = split_by_thread(trace)
        assert threads[3].packet_count() == 1

    def test_core_without_sideband_uses_first_owner_anywhere(self):
        """A core with packets but no switch records must not invent a
        phantom tid 0: its packets go to the earliest owner observed on
        any core."""
        switches = [ThreadSwitchRecord(core=0, tid=7, tsc=50)]
        trace = _synthetic_trace(switches, [[_tip(60)], [_tip(5), _tip(70)]])
        threads = split_by_thread(trace)
        assert set(threads) == {7}
        assert threads[7].packet_count() == 3

    def test_no_sideband_at_all_defaults_to_tid_zero(self):
        trace = _synthetic_trace([], [[_tip(1), _tip(2)]])
        threads = split_by_thread(trace)
        assert set(threads) == {0}
        assert threads[0].packet_count() == 2

    def test_sideband_core_choice_uses_earliest_record(self):
        """The fallback owner is the earliest switch anywhere, not the
        first core's first record."""
        switches = [
            ThreadSwitchRecord(core=0, tid=2, tsc=30),
            ThreadSwitchRecord(core=2, tid=5, tsc=10),
        ]
        # Core 1 has no sideband; tid 5 switched in first (tsc=10).
        trace = _synthetic_trace(switches, [[_tip(40)], [_tip(4)], [_tip(15)]])
        threads = split_by_thread(trace)
        assert threads[5].packet_count() == 2  # core 1 orphan + core 2
        assert threads[2].packet_count() == 1

    def test_jittered_boundary_misassigns(self):
        """A switch record whose timestamp lies (wrongly) after packets of
        the new thread sends those packets to the old thread -- the
        paper's multi-thread inaccuracy source."""
        true_switch_at = 10
        recorded_at = 13  # jitter: +3
        switches = [
            ThreadSwitchRecord(core=0, tid=0, tsc=0),
            ThreadSwitchRecord(core=0, tid=1, tsc=recorded_at),
        ]
        packets = [_tip(11), _tip(12), _tip(14)]
        threads = split_by_thread(_synthetic_trace(switches, [packets]))
        assert threads[0].packet_count() == 2  # 11, 12 misassigned
        assert threads[1].packet_count() == 1


class TestRealRuns:
    def _multithreaded_run(self, jitter=0):
        program = build_figure2_program(iterations=60)
        config = RuntimeConfig(
            cores=2,
            quantum=40,
            jit=JITPolicy(hot_threshold=10**9),
            switch_timestamp_jitter=jitter,
        )
        runtime = JVMRuntime(program, config)
        runtime.add_thread(name="main")
        runtime.add_thread("Test", "main", ())
        return runtime.run()

    def test_all_threads_have_streams(self):
        run = self._multithreaded_run()
        trace = collect(run, lossless_config())
        threads = split_by_thread(trace)
        assert set(threads) == {0, 1}
        for thread in threads.values():
            assert thread.packet_count() > 0
            assert thread.loss_count() == 0

    def test_packet_conservation(self):
        run = self._multithreaded_run()
        trace = collect(run, lossless_config())
        threads = split_by_thread(trace)
        total = sum(t.packet_count() for t in threads.values())
        assert total == trace.packet_count()

    def test_per_thread_streams_are_tsc_ordered(self):
        run = self._multithreaded_run()
        threads = split_by_thread(collect(run, lossless_config()))
        for thread in threads.values():
            timestamps = [
                item.tsc if tag == "packet" else item.start_tsc
                for tag, item in thread.stream
            ]
            assert timestamps == sorted(timestamps)


class TestLossSplitting:
    """Loss spans crossing thread-switch boundaries (the attribution
    bugfix): each owner gets its share, per-core totals conserved."""

    def _trace_with_loss(self, switches, losses, packets=()):
        core = CoreTrace(
            core=0,
            packets=list(packets),
            losses=list(losses),
            bytes_generated=sum(l.bytes_lost for l in losses),
            bytes_lost=sum(l.bytes_lost for l in losses),
            encoder_stats=None,
        )
        return PTTrace(cores=[core], thread_switches=switches, config=PTConfig())

    def test_span_crossing_switch_is_split(self):
        """Regression: the whole span used to land on the owner of its
        start tsc, silently blaming one thread for another's hole."""
        switches = [
            ThreadSwitchRecord(core=0, tid=0, tsc=0),
            ThreadSwitchRecord(core=0, tid=1, tsc=10),
        ]
        loss = AuxLossRecord(
            start_tsc=5, end_tsc=15, bytes_lost=110, packets_lost=11
        )
        threads = split_by_thread(self._trace_with_loss(switches, [loss]))
        assert threads[0].loss_count() == 1
        assert threads[1].loss_count() == 1
        (piece0,) = [item for tag, item in threads[0].stream if tag == "loss"]
        (piece1,) = [item for tag, item in threads[1].stream if tag == "loss"]
        assert (piece0.start_tsc, piece0.end_tsc) == (5, 9)
        assert (piece1.start_tsc, piece1.end_tsc) == (10, 15)
        assert piece0.bytes_lost + piece1.bytes_lost == 110
        assert piece0.packets_lost + piece1.packets_lost == 11
        # 5 of 11 ticks belong to tid 0.
        assert piece0.bytes_lost == 50
        assert piece0.packets_lost == 5

    def test_single_owner_span_is_returned_unsplit(self):
        switches = [
            ThreadSwitchRecord(core=0, tid=0, tsc=0),
            ThreadSwitchRecord(core=0, tid=1, tsc=100),
        ]
        loss = AuxLossRecord(
            start_tsc=5, end_tsc=50, bytes_lost=64, packets_lost=4
        )
        threads = split_by_thread(self._trace_with_loss(switches, [loss]))
        assert 1 not in threads or threads[1].loss_count() == 0
        (piece,) = [item for tag, item in threads[0].stream if tag == "loss"]
        assert piece is loss

    def test_switch_back_to_same_owner_does_not_split(self):
        """Cut points where attribution does not change re-merge, so the
        old single-owner behaviour (one record, unmodified) survives."""
        switches = [
            ThreadSwitchRecord(core=0, tid=0, tsc=0),
            ThreadSwitchRecord(core=0, tid=0, tsc=10),
        ]
        loss = AuxLossRecord(
            start_tsc=5, end_tsc=15, bytes_lost=100, packets_lost=10
        )
        (tid, piece), = split_loss_at_switches(
            loss, [0, 10], lambda tsc: 0
        )
        assert tid == 0 and piece is loss

    def test_boundary_at_span_start_does_not_cut(self):
        """A switch exactly at start_tsc owns the whole span already;
        only boundaries strictly inside (start, end] cut."""
        loss = AuxLossRecord(
            start_tsc=10, end_tsc=20, bytes_lost=10, packets_lost=1
        )
        pieces = split_loss_at_switches(
            loss, [10], lambda tsc: 1 if tsc >= 10 else 0
        )
        assert pieces == [(1, loss)]

    def test_conservation_property(self):
        """Property: over random switch layouts and spans, piece totals
        always equal the original and pieces tile the span exactly."""
        import random

        rng = random.Random(1234)
        for _ in range(200):
            switch_tscs = sorted(
                rng.sample(range(1, 400), rng.randrange(1, 12))
            )
            owners = [rng.randrange(4) for _ in switch_tscs]

            def owner_of(tsc):
                position = len([t for t in switch_tscs if t <= tsc]) - 1
                return owners[position] if position >= 0 else owners[0]

            start = rng.randrange(0, 380)
            end = start + rng.randrange(0, 60)
            loss = AuxLossRecord(
                start_tsc=start,
                end_tsc=end,
                bytes_lost=rng.randrange(0, 5000),
                packets_lost=rng.randrange(0, 50),
            )
            pieces = split_loss_at_switches(loss, switch_tscs, owner_of)
            assert sum(p.bytes_lost for _, p in pieces) == loss.bytes_lost
            assert sum(p.packets_lost for _, p in pieces) == loss.packets_lost
            assert pieces[0][1].start_tsc == start
            assert pieces[-1][1].end_tsc == end
            for (_, left), (_, right) in zip(pieces, pieces[1:]):
                assert right.start_tsc == left.end_tsc + 1
            for index, (tid, piece) in enumerate(pieces):
                assert tid == owner_of(piece.start_tsc)
                if index:
                    assert tid != pieces[index - 1][0]

    def test_per_core_loss_totals_conserved_through_split(self):
        """Sum of per-thread loss spans equals the per-core loss spans
        (the ISSUE's property), on a trace with several crossing holes."""
        switches = [
            ThreadSwitchRecord(core=0, tid=0, tsc=0),
            ThreadSwitchRecord(core=0, tid=1, tsc=50),
            ThreadSwitchRecord(core=0, tid=2, tsc=120),
            ThreadSwitchRecord(core=0, tid=0, tsc=200),
        ]
        losses = [
            AuxLossRecord(start_tsc=40, end_tsc=70, bytes_lost=333, packets_lost=7),
            AuxLossRecord(start_tsc=100, end_tsc=260, bytes_lost=999, packets_lost=13),
        ]
        threads = split_by_thread(self._trace_with_loss(switches, losses))
        split_bytes = sum(
            item.bytes_lost
            for thread in threads.values()
            for tag, item in thread.stream
            if tag == "loss"
        )
        split_packets = sum(
            item.packets_lost
            for thread in threads.values()
            for tag, item in thread.stream
            if tag == "loss"
        )
        assert split_bytes == sum(l.bytes_lost for l in losses)
        assert split_packets == sum(l.packets_lost for l in losses)
        # Every thread that owned the core inside a hole sees a share.
        assert all(threads[tid].loss_count() for tid in (0, 1, 2))


def _reference_split_by_thread(trace):
    """The per-packet reassembly the window-sliced split must reproduce:
    every packet and loss attributed on its own, then one sort by
    ``(tsc, sequence)`` per thread."""
    # Switch records per core, sorted by (possibly jittered) timestamp.
    switches_by_core = {}
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

    # Window items per thread: (tsc, sequence, tag, item).  The running
    # sequence number keeps the original per-core order among items with
    # equal timestamps.
    gathered = {}
    sequence = 0
    for core_trace in trace.cores:
        records = switches_by_core.get(core_trace.core, [])
        timestamps = [record.tsc for record in records]

        def owner_of(tsc):
            position = bisect_right(timestamps, tsc) - 1
            if position < 0:
                # Before the first switch: attribute to this core's first
                # real owner (never a phantom tid 0).
                return records[0].tid if records else default_tid
            return records[position].tid

        merged = []
        for packet in core_trace.packets:
            merged.append((packet.tsc, "packet", packet))
        for loss in core_trace.losses:
            merged.append((loss.start_tsc, "loss", loss))
        merged.sort(key=lambda entry: entry[0])
        for tsc, tag, item in merged:
            if tag == "loss":
                # A loss span crossing switch boundaries is cut per
                # owner; the pieces stay contiguous at the original
                # stream position (sort key = the span's start) so the
                # streaming release order reproduces this exactly.
                for tid, piece in split_loss_at_switches(
                    item, timestamps, owner_of
                ):
                    gathered.setdefault(tid, []).append(
                        (tsc, sequence, tag, piece)
                    )
                    sequence += 1
            else:
                tid = owner_of(tsc)
                gathered.setdefault(tid, []).append((tsc, sequence, tag, item))
                sequence += 1

    threads = {}
    for tid, entries in gathered.items():
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        threads[tid] = ThreadTrace(
            tid=tid,
            stream=[(tag, item) for _, _, tag, item in entries],
            source=source,
        )
    return threads


def _random_trace(rng):
    """A small trace exercising every attribution corner: duplicate
    switch timestamps, packets before a core's first switch, cores
    without sideband, sideband naming a packet-less core, unsorted
    cores, one tid on several cores, shuffled core order, both
    frontends, and losses that start on a packet, span several switches,
    or end before they start."""
    horizon = rng.randint(4, 60)
    tids = range(rng.randint(1, 4))
    core_ids = list(range(rng.randint(1, 4)))
    switches = [
        ThreadSwitchRecord(
            core=core, tid=rng.choice(tids), tsc=rng.randint(0, horizon)
        )
        for core in core_ids + [len(core_ids)]  # the last has no packets
        if rng.random() < 0.85
        for _ in range(rng.randint(1, 6))
    ]
    rng.shuffle(switches)
    cores = []
    for core in core_ids:
        packets = [_tip(rng.randint(0, horizon)) for _ in range(rng.randint(0, 24))]
        if rng.random() < 0.7:
            packets.sort(key=lambda packet: packet.tsc)
        losses = []
        for _ in range(rng.randint(0, 3)):
            if packets and rng.random() < 0.5:
                start = rng.choice(packets).tsc
            else:
                start = rng.randint(0, horizon)
            losses.append(
                AuxLossRecord(
                    start_tsc=start,
                    end_tsc=start + rng.randint(-4, horizon // 2),
                    bytes_lost=rng.randrange(0, 500),
                    packets_lost=rng.randrange(0, 20),
                )
            )
        cores.append(
            CoreTrace(
                core=core,
                packets=packets,
                losses=losses,
                bytes_generated=0,
                bytes_lost=0,
                encoder_stats=None,
            )
        )
    rng.shuffle(cores)
    config = PTConfig(frontend=rng.choice(("pt", "etrace")))
    return PTTrace(cores=cores, thread_switches=switches, config=config)


def _assert_same_streams(actual, expected, case):
    """*actual* (``{tid: tagged stream}``) equals the reference threads
    entry by entry: the same packet objects, equal loss pieces."""
    assert set(actual) == set(expected), case
    for tid, reference in expected.items():
        stream = actual[tid]
        assert [tag for tag, _ in stream] == [
            tag for tag, _ in reference.stream
        ], (case, tid)
        for (tag, item), (_, want) in zip(stream, reference.stream):
            if tag == "packet":
                assert item is want, (case, tid)
            else:
                assert item == want, (case, tid)


class TestWindowSlicedSplit:
    """Differential test: the window-sliced split against the per-packet
    reference, entry by entry."""

    TRACES = 2000

    def test_matches_per_packet_reference(self):
        rng = random.Random(20261017)
        multi_core_tids = equal_tsc_migrations = unsorted_cores = 0
        for case in range(self.TRACES):
            trace = _random_trace(rng)
            expected = _reference_split_by_thread(trace)
            threads = split_by_thread(trace)
            _assert_same_streams(
                {tid: thread.stream for tid, thread in threads.items()},
                expected,
                case,
            )
            for tid, reference in expected.items():
                assert threads[tid].source == reference.source, case
            core_of = {
                id(packet): core_trace.core
                for core_trace in trace.cores
                for packet in core_trace.packets
            }
            unsorted_cores += sum(
                [p.tsc for p in core_trace.packets]
                != sorted(p.tsc for p in core_trace.packets)
                for core_trace in trace.cores
            )
            for reference in expected.values():
                packets = [item for tag, item in reference.stream if tag == "packet"]
                multi_core_tids += len({core_of[id(p)] for p in packets}) > 1
                equal_tsc_migrations += sum(
                    left.tsc == right.tsc
                    and core_of[id(left)] != core_of[id(right)]
                    for left, right in zip(packets, packets[1:])
                )
        # The generator must keep producing the cases the merge exists for.
        assert multi_core_tids >= 50
        assert equal_tsc_migrations >= 50
        assert unsorted_cores >= 50

    def test_watermark_slices_concatenate_to_reference(self):
        """The property the stream service's release relies on: cut each
        core's entries, in arrival order (packets by tsc, a loss after
        the packets at or below its start), below a rising sequence of
        watermarks, split every slice with ``split_windows``, and each
        thread's pieces concatenate to the per-packet reference split of
        the whole trace."""
        rng = random.Random(20261018)
        slices_split = 0
        for case in range(self.TRACES):
            trace = _random_trace(rng)
            expected = _reference_split_by_thread(trace)
            timelines, default_tid = switch_timelines(trace.thread_switches)
            cores = [
                (
                    core_trace.core,
                    sorted(core_trace.packets, key=attrgetter("tsc")),
                    sorted(core_trace.losses, key=attrgetter("start_tsc")),
                )
                for core_trace in trace.cores
            ]
            horizon = max(
                [p.tsc for _, packets, _ in cores for p in packets]
                + [l.start_tsc for _, _, losses in cores for l in losses]
                + [0]
            )
            cuts = rng.sample(range(horizon + 2), rng.randint(0, min(6, horizon)))
            bounds = [0] + sorted(cuts) + [horizon + 1]
            actual = {}
            for low, high in zip(bounds, bounds[1:]):
                slices = []
                for core, packets, losses in cores:
                    packets = [p for p in packets if low <= p.tsc < high]
                    losses = [l for l in losses if low <= l.start_tsc < high]
                    if packets or losses:
                        slices.append((core, packets, losses))
                for tid, stream in split_windows(
                    slices, timelines, default_tid
                ).items():
                    actual.setdefault(tid, []).extend(stream)
                slices_split += bool(slices)
            _assert_same_streams(actual, expected, case)
        # Traces must average three non-empty slices (6,720 at this seed),
        # or this repeats the whole-trace test above.
        assert slices_split >= 3 * self.TRACES, slices_split
