"""Unit tests for the libipt-style packet decoder.

Decodes through the production path -- :class:`PTBatchDecoder` lifting
compiled code with a :class:`~repro.core.batchflow.JitLifter` into
:class:`~repro.core.observed.ObservedColumns` -- over a small hand-built
:class:`~repro.core.metadata.CodeDatabase` (the template table plus one
synthetic compiled blob), so each decoding behaviour can be exercised in
isolation.  Every blob address carries the debug record
``("T.blob", offset)``, so the ``locations`` column spells out the walk.
"""

from types import SimpleNamespace

from repro.core.metadata import CodeDatabase, CodeDump
from repro.jvm.machine import MIKind, MachineInstruction
from repro.jvm.opcodes import Op
from repro.jvm.templates import TemplateTable
from repro.pt.decoder import AnomalyKind, DegradationPolicy
from repro.pt.packets import (
    AuxLossRecord,
    FUPPacket,
    PGDPacket,
    PGEPacket,
    TIPPacket,
    TNTPacket,
    TSCPacket,
)

from ..conftest import decode_columns

CODE_BASE = 0x7FA419000000
TEMPLATES = TemplateTable()

#: Blob layout (addresses relative to CODE_BASE):
#:     +0   OTHER     (size 3)
#:     +3   COND      (size 6) -> +20
#:     +9   OTHER     (size 3)
#:     +12  JMP_DIR   (size 5) -> +3      (loop back to the branch)
#:     +17  RET       (size 1)
#:     +20  CALL_IND  (size 6)
#:     +26  RET       (size 1)
BLOB = (
    MachineInstruction(CODE_BASE + 0, 3, MIKind.OTHER),
    MachineInstruction(CODE_BASE + 3, 6, MIKind.COND_BRANCH, target=CODE_BASE + 20),
    MachineInstruction(CODE_BASE + 9, 3, MIKind.OTHER),
    MachineInstruction(CODE_BASE + 12, 5, MIKind.JMP_DIRECT, target=CODE_BASE + 3),
    MachineInstruction(CODE_BASE + 17, 1, MIKind.RET),
    MachineInstruction(CODE_BASE + 20, 6, MIKind.CALL_INDIRECT),
    MachineInstruction(CODE_BASE + 26, 1, MIKind.RET),
)


class StubProgram:
    """Stands in for the JProgram: every ``T.blob`` bci is a ``NOP``, and
    no other method exists."""

    blob = SimpleNamespace(code=[SimpleNamespace(op=Op.NOP)] * 27)

    def method(self, class_name, method_name):
        if (class_name, method_name) != ("T", "blob"):
            raise KeyError("%s.%s" % (class_name, method_name))
        return self.blob


def make_database():
    dump = CodeDump(
        qname="T.blob",
        entry=CODE_BASE,
        limit=CODE_BASE + 27,
        instructions=list(BLOB),
        debug={mi.address: (("T.blob", mi.address - CODE_BASE),) for mi in BLOB},
        load_tsc=0,
        unload_tsc=None,
    )
    return CodeDatabase(TEMPLATES.metadata(), [dump], TEMPLATES.address_space)


def _decode(stream, **options):
    return decode_columns(stream, make_database(), StubProgram(), **options)


def _tip(target, tsc=0):
    return ("packet", TIPPacket(tsc=tsc, target=target))


def _template(op, tsc=0):
    return _tip(TEMPLATES.entry(op), tsc)


def _stub(tsc=0):
    return _tip(TEMPLATES.return_stub_entry, tsc)


def _loss(start, end, bytes_lost=8, packets_lost=1):
    return (
        "loss",
        AuxLossRecord(
            start_tsc=start,
            end_tsc=end,
            bytes_lost=bytes_lost,
            packets_lost=packets_lost,
        ),
    )


def _walked(columns):
    """Blob offsets walked, in order (the jit steps' locations)."""
    return [location[1] for location in columns.locations if location]


def _dispatched(columns):
    """``(op, taken)`` of the interpreted steps, in order."""
    return [
        (op, taken)
        for op, taken, source in zip(
            columns.symbols, columns.takens, columns.sources
        )
        if source == "interp"
    ]


class TestInterpDecoding:
    def test_dispatch_resolves_opcode(self):
        _dec, columns = _decode([_template(Op.ILOAD_0)])
        assert columns.symbols == [Op.ILOAD_0]
        assert columns.takens == [None]
        assert columns.locations == [None]
        assert columns.sources == ["interp"]

    def test_conditional_waits_for_tnt(self):
        stream = [
            _template(Op.IFEQ),
            ("packet", TNTPacket(tsc=1, bits=(True,))),
        ]
        _dec, columns = _decode(stream)
        assert _dispatched(columns) == [(Op.IFEQ, True)]
        assert columns.tscs == [0]  # the dispatch's time, not the bit's

    def test_conditional_without_tnt_is_unknown(self):
        stream = [_template(Op.IFEQ), _template(Op.NOP, tsc=1)]
        decoder, columns = _decode(stream)
        assert _dispatched(columns) == [(Op.IFEQ, None), (Op.NOP, None)]
        assert decoder.stats.by_kind == {AnomalyKind.CONDITIONAL_WITHOUT_TNT: 1}
        assert columns.anomalies == 1

    def test_return_stub_recognised(self):
        # A return into the interpreter lifts to nothing; recognising it
        # shows in the stats (a TIP, no anomaly) and in the anchoring: a
        # stub target after a loss re-anchors the stream, so the next
        # outcome bits bind instead of being rejected as orphans.
        decoder, columns = _decode([_stub()])
        assert columns.step_count() == 0
        assert decoder.stats.tips == 1
        assert decoder.stats.anomalies == 0
        stream = [
            _loss(0, 1),
            _stub(tsc=2),
            ("packet", TNTPacket(tsc=3, bits=(True,))),
            _template(Op.IFEQ, tsc=4),
        ]
        decoder, columns = _decode(stream)
        assert _dispatched(columns) == [(Op.IFEQ, True)]
        assert decoder.stats.tnt_orphaned == 0

    def test_unknown_tip_is_anomaly(self):
        decoder, columns = _decode([_tip(0x1234)])
        assert columns.step_count() == 0
        assert decoder.stats.by_kind == {AnomalyKind.TIP_UNMAPPED: 1}
        assert columns.anomalies == 1

    def test_tsc_packets_ignored(self):
        decoder, columns = _decode([("packet", TSCPacket(tsc=0))])
        assert columns.step_count() == 0
        assert columns.holes() == []
        assert decoder.stats.packets == 1
        assert decoder.stats.anomalies == 0


class TestWalker:
    def test_walk_follows_fallthrough_and_direct_jumps(self):
        # Enter at +0; branch not taken; fall to +9; jmp back to +3;
        # branch taken -> +20 (indirect call: stop).
        stream = [
            _tip(CODE_BASE),
            ("packet", TNTPacket(tsc=1, bits=(False, True))),
        ]
        _dec, columns = _decode(stream)
        assert _walked(columns) == [0, 3, 9, 12, 3, 20]
        assert columns.sources == ["jit"] * 6
        assert columns.symbols == [Op.NOP] * 6

    def test_walk_starves_and_resumes_on_tnt(self):
        stream = [
            _tip(CODE_BASE),  # walks +0, then needs a bit at +3
            ("packet", TNTPacket(tsc=1, bits=(True,))),  # resumes -> +20
        ]
        _dec, columns = _decode(stream)
        assert _walked(columns) == [0, 3, 20]
        assert columns.tscs == [0, 0, 0]  # steps keep the walk's start time

    def test_walk_stops_at_ret_until_next_tip(self):
        stream = [
            _tip(CODE_BASE + 17),  # RET: stop immediately
            _stub(tsc=1),
        ]
        decoder, columns = _decode(stream)
        assert _walked(columns) == [17]
        assert columns.step_count() == 1  # the stub lifts to nothing
        # The walk ended at the RET, so the stub target abandons nothing.
        assert decoder.stats.walks_abandoned == 0
        assert decoder.stats.anomalies == 0

    def test_desynchronised_walk_reports_anomaly(self):
        stream = [_tip(CODE_BASE + 1)]  # mid-instruction address
        decoder, columns = _decode(stream)
        assert decoder.stats.by_kind == {AnomalyKind.WALK_DESYNC: 1}
        assert columns.anomalies == 1
        assert columns.step_count() == 0

    def test_walked_instruction_count_in_stats(self):
        stream = [
            _tip(CODE_BASE),
            ("packet", TNTPacket(tsc=1, bits=(True,))),
        ]
        decoder, _columns = _decode(stream)
        assert decoder.stats.walked_instructions == 3


class TestLossHandling:
    def test_loss_emits_marker_and_clears_bits(self):
        stream = [
            ("packet", TNTPacket(tsc=0, bits=(True, True))),  # orphan bits
            _loss(1, 5, bytes_lost=64, packets_lost=3),
            _template(Op.IFNE, tsc=6),
            ("packet", TNTPacket(tsc=7, bits=(False,))),
        ]
        _dec, columns = _decode(stream)
        holes = columns.holes()
        assert len(holes) == 1
        assert holes[0].bytes_lost == 64
        assert not holes[0].synthetic
        assert columns.hole_positions == [0]
        # The post-loss conditional must bind the *new* bit, not stale ones.
        assert _dispatched(columns) == [(Op.IFNE, False)]

    def test_loss_abandons_suspended_walk(self):
        stream = [
            _tip(CODE_BASE),  # suspends awaiting TNT at +3
            _loss(1, 2),
            ("packet", TNTPacket(tsc=3, bits=(True,))),  # must NOT resume
        ]
        decoder, columns = _decode(stream)
        assert _walked(columns) == [0]
        assert decoder.stats.walks_abandoned == 1

    def test_pending_conditional_flushed_with_unknown_outcome(self):
        stream = [_template(Op.IFEQ), _loss(1, 2)]
        _dec, columns = _decode(stream)
        assert _dispatched(columns) == [(Op.IFEQ, None)]
        assert columns.hole_positions == [1]  # flushed before the hole


class TestAnomalyPaths:
    """Anomaly coverage: orphan post-loss TNT bits, unknown IPs,
    desynchronised walks -- and their propagation into the metrics
    registry and pipeline-level anomaly counts."""

    def test_orphan_tnt_after_loss_is_anomaly_and_dropped(self):
        stream = [
            _loss(0, 4, bytes_lost=32, packets_lost=2),
            # Bits whose branches were dropped with the loss: orphans.
            ("packet", TNTPacket(tsc=5, bits=(True, False))),
            _template(Op.IFEQ, tsc=6),
        ]
        decoder, columns = _decode(stream)
        assert decoder.stats.by_kind[AnomalyKind.ORPHAN_TNT] == 1
        assert decoder.stats.tnt_orphaned == 2
        # The orphan bits must NOT bind the post-loss conditional.
        assert _dispatched(columns) == [(Op.IFEQ, None)]
        assert decoder.stats.anomalies == columns.anomalies

    def test_tnt_resynchronises_after_first_post_loss_tip(self):
        stream = [
            _loss(0, 4, bytes_lost=32, packets_lost=2),
            _template(Op.IFEQ, tsc=5),
            ("packet", TNTPacket(tsc=6, bits=(True,))),
        ]
        decoder, columns = _decode(stream)
        assert _dispatched(columns) == [(Op.IFEQ, True)]
        assert decoder.stats.anomalies == 0

    def test_anomaly_counters_reach_metrics_registry(self):
        from repro.core.metrics import MetricsRegistry

        registry = MetricsRegistry()
        decoder, _columns = _decode(
            [
                _tip(0x1234),  # unknown IP
                _tip(CODE_BASE + 1, tsc=1),  # desync
            ],
            metrics=registry,
            tid=5,
        )
        assert decoder.stats.anomalies == 2
        assert registry.counter("decode.anomalies", tid=5) == 2
        assert registry.counter("decode.anomalies") == 2
        assert registry.counter("decode.anomalies", tid=0) == 0
        assert registry.counter("decode.tips", tid=5) == 2

    def test_desynchronised_walk_counts_once_per_bad_address(self):
        stream = [
            _tip(CODE_BASE + 1),  # mid-instruction: desynchronised
            _tip(CODE_BASE + 2, tsc=1),
        ]
        decoder, _columns = _decode(stream)
        assert decoder.stats.by_kind == {AnomalyKind.WALK_DESYNC: 2}

    def test_pipeline_propagates_anomalies_to_result_and_metrics(self):
        """An unfiltered collection traces non-code addresses; the decoder
        flags them and the counts surface on JPortalResult, the per-thread
        breakdown, and the metrics registry consistently."""
        from repro.core import JPortal
        from repro.jvm.assembler import MethodAssembler
        from repro.jvm.jit import JITPolicy
        from repro.jvm.model import JClass, JProgram
        from repro.jvm.runtime import RuntimeConfig, run_program
        from repro.jvm.verifier import verify_program
        from repro.pt.buffer import RingBufferConfig
        from repro.pt.perf import PTConfig

        asm = MethodAssembler("T", "main", arg_count=0, returns_value=True)
        asm.const(200).store(0)
        asm.label("head")
        asm.load(0).ifle("done")
        asm.const(1).newarray().pop()
        asm.iinc(0, -1).goto("head")
        asm.label("done")
        asm.const(0).ireturn()
        program = JProgram("noisy")
        cls = JClass("T")
        cls.add_method(asm.build())
        program.add_class(cls)
        program.set_entry("T", "main")
        verify_program(program)
        run = run_program(
            program,
            RuntimeConfig(
                cores=1,
                gc_period_allocations=30,
                emit_runtime_noise=True,
                jit=JITPolicy(hot_threshold=10**9),
            ),
        )
        config = PTConfig(
            buffer=RingBufferConfig(capacity_bytes=10**9, drain_bandwidth=1e9),
            ip_filter=False,
        )
        result = JPortal(program).analyze_run(run, config)
        assert result.anomalies > 0
        assert result.metrics.counter("decode.anomalies") == result.anomalies
        per_thread = sum(
            breakdown.anomalies
            for breakdown in result.timings.per_thread.values()
        )
        assert per_thread == result.anomalies


class TestAsyncAndPauses:
    def test_fup_abandons_walk(self):
        stream = [
            _tip(CODE_BASE),
            ("packet", FUPPacket(tsc=1, ip=CODE_BASE + 3)),
            ("packet", TNTPacket(tsc=2, bits=(True,))),
        ]
        _dec, columns = _decode(stream)
        assert _walked(columns) == [0]

    def test_pge_pgd_do_not_disturb_suspended_walk(self):
        stream = [
            _tip(CODE_BASE),
            ("packet", PGDPacket(tsc=1, ip=CODE_BASE + 3)),
            ("packet", PGEPacket(tsc=5, ip=CODE_BASE + 3)),
            ("packet", TNTPacket(tsc=6, bits=(True,))),
        ]
        _dec, columns = _decode(stream)
        assert _walked(columns) == [0, 3, 20]

    def test_end_of_stream_flushes_pending(self):
        # A conditional whose bit never arrives is emitted with unknown
        # outcome AND recorded as an anomaly (same as the TIP flush path).
        decoder, columns = _decode([_template(Op.IFLT)])
        assert _dispatched(columns) == [(Op.IFLT, None)]
        assert decoder.stats.by_kind == {AnomalyKind.CONDITIONAL_WITHOUT_TNT: 1}
        assert decoder.stats.anomalies == columns.anomalies == 1


class TestDegradation:
    """Resync protocol, error budget, and the no-crash contract."""

    def test_resync_discards_tnt_until_valid_anchor(self):
        stream = [
            _tip(0x1234),  # unmapped: desync
            ("packet", TNTPacket(tsc=1, bits=(True, False))),
            ("packet", TNTPacket(tsc=2, bits=(True,))),
            _template(Op.NOP, tsc=3),  # valid anchor
        ]
        decoder, columns = _decode(stream)
        assert decoder.stats.by_kind == {
            AnomalyKind.TIP_UNMAPPED: 1,
            AnomalyKind.TNT_DISCARDED_DESYNC: 2,
        }
        assert decoder.stats.tnt_discarded == 3
        assert _dispatched(columns) == [(Op.NOP, None)]

    def test_resync_rejects_second_invalid_tip(self):
        stream = [
            _tip(0x1234),
            _tip(0x5678, tsc=1),  # still invalid
            _template(Op.NOP, tsc=2),
        ]
        decoder, columns = _decode(stream)
        assert decoder.stats.by_kind == {AnomalyKind.TIP_UNMAPPED: 2}
        assert _dispatched(columns) == [(Op.NOP, None)]

    def test_legacy_mode_buffers_tnt_across_bad_tip(self):
        # resync=False preserves the lenient pre-policy behaviour: bits
        # arriving after an unmapped TIP stay buffered and bind the next
        # conditional.
        stream = [
            _tip(0x1234),
            ("packet", TNTPacket(tsc=1, bits=(True,))),
            _template(Op.IFEQ, tsc=2),
        ]
        decoder, columns = _decode(
            stream, policy=DegradationPolicy(resync=False)
        )
        assert _dispatched(columns) == [(Op.IFEQ, True)]
        assert decoder.stats.tnt_discarded == 0

    def test_walk_desync_enters_resync(self):
        stream = [
            _tip(CODE_BASE + 1),  # mid-instruction: walk desyncs
            ("packet", TNTPacket(tsc=1, bits=(False,))),
            _template(Op.NOP, tsc=2),
        ]
        decoder, columns = _decode(stream)
        assert decoder.stats.by_kind == {
            AnomalyKind.WALK_DESYNC: 1,
            AnomalyKind.TNT_DISCARDED_DESYNC: 1,
        }
        assert _dispatched(columns) == [(Op.NOP, None)]

    def test_error_budget_declares_synthetic_hole(self):
        policy = DegradationPolicy(max_anomalies_per_segment=3)
        stream = [_tip(0x1000 + t, tsc=t) for t in range(3)]
        decoder, columns = _decode(stream, policy=policy)
        holes = columns.holes()
        assert len(holes) == 1
        assert holes[0].synthetic is True
        assert holes[0].start_tsc == 0 and holes[0].end_tsc == 2
        assert holes[0].bytes_lost == 0
        assert decoder.stats.synthetic_holes == 1
        # A synthetic hole is not a (physical) loss.
        assert decoder.stats.losses == 0

    def test_budget_resets_each_segment(self):
        policy = DegradationPolicy(max_anomalies_per_segment=2)
        stream = [
            _tip(0x1000),
            _loss(1, 2, bytes_lost=9),
            _tip(0x1000, tsc=3),
        ]
        decoder, _columns = _decode(stream, policy=policy)
        # One anomaly per segment: the budget of 2 is never reached.
        assert decoder.stats.synthetic_holes == 0

    def test_budget_disabled_with_none(self):
        policy = DegradationPolicy(max_anomalies_per_segment=None)
        stream = [_tip(0x1000 + t, tsc=t) for t in range(200)]
        decoder, _columns = _decode(stream, policy=policy)
        assert decoder.stats.synthetic_holes == 0

    def test_garbage_stream_never_raises(self):
        stream = [
            ("packet", "not a packet"),
            ("loss", None),
            ("wat", TSCPacket(tsc=0)),
            ("packet", 17),
        ]
        decoder, columns = _decode(stream)
        kinds = set(decoder.stats.by_kind)
        assert kinds <= {AnomalyKind.DECODER_ERROR, AnomalyKind.MALFORMED_ITEM}
        # Every entry degraded into exactly one anomaly, nothing else.
        assert decoder.stats.anomalies == columns.anomalies == len(stream)
        assert columns.step_count() == 0
        assert columns.holes() == []

    def test_by_kind_sums_to_anomalies(self):
        stream = [
            _tip(0x1234),
            ("packet", TNTPacket(tsc=1, bits=(True,))),
            _template(Op.IFLT, tsc=2),
        ]
        decoder, _columns = _decode(stream)
        assert sum(decoder.stats.by_kind.values()) == decoder.stats.anomalies

    def test_per_kind_metrics_published(self):
        from repro.core.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        _decode([_tip(0x1234)], metrics=metrics, tid=7)
        assert metrics.counter("decode.anomaly.tip_unmapped", tid=7) == 1
        assert metrics.counter("decode.anomalies", tid=7) == 1

    def test_fup_abandon_counts_walk_not_anomaly_item(self):
        stream = [
            _tip(CODE_BASE),  # suspends at the branch awaiting a bit
            ("packet", FUPPacket(tsc=1, ip=CODE_BASE + 3)),
        ]
        decoder, columns = _decode(stream)
        assert decoder.stats.walks_abandoned == 1
        assert decoder.stats.anomalies == columns.anomalies == 0
