"""Unit tests for the RISC-V E-Trace frontend.

Packet model (branch-map capacity, delta compression), encoder
behaviour (flush invariants, periodic sync), serialisation round trips
through the shared RPT1 codec registry, and the frontend registry
entry itself.
"""

import io

import pytest

from repro.etrace import (
    BRANCH_MAP_MAX_BITS,
    ETraceEncoder,
    ETraceEncoderConfig,
    encode_core,
)
from repro.etrace.packets import (
    ETAddressPacket,
    ETBranchMapPacket,
    ETDisablePacket,
    ETEnablePacket,
    ETSyncPacket,
    ETTimePacket,
    ETTrapPacket,
    delta_address_size,
)
from repro.etrace.serialize import VALID_ET_ADDRESS_SIZES
from repro.jvm.machine import (
    DisableEvent,
    EnableEvent,
    FupEvent,
    TipEvent,
    TntEvent,
)
from repro.pt.serialize import TraceFormatError, dump_bytes, load_bytes
from repro.tracesource import frontend_names, get_frontend
from repro.tracesource.events import (
    AsyncEvent,
    ConditionalOutcomes,
    IndirectTarget,
    TimeRef,
    TraceDisable,
    TraceEnable,
)


def _tnts(count, start_tsc=100, taken=True):
    return [TntEvent(tsc=start_tsc + i, taken=taken) for i in range(count)]


class TestPackets:
    def test_branch_map_packs_up_to_31_bits(self):
        packet = ETBranchMapPacket(tsc=1, bits=(True,) * BRANCH_MAP_MAX_BITS)
        assert len(packet.bits) == 31
        # Header byte + 4 bytes holding 31 packed bits.
        assert packet.size == 5

    def test_branch_map_rejects_empty_and_oversized(self):
        with pytest.raises(ValueError):
            ETBranchMapPacket(tsc=1, bits=())
        with pytest.raises(ValueError):
            ETBranchMapPacket(tsc=1, bits=(False,) * (BRANCH_MAP_MAX_BITS + 1))

    def test_branch_map_size_grows_per_byte(self):
        assert ETBranchMapPacket(tsc=1, bits=(True,) * 8).size == 2
        assert ETBranchMapPacket(tsc=1, bits=(True,) * 9).size == 3

    def test_delta_address_size_boundaries(self):
        base = 0x10000
        assert delta_address_size(base + 127, base) == 2
        assert delta_address_size(base - 128, base) == 2
        assert delta_address_size(base + 128, base) == 3
        assert delta_address_size(base + (1 << 15), base) == 5
        assert delta_address_size(base + (1 << 31), base) == 9

    def test_packets_subclass_the_engine_bases(self):
        assert issubclass(ETBranchMapPacket, ConditionalOutcomes)
        assert issubclass(ETAddressPacket, IndirectTarget)
        assert issubclass(ETSyncPacket, IndirectTarget)
        assert issubclass(ETTrapPacket, AsyncEvent)
        assert issubclass(ETEnablePacket, TraceEnable)
        assert issubclass(ETDisablePacket, TraceDisable)
        assert issubclass(ETTimePacket, TimeRef)


class TestEncoder:
    def test_bits_accumulate_to_capacity(self):
        packets = ETraceEncoder().encode(_tnts(BRANCH_MAP_MAX_BITS))
        maps = [p for p in packets if isinstance(p, ETBranchMapPacket)]
        assert len(maps) == 1
        assert len(maps[0].bits) == BRANCH_MAP_MAX_BITS

    def test_thirty_second_bit_opens_new_map(self):
        packets = ETraceEncoder().encode(_tnts(BRANCH_MAP_MAX_BITS + 1))
        maps = [p for p in packets if isinstance(p, ETBranchMapPacket)]
        assert [len(m.bits) for m in maps] == [BRANCH_MAP_MAX_BITS, 1]

    def test_address_flushes_pending_map(self):
        events = _tnts(3) + [TipEvent(tsc=200, target=0x2000)]
        packets = ETraceEncoder().encode(events)
        kinds = [type(p).__name__ for p in packets]
        assert kinds.index("ETBranchMapPacket") < kinds.index("ETSyncPacket")

    def test_first_address_is_sync_then_deltas(self):
        events = [
            TipEvent(tsc=100, target=0x2000),
            TipEvent(tsc=101, target=0x2040),
            TipEvent(tsc=102, target=0x2080),
        ]
        packets = [
            p for p in ETraceEncoder().encode(events)
            if isinstance(p, IndirectTarget)
        ]
        assert isinstance(packets[0], ETSyncPacket)
        assert isinstance(packets[1], ETAddressPacket)
        assert isinstance(packets[2], ETAddressPacket)
        assert packets[1].compressed_size == 2  # |delta| = 0x40

    def test_periodic_sync_resynchronises(self):
        config = ETraceEncoderConfig(sync_interval=2)
        events = [
            TipEvent(tsc=100 + i, target=0x2000 + 8 * i) for i in range(6)
        ]
        packets = [
            p for p in ETraceEncoder(config).encode(events)
            if isinstance(p, IndirectTarget)
        ]
        # sync, delta, delta, sync, delta, delta.
        assert [isinstance(p, ETSyncPacket) for p in packets] == [
            True, False, False, True, False, False,
        ]

    def test_trailing_bits_flushed_at_end(self):
        packets = ETraceEncoder().encode(_tnts(4))
        maps = [p for p in packets if isinstance(p, ETBranchMapPacket)]
        assert len(maps) == 1 and len(maps[0].bits) == 4

    def test_all_event_kinds_encode(self):
        events = [
            EnableEvent(tsc=10, ip=0x1000),
            TntEvent(tsc=11, taken=True),
            TipEvent(tsc=12, target=0x2000),
            FupEvent(tsc=13, ip=0x2004),
            DisableEvent(tsc=14, ip=0x2008),
        ]
        packets = encode_core(events)
        names = {type(p).__name__ for p in packets}
        assert {
            "ETTimePacket", "ETEnablePacket", "ETBranchMapPacket",
            "ETSyncPacket", "ETTrapPacket", "ETDisablePacket",
        } <= names

    def test_stats_count_through_the_bases(self):
        encoder = ETraceEncoder()
        encoder.encode(_tnts(5) + [TipEvent(tsc=200, target=0x2000)])
        assert encoder.stats.tnt_bits == 5
        assert encoder.stats.tips == 1
        assert encoder.stats.packets > 0
        assert encoder.stats.bytes > 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ETraceEncoderConfig(branch_map_capacity=0)
        with pytest.raises(ValueError):
            ETraceEncoderConfig(branch_map_capacity=BRANCH_MAP_MAX_BITS + 1)

    def test_encoders_do_not_share_config(self):
        """Regression: a shared default-argument config instance let one
        encoder's tuning leak into every other default-constructed one."""
        first = ETraceEncoder()
        second = ETraceEncoder()
        assert first.config is not second.config
        first.config.sync_interval = 1
        assert second.config.sync_interval == 64


class TestSerialization:
    def _roundtrip(self, packets):
        stream = [("packet", p) for p in packets]
        assert load_bytes(dump_bytes(stream)) == stream

    def test_all_packet_kinds_round_trip(self):
        self._roundtrip([
            ETTimePacket(tsc=1),
            ETEnablePacket(tsc=2, ip=0x1000),
            ETBranchMapPacket(tsc=3, bits=(True, False, True)),
            ETBranchMapPacket(tsc=4, bits=(False,) * BRANCH_MAP_MAX_BITS),
            ETSyncPacket(tsc=5, target=0xDEAD_BEEF_0000),
            ETAddressPacket(tsc=6, target=0x2040, compressed_size=2),
            ETTrapPacket(tsc=7, ip=0x2050),
            ETDisablePacket(tsc=8, ip=0x2060),
        ])

    def test_encoded_stream_round_trips(self):
        events = _tnts(40) + [
            TipEvent(tsc=500, target=0x2000),
            TipEvent(tsc=501, target=0x2100),
        ]
        self._roundtrip(ETraceEncoder().encode(events))

    def test_invalid_address_size_rejected_on_write(self):
        packet = ETAddressPacket(tsc=1, target=0x2000, compressed_size=4)
        with pytest.raises(TraceFormatError):
            dump_bytes([("packet", packet)])

    def test_invalid_address_size_rejected_on_read(self):
        good = dump_bytes([
            ("packet", ETAddressPacket(tsc=1, target=0x2000, compressed_size=2))
        ])
        # Tag(1) + tsc(8) puts the size byte at offset 4 + 9.
        bad = bytearray(good)
        bad[4 + 9] = 4
        with pytest.raises(TraceFormatError):
            load_bytes(bytes(bad))
        assert 4 not in VALID_ET_ADDRESS_SIZES

    def test_branch_map_count_validated_on_read(self):
        good = dump_bytes([
            ("packet", ETBranchMapPacket(tsc=1, bits=(True, False)))
        ])
        bad = bytearray(good)
        bad[4 + 9] = BRANCH_MAP_MAX_BITS + 1  # count byte after tag + tsc
        with pytest.raises(TraceFormatError):
            load_bytes(bytes(bad))


class TestRegistry:
    def test_frontend_registered(self):
        frontend = get_frontend("etrace")
        assert frontend.name == "etrace"
        assert frontend.make_encoder is ETraceEncoder
        assert frontend.encoder_config_type is ETraceEncoderConfig
        assert "etrace" in frontend_names() and "pt" in frontend_names()

    def test_unknown_frontend_raises(self):
        with pytest.raises(KeyError):
            get_frontend("no-such-frontend")

    def test_shared_engines(self):
        from repro.pt.decoder import PTBatchDecoder

        frontend = get_frontend("etrace")
        assert frontend.batch_decoder is PTBatchDecoder
