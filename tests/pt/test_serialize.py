"""Tests for binary trace serialisation (incl. hypothesis round-trips)."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.core.multicore import split_by_thread
from repro.jvm.runtime import RuntimeConfig, run_program
from repro.pt.packets import (
    AuxLossRecord,
    FUPPacket,
    PGDPacket,
    PGEPacket,
    TIPPacket,
    TNTPacket,
    TSCPacket,
)
from repro.pt.perf import collect
from repro.pt.serialize import (
    VALID_TIP_SIZES,
    TraceFormatError,
    dump_bytes,
    iter_stream,
    load_bytes,
    read_stream,
)

from ..conftest import (
    build_figure2_program,
    decode_columns,
    lossless_config,
    lossy_config,
)

# ------------------------------------------------------------------ strategies
tscs = st.integers(0, 2**60)
ips = st.integers(0, 2**62)

packet_strategy = st.one_of(
    st.builds(PGEPacket, tsc=tscs, ip=ips),
    st.builds(PGDPacket, tsc=tscs, ip=ips),
    st.builds(FUPPacket, tsc=tscs, ip=ips),
    st.builds(TSCPacket, tsc=tscs),
    st.builds(
        TNTPacket,
        tsc=tscs,
        bits=st.lists(st.booleans(), min_size=1, max_size=6).map(tuple),
    ),
    st.builds(
        TIPPacket,
        tsc=tscs,
        target=ips,
        compressed_size=st.sampled_from([3, 5, 9]),
    ),
)

loss_strategy = st.builds(
    AuxLossRecord,
    start_tsc=tscs,
    end_tsc=tscs,
    bytes_lost=st.integers(0, 2**40),
    packets_lost=st.integers(0, 2**31 - 1),
)

item_strategy = st.one_of(
    packet_strategy.map(lambda p: ("packet", p)),
    loss_strategy.map(lambda l: ("loss", l)),
)


class TestRoundTrip:
    @given(st.lists(item_strategy, max_size=80))
    @settings(max_examples=120)
    def test_dump_load_identity(self, stream):
        assert load_bytes(dump_bytes(stream)) == stream

    def test_empty_stream(self):
        assert load_bytes(dump_bytes([])) == []

    def test_real_trace_roundtrip(self):
        run = run_program(build_figure2_program(100), RuntimeConfig(cores=1))
        trace = collect(run, lossy_config())
        from repro.pt.buffer import interleave_with_losses, BufferResult

        core = trace.cores[0]
        stream = []
        loss_iter = iter(core.losses)
        next_loss = next(loss_iter, None)
        for packet in core.packets:
            while next_loss is not None and next_loss.start_tsc <= packet.tsc:
                stream.append(("loss", next_loss))
                next_loss = next(loss_iter, None)
            stream.append(("packet", packet))
        while next_loss is not None:
            stream.append(("loss", next_loss))
            next_loss = next(loss_iter, None)
        assert load_bytes(dump_bytes(stream)) == stream

    def test_decode_from_serialized_trace(self):
        """The full offline path works from a deserialised file."""
        program = build_figure2_program(60)
        run = run_program(program, RuntimeConfig(cores=1))
        trace = collect(run, lossless_config())
        threads = split_by_thread(trace)
        data = dump_bytes(threads[0].stream)
        restored = load_bytes(data)
        database = collect_metadata(run)
        direct = decode_columns(threads[0].stream, database, program)[1]
        reloaded = decode_columns(restored, database, program)[1]
        assert direct.step_count() > 0
        assert reloaded == direct


class TestFormatErrors:
    def test_bad_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            read_stream(io.BytesIO(b"XXXX"))

    def test_truncated_payload(self):
        data = dump_bytes([("packet", TSCPacket(tsc=1))])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_bytes(data[:-2])

    def test_unknown_tag(self):
        data = b"RPT1" + b"\xff"
        with pytest.raises(TraceFormatError, match="unknown tag"):
            load_bytes(data)

    def test_invalid_tnt_count(self):
        import struct

        data = b"RPT1" + struct.pack("<BQBB", 0x03, 0, 9, 0)
        with pytest.raises(TraceFormatError, match="TNT count"):
            load_bytes(data)

    def test_invalid_tip_size_on_read(self):
        import struct

        data = b"RPT1" + struct.pack("<BQBQ", 0x04, 0, 7, 0x1000)
        with pytest.raises(TraceFormatError, match="TIP compressed_size"):
            load_bytes(data)

    def test_invalid_tip_size_on_write(self):
        bogus = TIPPacket(tsc=0, target=0x1000, compressed_size=11)
        with pytest.raises(TraceFormatError, match="TIP compressed_size"):
            dump_bytes([("packet", bogus)])

    @given(st.sampled_from(VALID_TIP_SIZES))
    def test_valid_tip_sizes_roundtrip(self, size):
        stream = [("packet", TIPPacket(tsc=5, target=0x2000, compressed_size=size))]
        assert load_bytes(dump_bytes(stream)) == stream


class TestErrorOffsets:
    """Every TraceFormatError carries the byte offset of the failure."""

    def test_truncation_offsets(self):
        stream = [("packet", TSCPacket(tsc=1)), ("packet", PGEPacket(tsc=2, ip=3))]
        data = dump_bytes(stream)
        with pytest.raises(TraceFormatError) as exc:
            load_bytes(data[:-2])
        # First entry is 4 (magic) + 9 bytes; the PGE entry starts at 13.
        assert exc.value.entry_offset == 13
        assert exc.value.offset == len(data) - 2
        assert "offset" in str(exc.value)

    def test_bad_magic_offset(self):
        with pytest.raises(TraceFormatError) as exc:
            read_stream(io.BytesIO(b"XXXX"))
        assert exc.value.offset == 0

    def test_unknown_tag_offset(self):
        data = dump_bytes([("packet", TSCPacket(tsc=1))]) + b"\xff"
        with pytest.raises(TraceFormatError) as exc:
            load_bytes(data)
        assert exc.value.offset == 13
        assert exc.value.entry_offset == 13

    @given(st.lists(item_strategy, min_size=1, max_size=30), st.data())
    @settings(max_examples=60)
    def test_salvage_point_is_valid(self, stream, data_source):
        """``entry_offset`` always points at a clean-prefix boundary:
        re-reading everything before it yields a prefix of the stream."""
        data = dump_bytes(stream)
        cut = data_source.draw(st.integers(5, len(data) - 1), label="cut")
        try:
            load_bytes(data[:cut])
        except TraceFormatError as error:
            prefix = data[:error.entry_offset]
            entries = list(
                iter_stream(io.BytesIO(prefix))
            ) if len(prefix) >= 4 else []
            assert entries == stream[: len(entries)]


class TestIterStream:
    def test_iter_matches_read(self):
        run = run_program(build_figure2_program(60), RuntimeConfig(cores=1))
        trace = collect(run, lossy_config())
        threads = split_by_thread(trace)
        data = dump_bytes(threads[0].stream)
        assert list(iter_stream(io.BytesIO(data))) == read_stream(io.BytesIO(data))

    def test_iter_is_lazy(self):
        """A format error surfaces only when iteration reaches it."""
        data = dump_bytes(
            [("packet", TSCPacket(tsc=1)), ("packet", TSCPacket(tsc=2))]
        )
        iterator = iter_stream(io.BytesIO(data + b"\xff"))
        assert next(iterator) == ("packet", TSCPacket(tsc=1))
        assert next(iterator) == ("packet", TSCPacket(tsc=2))
        with pytest.raises(TraceFormatError, match="unknown tag"):
            next(iterator)

    def test_decoder_accepts_generator(self):
        """The decode pipeline consumes the stream exactly once, so the
        streaming reader plugs in without materialising the list."""
        program = build_figure2_program(60)
        run = run_program(program, RuntimeConfig(cores=1))
        trace = collect(run, lossless_config())
        threads = split_by_thread(trace)
        database = collect_metadata(run)
        data = dump_bytes(threads[0].stream)
        direct = decode_columns(threads[0].stream, database, program)[1]
        streamed = decode_columns(
            iter_stream(io.BytesIO(data)), database, program
        )[1]
        assert direct.step_count() > 0
        assert streamed == direct
