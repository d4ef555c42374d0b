"""Unit tests for the durable ``RPT2`` archive layer.

Covers the commit-length-last writer protocol, versioned metadata
serialisation, the salvage reader's per-fault behaviour, sequence-gap
synthesis, and the legacy ``RPT1`` fallback.  The end-to-end salvage
contract (inject fault -> analyse -> fault visible in the result) lives
in ``tests/integration/test_archive_salvage.py``.
"""

import io
import os
import struct

import pytest

from repro.core import JPortal
from repro.core.metadata import CodeDatabase, collect_metadata
from repro.core.multicore import split_by_thread
from repro.jvm.machine import AddressSpace
from repro.jvm.runtime import RuntimeConfig, run_program
from repro.pt.archive import (
    ArchiveContents,
    ArchiveFormatError,
    ArchiveWriter,
    REC_SEGMENT,
    RECORD_OVERHEAD,
    SalvageStats,
    _in_stream_order,
    _stream_key,
    deserialize_code_dump,
    deserialize_database,
    merge_core_stream,
    read_archive,
    scan_record_spans,
    serialize_code_dump,
    serialize_database,
    write_archive,
)
from repro.pt.packets import AuxLossRecord, TSCPacket
from repro.pt.perf import PTConfig, collect, collect_to_archive
from repro.pt.serialize import dump_bytes

from ..conftest import build_figure2_program, lossless_config, lossy_config


@pytest.fixture(scope="module")
def traced():
    run = run_program(build_figure2_program(120), RuntimeConfig(cores=2))
    trace = collect(run, lossy_config())
    database = collect_metadata(run)
    return run, trace, database


def write_to(tmp_path, trace, database, **kw):
    path = tmp_path / "trace.rpt2"
    report = write_archive(trace, database, path, **kw)
    return path, report


def accounted(stats: SalvageStats) -> int:
    return stats.bytes_salvaged + stats.bytes_dropped + stats.bytes_converted_to_loss


def _entries(spec: str):
    """Entries from a spec like ``"p1 l2 p2"``: a packet or a loss at a
    tick."""
    entries = []
    for word in spec.split():
        tsc = int(word[1:])
        if word[0] == "l":
            entries.append(("loss", AuxLossRecord(tsc, tsc + 5, 64, 2)))
        else:
            entries.append(("packet", TSCPacket(tsc=tsc)))
    return entries


class TestStreamOrder:
    """The reader re-sorts a core's entries only when they are out of
    canonical order (TSC order, packets before losses within a tick)."""

    @pytest.mark.parametrize(
        "spec, in_order",
        [
            ("", True),
            ("l3", True),
            ("p1 p2 p2 p3", True),
            ("p2 p1", False),
            ("p1 l1", True),
            ("l1 p1", False),
            ("l1 l1 p2", True),
            ("p1 l2 p2", False),
            ("p1 l3 p2", False),
            ("p1 p2 l2 l2", True),
            ("p1 l2 l2 p2", False),
        ],
    )
    def test_order_check_agrees_with_the_sort(self, spec, in_order):
        entries = _entries(spec)
        assert _in_stream_order(entries) is in_order
        assert (sorted(entries, key=_stream_key) == entries) is in_order

    def test_out_of_order_segment_reads_in_canonical_order(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "a.rpt2")
        writer.append_segment(0, _entries("p1 l4"))
        writer.append_segment(0, _entries("p4 p2 l6 p6"))
        writer.append_segment(1, _entries("p1 l2 p3"))
        writer.close()
        cores = read_archive(writer.path).cores
        assert cores[0] == _entries("p1 p2 p4 l4 p6 l6")
        assert cores[1] == _entries("p1 l2 p3")


class TestWriter:
    def test_report_matches_file(self, tmp_path, traced):
        _run, trace, database = traced
        path, report = write_to(tmp_path, trace, database, segment_packets=64)
        assert os.path.getsize(path) == report.bytes_written
        assert report.segments >= len(trace.cores)
        assert os.path.getsize(report.snapshot_path) == report.snapshot_bytes

    def test_segment_spans_cover_stream(self, tmp_path, traced):
        _run, trace, database = traced
        path, report = write_to(tmp_path, trace, database, segment_packets=32)
        spans = scan_record_spans(open(path, "rb").read())
        segments = [span for span in spans if span.rtype == REC_SEGMENT]
        assert len(segments) == report.segments
        # Sequence numbers are dense over all record kinds.
        seqs = sorted(span.seq for span in spans)
        assert seqs == list(range(len(spans)))

    def test_sealed_archive_rejects_appends(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "a.rpt2")
        writer.close()
        with pytest.raises(ValueError, match="sealed"):
            writer.append_segment(0, [])

    def test_abort_leaves_unsealed(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "a.rpt2")
        writer.append_segment(0, [("packet", TSCPacket(tsc=4))])
        writer.abort()
        stats = read_archive(writer.path).stats
        assert not stats.sealed
        assert stats.segments_salvaged == 1
        assert "archive_unsealed" in stats.by_kind()

    def test_torn_write_is_detected_and_dropped(self, tmp_path):
        """A record missing its commit trailer salvages to a loss."""
        writer = ArchiveWriter(tmp_path / "a.rpt2")
        writer.append_segment(0, [("packet", TSCPacket(tsc=4))], tsc_span=(4, 9))
        writer.close()
        data = open(writer.path, "rb").read()
        torn = tmp_path / "torn.rpt2"
        torn.write_bytes(data[:-RECORD_OVERHEAD - 3])  # cut inside segment
        stats = read_archive(torn).stats
        assert stats.segments_salvaged == 0
        assert stats.loss_records_synthesized == 1
        assert "segment_torn" in stats.by_kind()
        assert accounted(stats) == stats.file_size

    def test_crash_mid_snapshot_keeps_old_snapshot(self, tmp_path, traced):
        """temp+rename: a torn snapshot write never clobbers the live one."""
        _run, trace, database = traced
        path, _report = write_to(tmp_path, trace, database)
        snapshot_path = str(path) + ".meta"
        before = open(snapshot_path, "rb").read()
        # Simulate a crash that leaves only the temp file half-written.
        with open(snapshot_path + ".tmp", "wb") as sink:
            sink.write(b"RPM2\x00partial")
        assert open(snapshot_path, "rb").read() == before
        contents = read_archive(path)
        assert contents.database is not None
        assert contents.stats.metadata_snapshots_missing == 0


class TestMetadataSerialization:
    def test_code_dump_roundtrip(self, traced):
        _run, _trace, database = traced
        assert database.code_dumps, "fixture must JIT-compile something"
        for dump in database.code_dumps:
            restored = deserialize_code_dump(serialize_code_dump(dump))
            assert restored.qname == dump.qname
            assert restored.entry == dump.entry
            assert restored.limit == dump.limit
            assert restored.load_tsc == dump.load_tsc
            assert restored.unload_tsc == dump.unload_tsc
            assert restored.declared_debug_count == dump.declared_debug_count
            assert restored.debug == dump.debug
            assert [
                (mi.address, mi.size, mi.kind, mi.target) for mi in restored.instructions
            ] == [
                (mi.address, mi.size, mi.kind, mi.target) for mi in dump.instructions
            ]

    def test_database_roundtrip(self, traced):
        _run, _trace, database = traced
        restored = deserialize_database(serialize_database(database))
        assert restored.template_metadata == database.template_metadata
        assert len(restored.code_dumps) == len(database.code_dumps)
        space, restored_space = database.address_space, restored.address_space
        assert restored_space.template_base == space.template_base
        assert restored_space.code_cache_base == space.code_cache_base
        assert restored_space.code_cache_limit == space.code_cache_limit

    def test_snapshot_excludes_dumps_when_asked(self, traced):
        _run, _trace, database = traced
        restored = deserialize_database(
            serialize_database(database, include_dumps=False)
        )
        assert restored.code_dumps == []
        assert restored.template_metadata == database.template_metadata

    def test_truncated_database_blob_raises_with_offset(self, traced):
        _run, _trace, database = traced
        blob = serialize_database(database)
        with pytest.raises(ArchiveFormatError) as exc:
            deserialize_database(blob[: len(blob) // 2])
        assert exc.value.offset > 0

    def test_with_dumps_dedups_by_identity(self, traced):
        _run, _trace, database = traced
        merged = database.with_dumps(list(database.code_dumps))
        assert len(merged.code_dumps) == len(database.code_dumps)


class TestSalvageReader:
    def test_clean_archive_is_clean(self, tmp_path, traced):
        _run, trace, database = traced
        path, _report = write_to(tmp_path, trace, database)
        stats = read_archive(path).stats
        assert stats.clean
        assert stats.sealed
        assert stats.events == []
        assert accounted(stats) == stats.file_size == os.path.getsize(path)

    def test_decoded_streams_match_original(self, tmp_path, traced):
        """Per-core salvaged streams equal the canonical merged streams."""
        _run, trace, database = traced
        path, _report = write_to(tmp_path, trace, database, segment_packets=48)
        contents = read_archive(path)
        for core_trace in trace.cores:
            merged = merge_core_stream(core_trace.packets, core_trace.losses)
            assert contents.cores.get(core_trace.core, []) == merged
        assert contents.thread_switches == list(trace.thread_switches)

    def test_dropped_segment_becomes_gap_loss(self, tmp_path, traced):
        _run, trace, database = traced
        path, _report = write_to(tmp_path, trace, database, segment_packets=32)
        data = open(path, "rb").read()
        segments = [
            span for span in scan_record_spans(data) if span.rtype == REC_SEGMENT
        ]
        victim = segments[len(segments) // 2]
        mutated = data[: victim.start] + data[victim.end :]
        damaged = tmp_path / "gap.rpt2"
        damaged.write_bytes(mutated)
        stats = read_archive(damaged, snapshot_path=str(path) + ".meta").stats
        assert stats.sequence_gaps == 1
        assert stats.loss_records_synthesized >= 1
        assert "segment_gap" in stats.by_kind()
        assert accounted(stats) == len(mutated)

    def test_duplicate_segment_dropped_once(self, tmp_path, traced):
        _run, trace, database = traced
        path, _report = write_to(tmp_path, trace, database, segment_packets=32)
        data = open(path, "rb").read()
        segments = [
            span for span in scan_record_spans(data) if span.rtype == REC_SEGMENT
        ]
        victim = segments[0]
        clone = data[victim.start : victim.end]
        mutated = data[: victim.end] + clone + data[victim.end :]
        damaged = tmp_path / "dup.rpt2"
        damaged.write_bytes(mutated)
        contents = read_archive(damaged, snapshot_path=str(path) + ".meta")
        stats = contents.stats
        assert stats.sequence_duplicates == 1
        assert "segment_duplicate" in stats.by_kind()
        assert stats.bytes_dropped == len(clone)
        assert accounted(stats) == len(mutated)
        # The stream decodes as if the duplicate never existed.
        clean = read_archive(path)
        assert contents.cores == clean.cores

    def test_payload_corruption_converts_to_loss(self, tmp_path, traced):
        _run, trace, database = traced
        path, _report = write_to(tmp_path, trace, database, segment_packets=32)
        data = bytearray(open(path, "rb").read())
        segments = [
            span for span in scan_record_spans(bytes(data)) if span.rtype == REC_SEGMENT
        ]
        victim = segments[1]
        # Flip a byte in the middle of the payload (past the 40-byte framing).
        data[victim.start + RECORD_OVERHEAD] ^= 0xFF
        damaged = tmp_path / "rot.rpt2"
        damaged.write_bytes(bytes(data))
        stats = read_archive(damaged, snapshot_path=str(path) + ".meta").stats
        assert "segment_crc_mismatch" in stats.by_kind()
        assert stats.loss_records_synthesized >= 1
        assert accounted(stats) == len(data)

    def test_missing_snapshot_degrades_to_journal(self, tmp_path, traced):
        _run, trace, database = traced
        path, _report = write_to(tmp_path, trace, database)
        os.unlink(str(path) + ".meta")
        contents = read_archive(path)
        stats = contents.stats
        assert stats.metadata_snapshots_missing == 1
        assert "metadata_snapshot_missing" in stats.by_kind()
        assert contents.database is None
        fallback = contents.database_or_empty()
        # Journaled dumps still decode JIT code; template table is gone.
        assert len(fallback.code_dumps) == len(contents.journal_dumps)
        assert fallback.template_metadata == {}

    def test_strict_mode_raises_on_first_event(self, tmp_path, traced):
        _run, trace, database = traced
        path, _report = write_to(tmp_path, trace, database)
        os.unlink(str(path) + ".meta")
        with pytest.raises(ArchiveFormatError, match="metadata_snapshot_missing"):
            read_archive(path, strict=True)

    def test_empty_and_garbage_never_raise(self, tmp_path):
        cases = {
            "empty.rpt2": b"",
            "tiny.rpt2": b"RP",
            "badmagic.rpt2": b"XXXX" + b"\x07" * 64,
            "zeros.rpt2": b"\x00" * 512,
        }
        for name, payload in cases.items():
            target = tmp_path / name
            target.write_bytes(payload)
            stats = read_archive(target).stats
            assert accounted(stats) == len(payload), name

    def test_garbage_between_records_is_resynced(self, tmp_path, traced):
        _run, trace, database = traced
        path, _report = write_to(tmp_path, trace, database, segment_packets=32)
        data = open(path, "rb").read()
        segments = [
            span for span in scan_record_spans(data) if span.rtype == REC_SEGMENT
        ]
        victim = segments[1]
        junk = b"\xde\xad\xbe\xef" * 8
        mutated = data[: victim.start] + junk + data[victim.start :]
        damaged = tmp_path / "junk.rpt2"
        damaged.write_bytes(mutated)
        contents = read_archive(damaged, snapshot_path=str(path) + ".meta")
        stats = contents.stats
        assert stats.bytes_dropped >= len(junk)
        assert accounted(stats) == len(mutated)
        # All real segments still decode.
        assert contents.cores == read_archive(path).cores


class TestLegacyFallback:
    def test_rpt1_file_reads_as_single_segment(self, tmp_path, traced):
        run, _trace, database = traced
        trace = collect(run, lossless_config())
        core = trace.cores[0]
        blob = dump_bytes(merge_core_stream(core.packets, core.losses))
        path = tmp_path / "legacy.rpt1"
        path.write_bytes(blob)
        contents = read_archive(path)
        stats = contents.stats
        assert stats.legacy
        assert stats.segments_salvaged == 1
        assert contents.cores[0] == merge_core_stream(core.packets, core.losses)
        assert accounted(stats) == len(blob)

    def test_truncated_rpt1_salvages_prefix(self, tmp_path, traced):
        run, _trace, _database = traced
        trace = collect(run, lossless_config())
        core = trace.cores[0]
        full = merge_core_stream(core.packets, core.losses)
        blob = dump_bytes(full)
        path = tmp_path / "legacy_trunc.rpt1"
        path.write_bytes(blob[: len(blob) * 2 // 3])
        contents = read_archive(path)
        stats = contents.stats
        assert stats.legacy
        assert "archive_malformed" in stats.by_kind()
        entries = contents.cores[0]
        # Salvage keeps a clean prefix plus one synthetic trailing loss.
        assert entries[-1][0] == "loss"
        assert entries[:-1] == full[: len(entries) - 1]
        assert accounted(stats) == os.path.getsize(path)


class TestPipelineIntegration:
    def test_analyze_archive_matches_in_memory(self, tmp_path, traced):
        run, trace, database = traced
        program = build_figure2_program(120)
        path = tmp_path / "trace.rpt2"
        config = PTConfig(
            buffer=lossy_config().buffer, archive_segment_packets=64
        )
        collected, collected_db, _report = collect_to_archive(run, path, config)
        jportal = JPortal(program)
        in_memory = jportal.analyze_trace(collected, collected_db)
        from_disk = jportal.analyze_archive(path)
        assert sorted(in_memory.flows) == sorted(from_disk.flows)
        for tid, flow in in_memory.flows.items():
            assert from_disk.flows[tid].flow.entries == flow.flow.entries
        assert from_disk.salvage is not None and from_disk.salvage.clean
        assert in_memory.salvage is None

    def test_salvage_counters_surface_on_result(self, tmp_path, traced):
        run, _trace, _database = traced
        program = build_figure2_program(120)
        path = tmp_path / "trace.rpt2"
        collect_to_archive(run, path, PTConfig(buffer=lossy_config().buffer))
        os.unlink(str(path) + ".meta")
        result = JPortal(program).analyze_archive(path)
        assert result.anomalies_by_kind.get("metadata_snapshot_missing") == 1
        assert result.metrics.counter("archive.metadata_snapshots_missing") == 1
        assert result.salvage.metadata_snapshots_missing == 1

    def test_explicit_database_overrides_sidecar(self, tmp_path, traced):
        run, trace, database = traced
        program = build_figure2_program(120)
        path = tmp_path / "trace.rpt2"
        collect_to_archive(run, path, PTConfig(buffer=lossy_config().buffer))
        os.unlink(str(path) + ".meta")
        jportal = JPortal(program)
        with_db = jportal.analyze_archive(path, database=database)
        reference = jportal.analyze_trace(trace, database)
        for tid, flow in reference.flows.items():
            assert with_db.flows[tid].flow.entries == flow.flow.entries
