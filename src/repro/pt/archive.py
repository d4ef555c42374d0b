"""Durable trace archives: the segmented ``RPT2`` on-disk format.

The paper's online collector "periodically dumps trace packets to files"
and exports JIT metadata *before GC reclaims it* (Sections 3 and 6); the
dump files are the whole contract between the online and offline halves.
The flat ``RPT1`` stream (:mod:`repro.pt.serialize`) honours none of the
durability half of that contract: one torn write makes ``read_stream``
raise and the entire trace is gone, and the
:class:`~repro.core.metadata.CodeDatabase` has no on-disk form at all.
This module is the disk-durability counterpart of the decoder's hostile
-input hardening: damage to an archive degrades into dropped segments and
synthetic loss records, never an exception.

Archive layout (little-endian)::

    "RPT2"                                  file magic (4 bytes)
    record*                                 append-only record sequence

    record := sync(2) header(33) hcrc(4) payload(len) commit(5)
      sync     A5 5A                        resync marker for salvage
      header   u8  type                     1=segment 2=code-dump
                                            3=sideband 4=format 7F=seal
               u32 seq                      archive-wide, contiguous from 0
               u32 core                     producing core (0 for metadata)
               u64 tsc_start, u64 tsc_end   payload's TSC span
               u32 payload_len
               u32 payload_crc32
      hcrc     u32 crc32(header)            header self-check
      payload  type-specific bytes          segment payloads are RPT1
                                            bodies (no magic)
      commit   u8 C3, u32 payload_len       commit-length-last: written
                                            (and flushed) only after the
                                            payload bytes are on disk

A crash between the payload flush and the commit flush leaves a torn
record that the salvage reader detects (commit marker or trailing length
missing/mismatched) and drops without losing anything before or after
it.  :meth:`ArchiveWriter.close` appends an empty **seal** record; an
archive without one was truncated or never closed
(:attr:`~repro.pt.decoder.AnomalyKind.ARCHIVE_UNSEALED`), yet everything
present still salvages.

Metadata travels two ways, mirroring the paper's export timeline:

* a **snapshot** sidecar (``<archive>.meta`` by default) with the
  template-interpreter ranges + address space (collected at JVM init),
  written atomically via temp + ``os.replace``;
* incremental **code-dump journal** records appended to the archive as
  each method is compiled -- the dump-before-GC-reclaim export.

The salvage reader (:func:`read_archive`) **never raises on hostile
files**: a segment with a bad CRC, short payload, missing commit, or a
gap/duplicate in the sequence numbering is dropped and converted into a
synthetic :class:`~repro.pt.packets.AuxLossRecord` spanning its TSC
range, which the decode pipeline routes into the existing
:class:`~repro.core.recovery.RecoveryEngine` hole recovery (Algorithms
3-4).  Legacy ``RPT1`` files are readable through the same entry point,
with best-effort prefix salvage on damage.

Both the one-shot reader and the streaming :class:`ArchiveTailReader`
run on the same resumable scanner, so an archive consumed segment by
segment as it grows yields byte-for-byte the salvage stats and contents
of a batch read of the sealed file.  The crucial difference between the
two modes is the open tail: a reader polling an *unsealed, growing*
archive must treat an incomplete record at EOF as "no trailer yet, more
data coming" -- leaving the bytes pending for the next poll -- whereas
the batch reader (which sees the final file) converts the same bytes
into a torn-record salvage event.  Only :meth:`ArchiveTailReader.finalize`
applies the end-of-file semantics.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..jvm.machine import MachineInstruction, MIKind, ThreadSwitchRecord
from .decoder import AnomalyKind
from .packets import AuxLossRecord
from .serialize import TraceFormatError, iter_entries, write_body

ARCHIVE_MAGIC = b"RPT2"
LEGACY_MAGIC = b"RPT1"
SNAPSHOT_MAGIC = b"RPM2"

#: Format versions for the two metadata payloads (bump on layout change;
#: readers reject versions they do not know -- salvage treats that as a
#: corrupt record, not a crash).
SNAPSHOT_VERSION = 1
CODE_DUMP_VERSION = 1

REC_SEGMENT = 0x01
REC_CODE_DUMP = 0x02
REC_SIDEBAND = 0x03
#: Trace-format declaration: payload is the frontend name (utf-8).
#: Written as the very first record when the archive holds a non-PT
#: stream, so the scanner registers that frontend's entry codecs before
#: any segment body parses.  Absent means ``"pt"`` (legacy archives).
REC_FORMAT = 0x04
REC_SEAL = 0x7F

_KNOWN_TYPES = (REC_SEGMENT, REC_CODE_DUMP, REC_SIDEBAND, REC_FORMAT, REC_SEAL)

_SYNC = b"\xa5\x5a"
_COMMIT = 0xC3
#: type, seq, core, tsc_start, tsc_end, payload_len, payload_crc32
_HEADER = struct.Struct("<BIIQQII")
_HCRC = struct.Struct("<I")
_TRAILER = struct.Struct("<BI")
#: On-disk framing bytes per record (sync + header + hcrc + trailer).
RECORD_OVERHEAD = len(_SYNC) + _HEADER.size + _HCRC.size + _TRAILER.size

_SWITCH = struct.Struct("<IIQ")  # core, tid, tsc


class ArchiveFormatError(TraceFormatError):
    """Raised only in ``strict`` mode; salvage mode never raises it."""


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


# =====================================================================
# Metadata serialisation (versioned)
# =====================================================================


def _pack_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError("string too long to serialise: %d bytes" % len(data))
    out += struct.pack("<H", len(data))
    out += data


class _Cursor:
    """Bounds-checked reader over a metadata payload."""

    def __init__(self, data: bytes, label: str):
        self.data = data
        self.pos = 0
        self.label = label

    def need(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise ArchiveFormatError(
                "truncated %s payload at offset %d" % (self.label, self.pos),
                offset=self.pos,
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return bytes(chunk)

    def unpack(self, layout: str):
        return struct.unpack(layout, self.need(struct.calcsize(layout)))

    def string(self) -> str:
        (length,) = self.unpack("<H")
        return self.need(length).decode("utf-8")


def serialize_code_dump(dump) -> bytes:
    """One :class:`~repro.core.metadata.CodeDump` -> journal payload."""
    out = bytearray(struct.pack("<H", CODE_DUMP_VERSION))
    _pack_str(out, dump.qname)
    out += struct.pack(
        "<QQQQ",
        dump.entry,
        dump.limit,
        dump.load_tsc,
        0 if dump.unload_tsc is None else dump.unload_tsc + 1,
    )
    out += struct.pack(
        "<q",
        -1 if dump.declared_debug_count is None else dump.declared_debug_count,
    )
    out += struct.pack("<I", len(dump.instructions))
    for mi in dump.instructions:
        out += struct.pack(
            "<QHQ", mi.address, mi.size, 0 if mi.target is None else mi.target + 1
        )
        _pack_str(out, mi.kind.value)
        _pack_str(out, mi.text)
    out += struct.pack("<I", len(dump.debug))
    for address in sorted(dump.debug):
        frames = dump.debug[address]
        out += struct.pack("<QH", address, len(frames))
        for qname, bci in frames:
            _pack_str(out, qname)
            out += struct.pack("<q", bci)
    return bytes(out)


def deserialize_code_dump(data: bytes):
    """Parse a journal payload; raises :class:`TraceFormatError` on damage."""
    from ..core.metadata import CodeDump

    cursor = _Cursor(data, "code-dump")
    (version,) = cursor.unpack("<H")
    if version != CODE_DUMP_VERSION:
        raise TraceFormatError("unknown code-dump version %d" % version)
    qname = cursor.string()
    entry, limit, load_tsc, unload_raw = cursor.unpack("<QQQQ")
    (declared,) = cursor.unpack("<q")
    (mi_count,) = cursor.unpack("<I")
    instructions: List[MachineInstruction] = []
    for _ in range(mi_count):
        address, size, target_raw = cursor.unpack("<QHQ")
        kind_value = cursor.string()
        text = cursor.string()
        try:
            kind = MIKind(kind_value)
        except ValueError:
            raise TraceFormatError("unknown instruction kind %r" % kind_value)
        instructions.append(
            MachineInstruction(
                address=address,
                size=size,
                kind=kind,
                target=None if target_raw == 0 else target_raw - 1,
                text=text,
            )
        )
    (debug_count,) = cursor.unpack("<I")
    debug: Dict[int, Tuple[Tuple[str, int], ...]] = {}
    for _ in range(debug_count):
        address, frame_count = cursor.unpack("<QH")
        frames = []
        for _ in range(frame_count):
            frame_qname = cursor.string()
            (bci,) = cursor.unpack("<q")
            frames.append((frame_qname, bci))
        debug[address] = tuple(frames)
    return CodeDump(
        qname=qname,
        entry=entry,
        limit=limit,
        instructions=instructions,
        debug=debug,
        load_tsc=load_tsc,
        unload_tsc=None if unload_raw == 0 else unload_raw - 1,
        declared_debug_count=None if declared < 0 else declared,
    )


def serialize_database(database, include_dumps: bool = True) -> bytes:
    """Versioned :class:`~repro.core.metadata.CodeDatabase` payload.

    ``include_dumps=False`` produces the snapshot the archive writer
    takes at session start -- template ranges + address space only, with
    compiled code travelling through the journal instead.
    """
    out = bytearray(struct.pack("<H", SNAPSHOT_VERSION))
    space = database.address_space
    out += struct.pack(
        "<QQQQQ",
        space.template_base,
        space.template_limit,
        space.code_cache_base,
        space.code_cache_limit,
        space.runtime_base,
    )
    out += struct.pack("<I", len(database.template_metadata))
    for mnemonic in sorted(database.template_metadata):
        _pack_str(out, mnemonic)
        ranges = database.template_metadata[mnemonic]
        out += struct.pack("<I", len(ranges))
        for start, end in ranges:
            out += struct.pack("<QQ", start, end)
    dumps = list(database.code_dumps) if include_dumps else []
    out += struct.pack("<I", len(dumps))
    for dump in dumps:
        blob = serialize_code_dump(dump)
        out += struct.pack("<I", len(blob))
        out += blob
    return bytes(out)


def deserialize_database(data: bytes):
    """Parse a database payload; raises :class:`TraceFormatError`."""
    from ..core.metadata import CodeDatabase
    from ..jvm.machine import AddressSpace

    cursor = _Cursor(data, "snapshot")
    (version,) = cursor.unpack("<H")
    if version != SNAPSHOT_VERSION:
        raise TraceFormatError("unknown snapshot version %d" % version)
    fields = cursor.unpack("<QQQQQ")
    space = AddressSpace(
        template_base=fields[0],
        template_limit=fields[1],
        code_cache_base=fields[2],
        code_cache_limit=fields[3],
        runtime_base=fields[4],
    )
    (template_count,) = cursor.unpack("<I")
    template_metadata: Dict[str, Tuple[Tuple[int, int], ...]] = {}
    for _ in range(template_count):
        mnemonic = cursor.string()
        (range_count,) = cursor.unpack("<I")
        ranges = tuple(cursor.unpack("<QQ") for _ in range(range_count))
        template_metadata[mnemonic] = ranges
    (dump_count,) = cursor.unpack("<I")
    dumps = []
    for _ in range(dump_count):
        (blob_len,) = cursor.unpack("<I")
        dumps.append(deserialize_code_dump(cursor.need(blob_len)))
    return CodeDatabase(template_metadata, dumps, space)


# =====================================================================
# Writer
# =====================================================================


def _tsc_span(entries: Sequence[Tuple[str, object]]) -> Tuple[int, int]:
    lo = hi = 0
    first = True
    for tag, item in entries:
        if tag == "loss":
            start, end = item.start_tsc, item.end_tsc
        else:
            start = end = item.tsc
        if first:
            lo, hi, first = start, end, False
        else:
            lo = min(lo, start)
            hi = max(hi, end)
    return lo, hi


def merge_core_stream(packets, losses) -> List[Tuple[str, object]]:
    """One core's packets + losses as a canonical tagged stream (TSC
    order, packets before losses within a tick)."""
    merged: List[Tuple[str, object]] = [("packet", p) for p in packets]
    merged.extend(("loss", l) for l in losses)
    merged.sort(
        key=lambda entry: (
            entry[1].start_tsc if entry[0] == "loss" else entry[1].tsc,
            entry[0] == "loss",
        )
    )
    return merged


@dataclass
class ArchiveWriteReport:
    """What one export session put on disk."""

    path: str
    snapshot_path: str
    segments: int = 0
    code_dumps: int = 0
    sideband_records: int = 0
    format_records: int = 0
    bytes_written: int = 0
    snapshot_bytes: int = 0


class ArchiveWriter:
    """Append-only ``RPT2`` writer with the commit-length-last protocol.

    Every record's framing and payload are flushed before the 5-byte
    commit trailer (marker + payload length) is written and flushed, so
    the on-disk state is always either "record fully committed" or
    "record detectably torn".  Close appends the seal record.
    """

    def __init__(self, path, snapshot_path=None):
        self.path = str(path)
        self.snapshot_path = (
            str(snapshot_path) if snapshot_path is not None else self.path + ".meta"
        )
        self._sink = open(self.path, "wb")
        self._sink.write(ARCHIVE_MAGIC)
        self._seq = 0
        self._sealed = False
        self.report = ArchiveWriteReport(
            path=self.path, snapshot_path=self.snapshot_path, bytes_written=4
        )

    # ------------------------------------------------------------ records
    def _append(self, rtype: int, core: int, tsc_lo: int, tsc_hi: int,
                payload: bytes) -> int:
        if self._sealed:
            raise ValueError("archive already sealed")
        seq = self._seq
        self._seq += 1
        header = _HEADER.pack(
            rtype, seq, core, tsc_lo, tsc_hi, len(payload), _crc(payload)
        )
        self._sink.write(_SYNC)
        self._sink.write(header)
        self._sink.write(_HCRC.pack(_crc(header)))
        self._sink.write(payload)
        self._sink.flush()
        # Commit-length-last: the record only becomes valid once the
        # trailing (marker, length) pair lands after the payload flush.
        self._sink.write(_TRAILER.pack(_COMMIT, len(payload)))
        self._sink.flush()
        self.report.bytes_written += RECORD_OVERHEAD + len(payload)
        return seq

    def append_segment(
        self,
        core: int,
        entries: Sequence[Tuple[str, object]],
        tsc_span: Optional[Tuple[int, int]] = None,
    ) -> int:
        """Append one per-core chunk of a tagged packet/loss stream."""
        sink = io.BytesIO()
        write_body(entries, sink)
        lo, hi = tsc_span if tsc_span is not None else _tsc_span(entries)
        seq = self._append(REC_SEGMENT, core, lo, hi, sink.getvalue())
        self.report.segments += 1
        return seq

    def append_format(self, name: str) -> int:
        """Declare the archive's trace format (omit for ``"pt"``).

        Must be the first record appended: the salvage scanner parses
        segment bodies as it reaches them, and only a format record seen
        *earlier* in the file gets the right entry codecs registered.
        """
        seq = self._append(REC_FORMAT, 0, 0, 0, name.encode("utf-8"))
        self.report.format_records += 1
        return seq

    def append_code_dump(self, dump) -> int:
        """Journal one compiled-code export (the pre-GC-reclaim dump)."""
        end = dump.load_tsc if dump.unload_tsc is None else dump.unload_tsc
        seq = self._append(
            REC_CODE_DUMP, 0, dump.load_tsc, end, serialize_code_dump(dump)
        )
        self.report.code_dumps += 1
        return seq

    def append_sideband(self, switches: Sequence[ThreadSwitchRecord]) -> int:
        """Append a batch of thread-switch sideband records."""
        out = bytearray(struct.pack("<I", len(switches)))
        for record in switches:
            out += _SWITCH.pack(record.core, record.tid, record.tsc)
        tscs = [record.tsc for record in switches]
        lo = min(tscs) if tscs else 0
        hi = max(tscs) if tscs else 0
        seq = self._append(REC_SIDEBAND, 0, lo, hi, bytes(out))
        self.report.sideband_records += 1
        return seq

    # ----------------------------------------------------------- snapshot
    def snapshot_metadata(self, database, include_dumps: bool = True) -> int:
        """Atomically (temp + rename) replace the metadata snapshot."""
        payload = serialize_database(database, include_dumps=include_dumps)
        blob = (
            SNAPSHOT_MAGIC
            + struct.pack("<II", len(payload), _crc(payload))
            + payload
        )
        temp = self.snapshot_path + ".tmp"
        with open(temp, "wb") as sink:
            sink.write(blob)
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(temp, self.snapshot_path)
        self.report.snapshot_bytes = len(blob)
        return len(blob)

    # -------------------------------------------------------------- close
    def close(self) -> ArchiveWriteReport:
        if not self._sealed:
            self._append(REC_SEAL, 0, 0, 0, b"")
            self._sealed = True
        self._sink.close()
        return self.report

    def abort(self) -> None:
        """Close the file handle without sealing (simulates a crash)."""
        self._sink.close()

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def iter_archive_events(trace, database, segment_packets: int = 256):
    """The canonical record sequence :func:`write_archive` commits.

    Yields, in exact on-disk order, one tuple per record body:

    * ``("format", name)`` -- the trace-format declaration, first, only
      when the trace's frontend is not the implicit ``"pt"``;
    * ``("sideband", switches)`` -- thread-switch batches (all up front);
    * ``("dump", dump)`` -- one code-dump journal record;
    * ``("segment", core, chunk, lo, hi)`` -- one per-core stream chunk.

    Shared between the batch exporter and the streaming/test harnesses
    that commit the same archive record by record, so an incrementally
    grown archive is byte-identical to a batch-written one.
    """
    frontend = getattr(getattr(trace, "config", None), "frontend", "pt") or "pt"
    if frontend != "pt":
        yield ("format", frontend)
    switches = list(trace.thread_switches)
    for start in range(0, len(switches), 1024) or [0]:
        yield ("sideband", switches[start:start + 1024])
    events: List[Tuple[int, int, str, object, object]] = []
    for core_trace in trace.cores:
        merged = merge_core_stream(core_trace.packets, core_trace.losses)
        for start in range(0, len(merged), segment_packets):
            chunk = merged[start:start + segment_packets]
            lo, hi = _tsc_span(chunk)
            events.append((lo, 1, "segment", core_trace.core, (chunk, lo, hi)))
    if database is not None:
        for dump in sorted(database.code_dumps, key=lambda d: d.load_tsc):
            events.append((dump.load_tsc, 0, "dump", 0, dump))
    events.sort(key=lambda event: (event[0], event[1]))
    for _tsc, _rank, kind, core, item in events:
        if kind == "dump":
            yield ("dump", item)
        else:
            chunk, lo, hi = item
            yield ("segment", core, chunk, lo, hi)


def write_archive_event(writer: ArchiveWriter, event) -> int:
    """Commit one :func:`iter_archive_events` tuple; returns its seq."""
    kind = event[0]
    if kind == "format":
        return writer.append_format(event[1])
    if kind == "sideband":
        return writer.append_sideband(event[1])
    if kind == "dump":
        return writer.append_code_dump(event[1])
    if kind == "segment":
        _kind, core, chunk, lo, hi = event
        return writer.append_segment(core, chunk, tsc_span=(lo, hi))
    raise ValueError("unknown archive event %r" % (kind,))


def write_archive(
    trace,
    database,
    path,
    segment_packets: int = 256,
    snapshot_path=None,
    on_segment=None,
) -> ArchiveWriteReport:
    """Export a collected :class:`~repro.pt.perf.PTTrace` + metadata.

    Mirrors the paper's online timeline: the snapshot (template ranges,
    taken at JVM init) goes to the sidecar; thread-switch sideband is
    archived up front; then per-core stream chunks of *segment_packets*
    entries and code-dump journal records interleave in TSC order, each
    dump landing before the first segment that could need it.

    *on_segment*, when given, is called as ``on_segment(seq, core, lo,
    hi)`` after each segment record's commit trailer is flushed -- the
    hook a streaming consumer uses to decode segment-by-segment while
    collection is still running.
    """
    with ArchiveWriter(path, snapshot_path=snapshot_path) as writer:
        if database is not None:
            writer.snapshot_metadata(database, include_dumps=False)
        for event in iter_archive_events(trace, database, segment_packets):
            seq = write_archive_event(writer, event)
            if on_segment is not None and event[0] == "segment":
                on_segment(seq, event[1], event[3], event[4])
        return writer.close()


# =====================================================================
# Salvage reader
# =====================================================================


@dataclass(frozen=True)
class SalvageEvent:
    """One absorbed archive fault."""

    kind: AnomalyKind
    offset: int
    detail: str
    seq: Optional[int] = None
    core: Optional[int] = None


@dataclass
class SalvageStats:
    """Degradation metrics for one archive read.

    Byte accounting invariant (asserted by the corpus and fuzz suites)::

        bytes_salvaged + bytes_dropped + bytes_converted_to_loss
            == file_size

    where *salvaged* bytes landed in decodable records, *converted*
    bytes were committed segment payloads re-expressed as synthetic loss
    records, and *dropped* bytes are framing/garbage kept by nobody.
    """

    file_size: int = 0
    segments_total: int = 0
    segments_salvaged: int = 0
    segments_dropped: int = 0
    bytes_salvaged: int = 0
    bytes_dropped: int = 0
    bytes_converted_to_loss: int = 0
    loss_records_synthesized: int = 0
    loss_bytes_synthesized: int = 0
    sequence_gaps: int = 0
    sequence_duplicates: int = 0
    metadata_snapshots_missing: int = 0
    metadata_dumps_salvaged: int = 0
    metadata_dumps_dropped: int = 0
    sealed: bool = False
    legacy: bool = False
    events: List[SalvageEvent] = field(default_factory=list)

    def record(
        self,
        kind: AnomalyKind,
        offset: int,
        detail: str,
        seq: Optional[int] = None,
        core: Optional[int] = None,
    ) -> None:
        self.events.append(
            SalvageEvent(kind=kind, offset=offset, detail=detail, seq=seq, core=core)
        )

    def by_kind(self) -> Dict[str, int]:
        breakdown: Dict[str, int] = {}
        for event in self.events:
            key = event.kind.value
            breakdown[key] = breakdown.get(key, 0) + 1
        return breakdown

    @property
    def clean(self) -> bool:
        return not self.events


@dataclass
class ArchiveContents:
    """Everything one archive (plus sidecar) yielded after salvage."""

    path: str
    stats: SalvageStats
    cores: Dict[int, List[Tuple[str, object]]] = field(default_factory=dict)
    thread_switches: List[ThreadSwitchRecord] = field(default_factory=list)
    #: Frontend name from the format record; ``"pt"`` when absent.
    trace_format: str = "pt"
    #: Snapshot + journal, when the snapshot sidecar was readable.
    database: Optional[object] = None
    #: Journal dumps (also merged into ``database`` when it exists).
    journal_dumps: List[object] = field(default_factory=list)

    def database_or_empty(self):
        """The salvaged database; with the snapshot gone, journal dumps
        still decode JIT code while template decode degrades."""
        if self.database is not None:
            return self.database
        from ..core.metadata import CodeDatabase
        from ..jvm.machine import AddressSpace

        return CodeDatabase({}, list(self.journal_dumps), AddressSpace())

    def to_trace(self, config=None):
        """Rebuild a :class:`~repro.pt.perf.PTTrace` for the pipeline."""
        from .encoder import EncoderStats
        from .perf import CoreTrace, PTConfig, PTTrace

        cores = []
        for core_id in sorted(self.cores):
            entries = self.cores[core_id]
            packets = [item for tag, item in entries if tag == "packet"]
            losses = [item for tag, item in entries if tag == "loss"]
            bytes_lost = sum(loss.bytes_lost for loss in losses)
            cores.append(
                CoreTrace(
                    core=core_id,
                    packets=packets,
                    losses=losses,
                    bytes_generated=sum(p.size for p in packets) + bytes_lost,
                    bytes_lost=bytes_lost,
                    encoder_stats=EncoderStats(),
                )
            )
        return PTTrace(
            cores=cores,
            thread_switches=list(self.thread_switches),
            config=config or PTConfig(frontend=self.trace_format),
        )


@dataclass
class _Record:
    """A record whose header survived (whether or not its payload did)."""

    rtype: int
    seq: int
    core: int
    tsc_lo: int
    tsc_hi: int
    payload_len: int
    accepted: bool


@dataclass(frozen=True)
class RecordSpan:
    """Byte extent of one committed record (for the fault injector)."""

    start: int
    end: int
    rtype: int
    seq: int
    core: int


def _parse_record_at(data, sync: int):
    """Try to parse a fully committed record at *sync*.

    Returns ``(span_end, rtype, seq, core, tsc_lo, tsc_hi, payload)`` or
    a string describing why the bytes at *sync* are not a whole valid
    record (the salvage scanner turns that into the right degradation).
    """
    n = len(data)
    hstart = sync + len(_SYNC)
    if hstart + _HEADER.size + _HCRC.size > n:
        return "torn-header"
    header = bytes(data[hstart:hstart + _HEADER.size])
    (stored_hcrc,) = _HCRC.unpack(
        bytes(data[hstart + _HEADER.size:hstart + _HEADER.size + _HCRC.size])
    )
    if _crc(header) != stored_hcrc:
        return "bad-header-crc"
    rtype, seq, core, tsc_lo, tsc_hi, payload_len, payload_crc = _HEADER.unpack(header)
    body_start = hstart + _HEADER.size + _HCRC.size
    trailer_at = body_start + payload_len
    if trailer_at + _TRAILER.size > n:
        return ("torn-payload", rtype, seq, core, tsc_lo, tsc_hi, payload_len)
    commit, trailer_len = _TRAILER.unpack(
        bytes(data[trailer_at:trailer_at + _TRAILER.size])
    )
    if commit != _COMMIT or trailer_len != payload_len:
        return ("uncommitted", rtype, seq, core, tsc_lo, tsc_hi, payload_len)
    payload = bytes(data[body_start:trailer_at])
    if _crc(payload) != payload_crc:
        return ("bad-payload-crc", rtype, seq, core, tsc_lo, tsc_hi, payload_len)
    return (trailer_at + _TRAILER.size, rtype, seq, core, tsc_lo, tsc_hi, payload)


def scan_record_spans(data: bytes) -> List[RecordSpan]:
    """Byte extents of every committed, CRC-valid record in *data*.

    Used by the archive-level fault injector to drop or duplicate whole
    segments; salvage itself re-derives everything independently.
    """
    spans: List[RecordSpan] = []
    pos = 0
    while True:
        sync = data.find(_SYNC, pos)
        if sync < 0:
            return spans
        parsed = _parse_record_at(data, sync)
        if isinstance(parsed, tuple) and not isinstance(parsed[0], str):
            end, rtype, seq, core, _lo, _hi, _payload = parsed
            spans.append(
                RecordSpan(start=sync, end=end, rtype=rtype, seq=seq, core=core)
            )
            pos = end
        else:
            pos = sync + 1


def _load_snapshot(snapshot_path: str, stats: SalvageStats):
    """Read the sidecar; any damage counts as a missing snapshot."""
    try:
        with open(snapshot_path, "rb") as source:
            blob = source.read()
    except OSError:
        stats.metadata_snapshots_missing += 1
        stats.record(
            AnomalyKind.METADATA_SNAPSHOT_MISSING, 0,
            "snapshot sidecar missing: %s" % snapshot_path,
        )
        return None
    detail = None
    if blob[:4] != SNAPSHOT_MAGIC:
        detail = "snapshot has bad magic %r" % blob[:4]
    elif len(blob) < 12:
        detail = "snapshot header truncated"
    else:
        length, crc = struct.unpack("<II", blob[4:12])
        payload = blob[12:12 + length]
        if len(payload) != length:
            detail = "snapshot payload truncated (%d of %d bytes)" % (
                len(payload), length,
            )
        elif _crc(payload) != crc:
            detail = "snapshot payload CRC mismatch"
        else:
            try:
                return deserialize_database(payload)
            except TraceFormatError as error:
                detail = "snapshot unparseable: %s" % error
    stats.metadata_snapshots_missing += 1
    stats.record(AnomalyKind.METADATA_SNAPSHOT_MISSING, 0, detail)
    return None


def _parse_sideband(payload: bytes) -> List[ThreadSwitchRecord]:
    cursor = _Cursor(payload, "sideband")
    (count,) = cursor.unpack("<I")
    switches = []
    for _ in range(count):
        core, tid, tsc = cursor.unpack("<IIQ")
        switches.append(ThreadSwitchRecord(core=core, tid=tid, tsc=tsc))
    if cursor.pos != len(payload):
        raise TraceFormatError("trailing bytes in sideband payload")
    return switches


def _salvage_legacy(data, contents: ArchiveContents) -> None:
    """Best-effort prefix salvage of a flat ``RPT1`` stream."""
    stats = contents.stats
    stats.legacy = True
    stats.sealed = True  # RPT1 has no seal concept; don't flag it.
    entries: List[Tuple[str, object]] = []
    salvage_point = len(data)
    try:
        for entry in iter_entries(data[4:], base_offset=4):
            entries.append(entry)
    except TraceFormatError as error:
        salvage_point = error.entry_offset
        stats.record(
            AnomalyKind.ARCHIVE_MALFORMED, error.offset,
            "legacy stream damaged: %s" % error,
        )
        dropped = len(data) - salvage_point
        stats.bytes_dropped += dropped
        last_tsc = _tsc_span(entries)[1] if entries else 0
        hole = AuxLossRecord(
            start_tsc=last_tsc, end_tsc=last_tsc,
            bytes_lost=dropped, packets_lost=0,
        )
        entries.append(("loss", hole))
        stats.loss_records_synthesized += 1
        stats.loss_bytes_synthesized += hole.bytes_lost
    stats.bytes_salvaged += salvage_point
    stats.segments_total = 1
    if salvage_point > 4 or not stats.events:
        stats.segments_salvaged = 1
    else:
        stats.segments_dropped = 1
    contents.cores[0] = entries


@dataclass(frozen=True)
class ArchiveRecord:
    """One committed record surfaced incrementally by the tail reader.

    ``payload`` depends on the record type: a tagged ``(tag, item)``
    entry list for segments, a :class:`~repro.core.metadata.CodeDump`
    for journal records, a :class:`ThreadSwitchRecord` list for
    sideband, the frontend name string for format records, ``None`` for
    the seal.
    """

    rtype: int
    seq: int
    core: int
    tsc_lo: int
    tsc_hi: int
    payload: object


def read_archive(path, snapshot_path=None, strict: bool = False) -> ArchiveContents:
    """Salvage-read an ``RPT2`` archive (or legacy ``RPT1`` stream).

    Never raises on hostile file *content*: damaged records are dropped,
    logged as :class:`SalvageEvent`\\ s, and -- for segments -- converted
    into synthetic loss records spanning their TSC range so the decode
    pipeline hands the damage to hole recovery.  ``strict=True`` turns
    the first salvage event into an :class:`ArchiveFormatError` instead
    (writer self-checks; never the default).
    """
    path = str(path)
    snapshot_path = (
        str(snapshot_path) if snapshot_path is not None else path + ".meta"
    )
    contents = ArchiveContents(path=path, stats=SalvageStats())
    scanner = _ArchiveScanner(contents, snapshot_path)
    with open(path, "rb") as source:
        scanner.feed(source.read())
    scanner.finish()
    stats = contents.stats
    if strict and stats.events:
        first = stats.events[0]
        raise ArchiveFormatError(
            "archive %s: %s at offset %d (%s)"
            % (path, first.kind.value, first.offset, first.detail),
            offset=first.offset,
        )
    return contents


class _ArchiveScanner:
    """Resumable salvage scanner: the engine under both read modes.

    :func:`read_archive` feeds it the whole file and finishes; the
    :class:`ArchiveTailReader` feeds appended byte chunks as the file
    grows.  While unfinished, an *indeterminate* tail -- a truncated
    header, a payload whose claimed length runs past the current EOF, or
    a trailing sync-prefix byte -- is left **pending** rather than being
    converted into a torn-record salvage event: on a live archive those
    bytes mean "no trailer yet, more data coming", and only
    :meth:`finish` (end of file, for real) applies the batch reader's
    torn-tail degradation.  Everything *determinate* (CRC failures,
    uncommitted trailers, duplicates, unparseable bodies) degrades
    immediately, with byte-for-byte the accounting of a batch read.
    """

    def __init__(self, contents: ArchiveContents, snapshot_path: str):
        self.contents = contents
        self.stats = contents.stats
        self.snapshot_path = snapshot_path
        self._buffer = bytearray()
        self._base = 0  # absolute file offset of _buffer[0]
        self._total = 0  # bytes fed so far
        self._magic_checked = False
        self._legacy = False
        self._finished = False
        self._known: Dict[int, _Record] = {}
        self._segment_entries: Dict[int, Tuple[int, List[Tuple[str, object]]]] = {}
        self._synthesized: List[Tuple[int, AuxLossRecord]] = []  # (core, record)
        self._new: List[ArchiveRecord] = []

    # ------------------------------------------------------------ feeding
    def buffered_bytes(self) -> int:
        """Unconsumed tail bytes held for the next feed (memory bound)."""
        return len(self._buffer)

    def drain_new(self) -> List[ArchiveRecord]:
        """Records accepted since the last drain, in commit order."""
        new, self._new = self._new, []
        return new

    def feed(self, chunk) -> None:
        """Consume appended bytes; scans as far as is determinate."""
        if self._finished:
            raise ValueError("scanner already finished")
        self._buffer += chunk
        self._total += len(chunk)
        if not self._magic_checked:
            if len(self._buffer) < 4:
                return  # magic still growing; wait
            self._check_magic()
        if not self._legacy:
            self._scan(eof=False)

    def finish(self) -> ArchiveContents:
        """Apply end-of-file semantics and assemble the contents.

        After this the cumulative stats, per-core streams, sideband, and
        database equal a batch :func:`read_archive` of the same bytes --
        including salvage-event order (scan events, unsealed, sequence
        gaps, snapshot) and the byte-accounting invariant.
        """
        if self._finished:
            return self.contents
        self._finished = True
        stats = self.stats
        stats.file_size = self._total
        contents = self.contents
        if not self._magic_checked:
            self._check_magic()  # short file: whatever is there is the magic
        if self._legacy:
            _salvage_legacy(bytes(self._buffer), contents)
            self._buffer.clear()
            return contents
        self._scan(eof=True)
        self._buffer.clear()
        if not stats.sealed:
            stats.record(
                AnomalyKind.ARCHIVE_UNSEALED, self._total,
                "archive ends without a seal record (crash or truncation)",
            )
        _detect_sequence_gaps(self._known, stats, self._synthesize_loss)

        # Assemble per-core streams: accepted segments in seq order, then
        # the synthesized losses merged at their TSC positions (stable
        # sort keeps the canonical packet-before-loss tie order within
        # each tick).
        for seq in sorted(self._segment_entries):
            core, entries = self._segment_entries[seq]
            contents.cores.setdefault(core, []).extend(entries)
        for core, hole in self._synthesized:
            contents.cores.setdefault(core, []).append(("loss", hole))
        for core in contents.cores:
            contents.cores[core].sort(
                key=lambda entry: (
                    entry[1].start_tsc if entry[0] == "loss" else entry[1].tsc,
                    entry[0] == "loss",
                )
            )
        contents.thread_switches.sort(key=lambda record: record.tsc)

        snapshot = _load_snapshot(self.snapshot_path, stats)
        if snapshot is not None:
            contents.database = snapshot.with_dumps(contents.journal_dumps)
        return contents

    # ---------------------------------------------------------- internals
    def _check_magic(self) -> None:
        self._magic_checked = True
        magic = bytes(self._buffer[:4])
        if magic == ARCHIVE_MAGIC:
            self.stats.bytes_salvaged += 4
            del self._buffer[:4]
            self._base = 4
        elif magic == LEGACY_MAGIC:
            self._legacy = True
        else:
            self.stats.record(
                AnomalyKind.ARCHIVE_MALFORMED, 0, "bad archive magic %r" % magic
            )
            # Bad magic: the whole prefix rescans as record garbage.

    def _synthesize_loss(self, core: int, tsc_lo: int, tsc_hi: int, lost: int) -> None:
        hole = AuxLossRecord(
            start_tsc=tsc_lo, end_tsc=tsc_hi, bytes_lost=lost, packets_lost=0
        )
        self._synthesized.append((core, hole))
        self.stats.loss_records_synthesized += 1
        self.stats.loss_bytes_synthesized += lost

    def _register(self, rtype, seq, core, tsc_lo, tsc_hi, payload_len, accepted) -> None:
        self._known[seq] = _Record(
            rtype=rtype, seq=seq, core=core, tsc_lo=tsc_lo, tsc_hi=tsc_hi,
            payload_len=payload_len, accepted=accepted,
        )

    def _scan(self, eof: bool) -> None:
        stats = self.stats
        known = self._known
        data = bytes(self._buffer)
        base = self._base
        n = len(data)
        pos = 0
        while pos < n:
            sync = data.find(_SYNC, pos)
            if sync < 0:
                if eof:
                    stats.bytes_dropped += n - pos
                    pos = n
                else:
                    # Garbage so far -- but the final byte could be the
                    # first half of a sync marker still being written.
                    hold = n - 1 if data[n - 1] == _SYNC[0] else n
                    if hold > pos:
                        stats.bytes_dropped += hold - pos
                        pos = hold
                break
            if sync > pos:
                stats.bytes_dropped += sync - pos
                pos = sync
            parsed = _parse_record_at(data, sync)
            if parsed == "torn-header":
                if not eof:
                    break  # header still being written: pending
                stats.record(
                    AnomalyKind.SEGMENT_TORN, base + sync,
                    "record header truncated at EOF",
                )
                stats.bytes_dropped += n - sync
                pos = n
                break
            if parsed == "bad-header-crc":
                # Either a damaged header or payload bytes that happen to
                # contain the sync pattern; flag only the plausible headers.
                if data[sync + 2] in _KNOWN_TYPES:
                    stats.record(
                        AnomalyKind.ARCHIVE_MALFORMED, base + sync,
                        "record header CRC mismatch",
                    )
                stats.bytes_dropped += 1
                pos = sync + 1
                continue
            if isinstance(parsed[0], str):
                why, rtype, seq, core, tsc_lo, tsc_hi, payload_len = parsed
                if why == "torn-payload" and not eof:
                    break  # payload still being written: pending
                if seq not in known:
                    self._register(
                        rtype, seq, core, tsc_lo, tsc_hi, payload_len, False
                    )
                    if rtype == REC_SEGMENT:
                        stats.segments_total += 1
                        stats.segments_dropped += 1
                        self._synthesize_loss(core, tsc_lo, tsc_hi, payload_len)
                    elif rtype == REC_CODE_DUMP:
                        stats.metadata_dumps_dropped += 1
                if why == "torn-payload":
                    stats.record(
                        AnomalyKind.SEGMENT_TORN, base + sync,
                        "seq %d payload runs past EOF (%d bytes claimed)"
                        % (seq, payload_len),
                        seq=seq, core=core,
                    )
                    stats.bytes_dropped += n - sync
                    pos = n
                    break
                if why == "uncommitted":
                    stats.record(
                        AnomalyKind.SEGMENT_TORN, base + sync,
                        "seq %d never committed (torn trailer)" % seq,
                        seq=seq, core=core,
                    )
                    # Framing up to the payload is accounted here; the
                    # untrusted payload region is rescanned for later records
                    # and lands in the dropped-garbage account.
                    stats.bytes_dropped += len(_SYNC) + _HEADER.size + _HCRC.size
                    pos = sync + len(_SYNC) + _HEADER.size + _HCRC.size
                    continue
                # bad-payload-crc: committed record whose payload rotted.
                stats.record(
                    AnomalyKind.SEGMENT_CRC_MISMATCH, base + sync,
                    "seq %d payload CRC mismatch (%d bytes)" % (seq, payload_len),
                    seq=seq, core=core,
                )
                stats.bytes_dropped += RECORD_OVERHEAD
                stats.bytes_converted_to_loss += payload_len
                pos = sync + len(_SYNC) + _HEADER.size + _HCRC.size + payload_len + _TRAILER.size
                continue

            end, rtype, seq, core, tsc_lo, tsc_hi, payload = parsed
            extent = end - sync
            if seq in known:
                stats.sequence_duplicates += 1
                stats.record(
                    AnomalyKind.SEGMENT_DUPLICATE, base + sync,
                    "seq %d already consumed; duplicate dropped" % seq,
                    seq=seq, core=core,
                )
                if rtype == REC_SEGMENT:
                    stats.segments_total += 1
                    stats.segments_dropped += 1
                stats.bytes_dropped += extent
                pos = end
                continue
            if rtype == REC_SEGMENT:
                stats.segments_total += 1
                try:
                    entries = list(
                        iter_entries(
                            payload,
                            base_offset=base + sync + len(_SYNC) + _HEADER.size + _HCRC.size,
                        )
                    )
                except TraceFormatError as error:
                    self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), False)
                    stats.segments_dropped += 1
                    stats.record(
                        AnomalyKind.ARCHIVE_MALFORMED, base + sync,
                        "seq %d body unparseable despite valid CRC: %s" % (seq, error),
                        seq=seq, core=core,
                    )
                    self._synthesize_loss(core, tsc_lo, tsc_hi, len(payload))
                    stats.bytes_dropped += RECORD_OVERHEAD
                    stats.bytes_converted_to_loss += len(payload)
                    pos = end
                    continue
                self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), True)
                stats.segments_salvaged += 1
                self._segment_entries[seq] = (core, entries)
                stats.bytes_salvaged += extent
                self._new.append(ArchiveRecord(rtype, seq, core, tsc_lo, tsc_hi, entries))
            elif rtype == REC_CODE_DUMP:
                try:
                    dump = deserialize_code_dump(payload)
                except TraceFormatError as error:
                    self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), False)
                    stats.metadata_dumps_dropped += 1
                    stats.record(
                        AnomalyKind.ARCHIVE_MALFORMED, base + sync,
                        "seq %d code dump unparseable: %s" % (seq, error),
                        seq=seq,
                    )
                    stats.bytes_dropped += extent
                    pos = end
                    continue
                self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), True)
                stats.metadata_dumps_salvaged += 1
                self.contents.journal_dumps.append(dump)
                stats.bytes_salvaged += extent
                self._new.append(ArchiveRecord(rtype, seq, core, tsc_lo, tsc_hi, dump))
            elif rtype == REC_SIDEBAND:
                try:
                    switches = _parse_sideband(payload)
                except TraceFormatError as error:
                    self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), False)
                    stats.record(
                        AnomalyKind.ARCHIVE_MALFORMED, base + sync,
                        "seq %d sideband unparseable: %s" % (seq, error),
                        seq=seq,
                    )
                    stats.bytes_dropped += extent
                    pos = end
                    continue
                self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), True)
                self.contents.thread_switches.extend(switches)
                stats.bytes_salvaged += extent
                self._new.append(ArchiveRecord(rtype, seq, core, tsc_lo, tsc_hi, switches))
            elif rtype == REC_FORMAT:
                try:
                    name = payload.decode("utf-8")
                except UnicodeDecodeError:
                    self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), False)
                    stats.record(
                        AnomalyKind.ARCHIVE_MALFORMED, base + sync,
                        "seq %d format record payload is not utf-8" % seq,
                        seq=seq,
                    )
                    stats.bytes_dropped += extent
                    pos = end
                    continue
                self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), True)
                self.contents.trace_format = name
                try:
                    # Registers the named frontend's entry codecs (an
                    # import side effect), so the segment bodies that
                    # follow parse.  Unknown name: segments with foreign
                    # tags degrade into synthetic loss records below.
                    from ..tracesource import get_frontend

                    get_frontend(name)
                except KeyError:
                    stats.record(
                        AnomalyKind.ARCHIVE_MALFORMED, base + sync,
                        "seq %d names unknown trace format %r" % (seq, name),
                        seq=seq,
                    )
                stats.bytes_salvaged += extent
                self._new.append(ArchiveRecord(rtype, seq, core, tsc_lo, tsc_hi, name))
            elif rtype == REC_SEAL:
                self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), True)
                stats.sealed = True
                stats.bytes_salvaged += extent
                self._new.append(ArchiveRecord(rtype, seq, core, tsc_lo, tsc_hi, None))
            else:
                self._register(rtype, seq, core, tsc_lo, tsc_hi, len(payload), False)
                stats.record(
                    AnomalyKind.ARCHIVE_MALFORMED, base + sync,
                    "seq %d has unknown record type 0x%02x" % (seq, rtype),
                    seq=seq,
                )
                stats.bytes_dropped += extent
            pos = end
        # Compact: everything before *pos* has a final disposition.
        if pos:
            del self._buffer[:pos]
            self._base += pos


class ArchiveTailReader:
    """Tail-follow a growing ``RPT2`` archive, record by record.

    ``poll()`` reads whatever the writer appended since the last poll
    and returns the newly *committed* records; an in-flight record at
    the end of the file stays pending (never converted to loss) until
    either its commit trailer lands or :meth:`finalize` declares true
    end-of-file.  Memory stays bounded by the undecoded tail: consumed
    bytes are discarded as soon as their disposition is final.

    If the file *shrinks* or is replaced under the reader (a salvage
    truncation fault, not an append), the incremental state no longer
    matches the bytes on disk; the reader flags itself ``dirty`` and
    :meth:`finalize` falls back to a fresh batch read of the final file,
    so the result is still exactly :func:`read_archive`'s.
    """

    def __init__(self, path, snapshot_path=None):
        self.path = str(path)
        self.snapshot_path = (
            str(snapshot_path) if snapshot_path is not None else self.path + ".meta"
        )
        self.contents = ArchiveContents(path=self.path, stats=SalvageStats())
        self._scanner = _ArchiveScanner(self.contents, self.snapshot_path)
        self._offset = 0
        self._ino: Optional[int] = None
        self.dirty = False
        self.finished = False
        self.released = False
        self.records_read = 0
        self.segments_read = 0
        #: Optional per-poll read cap (backpressure: a huge append is
        #: consumed across several polls instead of ballooning the
        #: scanner buffer in one step).  ``None``: read everything.
        self.max_poll_bytes: Optional[int] = None
        #: Optional fault-injection hooks (``repro.pt.faults``): an
        #: object with ``before_read(reader)`` (may raise ``OSError`` or
        #: sleep, modelling transient I/O faults and slow media) and
        #: ``read_limit(available)`` (may shorten one read, modelling
        #: partial reads).  Production leaves this ``None``.
        self.io_hooks = None

    # ---------------------------------------------------------------- API
    @property
    def stats(self) -> SalvageStats:
        return self.contents.stats

    @property
    def sealed(self) -> bool:
        return self.contents.stats.sealed

    @property
    def offset(self) -> int:
        """Absolute file offset of the next unread byte (checkpointing)."""
        return self._offset

    def buffered_bytes(self) -> int:
        return self._scanner.buffered_bytes()

    def poll(self) -> List[ArchiveRecord]:
        """Consume newly appended bytes; returns new committed records.

        Returns an empty list when nothing new committed (including when
        the file does not exist yet).  Never raises on file *content*;
        a transient I/O failure (``EIO``, permission revoked, a fault
        hook firing) propagates as ``OSError`` with the reader state
        untouched -- nothing was consumed, so the caller may simply
        retry the poll later.
        """
        if self.finished or self.released:
            return []
        hooks = self.io_hooks
        if hooks is not None:
            hooks.before_read(self)  # may raise OSError: transient fault
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            return []  # no file yet: the writer has not started
        if self._ino is None:
            self._ino = stat.st_ino
        elif stat.st_ino not in (0, self._ino):
            # A different inode under the same name: the file was
            # replaced mid-poll, so the consumed prefix no longer
            # matches the bytes on disk.
            self.dirty = True
            return []
        if stat.st_size < self._offset:
            self.dirty = True  # file shrank: not an append-only writer
            return []
        available = stat.st_size - self._offset
        limit = available
        if self.max_poll_bytes is not None:
            limit = min(limit, self.max_poll_bytes)
        if hooks is not None and limit:
            hook_limit = hooks.read_limit(limit)
            if hook_limit is not None:
                limit = max(0, min(limit, hook_limit))
        chunk = b""
        if limit:
            with open(self.path, "rb") as source:
                source.seek(self._offset)
                chunk = source.read(limit)
        if chunk:
            self._offset += len(chunk)
            self._scanner.feed(chunk)
        new = self._scanner.drain_new()
        self.records_read += len(new)
        self.segments_read += sum(
            1 for record in new if record.rtype == REC_SEGMENT
        )
        return new

    def release(self) -> None:
        """Shed all buffered scan state (backpressure).

        The reader stops consuming (``poll`` returns nothing) and
        :meth:`finalize` degrades to a fresh batch read of the final
        file -- the same degrade-to-replay shape as a dirty reader, but
        triggered by memory pressure instead of file damage.
        """
        if self.released or self.finished:
            return
        self.released = True
        self.dirty = True
        self.contents = ArchiveContents(path=self.path, stats=SalvageStats())
        self._scanner = _ArchiveScanner(self.contents, self.snapshot_path)

    def finalize(self) -> ArchiveContents:
        """Declare end-of-file and return the assembled contents.

        Equals :func:`read_archive` of the file's final bytes: directly
        (fresh batch read) when the reader went dirty, via the resumable
        scanner's end-of-file pass otherwise.  Fault-injection hooks
        and per-poll read caps are lifted first: finalize is the
        end-of-stream barrier, and it must drain whatever remains.
        """
        if self.finished:
            return self.contents
        self.io_hooks = None
        self.max_poll_bytes = None
        while not self.dirty:
            before = self._offset
            self.poll()
            if self._offset == before:
                break
        self.finished = True
        if self.dirty:
            self.contents = read_archive(
                self.path, snapshot_path=self.snapshot_path
            )
            return self.contents
        return self._scanner.finish()


def _detect_sequence_gaps(known, stats: SalvageStats, synthesize_loss) -> None:
    """Missing sequence numbers -> one synthetic loss per missing run."""
    if not known:
        return
    top = max(known)
    missing_runs: List[Tuple[int, int]] = []
    run_start = None
    for seq in range(top + 1):
        if seq not in known:
            if run_start is None:
                run_start = seq
        elif run_start is not None:
            missing_runs.append((run_start, seq - 1))
            run_start = None
    if run_start is not None:  # pragma: no cover - top is always known
        missing_runs.append((run_start, top))
    if not missing_runs:
        return
    accepted_segments = [
        record for record in known.values()
        if record.rtype == REC_SEGMENT and record.accepted
    ]
    mean_payload = (
        sum(record.payload_len for record in accepted_segments)
        // len(accepted_segments)
        if accepted_segments
        else 0
    )
    for first, last in missing_runs:
        prev = max((s for s in known if s < first), default=None)
        succ = min((s for s in known if s > last), default=None)
        tsc_lo = known[prev].tsc_hi if prev is not None else 0
        tsc_hi = known[succ].tsc_lo if succ is not None else tsc_lo
        if tsc_hi < tsc_lo:
            tsc_lo, tsc_hi = tsc_hi, tsc_lo
        core = 0
        for neighbour in (succ, prev):
            if neighbour is not None and known[neighbour].rtype == REC_SEGMENT:
                core = known[neighbour].core
                break
        width = last - first + 1
        stats.sequence_gaps += 1
        stats.record(
            AnomalyKind.SEGMENT_GAP, 0,
            "sequence numbers %d..%d missing (%d record%s)"
            % (first, last, width, "" if width == 1 else "s"),
            seq=first, core=core,
        )
        synthesize_loss(core, tsc_lo, tsc_hi, mean_payload * width)
