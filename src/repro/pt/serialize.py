"""Binary serialisation of PT packet streams.

The online collector "periodically dumps trace packets to files"
(Section 3); this module defines the on-disk format: a compact binary
encoding with one header byte per packet, variable-length payloads
matching each packet's compressed size, and framed aux-loss records.
:func:`write_stream` / :func:`read_stream` round-trip a merged
``("packet" | "loss", item)`` stream, so a collected trace can be stored,
shipped, and decoded later exactly as perf data files are.

Format (little-endian):

====  =======================================================
byte  meaning
====  =======================================================
0x01  PGE   -- u64 tsc, u64 ip
0x02  PGD   -- u64 tsc, u64 ip
0x03  TNT   -- u64 tsc, u8 count, u8 bitfield
0x04  TIP   -- u64 tsc, u8 compressed_size, u64 target
0x05  FUP   -- u64 tsc, u64 ip
0x06  TSC   -- u64 tsc
0x07  LOSS  -- u64 start, u64 end, u64 bytes, u32 packets
====  =======================================================

Tags 0x10 and above are reserved for extension codecs registered by
other trace-source frontends via :func:`register_entry_codec`
(:mod:`repro.etrace.serialize` registers the E-Trace packet tags when
the ``repro.etrace`` package is imported).

The logical ``compressed_size`` is stored so byte accounting survives the
round trip (the file stores full IPs for simplicity; real PT would store
the compressed form -- the *semantics* is identical).  Valid values are
the ones :func:`repro.pt.packets.compressed_tip_size` can produce (one
header byte plus 2, 4, or 8 target bytes); anything else is rejected on
both read and write, because a bogus size silently corrupts every
downstream byte account (loss fractions, buffer occupancy, Table 2).

Reading surfaces:

* :func:`iter_entries` -- the one body parser: a generator over a bytes
  buffer that yields one entry at a time.  Each builtin tag unpacks with
  a precompiled :class:`struct.Struct` layout, TNT outcome tuples come
  from a table built once per ``(count, bitfield)``, and an extension
  tag goes through its registered codec.  The archive layer
  (:mod:`repro.pt.archive`) parses each segment payload with it;
* :func:`iter_stream` / :func:`iter_body` -- the same over a file
  object, whose bytes they read at once; the packet list is still never
  built;
* :func:`read_stream` -- parse a whole ``RPT1`` stream into a list.

Every :class:`TraceFormatError` carries the file offset of the failure
(``offset`` attribute, also in the message) and the offset at which the
failing entry started (``entry_offset``) -- the salvage reader uses the
latter to keep everything before the damage.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .packets import (
    AuxLossRecord,
    FUPPacket,
    Packet,
    PGDPacket,
    PGEPacket,
    TIPPacket,
    TNTPacket,
    TSCPacket,
)

_TAG_PGE = 0x01
_TAG_PGD = 0x02
_TAG_TNT = 0x03
_TAG_TIP = 0x04
_TAG_FUP = 0x05
_TAG_TSC = 0x06
_TAG_LOSS = 0x07

_BUILTIN_TAGS = frozenset(range(_TAG_PGE, _TAG_LOSS + 1))

_MAGIC = b"RPT1"

#: Encoded TIP sizes IP compression can produce: header + 2, 4, or 8.
VALID_TIP_SIZES = (3, 5, 9)

# --------------------------------------------------------- extension codecs
# Other frontends (repro.etrace) serialise their packet classes through
# the same entry stream by registering a codec per class.  Codecs are
# looked up by exact class on write (before the PT isinstance chain, so
# registration always wins) and by tag on read; an unregistered tag is
# still a TraceFormatError, which is how archive salvage degrades when a
# format record was lost.
_EXTENSION_PACK: Dict[type, Tuple[int, Callable[[object], bytes]]] = {}
_EXTENSION_UNPACK: Dict[int, Callable] = {}


def register_entry_codec(
    tag: int,
    cls: type,
    pack: Callable[[object], bytes],
    unpack: Callable,
) -> None:
    """Register a packet codec for :func:`write_entry` / :func:`iter_entries`.

    ``pack(item)`` returns the payload bytes (everything after the tag
    byte); ``unpack(need, entry_offset)`` reads via the ``need(count)``
    callable (which raises :class:`TraceFormatError` on truncation) and
    returns the packet, raising :class:`TraceFormatError` itself for
    invalid field values.  Builtin tags cannot be overridden;
    re-registering the same tag replaces the previous codec (idempotent
    module re-imports).
    """
    if tag in _BUILTIN_TAGS:
        raise ValueError("tag 0x%02x is reserved for builtin packets" % tag)
    if not 0 < tag <= 0xFF:
        raise ValueError("tag must be one byte, got %r" % (tag,))
    _EXTENSION_PACK[cls] = (tag, pack)
    _EXTENSION_UNPACK[tag] = unpack


class TraceFormatError(Exception):
    """Raised on malformed trace files.

    Attributes:
        offset: Byte offset at which the problem was detected.
        entry_offset: Byte offset at which the failing entry started
            (everything before it parsed cleanly -- the salvage point).
    """

    def __init__(self, message: str, offset: int = 0, entry_offset: int = 0):
        super().__init__(message)
        self.offset = offset
        self.entry_offset = entry_offset


def write_entry(entry: Tuple[str, object], sink: BinaryIO) -> int:
    """Serialise one ``("packet"|"loss", item)`` entry; returns bytes."""
    tag, item = entry
    if tag == "loss":
        record: AuxLossRecord = item
        return sink.write(
            struct.pack(
                "<BQQQI",
                _TAG_LOSS,
                record.start_tsc,
                record.end_tsc,
                record.bytes_lost,
                record.packets_lost,
            )
        )
    packet: Packet = item
    extension = _EXTENSION_PACK.get(packet.__class__)
    if extension is not None:
        ext_tag, pack = extension
        payload = pack(packet)
        return sink.write(bytes((ext_tag,)) + payload)
    if isinstance(packet, PGEPacket):
        return sink.write(struct.pack("<BQQ", _TAG_PGE, packet.tsc, packet.ip))
    if isinstance(packet, PGDPacket):
        return sink.write(struct.pack("<BQQ", _TAG_PGD, packet.tsc, packet.ip))
    if isinstance(packet, TNTPacket):
        bits = 0
        for position, bit in enumerate(packet.bits):
            if bit:
                bits |= 1 << position
        return sink.write(
            struct.pack("<BQBB", _TAG_TNT, packet.tsc, len(packet.bits), bits)
        )
    if isinstance(packet, TIPPacket):
        if packet.compressed_size not in VALID_TIP_SIZES:
            raise TraceFormatError(
                "refusing to write invalid TIP compressed_size %d"
                % packet.compressed_size
            )
        return sink.write(
            struct.pack(
                "<BQBQ", _TAG_TIP, packet.tsc, packet.compressed_size, packet.target
            )
        )
    if isinstance(packet, FUPPacket):
        return sink.write(struct.pack("<BQQ", _TAG_FUP, packet.tsc, packet.ip))
    if isinstance(packet, TSCPacket):
        return sink.write(struct.pack("<BQ", _TAG_TSC, packet.tsc))
    raise TypeError("unknown packet %r" % (packet,))


def write_body(stream: Iterable[Tuple[str, object]], sink: BinaryIO) -> int:
    """Serialise entries without the magic (archive segment payloads)."""
    written = 0
    for entry in stream:
        written += write_entry(entry, sink)
    return written


def write_stream(
    stream: Iterable[Tuple[str, object]], sink: BinaryIO
) -> int:
    """Serialise a merged packet/loss stream; returns bytes written."""
    written = sink.write(_MAGIC)
    return written + write_body(stream, sink)


#: Builtin payload layouts (everything after the tag byte).
_PAIR = struct.Struct("<QQ")  # PGE, PGD, FUP: tsc, ip
_TNT = struct.Struct("<QBB")  # tsc, count, bitfield
_TIP = struct.Struct("<QBQ")  # tsc, compressed_size, target
_TSC = struct.Struct("<Q")  # tsc
_LOSS = struct.Struct("<QQQI")  # start_tsc, end_tsc, bytes_lost, packets_lost

#: Per tag byte, the builtin entries whose fields map one to one onto
#: their class's constructor: ``(entry kind, class, unpack_from, size)``;
#: ``None`` for TNT and TIP (decoded inline) and every other tag.
_PLAIN_LAYOUTS: List[Optional[Tuple[str, type, Callable, int]]] = [None] * 256
_PLAIN_LAYOUTS[_TAG_PGE] = ("packet", PGEPacket, _PAIR.unpack_from, _PAIR.size)
_PLAIN_LAYOUTS[_TAG_PGD] = ("packet", PGDPacket, _PAIR.unpack_from, _PAIR.size)
_PLAIN_LAYOUTS[_TAG_FUP] = ("packet", FUPPacket, _PAIR.unpack_from, _PAIR.size)
_PLAIN_LAYOUTS[_TAG_TSC] = ("packet", TSCPacket, _TSC.unpack_from, _TSC.size)
_PLAIN_LAYOUTS[_TAG_LOSS] = ("loss", AuxLossRecord, _LOSS.unpack_from, _LOSS.size)

#: TNT outcome tuples, ``_TNT_BITS[count][bitfield]`` for counts 1..6:
#: bit ``i`` of the bitfield is branch ``i``, bits above the count are
#: ignored.
_TNT_BITS = [()] + [
    [tuple(bool(bitfield >> i & 1) for i in range(count)) for bitfield in range(256)]
    for count in range(1, 7)
]


class _Need:
    """The ``need(count)`` reader an extension codec's ``unpack`` gets:
    returns the next *count* bytes of the entry and advances ``pos``,
    or raises the truncation :class:`TraceFormatError`."""

    __slots__ = ("data", "pos", "end", "base_offset", "entry_offset")

    def __init__(self, data, pos: int, base_offset: int, entry_offset: int):
        self.data = data
        self.pos = pos
        self.end = len(data)
        self.base_offset = base_offset
        self.entry_offset = entry_offset

    def __call__(self, count: int) -> bytes:
        start = self.pos
        self.pos = min(start + count, self.end)
        if self.pos - start != count:
            raise _truncated(self.base_offset + self.pos, self.entry_offset)
        return self.data[start:self.pos]


def _truncated(offset: int, entry_offset: int) -> TraceFormatError:
    return TraceFormatError(
        "truncated trace file at offset %d (entry at %d)" % (offset, entry_offset),
        offset=offset,
        entry_offset=entry_offset,
    )


def iter_entries(data, base_offset: int = 0) -> Iterator[Tuple[str, object]]:
    """Yield ``("packet"|"loss", item)`` entries from a magic-less body.

    *data* is the whole body as ``bytes``.  Entries are parsed as
    iteration reaches them, so an error surfaces only then.  Builtin
    entries unpack with precompiled layouts and TNT outcomes come from a
    table; an extension tag calls its codec's ``unpack(need,
    entry_offset)``.  *base_offset* is added to every reported offset, so
    errors from an archive segment payload point at the position in the
    archive file rather than within the payload buffer.
    """
    end = len(data)
    pos = 0
    plain_layouts = _PLAIN_LAYOUTS
    tnt_unpack = _TNT.unpack_from
    tip_unpack = _TIP.unpack_from
    tnt_bits = _TNT_BITS
    while pos < end:
        tag = data[pos]
        body = pos + 1
        if tag == _TAG_TNT:
            stop = body + 10
            if stop > end:
                raise _truncated(base_offset + end, base_offset + pos)
            tsc, count, bitfield = tnt_unpack(data, body)
            if not 1 <= count <= 6:
                entry_offset = base_offset + pos
                raise TraceFormatError(
                    "invalid TNT count %d at offset %d" % (count, entry_offset),
                    offset=entry_offset,
                    entry_offset=entry_offset,
                )
            yield ("packet", TNTPacket(tsc, tnt_bits[count][bitfield]))
        elif tag == _TAG_TIP:
            stop = body + 17
            if stop > end:
                raise _truncated(base_offset + end, base_offset + pos)
            tsc, size, target = tip_unpack(data, body)
            if size not in VALID_TIP_SIZES:
                entry_offset = base_offset + pos
                raise TraceFormatError(
                    "invalid TIP compressed_size %d at offset %d"
                    % (size, entry_offset),
                    offset=entry_offset,
                    entry_offset=entry_offset,
                )
            yield ("packet", TIPPacket(tsc, target, size))
        else:
            layout = plain_layouts[tag]
            if layout is not None:
                kind, cls, unpack_from, size = layout
                stop = body + size
                if stop > end:
                    raise _truncated(base_offset + end, base_offset + pos)
                yield (kind, cls(*unpack_from(data, body)))
            else:
                entry_offset = base_offset + pos
                unpack = _EXTENSION_UNPACK.get(tag)
                if unpack is None:
                    raise TraceFormatError(
                        "unknown tag 0x%02x at offset %d" % (tag, entry_offset),
                        offset=entry_offset,
                        entry_offset=entry_offset,
                    )
                need = _Need(data, body, base_offset, entry_offset)
                packet = unpack(need, entry_offset)
                stop = need.pos
                yield ("packet", packet)
        pos = stop


def iter_body(
    source: BinaryIO, base_offset: int = 0
) -> Iterator[Tuple[str, object]]:
    """Yield ``("packet"|"loss", item)`` entries from a magic-less body.

    Reads the source's remaining bytes at once when iteration starts,
    then parses them with :func:`iter_entries` (entries are still
    yielded one at a time; the list is never built).  *base_offset* is
    added to every reported offset.
    """
    yield from iter_entries(source.read(), base_offset)


def iter_stream(source: BinaryIO) -> Iterator[Tuple[str, object]]:
    """Stream entries from a serialised ``RPT1`` file one at a time."""
    magic = source.read(4)
    if magic != _MAGIC:
        raise TraceFormatError(
            "bad magic %r at offset 0" % magic, offset=0, entry_offset=0
        )
    yield from iter_body(source, base_offset=4)


def read_stream(source: BinaryIO) -> List[Tuple[str, object]]:
    """Parse a serialised stream back into ``("packet"|"loss", item)``."""
    return list(iter_stream(source))


def dump_bytes(stream: Iterable[Tuple[str, object]]) -> bytes:
    """Serialise to an in-memory buffer."""
    sink = io.BytesIO()
    write_stream(stream, sink)
    return sink.getvalue()


def load_bytes(data: bytes) -> List[Tuple[str, object]]:
    """Parse from an in-memory buffer."""
    return read_stream(io.BytesIO(data))
