"""E-Trace packet codecs for the shared RPT1/RPT2 serialisation layer.

Registers one :func:`repro.pt.serialize.register_entry_codec` codec per
E-Trace packet class, so E-Trace streams flow through the same
:func:`write_entry` / :func:`iter_entries` machinery -- and therefore
through the same archive, salvage, and fault-injection layers -- as PT
streams.  Importing this module (which :mod:`repro.etrace` does) is what
makes the tags decodable; the archive scanner triggers that import via
the registry when it sees a format record, *before* any segment body is
parsed.

Tags (little-endian payloads, all starting at 0x10 to stay clear of the
builtin PT range):

====  ==========================================================
byte  meaning
====  ==========================================================
0x10  BRANCH MAP -- u64 tsc, u8 count, u32 packed bits
0x11  ADDRESS    -- u64 tsc, u8 compressed_size, u64 target
0x12  SYNC       -- u64 tsc, u64 target
0x13  TRAP       -- u64 tsc, u64 ip
0x14  ENABLE     -- u64 tsc, u64 ip
0x15  DISABLE    -- u64 tsc, u64 ip
0x16  TIME       -- u64 tsc
====  ==========================================================

Like the TIP codec, ADDRESS stores the full target plus the *logical*
``compressed_size`` so byte accounting survives the round trip; the size
must be one a signed 1/2/4/8-byte delta can produce (header + 1, 2, 4,
or 8), anything else is rejected on both read and write.
"""

from __future__ import annotations

import struct

from ..pt.serialize import TraceFormatError, register_entry_codec
from .packets import (
    BRANCH_MAP_MAX_BITS,
    ETAddressPacket,
    ETBranchMapPacket,
    ETDisablePacket,
    ETEnablePacket,
    ETSyncPacket,
    ETTimePacket,
    ETTrapPacket,
)

TAG_BRANCH_MAP = 0x10
TAG_ADDRESS = 0x11
TAG_SYNC = 0x12
TAG_TRAP = 0x13
TAG_ENABLE = 0x14
TAG_DISABLE = 0x15
TAG_TIME = 0x16

#: Encoded sizes delta compression can produce: header + 1, 2, 4, or 8.
VALID_ET_ADDRESS_SIZES = (2, 3, 5, 9)


def _pack_branch_map(packet: ETBranchMapPacket) -> bytes:
    bits = 0
    for position, bit in enumerate(packet.bits):
        if bit:
            bits |= 1 << position
    return struct.pack("<QBI", packet.tsc, len(packet.bits), bits)


def _unpack_branch_map(need, entry_offset: int) -> ETBranchMapPacket:
    tsc, count, bitfield = struct.unpack("<QBI", need(13))
    if not 1 <= count <= BRANCH_MAP_MAX_BITS:
        raise TraceFormatError(
            "invalid branch-map count %d at offset %d" % (count, entry_offset),
            offset=entry_offset,
            entry_offset=entry_offset,
        )
    bits = tuple(bool(bitfield & (1 << i)) for i in range(count))
    return ETBranchMapPacket(tsc=tsc, bits=bits)


def _pack_address(packet: ETAddressPacket) -> bytes:
    if packet.compressed_size not in VALID_ET_ADDRESS_SIZES:
        raise TraceFormatError(
            "refusing to write invalid address compressed_size %d"
            % packet.compressed_size
        )
    return struct.pack("<QBQ", packet.tsc, packet.compressed_size, packet.target)


def _unpack_address(need, entry_offset: int) -> ETAddressPacket:
    tsc, size, target = struct.unpack("<QBQ", need(17))
    if size not in VALID_ET_ADDRESS_SIZES:
        raise TraceFormatError(
            "invalid address compressed_size %d at offset %d"
            % (size, entry_offset),
            offset=entry_offset,
            entry_offset=entry_offset,
        )
    return ETAddressPacket(tsc=tsc, target=target, compressed_size=size)


def _register_tsc_ip(tag, cls, field):
    def pack(packet) -> bytes:
        return struct.pack("<QQ", packet.tsc, getattr(packet, field))

    def unpack(need, entry_offset: int):
        tsc, value = struct.unpack("<QQ", need(16))
        return cls(**{"tsc": tsc, field: value})

    register_entry_codec(tag, cls, pack, unpack)


def _pack_time(packet: ETTimePacket) -> bytes:
    return struct.pack("<Q", packet.tsc)


def _unpack_time(need, entry_offset: int) -> ETTimePacket:
    (tsc,) = struct.unpack("<Q", need(8))
    return ETTimePacket(tsc=tsc)


register_entry_codec(
    TAG_BRANCH_MAP, ETBranchMapPacket, _pack_branch_map, _unpack_branch_map
)
register_entry_codec(TAG_ADDRESS, ETAddressPacket, _pack_address, _unpack_address)
_register_tsc_ip(TAG_SYNC, ETSyncPacket, "target")
_register_tsc_ip(TAG_TRAP, ETTrapPacket, "ip")
_register_tsc_ip(TAG_ENABLE, ETEnablePacket, "ip")
_register_tsc_ip(TAG_DISABLE, ETDisablePacket, "ip")
register_entry_codec(TAG_TIME, ETTimePacket, _pack_time, _unpack_time)
