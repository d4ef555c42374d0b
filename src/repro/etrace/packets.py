"""RISC-V E-Trace packets (the branch-trace subset JPortal consumes).

Models the Efficient Trace for RISC-V encoder output (the CVA6
implementation, see PAPERS.md), which compresses differently from Intel
PT:

* ``branch map`` -- a branch count plus up to 31 packed taken/not-taken
  bits in one packet (PT's short TNT carries at most 6);
* ``address`` -- an indirect-jump target, *delta-compressed* against the
  previously reported address (signed difference, 1/2/4/8 bytes; PT
  instead drops matching upper bytes);
* ``sync`` -- a full uncompressed address, emitted at trace start and
  periodically so a decoder can re-synchronise mid-stream;
* ``trap`` -- the source address of an exception or interrupt;
* ``support`` -- encoder status changes (tracing enabled/disabled).

Each packet subclasses its normalised base from
:mod:`repro.tracesource.events`; the shared decode engine dispatches on
those bases, so E-Trace streams flow through exactly the decode, salvage,
and recovery layers PT streams do.  ``size`` is the modelled encoded byte
count (header byte + payload) used by the ring-buffer loss model and the
cross-format compression benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..tracesource.events import (
    AsyncEvent,
    ConditionalOutcomes,
    IndirectTarget,
    TimeRef,
    TraceDisable,
    TraceEnable,
)

#: Branch-map capacity: the format packs up to 31 outcome bits.
BRANCH_MAP_MAX_BITS = 31


@dataclass(frozen=True)
class ETBranchMapPacket(ConditionalOutcomes):
    """A branch count plus packed outcome bits (1 = taken)."""

    @property
    def size(self) -> int:
        # Header byte (format + 5-bit branch count) + packed bit bytes.
        return 1 + (len(self.bits) + 7) // 8

    def __post_init__(self):
        if not 1 <= len(self.bits) <= BRANCH_MAP_MAX_BITS:
            raise ValueError(
                "branch maps carry 1..%d bits" % BRANCH_MAP_MAX_BITS
            )


@dataclass(frozen=True)
class ETAddressPacket(IndirectTarget):
    """An indirect-branch target, delta-compressed against the last one.

    ``compressed_size`` is the encoded byte count (header byte + the
    signed-delta bytes); the full ``target`` is retained so decode needs
    no running-address state.
    """

    compressed_size: int = 9

    @property
    def size(self) -> int:
        return self.compressed_size


@dataclass(frozen=True)
class ETSyncPacket(IndirectTarget):
    """A full-address synchronisation point (trace start / periodic)."""

    @property
    def size(self) -> int:
        # Header byte + context byte + full 8-byte address.
        return 10


@dataclass(frozen=True)
class ETTrapPacket(AsyncEvent):
    """Source address of an exception or interrupt."""

    @property
    def size(self) -> int:
        return 9


@dataclass(frozen=True)
class ETEnablePacket(TraceEnable):
    """Support packet: tracing (re-)enabled at ``ip``."""

    @property
    def size(self) -> int:
        # Enabling re-synchronises: header + context byte + full address.
        return 10


@dataclass(frozen=True)
class ETDisablePacket(TraceDisable):
    """Support packet: tracing disabled (no address payload)."""

    @property
    def size(self) -> int:
        return 2


@dataclass(frozen=True)
class ETTimePacket(TimeRef):
    """Timestamp reference packet."""

    @property
    def size(self) -> int:
        # Header byte + 4 truncated timestamp bytes.
        return 5


ETPacket = Union[
    ETBranchMapPacket,
    ETAddressPacket,
    ETSyncPacket,
    ETTrapPacket,
    ETEnablePacket,
    ETDisablePacket,
    ETTimePacket,
]


def delta_address_size(target: int, last_ip: int) -> int:
    """Encoded size of a delta-compressed address packet.

    The signed difference from the previously reported address is sent
    in the smallest of 1, 2, 4, or 8 bytes; one header byte is always
    present.
    """
    delta = target - last_ip
    if -(1 << 7) <= delta < (1 << 7):
        return 1 + 1
    if -(1 << 15) <= delta < (1 << 15):
        return 1 + 2
    if -(1 << 31) <= delta < (1 << 31):
        return 1 + 4
    return 1 + 8
