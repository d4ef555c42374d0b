"""Intel PT trace packets (the subset JPortal consumes).

Packet kinds follow Section 2 of the paper:

* ``PGE``/``PGD`` -- tracing start/stop, with the IP;
* ``TNT`` -- packed conditional-branch outcomes (1 bit per branch, up to
  6 bits per short packet);
* ``TIP`` -- indirect-branch target IP, with upper-byte compression
  against the previously emitted IP;
* ``FUP`` -- source IP of an asynchronous event;
* ``TSC`` -- timestamp packets.

Each packet subclasses its normalised event base from
:mod:`repro.tracesource.events`, which is what the decode engine
dispatch on -- the PT classes only add the encoded ``size`` and any
PT-specific constraints (the 6-bit short-TNT limit, TIP IP compression).

Every packet also carries the generation-time TSC as metadata (real
decoders interpolate between TSC packets; we model the resulting
imprecision with sideband timestamp jitter instead -- see DESIGN.md).

:class:`AuxLossRecord` is not a PT packet: it models the
``perf_record_aux`` records (with the truncated flag) that perf emits when
the ring buffer overflows, which JPortal uses to localise data loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..tracesource.events import (
    AsyncEvent,
    ConditionalOutcomes,
    IndirectTarget,
    LossSpan,
    TimeRef,
    TraceDisable,
    TraceEnable,
)


@dataclass(frozen=True)
class PGEPacket(TraceEnable):
    """Packet Generation Enable: tracing begins at ``ip``."""

    @property
    def size(self) -> int:
        return 9


@dataclass(frozen=True)
class PGDPacket(TraceDisable):
    """Packet Generation Disable: tracing ends at ``ip``."""

    @property
    def size(self) -> int:
        return 9


@dataclass(frozen=True)
class TNTPacket(ConditionalOutcomes):
    """Up to six conditional outcomes packed into one byte."""

    @property
    def size(self) -> int:
        return 1

    def __post_init__(self):
        if not 1 <= len(self.bits) <= 6:
            raise ValueError("short TNT packets carry 1..6 bits")


@dataclass(frozen=True)
class TIPPacket(IndirectTarget):
    """Indirect-branch target.

    ``compressed_size`` is the encoded byte count after IP compression
    (header byte + 2, 4, or 8 target bytes).
    """

    compressed_size: int = 9

    @property
    def size(self) -> int:
        return self.compressed_size


@dataclass(frozen=True)
class FUPPacket(AsyncEvent):
    """Source IP of an asynchronous event (fault, interrupt)."""

    @property
    def size(self) -> int:
        return 9


@dataclass(frozen=True)
class TSCPacket(TimeRef):
    """Timestamp packet."""

    @property
    def size(self) -> int:
        return 8


Packet = Union[PGEPacket, PGDPacket, TNTPacket, TIPPacket, FUPPacket, TSCPacket]


@dataclass(frozen=True)
class AuxLossRecord(LossSpan):
    """A hole in the trace: packets in ``[start_tsc, end_tsc]`` were lost.

    Mirrors ``perf_record_aux`` with ``PERF_AUX_FLAG_TRUNCATED``: JPortal
    "leverages these events to localise data loss and separate
    subsequences" (Section 4).
    """


def compressed_tip_size(target: int, last_ip: int) -> int:
    """Encoded size of a TIP for *target* given the previous IP context.

    Mirrors PT's IP compression: if the upper 6 bytes match the last IP,
    only 2 target bytes are sent; if the upper 4 match, 4 bytes; otherwise
    the full 8.  One header byte is always present.
    """
    if (target >> 16) == (last_ip >> 16):
        return 1 + 2
    if (target >> 32) == (last_ip >> 32):
        return 1 + 4
    return 1 + 8
