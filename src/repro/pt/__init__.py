"""Simulated Intel PT substrate: packets, encoder, lossy ring buffer, decoder.

The decode core itself lives in :mod:`repro.tracesource`; this package is
the reference *frontend* -- the PT packet model, its encoder, and the
collection/archive stack -- registered under the name ``"pt"`` in the
trace-source registry.
"""

from ..tracesource import ProjectionModel, TraceFrontend, register_frontend
from .buffer import BufferResult, RingBuffer, RingBufferConfig, interleave_with_losses
from .decoder import (
    AnomalyKind,
    DecodeStats,
    DegradationPolicy,
    PTBatchDecoder,
)
from .archive import (
    ArchiveContents,
    ArchiveFormatError,
    ArchiveWriteReport,
    ArchiveWriter,
    SalvageEvent,
    SalvageStats,
    deserialize_code_dump,
    deserialize_database,
    read_archive,
    scan_record_spans,
    serialize_code_dump,
    serialize_database,
    write_archive,
)
from .encoder import EncoderConfig, EncoderStats, PTEncoder, encode_core
from .faults import (
    ARCHIVE_FAULT_KINDS,
    DISK_FAULT_KINDS,
    FaultInjector,
    FaultKind,
    InjectedFault,
    STREAM_FAULT_KINDS,
)
from .packets import (
    AuxLossRecord,
    FUPPacket,
    Packet,
    PGDPacket,
    PGEPacket,
    TIPPacket,
    TNTPacket,
    TSCPacket,
    compressed_tip_size,
)
from .perf import (
    CoreTrace,
    PTConfig,
    PTTrace,
    collect,
    collect_to_archive,
    filter_events,
)

#: Intel PT's static projection: per-branch TNT bits (short TNT is one
#: byte carrying up to 6 outcomes, flushed before any other packet) and
#: full-target TIP packets with upper-byte IP compression (3/5/9 bytes;
#: control alternating between the template area and the JIT code cache
#: mixes the 16-bit and 32-bit update forms, so 4 is typical).  No
#: periodic full-address resync -- PT recovers at PGE/sync boundaries.
PT_PROJECTION = ProjectionModel(
    name="pt",
    version=1,
    outcome_batch_bits=6,
    outcome_header_bytes=1,
    outcome_bits_per_payload_byte=0,
    target_bytes_min=3,
    target_bytes_typical=4,
    target_bytes_max=9,
    sync_interval=None,
    sync_bytes=0,
    time_bytes=8,
    async_bytes=9,
)

#: The Intel PT frontend's registry entry (:mod:`repro.tracesource`).
PT_FRONTEND = register_frontend(
    TraceFrontend(
        name="pt",
        make_encoder=PTEncoder,
        encode_core=encode_core,
        batch_decoder=PTBatchDecoder,
        encoder_config_type=EncoderConfig,
        projection_model=PT_PROJECTION,
    )
)

__all__ = [
    "PT_FRONTEND",
    "PT_PROJECTION",
    "PTBatchDecoder",
    "BufferResult",
    "RingBuffer",
    "RingBufferConfig",
    "interleave_with_losses",
    "AnomalyKind",
    "ArchiveContents",
    "ArchiveFormatError",
    "ArchiveWriteReport",
    "ArchiveWriter",
    "SalvageEvent",
    "SalvageStats",
    "deserialize_code_dump",
    "deserialize_database",
    "read_archive",
    "scan_record_spans",
    "serialize_code_dump",
    "serialize_database",
    "write_archive",
    "DecodeStats",
    "DegradationPolicy",
    "FaultInjector",
    "FaultKind",
    "InjectedFault",
    "STREAM_FAULT_KINDS",
    "ARCHIVE_FAULT_KINDS",
    "DISK_FAULT_KINDS",
    "EncoderConfig",
    "EncoderStats",
    "PTEncoder",
    "encode_core",
    "AuxLossRecord",
    "FUPPacket",
    "Packet",
    "PGDPacket",
    "PGEPacket",
    "TIPPacket",
    "TNTPacket",
    "TSCPacket",
    "compressed_tip_size",
    "CoreTrace",
    "PTConfig",
    "PTTrace",
    "collect",
    "collect_to_archive",
    "filter_events",
]
