"""RISC-V E-Trace frontend: branch-map packets over the shared decode core.

A second :class:`repro.tracesource.TraceFrontend` implementation
(registered as ``"etrace"``), modelled on the Efficient Trace for RISC-V
branch-trace format: outcome bits pack into up-to-31-bit branch maps,
indirect targets are delta-compressed against the previously reported
address, and periodic full-address sync packets bound resynchronisation
cost.  Decode, multicore splitting, archives, salvage, fault injection,
and recovery are all shared with the PT frontend -- selecting the
frontend is ``PTConfig(frontend="etrace")``.

Importing this package registers both the frontend and the RPT1/RPT2
entry codecs for E-Trace packets (:mod:`repro.etrace.serialize`).
"""

from ..tracesource import ProjectionModel, TraceFrontend, register_frontend
from . import serialize as _serialize  # noqa: F401 - codec registration
from .decoder import ETraceBatchDecoder
from .encoder import ETraceEncoder, ETraceEncoderConfig, encode_core
from .packets import (
    BRANCH_MAP_MAX_BITS,
    ETAddressPacket,
    ETBranchMapPacket,
    ETDisablePacket,
    ETEnablePacket,
    ETPacket,
    ETSyncPacket,
    ETTimePacket,
    ETTrapPacket,
    delta_address_size,
)

#: E-Trace's static projection: outcome bits pack into branch maps (one
#: header byte + one payload byte per 8 bits, up to 31 bits -- but the
#: map is flushed before every address packet, so interpreted dispatch
#: pays the 2-byte single-bit case), delta-compressed target addresses
#: (1 header + 1/2/4/8 delta bytes; the template/JIT region mix makes
#: 4 typical, as for PT's TIP), and a 10-byte full-address sync every
#: ``sync_interval`` address packets bounding post-loss
#: resynchronisation.
ETRACE_PROJECTION = ProjectionModel(
    name="etrace",
    version=1,
    outcome_batch_bits=BRANCH_MAP_MAX_BITS,
    outcome_header_bytes=1,
    outcome_bits_per_payload_byte=8,
    target_bytes_min=2,
    target_bytes_typical=4,
    target_bytes_max=9,
    sync_interval=ETraceEncoderConfig().sync_interval,
    sync_bytes=10,
    time_bytes=5,
    async_bytes=9,
)

#: The E-Trace frontend's registry entry (:mod:`repro.tracesource`).
ETRACE_FRONTEND = register_frontend(
    TraceFrontend(
        name="etrace",
        make_encoder=ETraceEncoder,
        encode_core=encode_core,
        batch_decoder=ETraceBatchDecoder,
        encoder_config_type=ETraceEncoderConfig,
        projection_model=ETRACE_PROJECTION,
    )
)

__all__ = [
    "BRANCH_MAP_MAX_BITS",
    "ETAddressPacket",
    "ETBranchMapPacket",
    "ETDisablePacket",
    "ETEnablePacket",
    "ETPacket",
    "ETRACE_FRONTEND",
    "ETRACE_PROJECTION",
    "ETSyncPacket",
    "ETTimePacket",
    "ETTrapPacket",
    "ETraceBatchDecoder",
    "ETraceEncoder",
    "ETraceEncoderConfig",
    "delta_address_size",
    "encode_core",
]
