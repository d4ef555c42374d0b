"""Intel PT decoder: compatibility surface over the trace-source engine.

The decode core used to live here; it is now the format-agnostic engine
in :mod:`repro.tracesource.engine`, which dispatches on the normalised
event bases (:mod:`repro.tracesource.events`) that PT packets subclass.
This module keeps the historical names importable -- ``PTBatchDecoder``
and the whole anomaly/degradation vocabulary -- so the PT frontend
remains the reference implementation of the trace-source interface
without forking the engine.

See the engine module for the decode semantics, the robustness contract,
and the code-database protocol.
"""

from __future__ import annotations

from ..tracesource.engine import (  # noqa: F401  (compatibility re-exports)
    BLOCK_CHAIN,
    BLOCK_COND,
    BLOCK_END,
    BLOCK_EPOCH,
    BLOCK_UNKNOWN,
    LIFT_STALE,
    MAX_WALK,
    TARGET_CODE,
    TARGET_STUB,
    TARGET_TEMPLATE,
    TARGET_UNKNOWN,
    AnomalyKind,
    BatchEventDecoder,
    DecodeStats,
    DegradationPolicy,
)

#: The PT frontend's decoder *is* the shared engine: PT packets subclass
#: the event bases, so no PT-specific decode logic remains.
PTBatchDecoder = BatchEventDecoder
