"""Streaming incremental decode: tail-follow growing ``RPT2`` archives.

Public surface:

* :class:`StreamDecoder` -- one tenant: poll a growing archive, decode
  committed segments incrementally, ``finalize()`` bit-identical to
  batch :meth:`~repro.core.pipeline.JPortal.analyze_archive`; can
  record where its reader stood in a ``JPSC`` checkpoint sidecar
  (:meth:`~StreamDecoder.write_checkpoint`) and be rebuilt by
  re-reading that archive prefix (:meth:`~StreamDecoder.restore`);
* :class:`StreamSupervisor` -- many tenants on one shared worker pool,
  with per-tenant ``stream.*`` metrics and fault-isolated supervision:
  a :class:`ResilienceConfig` turns on retry/backoff with quarantine
  (:class:`TenantHealth`), watchdog poll deadlines, bounded-memory
  backpressure (:class:`BackpressureConfig`), and automatic
  checkpointing; isolated finalize failures surface as
  :class:`TenantFailure` values instead of exceptions;
* :class:`FlowDelta` -- what one poll changed (including its
  ``error``/``transient``/``shed`` degradation markers).

See ``python -m repro.stream --demo`` for an end-to-end example
(``--kill-at`` demonstrates checkpoint/restore) and DESIGN.md sections
3g and 3j for the architecture.
"""

from .delta import FlowDelta
from .resilience import (
    BackpressureConfig,
    ResilienceConfig,
    RetryPolicy,
    TenantFailure,
    TenantHealth,
    checkpoint_path_for,
)
from .service import StreamDecoder, StreamSupervisor

__all__ = [
    "BackpressureConfig",
    "FlowDelta",
    "ResilienceConfig",
    "RetryPolicy",
    "StreamDecoder",
    "StreamSupervisor",
    "TenantFailure",
    "TenantHealth",
    "checkpoint_path_for",
]
