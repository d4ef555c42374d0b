"""Pipeline-level graceful degradation surface.

The decoder-level machinery (the
:class:`~repro.tracesource.engine.AnomalyKind` taxonomy, the
:class:`~repro.tracesource.engine.DegradationPolicy` error budget, and
the resync protocol) lives in :mod:`repro.tracesource.engine`, next to
the decode state machine it modifies (:mod:`repro.pt.decoder` re-exports
the names for compatibility); this module is the *pipeline's* view of
it:

* re-exports of the policy/taxonomy types, so offline-side code imports
  them from ``repro.core`` without reaching into the PT layer;
* the metric-naming convention that ties anomaly kinds to
  :class:`~repro.core.metrics.MetricsRegistry` counters;
* :func:`anomaly_breakdown`, which folds the per-kind counters published
  by every stage (decoder, JIT-mode lifter, pipeline chain guard) into
  the single per-kind dict surfaced on
  :attr:`~repro.core.pipeline.JPortalResult.anomalies_by_kind`.

Note on layering: the canonical definitions stay in the frontend-neutral
engine because ``repro.core.pipeline`` imports from it at module level --
the reverse import (engine -> core) would cycle through
``repro.core.__init__``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..tracesource.engine import AnomalyKind, DegradationPolicy
from .dfacache import CACHE_METRIC_PREFIX
from .metrics import MetricsRegistry

__all__ = [
    "AnomalyKind",
    "DegradationPolicy",
    "DEFAULT_POLICY",
    "ANOMALY_METRIC_PREFIX",
    "ARCHIVE_METRIC_PREFIX",
    "CACHE_METRIC_PREFIX",
    "metric_name",
    "anomaly_breakdown",
]

#: The policy used when a pipeline is built without an explicit one.
DEFAULT_POLICY = DegradationPolicy()

#: Per-kind anomaly counters are published as ``<prefix><kind.value>``.
ANOMALY_METRIC_PREFIX = "decode.anomaly."

#: Disk-level salvage events (:mod:`repro.pt.archive`) are published
#: under their own prefix so archive damage is distinguishable from
#: in-stream decode damage, then folded into the same breakdown.
ARCHIVE_METRIC_PREFIX = "archive.anomaly."

#: Degradation events recorded outside the packet decoder use their own
#: counters; ``anomaly_breakdown`` folds them into the matching kind.
_EXTRA_KIND_COUNTERS = {
    "lift.stale_debug_entries": AnomalyKind.STALE_DEBUG_INFO,
    "pipeline.thread_chain_failures": AnomalyKind.CHAIN_FAILURE,
}


def metric_name(kind: AnomalyKind) -> str:
    """Counter name under which *kind* is published."""
    return ANOMALY_METRIC_PREFIX + kind.value


def anomaly_breakdown(
    metrics: MetricsRegistry, tid: Optional[int] = None
) -> Dict[str, int]:
    """Per-kind anomaly counts recorded in *metrics* (all stages).

    Keys are :class:`AnomalyKind` values; ``tid=None`` aggregates across
    threads.  Kinds with a zero count are omitted.
    """
    breakdown = metrics.counters_by_prefix(ANOMALY_METRIC_PREFIX, tid=tid)
    for prefix in (ARCHIVE_METRIC_PREFIX, CACHE_METRIC_PREFIX):
        for key, value in metrics.counters_by_prefix(prefix, tid=tid).items():
            breakdown[key] = breakdown.get(key, 0) + value
    for counter, kind in _EXTRA_KIND_COUNTERS.items():
        count = metrics.counter(counter, tid=tid)
        if count:
            breakdown[kind.value] = breakdown.get(kind.value, 0) + count
    return {key: value for key, value in breakdown.items() if value}
