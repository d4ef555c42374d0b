"""JPortal core: metadata, decoding, NFA reconstruction, recovery, pipeline."""

from .abstraction import (
    TIER_CALL,
    TIER_CONCRETE,
    TIER_CONTROL,
    abstract_ops,
    abstract_sequence,
    common_suffix_length,
)
from .degradation import (
    ANOMALY_METRIC_PREFIX,
    ARCHIVE_METRIC_PREFIX,
    CACHE_METRIC_PREFIX,
    DEFAULT_POLICY,
    AnomalyKind,
    DegradationPolicy,
    anomaly_breakdown,
    metric_name,
)
from .dfacache import AnalysisCache, analysis_cache_key
from .metadata import CodeDatabase, CodeDump, collect_metadata
from .metrics import MetricsRegistry
from .multicore import ThreadTrace, split_by_thread
from .nfa import DFA, NFA, ProgramNFA, abstract_method_nfa, determinize, method_nfa
from .observed import ObservedColumns, ObservedHole, ObservedStep
from .parallel import ideal_makespan
from .pipeline import (
    JPortal,
    JPortalResult,
    PhaseTimings,
    ThreadFlow,
    ThreadPhaseTimings,
)
from .reconstruct import (
    MatchStats,
    Projection,
    Projector,
    abstraction_guided,
    enumerate_and_test,
    match_from,
)
from .recovery import (
    RecoveredFlow,
    RecoveryConfig,
    RecoveryEngine,
    RecoveryStats,
    basic_search,
)

__all__ = [
    "TIER_CALL",
    "TIER_CONCRETE",
    "TIER_CONTROL",
    "abstract_ops",
    "abstract_sequence",
    "common_suffix_length",
    "ANOMALY_METRIC_PREFIX",
    "ARCHIVE_METRIC_PREFIX",
    "CACHE_METRIC_PREFIX",
    "DEFAULT_POLICY",
    "AnomalyKind",
    "DegradationPolicy",
    "anomaly_breakdown",
    "metric_name",
    "AnalysisCache",
    "analysis_cache_key",
    "CodeDatabase",
    "CodeDump",
    "collect_metadata",
    "MetricsRegistry",
    "ideal_makespan",
    "ThreadTrace",
    "split_by_thread",
    "DFA",
    "NFA",
    "ProgramNFA",
    "abstract_method_nfa",
    "determinize",
    "method_nfa",
    "ObservedColumns",
    "ObservedHole",
    "ObservedStep",
    "JPortal",
    "JPortalResult",
    "PhaseTimings",
    "ThreadFlow",
    "ThreadPhaseTimings",
    "MatchStats",
    "Projection",
    "Projector",
    "abstraction_guided",
    "enumerate_and_test",
    "match_from",
    "RecoveredFlow",
    "RecoveryConfig",
    "RecoveryEngine",
    "RecoveryStats",
    "basic_search",
]
