"""Pluggable trace-source layer: the format-agnostic decode core.

JPortal's pipeline consumes *branch events*, not packets of a specific
ISA's trace format.  This package holds everything a trace frontend
shares:

* :mod:`repro.tracesource.events` -- the normalised event vocabulary
  (conditional-outcome batches, indirect targets, async events,
  enable/disable, time references, loss spans) that frontend packet
  types subclass;
* :mod:`repro.tracesource.engine` -- the decode engine
  (:class:`~repro.tracesource.engine.BatchEventDecoder`) that turns one
  thread's event stream into observed bytecode columns, plus the
  anomaly taxonomy and degradation policy;
* the :class:`TraceFrontend` registry below, which the pipeline,
  streaming service, and collection stack use to resolve a format name
  (``"pt"``, ``"etrace"``) into its encoder and decoder classes.

A *trace source* is anything that yields the merged
``("packet"|"loss", item)`` stream the engine consumes: an encoder's
output split per thread (:func:`repro.core.multicore.split_by_thread`),
an RPT2 archive reader, or a live streaming tail.  The protocol is
structural -- packets satisfy it by subclassing the event bases, and
sources by yielding tagged tuples in TSC order.

Builtin frontends register themselves on import; :func:`get_frontend`
imports them lazily so this layer never depends on a concrete format at
module-import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from .projection import ProjectionModel  # noqa: F401  (re-exported)
from .engine import (  # noqa: F401  (re-exported: the shared engine API)
    AnomalyKind,
    BatchEventDecoder,
    DecodeStats,
    DegradationPolicy,
)
from .events import (  # noqa: F401  (re-exported: the event vocabulary)
    AsyncEvent,
    ConditionalOutcomes,
    IndirectTarget,
    LossSpan,
    TimeRef,
    TraceDisable,
    TraceEnable,
)


@dataclass(frozen=True)
class TraceFrontend:
    """One trace format's plug into the shared core.

    Attributes:
        name: Registry key; also the archive format tag (``REC_FORMAT``)
            and :attr:`repro.pt.perf.PTConfig.frontend` value.
        make_encoder: ``(config or None) -> encoder``; the encoder's
            ``encode(events)`` maps runtime branch events to this
            format's packets (all subclassing the event bases).
        encode_core: ``(events, config=None) -> list of packets``; the
            stateless one-shot convenience used by benchmarks.
        batch_decoder:
            :class:`~repro.tracesource.engine.BatchEventDecoder`
            subclass for this format.
        encoder_config_type: The config dataclass ``make_encoder``
            accepts; collection passes a foreign config type as ``None``
            so format defaults apply.
        projection_model: The frontend's static
            :class:`~repro.tracesource.projection.ProjectionModel` --
            what its packets reveal about control flow and at what byte
            cost.  The analysis layer refuses frontends without one.
    """

    name: str
    make_encoder: Callable[[object], object]
    encode_core: Callable[..., Sequence[object]]
    batch_decoder: type
    encoder_config_type: type
    projection_model: Optional[ProjectionModel] = None


_FRONTENDS: Dict[str, TraceFrontend] = {}


def register_frontend(frontend: TraceFrontend) -> TraceFrontend:
    """Register *frontend* under its name (last registration wins)."""
    _FRONTENDS[frontend.name] = frontend
    return frontend


def get_frontend(name: str) -> TraceFrontend:
    """Resolve a frontend by name, importing builtins on first use.

    Raises ``KeyError`` for unknown names; callers that must not crash
    (the archive salvage path) catch it and degrade.
    """
    frontend = _FRONTENDS.get(name)
    if frontend is None and name in ("pt", "etrace"):
        # Builtins register themselves at import; importing here keeps
        # the tracesource layer free of format dependencies.
        if name == "pt":
            from .. import pt  # noqa: F401
        else:
            from .. import etrace  # noqa: F401
        frontend = _FRONTENDS.get(name)
    if frontend is None:
        raise KeyError("unknown trace frontend %r" % (name,))
    return frontend


def get_projection_model(name: str) -> ProjectionModel:
    """Resolve a frontend's static projection model by name.

    Raises ``KeyError`` when the frontend is unknown, ``ValueError``
    when it registered without a model -- the static analysis layer
    cannot reason about a format that never declared its projection.
    """
    frontend = get_frontend(name)
    if frontend.projection_model is None:
        raise ValueError(
            "trace frontend %r exports no ProjectionModel" % (name,)
        )
    return frontend.projection_model


def frontend_names() -> Sequence[str]:
    """Names of the frontends registered so far (builtins may be lazy)."""
    return tuple(sorted(_FRONTENDS))
