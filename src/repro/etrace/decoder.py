"""E-Trace decoder: the shared trace-source engine, under a local name.

E-Trace packets subclass the normalised event bases in
:mod:`repro.tracesource.events`, so the generic engine decodes them with
no frontend-specific code at all -- branch maps land on the conditional
walk, address/sync packets on the indirect path, traps abandon the
block like FUPs do.  The alias exists so call sites (and the frontend
registry entry) can name the E-Trace decoder without knowing the engine
is shared.
"""

from __future__ import annotations

from ..tracesource.engine import BatchEventDecoder

ETraceBatchDecoder = BatchEventDecoder

__all__ = ["ETraceBatchDecoder"]
