"""Per-edge observability classification of the ICFG.

What a hardware trace reveals about an ICFG edge depends on how its
*source* instruction is dispatched (see DESIGN.md and the paper's
Section 3), filtered through the active frontend's
:class:`~repro.tracesource.projection.ProjectionModel`:

* a **conditional** emits an outcome bit (PT TNT, E-Trace branch-map
  bit), so both of its arms are directly observed -- ``TNT_OBSERVED``
  (alias ``OUTCOME_OBSERVED``) -- provided the model observes
  conditionals at all;
* any other transfer is witnessed only *indirectly*, by the target
  address the dispatch reveals (PT template TIP, E-Trace address
  packet): the edge is ``TIP_OBSERVED`` (alias ``TARGET_OBSERVED``)
  when that target discriminates it from every sibling edge of the same
  source, i.e. no other successor starts with the same observable
  opcode (template range);
* when two or more successors of one source share the observable target
  token the dispatch cannot tell them apart -- those edges are
  ``SILENT``.  Classic producers: identical-first-opcode switch arms
  (interpreted switches emit no outcome bit), virtual call edges whose
  possible callees open with the same opcode, and return edges to
  return sites that happen to begin identically.

The classification is purely static (opcode metadata plus, optionally,
the exported template table); the decodability report
(:mod:`repro.analysis.report`) lists the silent regions alongside the
ambiguity checker's path-level verdicts.  The default model is Intel
PT's, which reproduces the pre-parametric classification exactly.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from ..jvm.icfg import ICFG, IEdge, IEdgeKind
from ..jvm.opcodes import Kind


def default_model():
    """The PT projection model: the analysis layer's historical default."""
    from ..tracesource import get_projection_model

    return get_projection_model("pt")


class EdgeObservability(enum.Enum):
    """How a trace witnesses one ICFG edge.

    The canonical names predate frontend pluggability; the frontend-
    neutral aliases (``OUTCOME_OBSERVED``, ``TARGET_OBSERVED``) share
    their values, so comparisons and serialized forms are unchanged.
    """

    TNT_OBSERVED = "tnt"  # conditional arm: an outcome bit names it directly
    OUTCOME_OBSERVED = "tnt"  # frontend-neutral alias
    TIP_OBSERVED = "tip"  # the target's dispatch address discriminates it
    TARGET_OBSERVED = "tip"  # frontend-neutral alias
    SILENT = "silent"  # indistinguishable from a sibling edge


class ObservabilityMap:
    """Static per-edge observability verdicts for a whole ICFG.

    Verdicts are keyed by the stable :class:`~repro.jvm.icfg.IEdge` id.
    When a template table is supplied, two target opcodes count as
    distinguishable only if their template address ranges are disjoint
    (:meth:`~repro.jvm.templates.TemplateTable.distinguishes`); without
    one, distinct opcodes are assumed to dispatch through distinct
    templates (true for our layout, and for HotSpot's).  *model* selects
    the frontend projection (default: PT).
    """

    def __init__(self, icfg: ICFG, template_table=None, model=None):
        if model is None:
            model = default_model()
        self.model = model
        self._classes: Dict[int, EdgeObservability] = {}
        self._silent_edges: List[IEdge] = []
        for node in icfg.nodes():
            out = icfg.out_edges(node)
            if not out:
                continue
            source_kind = icfg.instruction(node).kind
            if source_kind is Kind.COND and model.observes_conditionals:
                for edge in out:
                    self._classes[edge.edge_id] = EdgeObservability.TNT_OBSERVED
                continue
            tokens = [
                self._token(
                    icfg.instruction(edge.dst).symbol(), template_table, model
                )
                for edge in out
            ]
            for edge, token in zip(out, tokens):
                if tokens.count(token) > 1:
                    self._classes[edge.edge_id] = EdgeObservability.SILENT
                    self._silent_edges.append(edge)
                else:
                    self._classes[edge.edge_id] = EdgeObservability.TIP_OBSERVED

    @staticmethod
    def _token(symbol, template_table, model):
        """The equivalence token the dispatch reveals for *symbol*."""
        ranges = None
        if template_table is not None:
            ranges = template_table.ranges_of(symbol)
        return model.target_token(symbol, ranges)

    # ---------------------------------------------------------------- queries
    def of(self, edge: IEdge) -> EdgeObservability:
        return self._classes[edge.edge_id]

    def of_id(self, edge_id: int) -> EdgeObservability:
        return self._classes[edge_id]

    def silent_edges(self) -> List[IEdge]:
        """All SILENT edges, in edge-id order."""
        return list(self._silent_edges)

    def summary(self) -> Dict[str, int]:
        """Counts per observability class (taxonomy totals)."""
        counts = {kind.value: 0 for kind in EdgeObservability}
        for verdict in self._classes.values():
            counts[verdict.value] += 1
        return counts

    def silent_by_method(self) -> Dict[str, int]:
        """SILENT edge count per source method."""
        counts: Dict[str, int] = {}
        for edge in self._silent_edges:
            counts[edge.src[0]] = counts.get(edge.src[0], 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._classes)
