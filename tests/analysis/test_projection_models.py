"""Property tests: static observability vs the real encoder round trip.

The frontend-parametric claim of the analysis layer is checkable against
the frontends themselves: an edge classified as *observed* under a
frontend's ProjectionModel must be discriminated by the packets the real
encoder produces for it (and, for dispatch-observed edges, by what the
real decoder makes of them), and a SILENT edge must be byte-for-byte
indistinguishable from the sibling it collides with.  We drive this over
200 generated programs per frontend, reusing the workload generator the
rest of ``tests/analysis`` draws subjects from.
"""

import pytest

from repro.analysis import EdgeObservability, ObservabilityMap
from repro.core.batchflow import JitLifter
from repro.core.metadata import CodeDatabase
from repro.core.observed import ObservedColumns
from repro.jvm.icfg import ICFG
from repro.jvm.machine import TipEvent, TntEvent
from repro.jvm.opcodes import Kind, Op
from repro.jvm.templates import TemplateTable
from repro.tracesource import ProjectionModel, get_frontend, get_projection_model
from repro.workloads.generator import GeneratorConfig, generate_program

SEEDS = range(200)
FRONTENDS = ("pt", "etrace")

_CONFIG = GeneratorConfig(methods=2, max_depth=2)
_TEMPLATES = TemplateTable()
#: An arbitrary fixed dispatch preceding each edge's own events, so the
#: encoder's IP-compression state is identical across the streams being
#: compared.
_ANCHOR = _TEMPLATES.entry(Op.NOP)


def _edge_packets(frontend, model, icfg, edge):
    """The packet stream that 'execution took *edge*' projects to."""
    src_inst = icfg.instruction(edge.src)
    events = [TipEvent(tsc=0, target=_ANCHOR)]
    if src_inst.kind is Kind.COND and model.observes_conditionals:
        taken = edge.dst == (edge.src[0], src_inst.target)
        events.append(TntEvent(tsc=1, taken=taken))
    else:
        dst_inst = icfg.instruction(edge.dst)
        events.append(TipEvent(tsc=1, target=_TEMPLATES.entry(dst_inst.symbol())))
    return tuple(repr(p) for p in frontend.encode_core(events))


def _check_node(frontend, model, observability, icfg, node):
    out = icfg.out_edges(node)
    if len(out) < 2:
        return 0
    src_kind = icfg.instruction(node).kind
    streams = {
        edge.edge_id: _edge_packets(frontend, model, icfg, edge)
        for edge in out
    }
    checked = 0
    for edge in out:
        verdict = observability.of(edge)
        siblings = [
            streams[other.edge_id]
            for other in out
            if other.edge_id != edge.edge_id
        ]
        if verdict is EdgeObservability.SILENT:
            assert any(
                stream == streams[edge.edge_id] for stream in siblings
            ), "SILENT edge %s has no indistinguishable sibling (%s)" % (
                edge,
                frontend.name,
            )
        else:
            assert all(
                stream != streams[edge.edge_id] for stream in siblings
            ), "observed edge %s not discriminated by %s packets" % (
                edge,
                frontend.name,
            )
        checked += 1
    # For dispatch-discriminated sources, the decoder must also tell the
    # streams apart (template TIPs map back to distinct interpreter
    # dispatches); conditional outcomes are discriminated at the packet
    # level (the TNT/branch-map bit) before any dispatch mapping.
    if src_kind is not Kind.COND or not model.observes_conditionals:
        database = CodeDatabase(
            _TEMPLATES.metadata(), [], _TEMPLATES.address_space
        )
        items = {}
        for edge in out:
            decoder = frontend.batch_decoder(
                database, JitLifter(database, icfg.program)
            )
            raw = _edge_raw_packets(frontend, model, icfg, edge)
            columns = decoder.decode_into(
                [("packet", p) for p in raw], ObservedColumns(0)
            )
            items[edge.edge_id] = (
                columns.symbols,
                columns.takens,
                columns.tscs,
                columns.anomalies,
            )
        for edge in out:
            verdict = observability.of(edge)
            siblings = [
                items[other.edge_id]
                for other in out
                if other.edge_id != edge.edge_id
            ]
            if verdict is EdgeObservability.SILENT:
                assert any(s == items[edge.edge_id] for s in siblings)
            else:
                assert all(s != items[edge.edge_id] for s in siblings), (
                    "observed edge %s not discriminated by %s decode"
                    % (edge, frontend.name)
                )
    return checked


def _edge_raw_packets(frontend, model, icfg, edge):
    """Like :func:`_edge_packets` but returning the packet objects."""
    src_inst = icfg.instruction(edge.src)
    events = [TipEvent(tsc=0, target=_ANCHOR)]
    if src_inst.kind is Kind.COND and model.observes_conditionals:
        taken = edge.dst == (edge.src[0], src_inst.target)
        events.append(TntEvent(tsc=1, taken=taken))
    else:
        dst_inst = icfg.instruction(edge.dst)
        events.append(TipEvent(tsc=1, target=_TEMPLATES.entry(dst_inst.symbol())))
    return frontend.encode_core(events)


@pytest.mark.parametrize("frontend_name", FRONTENDS)
def test_observability_matches_encoder_round_trip(frontend_name):
    frontend = get_frontend(frontend_name)
    model = get_projection_model(frontend_name)
    checked = 0
    for seed in SEEDS:
        program = generate_program(seed, _CONFIG)
        icfg = ICFG(program)
        observability = ObservabilityMap(
            icfg, template_table=_TEMPLATES, model=model
        )
        for node in icfg.nodes():
            checked += _check_node(frontend, model, observability, icfg, node)
    # The generator must actually have exercised the property.
    assert checked > 1000, "too few sibling edges checked (%d)" % checked


class TestDegenerateModels:
    """Parametricity is real: a weaker projection weakens the verdicts."""

    def _icfg(self, seed=7):
        program = generate_program(seed, _CONFIG)
        return ICFG(program)

    def test_outcome_blind_model_silences_conditional_arms(self):
        icfg = self._icfg()
        blind = ProjectionModel(
            name="outcome-blind", version=0, observes_conditionals=False
        )
        full = ObservabilityMap(icfg, template_table=_TEMPLATES)
        weak = ObservabilityMap(icfg, template_table=_TEMPLATES, model=blind)
        flipped = 0
        for node in icfg.nodes():
            if icfg.instruction(node).kind is not Kind.COND:
                continue
            out = icfg.out_edges(node)
            if len(out) < 2:
                continue
            for edge in out:
                assert full.of(edge) is EdgeObservability.TNT_OBSERVED
                # Both arms dispatch their targets; whether the weak
                # model still tells them apart depends on the target
                # opcodes, exactly like a switch.
                if weak.of(edge) is EdgeObservability.SILENT:
                    flipped += 1
        assert weak.summary()["tnt"] == 0

    def test_target_blind_model_silences_every_choice(self):
        icfg = self._icfg()
        blind = ProjectionModel(
            name="target-blind",
            version=0,
            observes_conditionals=True,
            observes_targets=False,
        )
        weak = ObservabilityMap(icfg, template_table=_TEMPLATES, model=blind)
        for node in icfg.nodes():
            out = icfg.out_edges(node)
            if len(out) < 2:
                continue
            if icfg.instruction(node).kind is Kind.COND:
                for edge in out:
                    assert weak.of(edge) is EdgeObservability.TNT_OBSERVED
            else:
                for edge in out:
                    assert weak.of(edge) is EdgeObservability.SILENT

    def test_frontends_agree_on_full_projections(self):
        """PT and E-Trace both observe outcomes and targets, so their
        observability classes coincide -- the formats differ in cost,
        not information (which the cross-format bench pins dynamically)."""
        icfg = self._icfg()
        pt = ObservabilityMap(
            icfg, template_table=_TEMPLATES, model=get_projection_model("pt")
        )
        et = ObservabilityMap(
            icfg,
            template_table=_TEMPLATES,
            model=get_projection_model("etrace"),
        )
        for node in icfg.nodes():
            for edge in icfg.out_edges(node):
                assert pt.of(edge) is et.of(edge)
