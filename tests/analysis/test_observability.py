"""Tests for the per-edge observability classification."""

from repro.analysis import EdgeObservability, ObservabilityMap
from repro.jvm.assembler import MethodAssembler
from repro.jvm.icfg import ICFG
from repro.jvm.model import JClass, JProgram
from repro.jvm.opcodes import Kind
from repro.jvm.templates import TemplateTable


def _program_of(*methods):
    cls = JClass("T")
    for method in methods:
        cls.add_method(method)
    program = JProgram("obs-test")
    program.add_class(cls)
    program.set_entry("T", methods[0].name)
    return program


def _cond_method():
    asm = MethodAssembler("T", "cond", arg_count=1, returns_value=True)
    asm.load(0).ifeq("zero")
    asm.iinc(0, 1)
    asm.goto("out")
    asm.label("zero")
    asm.load(0).const(1).iadd().store(0)
    asm.label("out")
    asm.load(0).ireturn()
    return asm.build()


def _identical_arm_switch():
    asm = MethodAssembler("T", "sw", arg_count=1, returns_value=True)
    asm.load(0).const(3).irem()
    asm.tableswitch({0: "c0", 1: "c1"}, "dflt")
    for label in ("c0", "c1"):
        asm.label(label)
        asm.load(0).const(5).iadd().store(0)
        asm.goto("join")
    asm.label("dflt")
    asm.iinc(0, 1)
    asm.label("join")
    asm.load(0).ireturn()
    return asm.build()


class TestClassification:
    def test_conditional_arms_are_tnt_observed(self):
        program = _program_of(_cond_method())
        icfg = ICFG(program)
        obs = ObservabilityMap(icfg)
        cond_bci = next(
            inst.bci
            for inst in program.method("T", "cond").code
            if inst.kind is Kind.COND
        )
        for edge in icfg.out_edges(("T.cond", cond_bci)):
            assert obs.of(edge) is EdgeObservability.TNT_OBSERVED

    def test_identical_switch_arms_are_silent(self):
        program = _program_of(_identical_arm_switch())
        icfg = ICFG(program)
        obs = ObservabilityMap(icfg)
        switch_bci = next(
            inst.bci
            for inst in program.method("T", "sw").code
            if inst.kind is Kind.SWITCH
        )
        verdicts = [obs.of(e) for e in icfg.out_edges(("T.sw", switch_bci))]
        # Two arms open with ILOAD_0 (silent pair); the default arm opens
        # with IINC and is discriminated by its dispatch TIP.
        assert verdicts.count(EdgeObservability.SILENT) == 2
        assert verdicts.count(EdgeObservability.TIP_OBSERVED) == 1

    def test_straight_line_edges_are_tip_observed(self):
        program = _program_of(_cond_method())
        icfg = ICFG(program)
        obs = ObservabilityMap(icfg)
        for edge in icfg.edges():
            if len(icfg.out_edges(edge.src)) == 1:
                assert obs.of(edge) is EdgeObservability.TIP_OBSERVED

    def test_summary_counts_every_edge(self):
        program = _program_of(_identical_arm_switch())
        icfg = ICFG(program)
        obs = ObservabilityMap(icfg)
        assert sum(obs.summary().values()) == len(obs) == len(icfg.edges())

    def test_template_table_tokens_accepted(self):
        program = _program_of(_identical_arm_switch())
        icfg = ICFG(program)
        obs = ObservabilityMap(icfg, template_table=TemplateTable())
        # Distinct opcodes dispatch through disjoint template ranges in
        # our layout, so the verdicts match the opcode-token ones.
        assert obs.summary() == ObservabilityMap(icfg).summary()


class TestSilentEdges:
    def test_silent_by_method_attribution(self):
        program = _program_of(_identical_arm_switch())
        obs = ObservabilityMap(ICFG(program))
        assert obs.silent_by_method() == {"T.sw": 2}
        assert len(obs.silent_edges()) == 2
