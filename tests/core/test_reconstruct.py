"""Unit tests for projection: Algorithms 1-2 and the production Projector.

``test_projection_golden.py`` pins the projector's outputs on directed
edge cases, a seeded blurred sweep and the Ablation A programs.
"""

from repro.core.nfa import ProgramNFA
from repro.core.observed import ObservedStep
from repro.core.reconstruct import (
    Projector,
    abstraction_guided,
    enumerate_and_test,
    match_from,
)
from repro.jvm.icfg import ICFG
from repro.jvm.opcodes import Op

from ..conftest import build_figure2_program
from .test_reconstruct_pda import _project

# fun(0, b even): the else-arm then the true-return.
FUN_FALSE_ARM = [
    (Op.ILOAD_0, None),
    (Op.IFEQ, True),
    (Op.ILOAD_1, None),
    (Op.ICONST_2, None),
    (Op.ISUB, None),
    (Op.ISTORE_1, None),
    (Op.ILOAD_1, None),
    (Op.ICONST_2, None),
    (Op.IREM, None),
    (Op.IFNE, False),
    (Op.ICONST_1, None),
    (Op.IRETURN, None),
]

FUN_FALSE_ARM_NODES = [
    ("Test.fun", bci) for bci in (0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
]


def _steps(symbols, locations=None):
    steps = []
    for index, (op, taken) in enumerate(symbols):
        location = None
        if locations is not None:
            location = locations[index]
        steps.append(
            ObservedStep(symbol=op, taken=taken, location=location, source="interp", tsc=index)
        )
    return steps


class TestMatchFrom:
    def setup_method(self):
        self.program = build_figure2_program()
        self.nfa = ProgramNFA(ICFG(self.program))

    def test_match_from_correct_start(self):
        start = self.nfa.state_of[("Test.fun", 0)]
        path = match_from(self.nfa, _steps(FUN_FALSE_ARM), start)
        assert path == FUN_FALSE_ARM_NODES

    def test_match_from_wrong_start_fails(self):
        start = self.nfa.state_of[("Test.main", 0)]
        assert match_from(self.nfa, _steps(FUN_FALSE_ARM), start) is None

    def test_empty_sequence_matches_trivially(self):
        assert match_from(self.nfa, [], 0) == []


class TestAlgorithm1:
    def setup_method(self):
        self.program = build_figure2_program()
        self.nfa = ProgramNFA(ICFG(self.program))

    def test_finds_unique_path(self):
        path = enumerate_and_test(self.nfa, FUN_FALSE_ARM)
        assert path == FUN_FALSE_ARM_NODES

    def test_rejects_infeasible_sequence(self):
        impossible = [(Op.IRETURN, None)] * 3
        assert enumerate_and_test(self.nfa, impossible) is None

    def test_midstream_start_found(self):
        # A sequence starting mid-method (trace can start anywhere).
        tail = FUN_FALSE_ARM[6:]
        path = enumerate_and_test(self.nfa, tail)
        assert path is not None
        assert path[-1] == ("Test.fun", 16)

    def test_interprocedural_sequence(self):
        # main's call site into fun: invokestatic then fun's entry.
        sequence = [
            (Op.ILOAD_0, None),
            (Op.INVOKESTATIC, None),
            (Op.ILOAD_0, None),
            (Op.IFEQ, True),
        ]
        path = enumerate_and_test(self.nfa, sequence)
        assert path is not None
        assert path[1] == ("Test.main", 11)
        assert path[2] == ("Test.fun", 0)


class TestAlgorithm2:
    def setup_method(self):
        self.program = build_figure2_program()
        self.nfa = ProgramNFA(ICFG(self.program))

    def test_agrees_with_algorithm1(self):
        for sequence in (FUN_FALSE_ARM, FUN_FALSE_ARM[6:], FUN_FALSE_ARM[:4]):
            a1 = enumerate_and_test(self.nfa, sequence)
            a2 = abstraction_guided(self.nfa, sequence)
            assert (a1 is None) == (a2 is None)
            if a1 is not None:
                assert a1 == a2

    def test_rejects_what_algorithm1_rejects(self):
        impossible = [
            (Op.ILOAD_0, None),
            (Op.IFEQ, True),
            (Op.ICONST_1, None),  # wrong arm content
        ]
        assert enumerate_and_test(self.nfa, impossible) is None
        assert abstraction_guided(self.nfa, impossible) is None


class TestProjector:
    def setup_method(self):
        self.program = build_figure2_program()
        self.nfa = ProgramNFA(ICFG(self.program))
        self.projector = Projector(self.nfa)

    def test_full_segment_projection(self):
        projection = _project(self.projector, _steps(FUN_FALSE_ARM))
        assert projection.path == FUN_FALSE_ARM_NODES
        assert projection.stats.restarts == 0
        assert projection.stats.matched == len(FUN_FALSE_ARM)

    def test_anchor_pins_frontier(self):
        # Without TNT bits both IFEQ arms survive until the opcodes tell
        # them apart; a JIT-known location on the else-arm's first step
        # pins the frontier to one state.
        blurred = [(op, None) for op, _taken in FUN_FALSE_ARM]
        locations = [None] * len(blurred)
        locations[2] = ("Test.fun", 7)
        free = _project(self.projector, _steps(blurred))
        pinned = _project(self.projector, _steps(blurred, locations))
        assert free.path == pinned.path == FUN_FALSE_ARM_NODES
        assert free.stats.frontier_peak == 2
        assert pinned.stats.frontier_peak == 1

    def test_contradictory_anchor_forces_restart(self):
        locations = [None] * len(FUN_FALSE_ARM)
        locations[6] = ("Test.main", 4)  # iload_0... wrong method AND wrong op
        projection = _project(self.projector, _steps(FUN_FALSE_ARM, locations))
        assert projection.stats.restarts >= 1

    def test_empty_segment(self):
        projection = _project(self.projector, [])
        assert projection.path == []
        assert projection.stats.steps == 0

    def test_unmatchable_symbol_skipped(self):
        # NOP appears nowhere in figure2: position cannot be projected.
        steps = _steps([(Op.NOP, None)] + FUN_FALSE_ARM)
        projection = _project(self.projector, steps)
        assert projection.path[0] is None
        assert projection.path[1:] == FUN_FALSE_ARM_NODES

    def test_taken_bits_disambiguate(self):
        # Without taken bits, both arms match the prefix; with them the
        # path is unique and correct.
        projection = _project(self.projector, _steps(FUN_FALSE_ARM))
        assert projection.path[2] == ("Test.fun", 7)  # else-arm, not then-arm


class TestCallbackFallback:
    def test_opaque_call_recovered_via_entry_search(self):
        program = build_figure2_program()
        call_bci = next(
            inst.bci
            for inst in program.method("Test", "main").code
            if inst.methodref is not None
        )
        icfg = ICFG(program, opaque_call_sites=[("Test.main", call_bci)])
        nfa = ProgramNFA(icfg)
        projector = Projector(nfa)
        sequence = [
            (Op.ILOAD_0, None),  # main@10
            (Op.INVOKESTATIC, None),  # main@11 (opaque!)
            (Op.ILOAD_0, None),  # fun@0 -- only findable via entry search
            (Op.IFEQ, True),
            (Op.ILOAD_1, None),
        ]
        projection = _project(projector, _steps(sequence))
        assert projection.stats.callback_fallbacks == 1
        assert projection.path[2] == ("Test.fun", 0)


class TestUnknownOutcome:
    """``taken=None`` (a conditional whose TNT bit was lost) must stay
    nondeterministic -- both arms explored -- never collapse to one arm."""

    def test_nfa_step_with_none_keeps_both_arms(self):
        program = build_figure2_program()
        nfa = ProgramNFA(ICFG(program))
        ifeq_state = nfa.state_of[("Test.fun", 1)]  # the IFEQ at bci 1
        both = set(nfa.step(ifeq_state, None))
        taken_only = set(nfa.step(ifeq_state, True))
        not_taken_only = set(nfa.step(ifeq_state, False))
        assert taken_only | not_taken_only == both
        assert taken_only != both and not_taken_only != both

    def test_projection_recovers_despite_unknown_bit(self):
        # The same observed sequence as FUN_FALSE_ARM but with the IFEQ
        # outcome unknown: the remaining opcodes disambiguate the path,
        # so projection still finds the unique concrete route.
        blurred = [(op, None) for op, _taken in FUN_FALSE_ARM]
        program = build_figure2_program()
        projector = Projector(ProgramNFA(ICFG(program)))
        projection = _project(projector, _steps(blurred))
        assert projection.path == FUN_FALSE_ARM_NODES
