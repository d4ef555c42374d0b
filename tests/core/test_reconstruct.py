"""Unit tests for projection: Algorithms 1-2 and the production Projector."""

import random

from repro.core import reconstruct
from repro.core.nfa import ProgramNFA
from repro.core.observed import ObservedStep
from repro.core.reconstruct import (
    Projector,
    abstraction_guided,
    enumerate_and_test,
    match_from,
)
from repro.jvm.assembler import MethodAssembler
from repro.jvm.icfg import ICFG
from repro.jvm.jit import JITPolicy
from repro.jvm.model import JClass, JProgram
from repro.jvm.opcodes import Op
from repro.jvm.runtime import RuntimeConfig, run_program
from repro.jvm.verifier import verify_program
from repro.workloads.generator import GeneratorConfig, generate_program

from ..conftest import build_figure2_program
from .test_reconstruct_pda import (
    FULL_SEQUENCE,
    _ambiguous_callsites_program,
    _local_catch_program,
    _recursion_program,
    _truth_steps,
)

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
        projection = self.projector.project(_steps(FUN_FALSE_ARM))
        assert projection.path == FUN_FALSE_ARM_NODES
        assert projection.stats.restarts == 0
        assert projection.stats.matched == len(FUN_FALSE_ARM)

    def test_anchor_pins_frontier(self):
        locations = [None] * len(FUN_FALSE_ARM)
        locations[6] = ("Test.fun", 11)  # a JIT-known location mid-sequence
        projection = self.projector.project(_steps(FUN_FALSE_ARM, locations))
        assert projection.path == FUN_FALSE_ARM_NODES
        assert projection.stats.frontier_peak >= 1

    def test_contradictory_anchor_forces_restart(self):
        locations = [None] * len(FUN_FALSE_ARM)
        locations[6] = ("Test.main", 4)  # iload_0... wrong method AND wrong op
        projection = self.projector.project(_steps(FUN_FALSE_ARM, locations))
        assert projection.stats.restarts >= 1

    def test_empty_segment(self):
        projection = self.projector.project([])
        assert projection.path == []
        assert projection.stats.steps == 0

    def test_unmatchable_symbol_skipped(self):
        # NOP appears nowhere in figure2: position cannot be projected.
        steps = _steps([(Op.NOP, None)] + FUN_FALSE_ARM)
        projection = self.projector.project(steps)
        assert projection.path[0] is None
        assert projection.path[1:] == FUN_FALSE_ARM_NODES

    def test_taken_bits_disambiguate(self):
        # Without taken bits, both arms match the prefix; with them the
        # path is unique and correct.
        projection = self.projector.project(_steps(FUN_FALSE_ARM))
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
        projection = projector.project(_steps(sequence))
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
        projection = projector.project(_steps(blurred))
        assert projection.path == FUN_FALSE_ARM_NODES


# ------------------------------------------------- array engine == object engine
def _opaque_reentry_program():
    """``T.f`` is called once through an opaque site and once normally.

    Entering ``f`` through the callback fallback pushes the opaque
    site's return site, but ``f``'s only static RETURN edge goes to the
    normal site: a one-transition RETURN that contradicts the stack.
    """
    callee = MethodAssembler("T", "f", arg_count=1, returns_value=True)
    callee.load(0).ireturn()
    main = MethodAssembler("T", "main", arg_count=0, returns_value=True)
    main.const(1).invokestatic("T", "f", 1, True).pop()  # bci 1: opaque
    main.const(2).invokestatic("T", "f", 1, True).ireturn()
    cls = JClass("T")
    cls.add_method(callee.build())
    cls.add_method(main.build())
    program = JProgram("opaque_reentry")
    program.add_class(cls)
    program.set_entry("T", "main")
    verify_program(program)
    return program


def _call_bci(figure2):
    """The bci of ``Test.main``'s call to ``Test.fun``."""
    return next(
        inst.bci
        for inst in figure2.method("Test", "main").code
        if inst.methodref is not None
    )


def _interpreted_truth(program):
    run = run_program(
        program,
        RuntimeConfig(cores=1, max_steps=200_000, jit=JITPolicy(hot_threshold=10**9)),
    )
    return run.threads[0].truth


def _sweep_sources():
    """(nfa, true path, true steps) for every program the sweep blurs."""
    figure2 = build_figure2_program(iterations=12)
    call_bci = _call_bci(figure2)
    throws = GeneratorConfig(throw_probability=0.5)
    icfgs = [
        ICFG(figure2),
        ICFG(figure2, opaque_call_sites=[("Test.main", call_bci)]),
        ICFG(_ambiguous_callsites_program()),
        ICFG(_local_catch_program()),
        ICFG(_recursion_program(8)),
    ] + [ICFG(generate_program(seed, throws)) for seed in (2, 9, 10, 28)]
    sources = []
    for icfg in icfgs:
        nfa = ProgramNFA(icfg)
        truth = _interpreted_truth(icfg.program)
        sources.append((nfa, truth, _truth_steps(nfa, truth)))
    return sources


def _blurred_cut(rng, nfa, truth, steps, max_length=250):
    """A random cut of a true path with noise on every column: wrong
    symbols, flipped and unknown TNT bits, true, false and unknown
    anchors."""
    ops = sorted(set(nfa.op_of)) + [Op.NOP]  # plus one with no candidate start
    lo = rng.randrange(len(steps))
    hi = min(len(steps), lo + rng.randint(1, max_length))
    cut = []
    for index in range(lo, hi):
        step = steps[index]
        symbol, taken, location = step.symbol, step.taken, None
        if rng.random() < 0.02:
            symbol = rng.choice(ops)
        roll = rng.random()
        if roll < 0.25:
            taken = None
        elif roll < 0.27 and taken is not None:
            taken = not taken
        roll = rng.random()
        if roll < 0.08:
            location = truth[index]
        elif roll < 0.09:
            location = rng.choice(nfa.nodes)
        elif roll < 0.095:
            location = ("Nowhere.m", 0)  # unknown location: pins nothing
        cut.append(
            ObservedStep(
                symbol=symbol, taken=taken, location=location,
                source="interp", tsc=index,
            )
        )
    return cut


def _assert_engines_agree(projector, steps, pad=2):
    """``project_arrays`` over padded columns == ``project`` over *steps*."""
    junk = _steps([(Op.NOP, None)] * pad)
    padded = junk + list(steps) + junk
    arrays = projector.project_arrays(
        [step.symbol for step in padded],
        [step.taken for step in padded],
        [step.location for step in padded],
        pad,
        pad + len(steps),
    )
    objects = projector.project(steps)
    assert arrays.path == objects.path
    assert arrays.stats == objects.stats
    return objects.stats


class TestArrayEngineMatchesObjectEngine:
    """``project_arrays`` commits one-key frontiers inline and keeps dict
    frontiers only while the frontier is ambiguous; ``project`` keeps
    every frontier.  Paths and every ``MatchStats`` field must agree on
    each edge of that window."""

    def setup_method(self):
        self.nfa = ProgramNFA(ICFG(build_figure2_program()))

    def test_multi_start_first_frontier(self):
        steps = _steps(FUN_FALSE_ARM[6:])
        assert len(self.nfa.initial_states(steps[0].symbol)) > 1
        for sensitive in (True, False):
            _assert_engines_agree(Projector(self.nfa, sensitive), steps)

    def test_widen_then_collapse(self):
        # Unknown TNT bits let both IFEQ arms through until the opcodes
        # tell them apart; with the first step pinned the frontier starts
        # as one key.
        blurred = [(op, None) for op, _taken in FUN_FALSE_ARM]
        pinned = [FUN_FALSE_ARM_NODES[0]] + [None] * (len(blurred) - 1)
        for locations in (None, pinned):
            stats = _assert_engines_agree(
                Projector(self.nfa), _steps(blurred, locations)
            )
            assert stats.frontier_peak >= 2 and stats.restarts == 0

    def test_run_ends_inside_window(self):
        nfa = ProgramNFA(ICFG(_ambiguous_callsites_program()))
        # Cut right after the first return: the plain NFA cannot tell the
        # two return sites apart, so the run ends on a two-key frontier
        # and the min tie-break picks the path.
        stats = _assert_engines_agree(
            Projector(nfa, context_sensitive=False), _steps(FULL_SEQUENCE[:7])
        )
        assert stats.frontier_peak >= 2

    def test_callback_fallback_from_one_key_frontier(self):
        program = build_figure2_program()
        call_bci = _call_bci(program)
        nfa = ProgramNFA(ICFG(program, opaque_call_sites=[("Test.main", call_bci)]))
        sequence = [
            (Op.ILOAD_0, None),
            (Op.INVOKESTATIC, None),
            (Op.ILOAD_0, None),
            (Op.IFEQ, True),
            (Op.ILOAD_1, None),
        ]
        pinned = [None, ("Test.main", call_bci), None, None, None]
        for locations in (pinned, None):  # one-key frontier, then a window
            for sensitive in (True, False):
                stats = _assert_engines_agree(
                    Projector(nfa, sensitive), _steps(sequence, locations)
                )
                assert stats.callback_fallbacks == 1

    def test_return_stack_mismatch(self):
        # Two RETURN transitions, one contradicting the pending site.
        nfa = ProgramNFA(ICFG(_ambiguous_callsites_program()))
        stats = _assert_engines_agree(Projector(nfa), _steps(FULL_SEQUENCE))
        assert stats.restarts == 0
        # One RETURN transition, contradicting the stack the callback
        # fallback pushed: the run ends and restarts.
        program = _opaque_reentry_program()
        nfa = ProgramNFA(ICFG(program, opaque_call_sites=[("T.main", 1)]))
        sequence = [
            (Op.ICONST_1, None),
            (Op.INVOKESTATIC, None),
            (Op.ILOAD_0, None),
            (Op.IRETURN, None),
            (Op.POP, None),
        ]
        stats = _assert_engines_agree(
            Projector(nfa), _steps(sequence, [("T.main", 0)] + [None] * 4)
        )
        assert stats.callback_fallbacks == 1 and stats.restarts == 1

    def test_max_frontier_truncation(self, monkeypatch):
        monkeypatch.setattr(reconstruct, "MAX_FRONTIER", 2)
        blurred = _steps([(op, None) for op, _taken in FUN_FALSE_ARM[6:]])
        stats = _assert_engines_agree(Projector(self.nfa), blurred)
        assert stats.frontier_peak == 2

    def test_max_stack_overflow(self, monkeypatch):
        program = _recursion_program(8)
        nfa = ProgramNFA(ICFG(program))
        truth = _interpreted_truth(program)
        steps = _truth_steps(nfa, truth)
        assert _assert_engines_agree(Projector(nfa), steps).frontier_peak == 1
        # Forgotten frames turn the deepest returns context-insensitive.
        monkeypatch.setattr(reconstruct, "MAX_STACK", 2)
        assert _assert_engines_agree(Projector(nfa), steps).frontier_peak >= 2

    def test_seeded_blurred_sweep(self, monkeypatch):
        sources = _sweep_sources()
        peaks = []
        for bounds in ((reconstruct.MAX_FRONTIER, reconstruct.MAX_STACK), (3, 2)):
            monkeypatch.setattr(reconstruct, "MAX_FRONTIER", bounds[0])
            monkeypatch.setattr(reconstruct, "MAX_STACK", bounds[1])
            for number, (nfa, truth, steps) in enumerate(sources):
                rng = random.Random("%d:%d" % (number, bounds[0]))
                for sensitive in (True, False):
                    projector = Projector(nfa, context_sensitive=sensitive)
                    for _ in range(30):
                        cut = _blurred_cut(rng, nfa, truth, steps)
                        stats = _assert_engines_agree(projector, cut)
                        peaks.append(stats.frontier_peak)
        assert max(peaks) >= 3  # some cuts reached the lowered frontier cap
