"""Targeted tests for context-sensitive (PDA-style) projection."""

from repro.core.nfa import ProgramNFA
from repro.core.observed import ObservedStep
from repro.core.reconstruct import Projector
from repro.jvm.assembler import MethodAssembler
from repro.jvm.icfg import ICFG
from repro.jvm.model import JClass, JProgram
from repro.jvm.opcodes import Op
from repro.jvm.verifier import verify_program


def _ambiguous_callsites_program():
    """Two call sites of the same callee with *identical* continuations --
    the plain NFA cannot tell the return sites apart."""
    helper = MethodAssembler("T", "helper", arg_count=1, returns_value=True)
    helper.load(0).const(1).iadd().ireturn()
    main = MethodAssembler("T", "main", arg_count=0, returns_value=True)
    # site 1: const, call, pop
    main.const(1).invokestatic("T", "helper", 1, True).pop()
    # site 2: const, call, pop  (identical shape)
    main.const(2).invokestatic("T", "helper", 1, True).pop()
    main.const(0).ireturn()
    cls = JClass("T")
    cls.add_method(helper.build())
    cls.add_method(main.build())
    program = JProgram("amb")
    program.add_class(cls)
    program.set_entry("T", "main")
    verify_program(program)
    return program


def _recursion_program(depth):
    """``R.down(n)`` recurses *n* times; ``R.main`` calls it with *depth*."""
    rec = MethodAssembler("R", "down", arg_count=1, returns_value=True)
    rec.load(0).ifle("base")
    rec.load(0).const(1).isub().invokestatic("R", "down", 1, True).ireturn()
    rec.label("base")
    rec.const(0).ireturn()
    main = MethodAssembler("R", "main", arg_count=0, returns_value=True)
    main.const(depth)
    main.invokestatic("R", "down", 1, True).ireturn()
    cls = JClass("R")
    cls.add_method(rec.build())
    cls.add_method(main.build())
    program = JProgram("deep")
    program.add_class(cls)
    program.set_entry("R", "main")
    verify_program(program)
    return program


def _steps(symbols):
    return [
        ObservedStep(symbol=op, taken=taken, location=None, source="interp", tsc=i)
        for i, (op, taken) in enumerate(symbols)
    ]


# The full observed sequence of main(): both call sites.
FULL_SEQUENCE = [
    (Op.ICONST_1, None),
    (Op.INVOKESTATIC, None),
    (Op.ILOAD_0, None),  # helper@0
    (Op.ICONST_1, None),
    (Op.IADD, None),
    (Op.IRETURN, None),
    (Op.POP, None),  # back at main@2
    (Op.ICONST_2, None),
    (Op.INVOKESTATIC, None),
    (Op.ILOAD_0, None),
    (Op.ICONST_1, None),
    (Op.IADD, None),
    (Op.IRETURN, None),
    (Op.POP, None),  # back at main@5
    (Op.ICONST_0, None),
    (Op.IRETURN, None),
]

EXPECTED = [
    ("T.main", 0),
    ("T.main", 1),
    ("T.helper", 0),
    ("T.helper", 1),
    ("T.helper", 2),
    ("T.helper", 3),
    ("T.main", 2),
    ("T.main", 3),
    ("T.main", 4),
    ("T.helper", 0),
    ("T.helper", 1),
    ("T.helper", 2),
    ("T.helper", 3),
    ("T.main", 5),
    ("T.main", 6),
    ("T.main", 7),
]


class TestContextSensitivity:
    def setup_method(self):
        self.program = _ambiguous_callsites_program()
        self.nfa = ProgramNFA(ICFG(self.program))

    def test_pda_resolves_return_sites_exactly(self):
        projector = Projector(self.nfa, context_sensitive=True)
        projection = projector.project(_steps(FULL_SEQUENCE))
        assert projection.path == EXPECTED
        assert projection.stats.restarts == 0

    def test_nfa_mode_still_produces_feasible_path(self):
        projector = Projector(self.nfa, context_sensitive=False)
        projection = projector.project(_steps(FULL_SEQUENCE))
        assert projection.stats.matched == len(FULL_SEQUENCE)
        # Every consecutive pair is an ICFG edge (feasibility), even if the
        # return sites may be swapped.
        icfg = ICFG(self.program)
        for left, right in zip(projection.path, projection.path[1:]):
            successors = {dst for dst, _k in icfg.successors(left)}
            assert right in successors

    def test_midstream_start_with_empty_stack(self):
        """A segment starting inside the callee has no call on the stack;
        the return must fall back to context-insensitive behaviour."""
        tail = FULL_SEQUENCE[9:]  # starts at helper@0 of the second call
        projector = Projector(self.nfa, context_sensitive=True)
        projection = projector.project(_steps(tail))
        assert projection.stats.matched == len(tail)
        # The helper body is identified even without a stack.
        assert projection.path[0] == ("T.helper", 0)

    def test_deep_recursion_beyond_stack_bound(self):
        """Recursion deeper than MAX_STACK must degrade gracefully, not
        fail: oldest frames are forgotten."""
        from repro.core import reconstruct

        program = _recursion_program(reconstruct.MAX_STACK + 20)

        from repro.jvm.runtime import RuntimeConfig, run_program
        from repro.jvm.jit import JITPolicy

        run = run_program(
            program, RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=10**9))
        )
        from ..conftest import analyze_lossless

        result = analyze_lossless(program, run)
        flow = result.flow_of(0)
        # Deep recursion unwinds without failures; every step is matched.
        assert flow.projection.matched == flow.projection.steps
        assert flow.projection.restarts == 0
        # Beyond MAX_STACK the oldest frames were forgotten, so the very
        # last returns are context-insensitive and may pick the wrong (but
        # feasible) return site: near-exact, by design.
        from repro.profiling.accuracy import sequence_similarity

        similarity = sequence_similarity(
            run.threads[0].truth, flow.reconstructed_nodes()
        )
        assert similarity > 0.99


def _local_catch_program():
    """``T.b(x)`` throws when ``x == 0`` and catches it itself; ``T.main``
    calls it twice from sites with identical continuations."""
    callee = MethodAssembler("T", "b", arg_count=1, returns_value=True)
    start = callee.here()
    callee.load(0).ifne("no_throw")
    callee.new("E").athrow()
    callee.label("no_throw")
    end = callee.here()
    callee.goto("done")
    callee.label("catch")
    callee.pop()
    callee.label("done")
    callee.load(0).ireturn()
    callee.handler(start, end, "catch")
    main = MethodAssembler("T", "main", arg_count=0, returns_value=True)
    main.const(0).invokestatic("T", "b", 1, True).store(0)  # bci 0-2
    main.const(0).invokestatic("T", "b", 1, True).store(0)  # bci 3-5
    main.load(0).ireturn()
    cls = JClass("T")
    cls.add_method(callee.build())
    cls.add_method(main.build())
    program = JProgram("local_catch")
    program.add_class(cls)
    program.set_entry("T", "main")
    verify_program(program)
    return program


def _truth_steps(nfa, truth):
    """Interpreted steps of a true path (TNT bits from the next node)."""
    steps = []
    for index, node in enumerate(truth):
        state = nfa.state_of[node]
        taken = None
        arms = nfa.cond_arms[state]
        if arms is not None and index + 1 < len(truth):
            taken = nfa.state_of[truth[index + 1]] == arms[1]
        steps.append(
            ObservedStep(
                symbol=nfa.op_of[state], taken=taken, location=None,
                source="interp", tsc=index,
            )
        )
    return steps


class TestLocalCatch:
    def test_throw_caught_in_own_method_keeps_call_context(self):
        """A handler in the thrower's own method pops no frame: the
        pending return site survives, so the second return goes back to
        its own call site instead of fanning out to both."""
        from repro.jvm.jit import JITPolicy
        from repro.jvm.runtime import RuntimeConfig, run_program

        program = _local_catch_program()
        nfa = ProgramNFA(ICFG(program))
        run = run_program(
            program, RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=10**9))
        )
        truth = run.threads[0].truth
        assert run.counters["exceptions"] == 2
        cut = truth[: truth.index(("T.main", 5)) + 1]  # just after the 2nd store
        steps = _truth_steps(nfa, cut)
        projector = Projector(nfa, context_sensitive=True)
        assert projector.project(steps).path == cut
        columns = (
            [step.symbol for step in steps],
            [step.taken for step in steps],
            [step.location for step in steps],
        )
        assert projector.project_arrays(*columns, 0, len(steps)).path == cut
