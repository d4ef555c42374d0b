"""Unit tests for the NFA formulation (Definitions 4.1-4.3, Figures 4-5)."""

from repro.core.nfa import NFA, ProgramNFA, abstract_method_nfa, determinize, method_nfa
from repro.core.reconstruct import Projector
from repro.jvm.icfg import ICFG
from repro.jvm.opcodes import Op, tier
from repro.workloads import SUBJECT_NAMES, build_subject
from repro.workloads.generator import GeneratorConfig, generate_program

from ..conftest import build_figure2_program
from .test_projection_golden import _call_bci, _interpreted_truth, _located
from .test_reconstruct import _steps
from .test_reconstruct_pda import _project


class TestProgramNFA:
    def setup_method(self):
        self.program = build_figure2_program()
        self.icfg = ICFG(self.program)
        self.nfa = ProgramNFA(self.icfg)

    def test_one_state_per_instruction(self):
        total = sum(len(m.code) for m in self.program.methods())
        assert len(self.nfa) == total

    def test_state_node_roundtrip(self):
        for state in range(len(self.nfa)):
            node = self.nfa.node(state)
            assert self.nfa.state_of[node] == state

    def test_initial_states_by_symbol(self):
        starts = self.nfa.initial_states(Op.ILOAD_0)
        nodes = {self.nfa.node(s) for s in starts}
        assert nodes == {
            ("Test.fun", 0),
            ("Test.main", 4),
            ("Test.main", 7),
            ("Test.main", 10),
        }

    def test_conditional_arms_resolved(self):
        ifeq_state = self.nfa.state_of[("Test.fun", 1)]
        arms = self.nfa.cond_arms[ifeq_state]
        assert arms is not None
        fall, taken = arms
        assert self.nfa.node(fall) == ("Test.fun", 2)
        # ifeq in fun targets the else-arm
        target_bci = self.program.method("Test", "fun").code[1].target
        assert self.nfa.node(taken) == ("Test.fun", target_bci)

    def test_step_with_known_taken_is_deterministic(self):
        ifeq_state = self.nfa.state_of[("Test.fun", 1)]
        assert len(list(self.nfa.step(ifeq_state, True))) == 1
        assert len(list(self.nfa.step(ifeq_state, False))) == 1

    def test_step_with_unknown_taken_is_both_arms(self):
        ifeq_state = self.nfa.state_of[("Test.fun", 1)]
        assert len(list(self.nfa.step(ifeq_state, None))) == 2

    def test_call_step_reaches_callee_entry(self):
        call_node = None
        for inst in self.program.method("Test", "main").code:
            if inst.methodref is not None:
                call_node = ("Test.main", inst.bci)
                break
        state = self.nfa.state_of[call_node]
        successors = {self.nfa.node(s) for s in self.nfa.step(state, None)}
        assert ("Test.fun", 0) in successors

    def test_control_closure_lands_on_control_states(self):
        closure = self.nfa.control_closure()
        for state in range(len(self.nfa)):
            for target in closure[state]:
                assert self.nfa.is_control(target)

    def test_control_closure_of_fun_entry(self):
        # fun@0 is iload_0; the first control instruction after it is ifeq@1.
        state = self.nfa.state_of[("Test.fun", 0)]
        closure = self.nfa.control_closure()[state]
        assert {self.nfa.node(s) for s in closure} == {("Test.fun", 1)}

    def test_abstract_step_skips_noncontrol(self):
        # From ifeq@1 taken=False: next control is ifne@8 (through the
        # then-arm's data instructions and the goto... the then-arm has a
        # goto, which is control).  Check it lands only on control states.
        ifeq_state = self.nfa.state_of[("Test.fun", 1)]
        result = self.nfa.abstract_step(ifeq_state, False)
        assert result
        for state in result:
            assert self.nfa.is_control(state)

    def test_entry_states_indexed(self):
        entries = self.nfa.entry_states_by_op.get(Op.ILOAD_0, [])
        assert [self.nfa.node(s) for s in entries] == [("Test.fun", 0)]

    def test_tiers_recorded(self):
        for state in range(len(self.nfa)):
            assert self.nfa.tier_of[state] == tier(self.nfa.op_of[state])


def _located_table_programs():
    """``[(name, ICFG)]``: Figure 2 with and without its opaque call
    site, the nine subjects, and four generated programs that throw."""
    figure2 = build_figure2_program()
    opaque = [("Test.main", _call_bci(figure2))]
    throws = GeneratorConfig(throw_probability=0.5)
    return (
        [
            ("figure2", ICFG(figure2)),
            ("figure2-opaque", ICFG(figure2, opaque_call_sites=opaque)),
        ]
        + [(name, ICFG(build_subject(name).program)) for name in SUBJECT_NAMES]
        + [
            ("generated%d" % seed, ICFG(generate_program(seed, throws)))
            for seed in (2, 9, 10, 28)
        ]
    )


class TestLocatedSuccessorTable:
    """``succ_by_node``: one lookup of a located step's node decides it."""

    def test_each_successor_node_names_one_edge(self):
        for name, icfg in _located_table_programs():
            nfa = ProgramNFA(icfg)
            for state, successors in enumerate(nfa.successors):
                assert len(set(successors)) == len(successors), (name, state)
                table = nfa.succ_by_node[state]
                assert len(table) == len(successors), (name, state)
                for index, succ in enumerate(successors):
                    kind = nfa.succ_kind[nfa.succ_off[state] + index]
                    assert table[nfa.node(succ)] == (succ, kind), (name, state)

    def test_located_true_path_never_reaches_the_memo(self):
        nfa = ProgramNFA(ICFG(build_figure2_program()))
        truth = _interpreted_truth(build_figure2_program())
        projection = _project(Projector(nfa), _steps(*_located(nfa, truth)))
        assert projection.path == truth
        assert projection.stats.restarts == 0
        assert nfa.transition_memo == {}


class TestGenericNFA:
    def _simple(self):
        # 0 -a-> 1 -eps-> 2 -b-> 3
        nfa = NFA(state_count=4)
        nfa.add(0, "a", 1)
        nfa.add(1, NFA.EPSILON, 2)
        nfa.add(2, "b", 3)
        nfa.starts = frozenset({0})
        nfa.accepts = frozenset({3})
        return nfa

    def test_epsilon_closure(self):
        nfa = self._simple()
        assert nfa.epsilon_closure({1}) == frozenset({1, 2})
        assert nfa.epsilon_closure({0}) == frozenset({0})

    def test_move(self):
        nfa = self._simple()
        assert nfa.move({0}, "a") == frozenset({1})
        assert nfa.move({0}, "b") == frozenset()

    def test_accepts_sequence(self):
        nfa = self._simple()
        assert nfa.accepts_sequence(["a", "b"])
        assert not nfa.accepts_sequence(["b"])
        assert not nfa.accepts_sequence(["a", "a"])

    def test_determinize_equivalent(self):
        nfa = self._simple()
        dfa = determinize(nfa)
        for sequence in (["a", "b"], ["a"], ["b"], ["a", "b", "b"], []):
            assert dfa.accepts_sequence(sequence) == nfa.accepts_sequence(sequence)

    def test_determinize_nondeterministic_branching(self):
        nfa = NFA(state_count=4)
        nfa.add(0, "x", 1)
        nfa.add(0, "x", 2)
        nfa.add(1, "y", 3)
        nfa.add(2, "z", 3)
        nfa.starts = frozenset({0})
        nfa.accepts = frozenset({3})
        dfa = determinize(nfa)
        assert dfa.accepts_sequence(["x", "y"])
        assert dfa.accepts_sequence(["x", "z"])
        assert not dfa.accepts_sequence(["x", "x"])
        # The subset construction merged the x-successors.
        assert frozenset({1, 2}) in dfa.transitions


class TestFigure4And5:
    """Mirror the paper's running example: fun's per-method NFA, its
    abstraction, and the determinised DFA."""

    def setup_method(self):
        self.program = build_figure2_program()
        self.icfg = ICFG(self.program)
        self.nfa = method_nfa(self.icfg, "Test.fun")

    @staticmethod
    def _is_control(label):
        op, _taken = label
        return tier(op) <= 2

    def test_executed_path_accepted(self):
        # fun(1, 4): iload_0, ifeq(not taken), iload_1, iconst_1, iadd,
        # istore_1, goto, iload_1, iconst_2, irem, ifne(not taken: 5%2!=0
        # -> actually 5 is odd so taken)...
        # Use the simpler false path: fun(0, 4): ifeq taken.
        path = [
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
        assert self.nfa.accepts_sequence(path)

    def test_impossible_path_rejected(self):
        path = [
            (Op.ILOAD_0, None),
            (Op.IFEQ, True),
            (Op.ICONST_1, None),  # cannot follow the taken arm
        ]
        assert not self.nfa.accepts_sequence(path)

    def test_wrong_branch_direction_rejected(self):
        path = [
            (Op.ILOAD_0, None),
            (Op.IFEQ, False),
            (Op.ILOAD_1, None),
            (Op.ICONST_2, None),
            (Op.ISUB, None),  # the fallthrough arm adds, not subtracts
        ]
        assert not self.nfa.accepts_sequence(path)

    def test_abstraction_keeps_control_skeleton(self):
        abstract = abstract_method_nfa(self.nfa, self._is_control)
        # Theorem 4.4 direction: a concretely accepted path's abstraction
        # is accepted by the ANFA.
        concrete = [
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
        abstract_path = [label for label in concrete if self._is_control(label)]
        assert abstract.accepts_sequence(abstract_path)

    def test_abstraction_rejects_impossible_skeleton(self):
        abstract = abstract_method_nfa(self.nfa, self._is_control)
        # Two returns in a row are impossible in fun.
        assert not abstract.accepts_sequence(
            [(Op.IRETURN, None), (Op.IRETURN, None)]
        )

    def test_dfa_of_abstraction_matches(self):
        abstract = abstract_method_nfa(self.nfa, self._is_control)
        dfa = determinize(abstract)
        good = [(Op.IFEQ, True), (Op.IFNE, False), (Op.IRETURN, None)]
        bad = [(Op.IFNE, True), (Op.IFNE, True)]
        assert dfa.accepts_sequence(good) == abstract.accepts_sequence(good)
        assert dfa.accepts_sequence(bad) == abstract.accepts_sequence(bad)
        assert dfa.state_count() >= 1
