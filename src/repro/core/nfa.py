"""ICFG-as-NFA formulation (paper Definitions 4.1--4.3, Figures 4--5).

:class:`ProgramNFA` models the program's ICFG as a nondeterministic finite
automaton:

* one state per ICFG node (bytecode instruction); ``N`` maps states to
  nodes and ``I`` maps nodes to the observable symbol (the opcode);
* a transition ``delta(q, s)`` yields every ICFG successor of ``N(q)``
  whose instruction matches ``s`` -- with the refinement that when the
  TNT outcome of a conditional is known, only the matching arm survives
  (the paper's edge labels ``ifeq 0`` / ``ifeq 1``);
* every state may start a match and every state may accept, because a
  hardware trace can begin and end anywhere.

For the abstraction of Definition 4.3 the module also provides a generic
:class:`NFA` with epsilon transitions, epsilon-elimination and subset-
construction determinisation (:func:`determinize`) -- used to realise the
ANFA -> DFA pipeline of Figure 5 -- and :meth:`ProgramNFA.control_closure`,
the precomputed epsilon-closure over non-control states that the
abstraction-guided matcher uses on the full program.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..jvm.icfg import ICFG, IEdgeKind
from ..jvm.opcodes import Kind, Op, info, tier

Node = Tuple[str, int]

#: Integer codes for :class:`~repro.jvm.icfg.IEdgeKind` in the adjacency
#: columns (``array('b')`` cells cannot hold enum members).  The order is
#: part of the array layout contract -- see DESIGN.md, "Array decode core".
EDGE_INTRA, EDGE_CALL, EDGE_RETURN, EDGE_THROW = 0, 1, 2, 3

_EDGE_CODE = {
    IEdgeKind.INTRA: EDGE_INTRA,
    IEdgeKind.CALL: EDGE_CALL,
    IEdgeKind.RETURN: EDGE_RETURN,
    IEdgeKind.THROW: EDGE_THROW,
}

#: Inverse of :data:`_EDGE_CODE`, index == code.
EDGE_KINDS = (IEdgeKind.INTRA, IEdgeKind.CALL, IEdgeKind.RETURN, IEdgeKind.THROW)

#: TNT-outcome codes for the transition memo key (``None``/``False``/``True``).
TAKEN_NONE, TAKEN_FALSE, TAKEN_TRUE = 0, 1, 2


def taken_code(taken: Optional[bool]) -> int:
    """Map a TNT outcome to its :data:`TAKEN_NONE`-family code."""
    if taken is None:
        return TAKEN_NONE
    return TAKEN_TRUE if taken else TAKEN_FALSE


class ProgramNFA:
    """The Definition 4.1 NFA over a program's ICFG, with integer states."""

    def __init__(self, icfg: ICFG):
        self.icfg = icfg
        self.nodes: List[Node] = list(icfg.nodes())
        self.state_of: Dict[Node, int] = {
            node: state for state, node in enumerate(self.nodes)
        }
        self.op_of: List[Op] = [icfg.instruction(node).op for node in self.nodes]
        self.kind_of: List[Kind] = [info(op).kind for op in self.op_of]
        self.tier_of: List[int] = [tier(op) for op in self.op_of]
        # Full successor relation (ints), with the edge-kind codes flat
        # in adjacency order (the context-sensitive projector needs the
        # kind; see :meth:`_build_columns`).
        self.successors: List[List[int]] = []
        self.succ_kind = array("b")
        # For conditionals: (fallthrough_state, taken_state).
        self.cond_arms: List[Optional[Tuple[Optional[int], Optional[int]]]] = []
        for state, node in enumerate(self.nodes):
            succ = []
            for edge in icfg.out_edges(node):
                if edge.dst in self.state_of:
                    succ.append(self.state_of[edge.dst])
                    self.succ_kind.append(_EDGE_CODE[edge.kind])
            self.successors.append(succ)
            if self.kind_of[state] is Kind.COND:
                inst = icfg.instruction(node)
                qname = node[0]
                fall = self.state_of.get((qname, node[1] + 1))
                taken = self.state_of.get((qname, inst.target))
                self.cond_arms.append((fall, taken))
            else:
                self.cond_arms.append(None)
        # Symbol index: op -> states carrying that op (candidate starts and
        # transition filtering).
        self.states_by_op: Dict[Op, List[int]] = {}
        for state, op in enumerate(self.op_of):
            self.states_by_op.setdefault(op, []).append(state)
        # Method-entry states by op: the callback-search fallback for call
        # sites the static ICFG could not resolve (Section 4, Discussions).
        self.entry_states_by_op: Dict[Op, List[int]] = {}
        for state, node in enumerate(self.nodes):
            if node[1] == 0:
                self.entry_states_by_op.setdefault(self.op_of[state], []).append(state)
        self._control_closure: Optional[List[Tuple[int, ...]]] = None
        self._build_columns()

    def _build_columns(self) -> None:
        """Flatten the successor relation into integer adjacency columns.

        Layout (CSR): state ``q``'s successors occupy positions
        ``succ_off[q]:succ_off[q+1]`` of the parallel columns
        ``succ_state`` (destination state) and ``succ_kind`` (edge-kind
        code, see :data:`EDGE_KINDS`; filled with the successor lists).
        ``cond_fall``/``cond_taken`` carry the two arms of conditional
        states (-1 when absent / not a conditional), ``return_site``
        the ``call_bci + 1`` state pushed on calls (-1 when absent),
        ``catches_locally`` 1 for throws caught in their own method, and
        ``op_code`` the opcode ordinal of each state's instruction.  The
        columns are plain ``array`` objects so a later numpy or
        C-extension backend can adopt the same layout without any API
        change.

        ``succ_by_node[q]`` maps each successor *node* of state ``q`` to
        ``(successor state, edge-kind code)``: the projector decides a
        JIT-located step with one lookup of its location there.  No
        marker for ambiguity is needed: ``ICFG`` keeps one edge per
        ``(dst, kind)`` and every out-edge of a node has that node's
        instruction kind, so a successor node names exactly one edge.

        The object-level views serve :meth:`step` and the abstraction
        closure, and the projector reads some of them too: ``cond_arms``
        in :meth:`_compute_transitions`, ``op_of`` in the located-step
        check and ``kind_of`` in the callback fallback.
        """
        count = len(self.nodes)
        self.succ_off = array("q", [0] * (count + 1))
        succ_state = array("q")
        for state in range(count):
            succ_state.extend(self.successors[state])
            self.succ_off[state + 1] = len(succ_state)
        self.succ_state = succ_state
        self.cond_fall = array("q", [-1] * count)
        self.cond_taken = array("q", [-1] * count)
        for state, arms in enumerate(self.cond_arms):
            if arms is not None:
                fall, taken = arms
                self.cond_fall[state] = -1 if fall is None else fall
                self.cond_taken[state] = -1 if taken is None else taken
        self.return_site = array(
            "q", [self.state_of.get((qname, bci + 1), -1) for qname, bci in self.nodes]
        )
        # 1 for throw states whose own method has a handler covering them:
        # the exception is caught without leaving the method (the ICFG's
        # only THROW edge then targets that handler), so no frame unwinds.
        self.catches_locally = array("b", [0] * count)
        for state, (qname, bci) in enumerate(self.nodes):
            if (
                self.kind_of[state] is Kind.THROW
                and self.icfg.method(qname).handler_for(bci) is not None
            ):
                self.catches_locally[state] = 1
        self.op_code = array("q", [int(op) for op in self.op_of])
        nodes, succ_off, succ_kind = self.nodes, self.succ_off, self.succ_kind
        self.succ_by_node: List[Dict[Node, Tuple[int, int]]] = [
            {
                nodes[succ_state[i]]: (succ_state[i], succ_kind[i])
                for i in range(succ_off[state], succ_off[state + 1])
            }
            for state in range(count)
        ]
        # Transition memo for the projector: (state, taken_code, op_code)
        # -> what :meth:`transitions` returns for that triple.  Filled
        # lazily by the projector; sharing it on the NFA lets every
        # Projector over this program reuse entries.
        self.transition_memo: Dict[Tuple[int, int, int], Tuple[Tuple[int, int], ...]] = {}

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, state: int) -> Node:
        return self.nodes[state]

    def initial_states(self, op: Op) -> List[int]:
        """States whose instruction matches the first observed symbol."""
        return self.states_by_op.get(op, [])

    def step(self, state: int, taken: Optional[bool]) -> Iterable[int]:
        """Successor states after executing ``state``'s instruction.

        *taken* is the TNT outcome of that instruction when it is a
        conditional; it prunes the nondeterminism to the matching arm.
        """
        arms = self.cond_arms[state]
        if arms is not None and taken is not None:
            arm = arms[1] if taken else arms[0]
            return () if arm is None else (arm,)
        return self.successors[state]

    def transitions(
        self, state: int, tcode: int, opcode: int
    ) -> Tuple[Tuple[int, int], ...]:
        """The NFA transition from *state* on one observed symbol (memoized).

        Returns ``(succ_state, edge_kind_code)`` pairs, in adjacency
        order, for successors of *state* whose instruction's opcode
        ordinal is *opcode*, after pruning conditionals by *tcode* (a
        :data:`TAKEN_NONE`/:data:`TAKEN_FALSE`/:data:`TAKEN_TRUE` code
        for the TNT outcome of *state*'s instruction): a known outcome
        leaves only the matching arm, as an INTRA edge.  The projector
        steps every unlocated step through here, and every located step
        that ``succ_by_node`` cannot decide (a known TNT bit before it,
        a node that is not a successor or carries another opcode, a
        RETURN the stack refuses, an unknown location, a frontier of
        several keys): the memo turns the per-step edge scan into one
        dict hit per (state, outcome, symbol) triple.
        """
        key = (state, tcode, opcode)
        hit = self.transition_memo.get(key)
        if hit is None:
            hit = self._compute_transitions(state, tcode, opcode)
            self.transition_memo[key] = hit
        return hit

    def _compute_transitions(
        self, state: int, tcode: int, opcode: int
    ) -> Tuple[Tuple[int, int], ...]:
        if tcode != TAKEN_NONE and self.cond_arms[state] is not None:
            arm = (
                self.cond_taken[state]
                if tcode == TAKEN_TRUE
                else self.cond_fall[state]
            )
            if arm < 0 or self.op_code[arm] != opcode:
                return ()
            return ((arm, EDGE_INTRA),)
        lo, hi = self.succ_off[state], self.succ_off[state + 1]
        dsts, kinds, codes = self.succ_state, self.succ_kind, self.op_code
        return tuple(
            (dsts[i], kinds[i])
            for i in range(lo, hi)
            if codes[dsts[i]] == opcode
        )

    def is_control(self, state: int) -> bool:
        return self.tier_of[state] <= 2

    # ----------------------------------------------------- abstraction closure
    def control_closure(self) -> List[Tuple[int, ...]]:
        """For each state: control states reachable via non-control states.

        This is the epsilon-closure of the Definition 4.3 ANFA, restricted
        to landing states that carry a (tier <= 2) control symbol: the
        first control instruction that can follow ``state``'s instruction.
        Computed once and cached; straight-line runs make closures small.
        """
        if self._control_closure is not None:
            return self._control_closure
        count = len(self.nodes)
        closure: List[Optional[Tuple[int, ...]]] = [None] * count
        for start in range(count):
            if closure[start] is not None:
                continue
            # Iterative DFS over non-control states.
            result: Set[int] = set()
            seen: Set[int] = set()
            stack = [start]
            while stack:
                current = stack.pop()
                for nxt in self.successors[current]:
                    if self.is_control(nxt):
                        result.add(nxt)
                    elif nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            closure[start] = tuple(sorted(result))
        self._control_closure = closure  # type: ignore[assignment]
        return self._control_closure

    def abstract_step(self, state: int, taken: Optional[bool]) -> Set[int]:
        """ANFA transition: next *control* states after ``state``.

        ``state`` must itself be a control state (abstract sequences only
        contain control symbols).
        """
        closure = self.control_closure()
        result: Set[int] = set()
        for nxt in self.step(state, taken):
            if self.is_control(nxt):
                result.add(nxt)
            else:
                result.update(closure[nxt])
        return result


# --------------------------------------------------------------- generic NFA
@dataclass
class NFA:
    """A small, explicit NFA with epsilon transitions.

    Used to realise Definition 4.3's ANFA and the Figure 5 DFA on
    method-sized automata (tests, teaching examples, ablations).  States
    are integers; symbols are hashable labels; ``EPSILON`` marks epsilon
    transitions.
    """

    EPSILON = None

    state_count: int
    transitions: Dict[int, List[Tuple[object, int]]] = field(default_factory=dict)
    starts: FrozenSet[int] = frozenset()
    accepts: FrozenSet[int] = frozenset()

    def add(self, src: int, symbol: object, dst: int) -> None:
        self.transitions.setdefault(src, []).append((symbol, dst))

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        result = set(states)
        stack = list(result)
        while stack:
            current = stack.pop()
            for symbol, dst in self.transitions.get(current, ()):
                if symbol is self.EPSILON and dst not in result:
                    result.add(dst)
                    stack.append(dst)
        return frozenset(result)

    def move(self, states: Iterable[int], symbol: object) -> FrozenSet[int]:
        result: Set[int] = set()
        for state in states:
            for label, dst in self.transitions.get(state, ()):
                if label == symbol and label is not self.EPSILON:
                    result.add(dst)
        return frozenset(result)

    def accepts_sequence(self, symbols: Iterable[object]) -> bool:
        current = self.epsilon_closure(self.starts)
        for symbol in symbols:
            current = self.epsilon_closure(self.move(current, symbol))
            if not current:
                return False
        return bool(current & self.accepts) if self.accepts else bool(current)

    def alphabet(self) -> Set[object]:
        symbols: Set[object] = set()
        for edges in self.transitions.values():
            for label, _dst in edges:
                if label is not self.EPSILON:
                    symbols.add(label)
        return symbols


@dataclass
class DFA:
    """Deterministic automaton produced by :func:`determinize`.

    States are frozensets of NFA states (the Figure 5(b) presentation).
    """

    start: FrozenSet[int]
    transitions: Dict[FrozenSet[int], Dict[object, FrozenSet[int]]]
    accepts: Set[FrozenSet[int]]

    def accepts_sequence(self, symbols: Iterable[object]) -> bool:
        current = self.start
        for symbol in symbols:
            table = self.transitions.get(current)
            if table is None or symbol not in table:
                return False
            current = table[symbol]
        return current in self.accepts if self.accepts else True

    def state_count(self) -> int:
        return len(self.transitions)


def determinize(nfa: NFA) -> DFA:
    """Subset construction with epsilon-elimination (Figure 5(a) -> (b))."""
    start = nfa.epsilon_closure(nfa.starts)
    transitions: Dict[FrozenSet[int], Dict[object, FrozenSet[int]]] = {}
    accepts: Set[FrozenSet[int]] = set()
    alphabet = nfa.alphabet()
    work = [start]
    while work:
        current = work.pop()
        if current in transitions:
            continue
        table: Dict[object, FrozenSet[int]] = {}
        for symbol in alphabet:
            nxt = nfa.epsilon_closure(nfa.move(current, symbol))
            if nxt:
                table[symbol] = nxt
                if nxt not in transitions:
                    work.append(nxt)
        transitions[current] = table
        if not nfa.accepts or (current & nfa.accepts):
            accepts.add(current)
    return DFA(start=start, transitions=transitions, accepts=accepts)


# ----------------------------------------------------- Definition 4.3 bridge
def method_nfa(icfg: ICFG, qname: str, start_bci: int = 0, model=None) -> NFA:
    """Build the explicit per-method NFA of Figure 4(b).

    States are bcis.  An edge ``src -> dst`` consumes the *source*
    instruction: its label is ``(src_op, arm)`` where ``arm`` is the
    branch direction for conditionals (the figure's ``ifeq 0`` /
    ``ifeq 1``) and ``None`` otherwise.  A decoded sequence
    ``b1, ..., bn`` is matched by starting at ``b1``'s state and consuming
    ``(op_i, taken_i)`` for each instruction -- see
    :func:`repro.core.reconstruct.explicit_symbols`.  Intra-method edges
    only, as in the figure.  An optional frontend *model*
    (:class:`repro.tracesource.projection.ProjectionModel`) reshapes the
    label alphabet the way the analysis layer does -- conditional arms
    merge under a model that hides outcome bits; the default (``None``)
    keeps the concrete ``(op, arm)`` labels the match engine consumes.
    """
    method = icfg.method(qname)
    count = len(method.code)
    nfa = NFA(state_count=count + 1)  # extra sink state for returns
    sink = count
    nfa.starts = frozenset({start_bci})
    nfa.accepts = frozenset(range(count + 1))
    for inst in method.code:
        kind = info(inst.op).kind
        if kind is Kind.COND:
            if model is None or model.observes_conditionals:
                if inst.bci + 1 < count:
                    nfa.add(inst.bci, (inst.op, False), inst.bci + 1)
                nfa.add(inst.bci, (inst.op, True), inst.target)
            else:
                if inst.bci + 1 < count:
                    nfa.add(inst.bci, (inst.op, None), inst.bci + 1)
                nfa.add(inst.bci, (inst.op, None), inst.target)
        elif kind in (Kind.RETURN, Kind.THROW):
            nfa.add(inst.bci, (inst.op, None), sink)
        else:
            for target in inst.successors_within(count):
                nfa.add(inst.bci, (inst.op, None), target)
    return nfa


def abstract_method_nfa(nfa: NFA, is_control) -> NFA:
    """Definition 4.3: replace non-control labels by epsilon.

    *is_control* is a predicate over the ``(op, taken)`` labels.
    """
    abstract = NFA(state_count=nfa.state_count)
    abstract.starts = nfa.starts
    abstract.accepts = nfa.accepts
    for src, edges in nfa.transitions.items():
        for label, dst in edges:
            if label is not NFA.EPSILON and is_control(label):
                abstract.add(src, label, dst)
            else:
                abstract.add(src, NFA.EPSILON, dst)
    return abstract
