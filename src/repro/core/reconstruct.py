"""Control-flow reconstruction: projecting decoded sequences onto the ICFG.

Three matchers are provided:

* :func:`enumerate_and_test` -- the paper's Algorithm 1: try every ICFG
  node as a start state and test acceptance.  Kept as the baseline for
  the reconstruction ablation benchmark.
* :func:`abstraction_guided` -- Algorithm 2: first test the *abstract*
  sequence (control instructions only) against the ANFA from each start;
  only starts surviving the abstract test are matched concretely
  (Theorem 4.4 makes the pre-filter sound).
* :class:`Projector` -- the production engine used by the pipeline: a
  subset simulation over all candidate start states at once, with

  - TNT-guided determinisation of conditionals,
  - JIT debug-info locations as *anchors* (observed steps whose position
    is already known pin the frontier to one state); from a one-key
    frontier a located step after an unknown TNT bit is decided by one
    lookup of its node in ``ProgramNFA.succ_by_node``, and only
    unlocated steps and the located steps that lookup refuses search
    the memoized transitions,
  - the callback-search fallback for call sites missing from the static
    ICFG (reflection; Section 4 "Discussions"),
  - greedy restart on mismatch (each restart is a reconstruction
    imprecision, counted in the stats).

All three take the same simulation step (``Projector._advance_arrays``):
the two baselines, at the paper's algorithmic granularity, test one start
at a time through :func:`match_from` in plain NFA mode, while the
projector steps every candidate start at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..jvm.opcodes import Kind, Op, tier
from .nfa import (
    EDGE_CALL,
    EDGE_INTRA,
    EDGE_RETURN,
    Node,
    ProgramNFA,
    TAKEN_FALSE,
    TAKEN_NONE,
    TAKEN_TRUE,
)
from .observed import ObservedStep

#: Beam cap on the subset-simulation frontier (safety valve; reached only
#: on pathological ambiguity).
MAX_FRONTIER = 1024


@dataclass
class MatchStats:
    """Diagnostics of a projection run."""

    steps: int = 0
    matched: int = 0
    restarts: int = 0
    callback_fallbacks: int = 0
    frontier_peak: int = 0
    #: Matched steps attributed to methods the static analysis flagged as
    #: definitely ambiguous: the assignment is *a* consistent path, but
    #: another path with the identical projection exists.
    ambiguous_steps: int = 0

    @property
    def confidence(self) -> float:
        """Fraction of matched steps free of static path ambiguity."""
        if self.matched == 0:
            return 1.0
        return 1.0 - self.ambiguous_steps / self.matched


@dataclass
class Projection:
    """Result of projecting one segment.

    ``path[i]`` is the ICFG node assigned to observed step ``i`` (``None``
    when no assignment was possible -- only at restart boundaries).
    """

    path: List[Optional[Node]]
    stats: MatchStats


#: Bound on the tracked call-stack depth in context-sensitive mode; on
#: overflow the oldest frame is forgotten (graceful fallback to
#: context-insensitivity for very deep recursion).
MAX_STACK = 64

# A frontier key is (state, stack-of-return-site-states).  In the
# paper-faithful NFA mode the stack is always ().
Key = Tuple[int, Tuple[int, ...]]


def _window_states(window: List[Dict[Key, Optional[Key]]], key: Key) -> List[int]:
    """States on the parent-pointer route from *key* (a key of
    ``window[-1]``) back through every frontier of *window*, oldest first."""
    states = []
    for frontier in reversed(window):
        states.append(key[0])
        key = frontier[key]
    states.reverse()
    return states


class Projector:
    """Production projection engine over a :class:`ProgramNFA`.

    ``context_sensitive=False`` is the paper's plain NFA (Definition 4.1):
    a return transitions to *every* statically possible return site.  The
    default ``True`` simulates the pushdown alternative the paper's
    Section 4 "Discussions" describes: the subset simulation carries a
    (bounded) stack of pending return sites per frontier state, so
    interprocedural paths stay feasible and returns are exact whenever the
    matching call was observed in the same segment.
    """

    def __init__(
        self, nfa: ProgramNFA, context_sensitive: bool = True, analysis=None
    ):
        self.nfa = nfa
        self.context_sensitive = context_sensitive
        # Static decodability verdicts (repro.analysis.AnalysisReport).
        # Methods proven ambiguous make poor symbol-only restart points:
        # their starts are pruned when unambiguous alternatives exist, and
        # steps matched inside them are tallied so the result can carry a
        # confidence figure.
        self.analysis = analysis
        self._ambiguous_methods = (
            frozenset(analysis.ambiguous_methods()) if analysis is not None else frozenset()
        )

    def _unwind(
        self, state: int, stack: Tuple[int, ...], handler_state: int
    ) -> Tuple[int, ...]:
        """Pop pending frames above the handler's method.

        A throw at *state* caught by a handler in its own method leaves
        no frame, so the stack is kept.
        """
        if self.nfa.catches_locally[state]:
            return stack
        handler_method = self.nfa.nodes[handler_state][0]
        trimmed = list(stack)
        while trimmed:
            site_method = self.nfa.nodes[trimmed[-1]][0]
            trimmed.pop()
            if site_method == handler_method:
                break
        return tuple(trimmed)

    # -------------------------------------------------------------------- API
    def project_arrays(
        self,
        symbols: Sequence[Op],
        takens: Sequence[Optional[bool]],
        locations: Sequence[Optional[Node]],
        lo: int,
        hi: int,
        metrics=None,
        tid: Optional[int] = None,
    ) -> Projection:
        """Project one hole-free segment, given as columns, onto the ICFG.

        ``symbols[lo:hi]``/``takens[lo:hi]``/``locations[lo:hi]`` are the
        segment's parallel columns (see
        :class:`~repro.core.observed.ObservedColumns`).  Each run is a
        subset simulation from every candidate start of its first step:
        the anchor's state, or every state carrying the symbol (preferring
        states outside statically ambiguous methods).  From a one-key
        frontier, a located step whose previous TNT bit is unknown is
        decided by one lookup of its location in
        :attr:`ProgramNFA.succ_by_node`: the edge is taken when the node
        is a successor carrying the step's symbol and, for a CALL,
        RETURN or THROW edge, :meth:`_frame_rule` accepts.  Every other
        step (unlocated, after a known TNT bit, refused by that lookup,
        or from a wider frontier) goes through the
        :meth:`ProgramNFA.transitions` integer tables and transition
        memo.  Parent-pointer frontiers are kept only while the frontier
        holds more than one key, because a one-key frontier fixes every
        earlier step; a run that ends on a wider frontier is backtracked
        from its smallest key.  When the frontier dies, the next step
        restarts the search, counted in ``stats.restarts``.
        ``tests/core/test_projection_golden.py`` pins the output.

        When a :class:`~repro.core.metrics.MetricsRegistry` is supplied,
        the run's stats are published under ``project.*`` for *tid*.
        """
        nfa = self.nfa
        state_of = nfa.state_of
        succ_by_node = nfa.succ_by_node
        op_of = nfa.op_of
        memo = nfa.transition_memo
        transitions = nfa.transitions
        frame_rule = self._frame_rule
        count = hi - lo
        path: List[Optional[Node]] = [None] * count
        stats = MatchStats(steps=count)
        ambiguous = self._ambiguous_methods
        nodes = nfa.nodes
        position = lo
        while position < hi:
            location = locations[position]
            if location is not None:
                state = state_of.get(location)
                starts = [state] if state is not None else []
            else:
                starts = nfa.initial_states(symbols[position])
                if ambiguous and len(starts) > 1:
                    pruned = [
                        state
                        for state in starts
                        if nodes[state][0] not in ambiguous
                    ]
                    if pruned:
                        starts = pruned
            if not starts:
                position += 1
                stats.restarts += 1
                continue
            # Commit on collapse: ``run`` holds the states of the steps
            # whose assignment is already fixed.  While the frontier is
            # the one key ``(state, stack)``, a located step after an
            # unknown TNT bit is decided by one lookup of its node, and
            # any other step with a single surviving transition in the
            # memo is taken inline.  Everything else goes through the
            # general step, and frontiers wider than one key are kept in
            # ``window`` (the steps after the last fixed one) until a
            # step collapses back to one key.  Every parent pointer route
            # from a later step passes through that key, so the window is
            # backtracked then and dropped.
            run: List[int] = []
            window: List[Dict[Key, Optional[Key]]] = []
            if len(starts) == 1:
                state = starts[0]
                stack: Tuple[int, ...] = ()
                run.append(state)
            else:
                window.append({(state, ()): None for state in starts})
            cursor = position
            while cursor + 1 < hi:
                if not window:
                    # A successor node names exactly one edge, so a
                    # located step is taken when its node is a successor
                    # carrying its symbol and the frame rule agrees.  Any
                    # other step (unlocated, after a known TNT bit, or
                    # refused) goes on to the memo step below.
                    ahead = cursor + 1
                    while ahead < hi:
                        location = locations[ahead]
                        if location is None or takens[cursor] is not None:
                            break
                        edge = succ_by_node[state].get(location)
                        if edge is None:
                            break
                        succ, kcode = edge
                        if op_of[succ] is not symbols[ahead]:
                            break
                        if kcode != EDGE_INTRA:
                            new_stack = frame_rule(state, stack, succ, kcode)
                            if new_stack is None:
                                break
                            stack = new_stack
                        state = succ
                        run.append(succ)
                        cursor = ahead
                        ahead += 1
                    if ahead == hi:
                        break
                taken = takens[cursor]
                symbol = symbols[cursor + 1]
                location = locations[cursor + 1]
                if not window:
                    tcode = (
                        TAKEN_NONE
                        if taken is None
                        else (TAKEN_TRUE if taken else TAKEN_FALSE)
                    )
                    hit = memo.get((state, tcode, symbol))
                    if hit is None:
                        hit = transitions(state, tcode, symbol)
                    if len(hit) == 1:
                        succ, kcode = hit[0]
                        # An unknown location pins nothing.
                        if location is None or state_of.get(location, succ) == succ:
                            if kcode == EDGE_INTRA:
                                new_stack = stack
                            else:
                                new_stack = frame_rule(state, stack, succ, kcode)
                            if new_stack is not None:
                                state = succ
                                stack = new_stack
                                run.append(succ)
                                cursor += 1
                                continue
                    frontier = {(state, stack): None}
                else:
                    frontier = window[-1]
                nxt = self._advance_arrays(frontier, taken, symbol, location)
                if not nxt:
                    nxt = self._callback_fallback_arrays(
                        frontier, symbol, location, stats
                    )
                if not nxt:
                    break
                if len(nxt) > stats.frontier_peak:
                    stats.frontier_peak = len(nxt)
                cursor += 1
                if len(nxt) > 1:
                    window.append(nxt)
                    continue
                ((state, stack), parent), = nxt.items()
                if window:
                    run.extend(_window_states(window, parent))
                    window = []
                run.append(state)
            if window:
                run.extend(_window_states(window, min(window[-1])))
            if cursor > position and stats.frontier_peak < 1:
                stats.frontier_peak = 1  # the inline steps' one-key frontiers
            matched_path = [nodes[state] for state in run]
            base = position - lo
            path[base:base + len(matched_path)] = matched_path
            stats.matched += len(matched_path)
            if ambiguous:
                stats.ambiguous_steps += sum(
                    1 for node in matched_path if node[0] in ambiguous
                )
            if cursor + 1 < hi:
                stats.restarts += 1
            position = cursor + 1
        if metrics is not None:
            metrics.incr("project.steps", stats.steps, tid=tid)
            metrics.incr("project.matched", stats.matched, tid=tid)
            metrics.incr("project.restarts", stats.restarts, tid=tid)
            metrics.incr(
                "project.callback_fallbacks", stats.callback_fallbacks, tid=tid
            )
            metrics.incr("project.ambiguous_steps", stats.ambiguous_steps, tid=tid)
            metrics.observe_max(
                "project.frontier_peak", stats.frontier_peak, tid=tid
            )
        return Projection(path=path, stats=stats)

    def _advance_arrays(
        self,
        frontier: Dict[Key, Optional[Key]],
        prev_taken: Optional[bool],
        wanted_op: Op,
        location: Optional[Node],
    ) -> Dict[Key, Optional[Key]]:
        """One subset-simulation step: the successors of *frontier*.

        Each key's state takes its transitions on *wanted_op*, a
        conditional pruned to one arm by *prev_taken* (the TNT outcome of
        that state's instruction).  When *location* is a known node, only
        its state survives; a RETURN to a site other than the pending one
        is dropped.  Each new key maps to its first parent, and the result
        stops at ``MAX_FRONTIER`` keys.
        """
        nfa = self.nfa
        tcode = (
            TAKEN_NONE
            if prev_taken is None
            else (TAKEN_TRUE if prev_taken else TAKEN_FALSE)
        )
        anchor = None
        if location is not None:
            anchor = nfa.state_of.get(location)
        nxt: Dict[Key, Optional[Key]] = {}
        transitions = nfa.transitions
        frame_rule = self._frame_rule
        for key in frontier:
            state, stack = key
            for succ, kcode in transitions(state, tcode, wanted_op):
                if anchor is not None and succ != anchor:
                    continue
                if kcode == EDGE_INTRA:
                    new_stack = stack
                else:
                    new_stack = frame_rule(state, stack, succ, kcode)
                    if new_stack is None:
                        continue  # infeasible interprocedural path
                new_key = (succ, new_stack)
                if new_key not in nxt:
                    nxt[new_key] = key
                    if len(nxt) >= MAX_FRONTIER:
                        return nxt
        return nxt

    def _frame_rule(
        self, state: int, stack: Tuple[int, ...], succ: int, kcode: int
    ) -> Optional[Tuple[int, ...]]:
        """Stack after the CALL, RETURN or THROW edge ``state -> succ``.

        ``None`` marks a RETURN to a site other than the pending one (an
        infeasible interprocedural path).  INTRA edges keep the stack and
        are handled by the callers; the plain NFA mode keeps no stack.
        """
        if not self.context_sensitive:
            return ()
        if kcode == EDGE_CALL:
            site = self.nfa.return_site[state]
            new_stack = stack if site < 0 else stack + (site,)
            if len(new_stack) > MAX_STACK:
                new_stack = new_stack[1:]
            return new_stack
        if kcode == EDGE_RETURN:
            if not stack:
                return stack  # unknown context: NFA behaviour
            return stack[:-1] if succ == stack[-1] else None
        return self._unwind(state, stack, succ)

    def _callback_fallback_arrays(
        self,
        frontier: Dict[Key, Optional[Key]],
        symbol: Op,
        location: Optional[Node],
        stats: MatchStats,
    ) -> Dict[Key, Optional[Key]]:
        """Reflective-call gap: if the dying frontier sits on call nodes
        with no static callees, search all method entries whose first
        instruction matches (the paper's callback inspection).

        Every matching entry hangs off the first call key, with that
        call's return site pushed in context-sensitive mode.
        """
        nfa = self.nfa
        kind_of = nfa.kind_of
        call_keys = [key for key in frontier if kind_of[key[0]] is Kind.CALL]
        if not call_keys:
            return {}
        entries = nfa.entry_states_by_op.get(symbol, [])
        if not entries:
            return {}
        anchor = None
        if location is not None:
            anchor = nfa.state_of.get(location)
        nxt: Dict[Key, Optional[Key]] = {}
        parent = call_keys[0]
        parent_state, parent_stack = parent
        new_stack: Tuple[int, ...] = ()
        if self.context_sensitive:
            site = nfa.return_site[parent_state]
            new_stack = parent_stack if site < 0 else parent_stack + (site,)
        for entry in entries:
            if anchor is not None and entry != anchor:
                continue
            nxt[(entry, new_stack)] = parent
        if nxt:
            stats.callback_fallbacks += 1
        return nxt


# ----------------------------------------------------------- paper baselines
def _ops_to_steps(sequence: Sequence) -> List[ObservedStep]:
    """Accept raw (op, taken) pairs or ObservedSteps; normalise."""
    steps: List[ObservedStep] = []
    for item in sequence:
        if isinstance(item, ObservedStep):
            steps.append(item)
        else:
            op, taken = item
            steps.append(
                ObservedStep(symbol=op, taken=taken, location=None, source="interp", tsc=0)
            )
    return steps


def match_from(
    nfa: ProgramNFA, steps: Sequence[ObservedStep], start: int
) -> Optional[List[Node]]:
    """IsAccepted + transition extraction from a single start state.

    Uses the paper-faithful context-insensitive NFA semantics: the
    projector's simulation step, with the path backtracked from the
    smallest key of the last frontier, as :meth:`Projector.project_arrays`
    does when a run ends on an ambiguous frontier.
    """
    if not steps:
        return []
    if nfa.op_of[start] is not steps[0].symbol:
        return None
    projector = Projector(nfa, context_sensitive=False)
    window: List[Dict[Key, Optional[Key]]] = [{(start, ()): None}]
    for prev, step in zip(steps, steps[1:]):
        nxt = projector._advance_arrays(
            window[-1], prev.taken, step.symbol, step.location
        )
        if not nxt:
            return None
        window.append(nxt)
    return [nfa.nodes[state] for state in _window_states(window, min(window[-1]))]


def enumerate_and_test(
    nfa: ProgramNFA, sequence: Sequence
) -> Optional[List[Node]]:
    """Algorithm 1: try every node of G as the projection start."""
    steps = _ops_to_steps(sequence)
    for start in range(len(nfa)):
        result = match_from(nfa, steps, start)
        if result is not None:
            return result
    return None


def _abstract_accepts(
    nfa: ProgramNFA, start: int, abstract_steps: Sequence[ObservedStep]
) -> bool:
    """Simulate the ANFA on the abstract sequence from *start*.

    ``abstract_steps`` contains only control (tier <= 2) symbols; epsilon
    moves over non-control states are folded into
    :meth:`ProgramNFA.abstract_step` /  ``control_closure``.
    """
    if not abstract_steps:
        return True
    # Locate the first abstract symbol reachable from the start state.
    first = abstract_steps[0]
    if nfa.is_control(start):
        current = {start} if nfa.op_of[start] is first.symbol else set()
    else:
        current = {
            state
            for state in nfa.control_closure()[start]
            if nfa.op_of[state] is first.symbol
        }
    if not current:
        return False
    for position in range(len(abstract_steps) - 1):
        prev = abstract_steps[position]
        wanted = abstract_steps[position + 1].symbol
        nxt = set()
        for state in current:
            for succ in nfa.abstract_step(state, prev.taken):
                if nfa.op_of[succ] is wanted:
                    nxt.add(succ)
        if not nxt:
            return False
        current = nxt
    return True


def abstraction_guided(
    nfa: ProgramNFA, sequence: Sequence
) -> Optional[List[Node]]:
    """Algorithm 2: abstract pre-filter, then concrete matching.

    By Theorem 4.4 a start rejected by the ANFA on the abstract sequence
    cannot accept concretely, so the (much cheaper) abstract test prunes
    the start-state search.
    """
    steps = _ops_to_steps(sequence)
    abstract_steps = [step for step in steps if tier(step.symbol) <= 2]
    for start in range(len(nfa)):
        if steps and nfa.op_of[start] is not steps[0].symbol:
            continue
        if not _abstract_accepts(nfa, start, abstract_steps):
            continue
        result = match_from(nfa, steps, start)
        if result is not None:
            return result
    return None


def explicit_symbols(
    ops_and_taken: Sequence[Tuple[Op, Optional[bool]]]
) -> List[Tuple[Op, Optional[bool]]]:
    """Symbols for matching against :func:`repro.core.nfa.method_nfa`.

    The explicit NFA consumes an instruction when *leaving* its state, so
    the i-th consumed label is ``(op_i, taken_i)`` of the i-th executed
    instruction.
    """
    return [(op, taken) for op, taken in ops_and_taken]
