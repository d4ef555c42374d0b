"""Pinned projection outputs: the oracle for any change to the projector.

``golden_projection.json`` holds sha256 digests of what projection
decides: for a :class:`~repro.core.reconstruct.Projection`, its ``path``
and every :class:`~repro.core.reconstruct.MatchStats` counter
(``sorted(asdict(stats).items())``).  Three families of cases:

* **directed** -- one projection per edge of the commit-on-collapse
  window (DESIGN.md §3f): multi-start first frontiers, widening and
  collapse, runs ending inside a window, the callback fallback, RETURNs
  that contradict the stack, and the ``MAX_FRONTIER``/``MAX_STACK``
  bounds, plus JIT-located runs stepped from one-key frontiers (taken,
  refused by the stack, by the symbol, by the TNT bit or by the ICFG,
  and unknown locations), each run from padded ``[lo, hi)`` columns
  under the bounds the case names;
* **sweep** -- seeded cuts of nine programs' true paths with noise on
  every column, under the production bounds and under ``(3, 2)``, in
  both modes: one digest per (program, bounds, mode) over its 30 cuts;
* **baselines** -- Algorithms 1 and 2 (:func:`enumerate_and_test`,
  :func:`abstraction_guided`) and :func:`match_from` from every start
  carrying the first symbol, on the Ablation A generated programs
  (``benchmarks/test_ablation_reconstruction.py``): the observed window
  with and without its TNT bits, plus 20 short cuts with half the bits
  lost, whose frontiers often end wider than one state.

Regenerate only when projection's *output* is meant to change::

    PYTHONPATH=src python -m tests.core.test_projection_golden --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import asdict
from typing import Dict, List

import pytest

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
from .test_reconstruct import FUN_FALSE_ARM, FUN_FALSE_ARM_NODES, _steps
from .test_reconstruct_pda import (
    EXPECTED,
    FULL_SEQUENCE,
    _ambiguous_callsites_program,
    _local_catch_program,
    _project,
    _recursion_program,
    _truth_steps,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_projection.json")

#: The production ``(MAX_FRONTIER, MAX_STACK)``.
BOUNDS = (reconstruct.MAX_FRONTIER, reconstruct.MAX_STACK)
#: The sweep's bounds: the production ones, and caps low enough to bind.
SWEEP_BOUNDS = (BOUNDS, (3, 2))
SWEEP_CUTS = 30

#: Ablation A's generated programs: ``seed + 1000 * size`` per config.
ABLATION_SEEDS = (11, 23, 37)
ABLATION_CONFIGS = (
    GeneratorConfig(methods=3, max_depth=3),
    GeneratorConfig(methods=5, max_depth=4),
    GeneratorConfig(methods=8, max_depth=4, call_probability=0.6),
)
ABLATION_CUTS = 20


def _payload(projection):
    return (projection.path, sorted(asdict(projection.stats).items()))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _projected(projector, steps, bounds):
    """The projection of *steps* with ``MAX_FRONTIER, MAX_STACK`` set to
    *bounds*."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reconstruct, "MAX_FRONTIER", bounds[0])
        patch.setattr(reconstruct, "MAX_STACK", bounds[1])
        return _project(projector, steps)


# ------------------------------------------------------------------ programs
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


def _located(nfa, truth, interpreted=()):
    """``(symbols, locations)`` for ``_steps`` over the true path *truth*:
    every step located with its TNT bit unknown, as JIT-compiled steps
    arrive, except the indices in *interpreted*, which keep their true
    TNT bit and carry no location."""
    steps = _truth_steps(nfa, truth)
    symbols = [
        (step.symbol, step.taken if index in interpreted else None)
        for index, step in enumerate(steps)
    ]
    locations = [
        None if index in interpreted else node for index, node in enumerate(truth)
    ]
    return symbols, locations


# ------------------------------------------------------------------ directed
def directed_cases():
    """``{name: (projector, steps, bounds)}`` of the directed cases."""
    figure2 = ProgramNFA(ICFG(build_figure2_program()))
    call_bci = _call_bci(build_figure2_program())
    opaque = ProgramNFA(
        ICFG(build_figure2_program(), opaque_call_sites=[("Test.main", call_bci)])
    )
    ambiguous = ProgramNFA(ICFG(_ambiguous_callsites_program()))
    reentry = ProgramNFA(
        ICFG(_opaque_reentry_program(), opaque_call_sites=[("T.main", 1)])
    )
    recursion = _recursion_program(8)
    recursion_nfa = ProgramNFA(ICFG(recursion))
    recursion_steps = _truth_steps(recursion_nfa, _interpreted_truth(recursion))
    blurred = [(op, None) for op, _taken in FUN_FALSE_ARM]
    pinned = [FUN_FALSE_ARM_NODES[0]] + [None] * (len(blurred) - 1)
    opaque_call = [
        (Op.ILOAD_0, None),
        (Op.INVOKESTATIC, None),
        (Op.ILOAD_0, None),
        (Op.IFEQ, True),
        (Op.ILOAD_1, None),
    ]
    opaque_pinned = [None, ("Test.main", call_bci), None, None, None]
    reentry_call = [
        (Op.ICONST_1, None),
        (Op.INVOKESTATIC, None),
        (Op.ILOAD_0, None),
        (Op.IRETURN, None),
        (Op.POP, None),
    ]
    cases = {
        "multi_start/pda": (Projector(figure2), _steps(FUN_FALSE_ARM[6:]), BOUNDS),
        "multi_start/nfa": (
            Projector(figure2, False), _steps(FUN_FALSE_ARM[6:]), BOUNDS,
        ),
        "widen_then_collapse": (Projector(figure2), _steps(blurred), BOUNDS),
        "widen_then_collapse/pinned": (
            Projector(figure2), _steps(blurred, pinned), BOUNDS,
        ),
        # Cut right after the first return: the plain NFA cannot tell the
        # two return sites apart, so the run ends on a two-key frontier
        # and the min tie-break picks the path.
        "run_ends_inside_window": (
            Projector(ambiguous, False), _steps(FULL_SEQUENCE[:7]), BOUNDS,
        ),
        # Two RETURN transitions, one contradicting the pending site.
        "return_stack_mismatch/two_returns": (
            Projector(ambiguous), _steps(FULL_SEQUENCE), BOUNDS,
        ),
        # One RETURN transition, contradicting the stack the callback
        # fallback pushed: the run ends and restarts.
        "return_stack_mismatch/opaque_reentry": (
            Projector(reentry),
            _steps(reentry_call, [("T.main", 0)] + [None] * 4),
            BOUNDS,
        ),
        "max_frontier_truncation": (
            Projector(figure2), _steps(blurred[6:]), (2, BOUNDS[1]),
        ),
        "max_stack_overflow": (Projector(recursion_nfa), recursion_steps, BOUNDS),
        # Forgotten frames turn the deepest returns context-insensitive.
        "max_stack_overflow/stack2": (
            Projector(recursion_nfa), recursion_steps, (BOUNDS[0], 2),
        ),
    }
    # From a one-key frontier (the call pinned), then from a window.
    for label, locations in (("pinned", opaque_pinned), ("free", None)):
        for mode, sensitive in (("pda", True), ("nfa", False)):
            cases["callback_fallback/%s/%s" % (label, mode)] = (
                Projector(opaque, sensitive), _steps(opaque_call, locations), BOUNDS,
            )
    cases.update(_located_cases(figure2, ambiguous))
    return cases


def _located_cases(figure2, ambiguous):
    """Runs whose steps carry JIT locations, stepped from one-key
    frontiers: each way a located step is taken or refused."""
    truth = _interpreted_truth(build_figure2_program())
    loop = truth[4:55]  # two iterations: Test.fun on both IFEQ arms, and back
    fun = truth[12:24]  # Test.fun's else-arm, entry to IRETURN
    cases = {}
    for mode, sensitive in (("pda", True), ("nfa", False)):
        cases["located_run/" + mode] = (
            Projector(figure2, sensitive), _steps(*_located(figure2, loop)), BOUNDS,
        )
    # The helper returns to the second call's site while the first
    # call's is pending: the stack refuses it, the plain NFA does not.
    refused_symbols = FULL_SEQUENCE[:7] + FULL_SEQUENCE[14:]
    refused_locations = EXPECTED[:6] + [("T.main", 5)] + EXPECTED[14:]
    for mode, sensitive in (("pda", True), ("nfa", False)):
        cases["located_return_refused/" + mode] = (
            Projector(ambiguous, sensitive),
            _steps(refused_symbols, refused_locations),
            BOUNDS,
        )
    # An ILOAD_1 step located at IF_ICMPGE's fallthrough, an ILOAD_0,
    # while IF_ICMPGE's other arm does start with ILOAD_1.
    symbols, locations = _located(figure2, loop)
    symbols[3] = (Op.ILOAD_1, None)
    cases["located_symbol_mismatch"] = (
        Projector(figure2), _steps(symbols, locations), BOUNDS,
    )
    # An interpreted IFEQ with its TNT bit, then a step located on the
    # arm the bit selects, or on the other one.
    symbols, locations = _located(figure2, fun, interpreted={1})
    cases["located_after_tnt/matching_arm"] = (
        Projector(figure2), _steps(symbols, locations), BOUNDS,
    )
    symbols[1] = (Op.IFEQ, not symbols[1][1])
    cases["located_after_tnt/other_arm"] = (
        Projector(figure2), _steps(symbols, locations), BOUNDS,
    )
    # Located on an ICONST_2 that does not follow the previous step.
    symbols, locations = _located(figure2, fun)
    locations[3] = ("Test.fun", 12)
    cases["located_not_successor"] = (
        Projector(figure2), _steps(symbols, locations), BOUNDS,
    )
    # Unknown locations pin nothing: after IFEQ both ILOAD_1 arms
    # survive until the next located step, and ISTORE_1 has one
    # transition.
    symbols, locations = _located(figure2, fun)
    locations[2] = locations[5] = ("Nowhere.m", 0)
    cases["located_unknown_location"] = (
        Projector(figure2), _steps(symbols, locations), BOUNDS,
    )
    return cases


def directed_projections():
    return {
        name: _projected(projector, steps, bounds)
        for name, (projector, steps, bounds) in directed_cases().items()
    }


def directed_digests(projections) -> Dict[str, str]:
    return {name: _digest(_payload(projection)) for name, projection in projections.items()}


# --------------------------------------------------------------------- sweep
def _sweep_sources():
    """``[(name, nfa, true path, true steps)]`` for every program the
    sweep blurs."""
    figure2 = build_figure2_program(iterations=12)
    call_bci = _call_bci(figure2)
    throws = GeneratorConfig(throw_probability=0.5)
    icfgs = [
        ("figure2", ICFG(figure2)),
        ("figure2-opaque", ICFG(figure2, opaque_call_sites=[("Test.main", call_bci)])),
        ("ambiguous-callsites", ICFG(_ambiguous_callsites_program())),
        ("local-catch", ICFG(_local_catch_program())),
        ("recursion8", ICFG(_recursion_program(8))),
    ] + [
        ("generated%d" % seed, ICFG(generate_program(seed, throws)))
        for seed in (2, 9, 10, 28)
    ]
    sources = []
    for name, icfg in icfgs:
        nfa = ProgramNFA(icfg)
        truth = _interpreted_truth(icfg.program)
        sources.append((name, nfa, truth, _truth_steps(nfa, truth)))
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


def sweep_projections() -> Dict[str, List]:
    """``{"source/frontier-stack/mode": [projection per cut]}``."""
    groups = {}
    sources = _sweep_sources()
    for bounds in SWEEP_BOUNDS:
        for number, (name, nfa, truth, steps) in enumerate(sources):
            rng = random.Random("%d:%d" % (number, bounds[0]))
            for mode, sensitive in (("pda", True), ("nfa", False)):
                projector = Projector(nfa, context_sensitive=sensitive)
                groups["%s/%d-%d/%s" % (name, bounds[0], bounds[1], mode)] = [
                    _projected(projector, _blurred_cut(rng, nfa, truth, steps), bounds)
                    for _ in range(SWEEP_CUTS)
                ]
    return groups


def sweep_digests(groups) -> Dict[str, str]:
    return {
        key: _digest([_payload(projection) for projection in projections])
        for key, projections in groups.items()
    }


# ----------------------------------------------------------------- baselines
def _ablation_sequences(nfa, truth, rng):
    """Ablation A's observed window (a mid-stream start), with and
    without its TNT bits, then short cuts with half the bits lost."""
    steps = _truth_steps(nfa, truth)
    offset = min(len(truth) // 3, 50)
    window = _truth_steps(nfa, truth[offset:offset + 120])
    sequences = [
        [(step.symbol, step.taken) for step in window],
        [(step.symbol, None) for step in window],
    ]
    for _ in range(ABLATION_CUTS):
        lo = rng.randrange(len(steps))
        hi = min(len(steps), lo + rng.randint(2, 12))
        sequences.append(
            [
                (step.symbol, None if rng.random() < 0.5 else step.taken)
                for step in steps[lo:hi]
            ]
        )
    return sequences


def baseline_results(nfa, sequence):
    """Algorithms 1 and 2, then :func:`match_from` from every start
    carrying the first symbol."""
    steps = [
        ObservedStep(symbol=op, taken=taken, location=None, source="interp", tsc=0)
        for op, taken in sequence
    ]
    return (
        enumerate_and_test(nfa, sequence),
        abstraction_guided(nfa, sequence),
        [
            (start, match_from(nfa, steps, start))
            for start in nfa.initial_states(steps[0].symbol)
        ],
    )


def baseline_digests() -> Dict[str, str]:
    """``{"m<methods>/s<seed>": digest}`` over every sequence's results."""
    digests = {}
    for size, config in enumerate(ABLATION_CONFIGS):
        for seed in ABLATION_SEEDS:
            program = generate_program(seed + size * 1000, config)
            nfa = ProgramNFA(ICFG(program))
            truth = _interpreted_truth(program)
            rng = random.Random(seed + size * 1000)
            results = [
                baseline_results(nfa, sequence)
                for sequence in _ablation_sequences(nfa, truth, rng)
            ]
            digests["m%d/s%d" % (config.methods, seed)] = _digest(results)
    return digests


# --------------------------------------------------------------------- golden
def compute_golden() -> Dict[str, object]:
    return {
        "directed": directed_digests(directed_projections()),
        "sweep": sweep_digests(sweep_projections()),
        "baselines": baseline_digests(),
    }


def _golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def directed():
    return directed_projections()


def test_directed_cases_match_golden(directed):
    assert directed_digests(directed) == _golden()["directed"]


def test_seeded_blurred_sweep_matches_golden():
    groups = sweep_projections()
    digests = sweep_digests(groups)
    assert len(digests) == 36
    assert digests == _golden()["sweep"]
    peaks = [
        projection.stats.frontier_peak
        for projections in groups.values()
        for projection in projections
    ]
    assert max(peaks) >= 3  # some cuts reached the lowered frontier cap


def test_algorithm_baselines_match_golden():
    assert baseline_digests() == _golden()["baselines"]


class TestDirectedCases:
    """What each directed case exercises; the golden test pins the rest."""

    def test_multi_start_first_frontier(self, directed):
        nfa = ProgramNFA(ICFG(build_figure2_program()))
        assert len(nfa.initial_states(FUN_FALSE_ARM[6][0])) > 1
        for mode in ("pda", "nfa"):
            assert directed["multi_start/" + mode].stats.restarts == 0

    def test_widen_then_collapse(self, directed):
        # Unknown TNT bits let both IFEQ arms through until the opcodes
        # tell them apart; with the first step pinned the frontier starts
        # as one key.
        for name in ("widen_then_collapse", "widen_then_collapse/pinned"):
            stats = directed[name].stats
            assert stats.frontier_peak >= 2 and stats.restarts == 0

    def test_run_ends_inside_window(self, directed):
        assert directed["run_ends_inside_window"].stats.frontier_peak >= 2

    def test_callback_fallback_from_one_key_frontier(self, directed):
        for label in ("pinned", "free"):
            for mode in ("pda", "nfa"):
                name = "callback_fallback/%s/%s" % (label, mode)
                assert directed[name].stats.callback_fallbacks == 1

    def test_return_stack_mismatch(self, directed):
        assert directed["return_stack_mismatch/two_returns"].stats.restarts == 0
        stats = directed["return_stack_mismatch/opaque_reentry"].stats
        assert stats.callback_fallbacks == 1 and stats.restarts == 1

    def test_max_frontier_truncation(self, directed):
        assert directed["max_frontier_truncation"].stats.frontier_peak == 2

    def test_max_stack_overflow(self, directed):
        assert directed["max_stack_overflow"].stats.frontier_peak == 1
        assert directed["max_stack_overflow/stack2"].stats.frontier_peak >= 2

    def test_located_runs(self, directed):
        loop = _interpreted_truth(build_figure2_program())[4:55]
        for mode in ("pda", "nfa"):
            projection = directed["located_run/" + mode]
            assert projection.path == loop
            assert projection.stats.restarts == 0
            assert projection.stats.frontier_peak == 1
        assert directed["located_return_refused/pda"].stats.restarts == 1
        assert directed["located_return_refused/nfa"].stats.restarts == 0
        assert directed["located_symbol_mismatch"].stats.restarts == 1
        assert directed["located_after_tnt/matching_arm"].stats.restarts == 0
        assert directed["located_after_tnt/other_arm"].stats.restarts == 1
        assert directed["located_not_successor"].stats.restarts == 2
        stats = directed["located_unknown_location"].stats
        assert stats.restarts == 0 and stats.frontier_peak == 2


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        raise SystemExit("usage: python -m tests.core.test_projection_golden --write")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
