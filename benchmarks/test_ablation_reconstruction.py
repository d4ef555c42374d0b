"""Ablation A: reconstruction algorithm comparison.

Compares, on generated programs of growing size:

  * Algorithm 1 (enumerate-and-test) -- the naive O(|Q| |w| t^2) baseline;
  * Algorithm 2 (abstraction-guided) -- the paper's contribution: the
    abstract (ANFA) pre-filter prunes start states before concrete
    matching;
  * the production subset-simulation projector, in paper-faithful NFA
    mode and in context-sensitive (PDA) mode.

Checked shapes: Algorithms 1 and 2 return the same full path and the
projector matches every step; the abstract pre-filter never leaves more
starts than carry the first symbol, so Algorithm 2 never tries more
concrete starts than Algorithm 1; PDA mode is exact on a lossless trace,
where NFA mode may pick a wrong (but feasible) return site.  The times
are printed, not compared.
"""

import time

from conftest import lossless_pt, print_table

from repro.core import JPortal
from repro.core.nfa import ProgramNFA
from repro.core.observed import ObservedStep
from repro.core.reconstruct import (
    Projector,
    _abstract_accepts,
    abstraction_guided,
    enumerate_and_test,
)
from repro.jvm.icfg import ICFG
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.jvm.opcodes import Kind, info, tier
from repro.workloads.generator import GeneratorConfig, generate_program


def _observed_prefix(program, length=120):
    config = RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=10**9))
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    run = runtime.run()
    truth = run.threads[0].truth
    # Start mid-stream (like a post-loss segment): skip the entry prefix.
    offset = min(len(truth) // 3, 50)
    window = truth[offset : offset + length]
    sequence = []
    for index, (qname, bci) in enumerate(window):
        class_name, method_name = qname.rsplit(".", 1)
        inst = program.method(class_name, method_name).code[bci]
        taken = None
        if info(inst.op).kind is Kind.COND and index + 1 < len(window):
            # The taken bit, from the next executed node.
            following = window[index + 1]
            taken = following[1] == inst.target and following[0] == qname
        sequence.append((inst.op, taken))
    return sequence, window


def _columns(sequence):
    """``project_arrays`` arguments for a whole (op, taken) sequence."""
    return (
        [op for op, _taken in sequence],
        [taken for _op, taken in sequence],
        [None] * len(sequence),
        0,
        len(sequence),
    )


def _count_abstract_survivors(nfa, sequence):
    steps = [
        ObservedStep(symbol=op, taken=taken, location=None, source="interp", tsc=0)
        for op, taken in sequence
    ]
    abstract_steps = [s for s in steps if tier(s.symbol) <= 2]
    survivors = 0
    for start in range(len(nfa)):
        if steps and nfa.op_of[start] is not steps[0].symbol:
            continue
        if _abstract_accepts(nfa, start, abstract_steps):
            survivors += 1
    return survivors


def test_ablation_reconstruction_algorithms(benchmark):
    seeds = (11, 23, 37)
    configs = [
        GeneratorConfig(methods=3, max_depth=3),
        GeneratorConfig(methods=5, max_depth=4),
        GeneratorConfig(methods=8, max_depth=4, call_probability=0.6),
    ]
    rows = []
    agreement_checked = 0
    for size_index, generator_config in enumerate(configs):
        for seed in seeds:
            program = generate_program(seed + size_index * 1000, generator_config)
            nfa = ProgramNFA(ICFG(program))
            sequence, _window = _observed_prefix(program)
            if len(sequence) < 10:
                continue
            # Build the closure Algorithm 2 caches on the NFA before the
            # timers, so the Alg2 column times matching, not this set-up.
            nfa.control_closure()

            started = time.perf_counter()
            result1 = enumerate_and_test(nfa, sequence)
            time1 = time.perf_counter() - started

            started = time.perf_counter()
            result2 = abstraction_guided(nfa, sequence)
            time2 = time.perf_counter() - started

            projector = Projector(nfa, context_sensitive=False)
            columns = _columns(sequence)
            started = time.perf_counter()
            projection = projector.project_arrays(*columns)
            time3 = time.perf_counter() - started

            # Agreement: all three find a full match of the same length.
            assert result1 is not None
            assert result2 is not None
            assert result1 == result2
            assert projection.stats.matched == len(sequence)
            agreement_checked += 1

            candidate_starts = len(nfa.initial_states(sequence[0][0]))
            survivors = _count_abstract_survivors(nfa, sequence)
            assert survivors <= candidate_starts
            rows.append(
                (
                    "m%d/s%d" % (generator_config.methods, seed),
                    len(nfa),
                    len(sequence),
                    candidate_starts,
                    survivors,
                    "%.4f" % time1,
                    "%.4f" % time2,
                    "%.4f" % time3,
                )
            )

    # Benchmark the production projector on the largest instance.
    program = generate_program(9999, configs[-1])
    sequence, _ = _observed_prefix(program, length=200)
    projector = Projector(ProgramNFA(ICFG(program)))
    columns = _columns(sequence)
    benchmark(lambda: projector.project_arrays(*columns).stats.matched)

    print_table(
        "Ablation A: reconstruction matchers (times in seconds)",
        ("Instance", "|Q|", "|w|", "starts", "abs-survivors",
         "Alg1", "Alg2", "Projector"),
        rows,
    )
    assert agreement_checked >= 5


def test_ablation_nfa_vs_pda_exactness(benchmark):
    """PDA-mode projection is exact on lossless traces; NFA mode may pick
    a wrong (but feasible) return site when call-site continuations look
    identical -- the paper's NFA/PDA trade-off made measurable."""
    from repro.workloads import build_subject
    from repro.profiling.accuracy import run_accuracy

    def evaluate():
        subject = build_subject("avrora", size=1500)
        run = subject.run()
        outcomes = {}
        for label, sensitive in (("NFA", False), ("PDA", True)):
            jportal = JPortal(subject.program, context_sensitive=sensitive)
            result = jportal.analyze_run(run, lossless_pt())
            outcomes[label] = run_accuracy(run, result).overall
        return outcomes

    outcomes = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print_table(
        "Ablation A2: NFA vs PDA projection on a lossless trace (avrora)",
        ("Mode", "Accuracy"),
        [(label, "%.3f%%" % (100 * value)) for label, value in outcomes.items()],
    )
    assert outcomes["PDA"] == 1.0
    assert outcomes["NFA"] <= outcomes["PDA"]
    assert outcomes["NFA"] > 0.95  # still highly accurate, as the paper argues
