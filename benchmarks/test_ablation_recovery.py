"""Ablation B: recovery design choices.

Measures, on a lossy run of ``h2`` (the paper's recovery-heavy subject):

  * recovery ON vs. OFF (holes left empty): overall accuracy gain;
  * Algorithm 4's tier pruning vs. Algorithm 3's exhaustive scan: same
    winner, fewer concrete comparisons;
  * top-N sensitivity: accuracy as a function of how many ranked CS
    candidates the filler may try.
"""

import time

from conftest import BUFFER_128, print_table, subject_run

from repro.core.recovery import (
    RecoveryConfig,
    RecoveryEngine,
    RecoveryStats,
    basic_search,
)
from repro.profiling.accuracy import run_accuracy, sequence_similarity


def _segments_of(result, tid=0):
    flow = result.flow_of(tid)
    return flow.segments, flow.observed.holes()


def test_ablation_recovery_on_off(benchmark):
    def evaluate():
        sr = subject_run("h2")
        outcomes = {}
        # ON: the normal pipeline.
        result = sr.jportal().analyze_run(sr.run, sr.pt_config(BUFFER_128))
        outcomes["recovery ON"] = run_accuracy(sr.run, result).overall

        # OFF: same decode/projection, holes left unfilled.
        truth_by_tid = {t.tid: t.truth for t in sr.run.threads}
        total = 0.0
        weight = 0
        for tid, flow in result.flows.items():
            decoded = [
                entry for entry, provenance in flow.flow.entries
                if provenance == "decoded"
            ]
            truth = truth_by_tid[tid]
            total += sequence_similarity(truth, decoded) * len(truth)
            weight += len(truth)
        outcomes["recovery OFF"] = total / weight if weight else 0.0
        return outcomes

    outcomes = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print_table(
        "Ablation B1: recovery on/off (h2, 128-scale buffer)",
        ("Variant", "Overall accuracy"),
        [(k, "%.1f%%" % (100 * v)) for k, v in outcomes.items()],
    )
    assert outcomes["recovery ON"] >= outcomes["recovery OFF"]


def _algorithm4_top(engine, segments, is_id):
    """Algorithm 4's best-ranked CS ``(-m3, -m2, -m1, segment,
    anchor_end)`` for a hole after ``segments[is_id]`` (``None`` if it
    has none) and the ranking's stats."""
    views = engine._views(segments)
    index = engine._build_anchor_index(views, is_id + 1, RecoveryStats())
    stats = RecoveryStats()
    ranked = engine._select_and_rank(views, index, is_id, stats)
    return (ranked[0] if ranked else None), stats


def test_ablation_tier_pruning_vs_basic(benchmark):
    """Algorithm 4 must find a CS as good as Algorithm 3's, cheaper.

    Both search every anchor occurrence here: the engine runs uncapped
    (``max_candidates=0``), as Algorithm 3 is.  Algorithm 3 compares
    every occurrence concretely; Algorithm 4 only those its tiers do
    not prune.  The production cap (200 newest occurrences) is printed
    alongside; it can rank a shorter match first.
    """
    sr = subject_run("h2")
    result = sr.jportal().analyze_run(sr.run, sr.pt_config(BUFFER_128))
    segments, _holes = _segments_of(result)
    # Pick ISes: segments with enough content.
    is_ids = [i for i, seg in enumerate(segments) if len(seg) >= 10][:8]
    assert is_ids, "need lossy segments for this ablation"

    basic_results = {}
    basic_times = {}

    def run_basic():
        for is_id in is_ids:
            started = time.perf_counter()
            basic_results[is_id] = basic_search(segments, is_id, anchor_length=3)
            basic_times[is_id] = time.perf_counter() - started
        return len(basic_results)

    benchmark.pedantic(run_basic, rounds=1, iterations=1)

    icfg = sr.jportal().icfg
    uncapped = RecoveryEngine(icfg, RecoveryConfig(max_candidates=0))
    capped = RecoveryEngine(icfg, RecoveryConfig())
    rows = []
    for is_id in is_ids:
        best = basic_results[is_id]
        started = time.perf_counter()
        top, stats = _algorithm4_top(uncapped, segments, is_id)
        elapsed = time.perf_counter() - started
        capped_top, _stats = _algorithm4_top(capped, segments, is_id)
        # Algorithm 4's winner has Algorithm 3's concrete suffix length.
        assert (top is None) == (best is None), is_id
        if best is not None:
            assert -top[0] == best[2], (is_id, -top[0], best[2])
        rows.append(
            (
                is_id,
                len(segments[is_id]),
                "-" if best is None else best[2],
                "-" if top is None else -top[0],
                "-" if capped_top is None else -capped_top[0],
                stats.candidates_tested,
                stats.candidates_tested - stats.tier1_pruned - stats.tier2_pruned,
                "%.1f" % (1e3 * basic_times[is_id]),
                "%.1f" % (1e3 * elapsed),
            )
        )
    print_table(
        "Ablation B2: Algorithm 3 (exhaustive) vs Algorithm 4 (tiered) per IS (h2)",
        (
            "IS segment",
            "length",
            "Alg. 3 best suffix",
            "Alg. 4 top suffix",
            "Alg. 4 top, cap 200",
            "occurrences",
            "Alg. 4 concrete",
            "Alg. 3 ms",
            "Alg. 4 ms",
        ),
        rows,
    )


def test_ablation_top_n(benchmark):
    def evaluate():
        sr = subject_run("h2")
        outcomes = []
        for top_n in (1, 3, 5, 10):
            jportal = sr.jportal(
                recovery=RecoveryConfig(
                    top_n=top_n,
                    cost_per_instruction=sr.run.config.compiled_step_cost,
                )
            )
            result = jportal.analyze_run(sr.run, sr.pt_config(BUFFER_128))
            accuracy = run_accuracy(sr.run, result)
            filled = sum(
                f.flow.stats.filled_from_cs for f in result.flows.values()
            )
            outcomes.append((top_n, accuracy.overall, filled))
        return outcomes

    outcomes = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print_table(
        "Ablation B3: top-N CS candidates (h2)",
        ("top-N", "overall accuracy", "holes filled from CS"),
        [(n, "%.1f%%" % (100 * acc), filled) for n, acc, filled in outcomes],
    )
    # More candidates never fill fewer holes.
    fills = [filled for _n, _acc, filled in outcomes]
    assert fills == sorted(fills)
