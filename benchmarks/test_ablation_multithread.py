"""Ablation C: multi-threaded splitting vs. sideband timestamp skew.

The paper attributes part of its multi-threaded accuracy loss to
thread-switch timestamps that "can be inconsistent with those embedded in
the hardware trace" (Section 7.2).  Our runtime can inject exactly that
skew; this ablation sweeps the jitter magnitude on ``h2`` and shows the
monotone accuracy degradation, isolating the effect from buffer loss
(lossless collection).
"""

from conftest import lossless_pt, print_table

from repro.core import JPortal, ideal_makespan
from repro.profiling.accuracy import run_accuracy
from repro.workloads import build_subject, default_config

# A core's consecutive quanta are separated by (cores x quantum-cost) TSC
# (~10k here), so only jitter on that scale can misattribute boundary
# packets -- the skew regime the paper describes.
JITTERS = (0, 1_000, 6_000, 20_000)

#: Worker counts for the modelled per-thread fan-out.
WORKER_COUNTS = (1, 2, 4)


def test_ablation_switch_jitter(benchmark):
    def evaluate():
        rows = []
        for jitter in JITTERS:
            subject = build_subject("h2", size=120)
            # Two cores for four threads: cores are shared, so a skewed
            # switch record can hand one thread's boundary packets to
            # another (with one core per thread, ownership never changes
            # and jitter is harmless).
            config = default_config(cores=2, switch_timestamp_jitter=jitter)
            run = subject.run(config)
            jportal = JPortal(subject.program)
            result = jportal.analyze_run(run, lossless_pt())
            accuracy = run_accuracy(run, result)
            rows.append((jitter, accuracy.overall, result.anomalies))
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print_table(
        "Ablation C: accuracy vs. thread-switch timestamp jitter (h2, lossless)",
        ("jitter (tsc)", "overall accuracy", "decode anomalies"),
        [(j, "%.2f%%" % (100 * a), n) for j, a, n in rows],
    )

    # --- shape assertions ---------------------------------------------------
    accuracies = [a for _j, a, _n in rows]
    # Perfect with no jitter; once jitter crosses the inter-quantum gap,
    # boundary packets land in the wrong thread's stream and accuracy
    # drops -- the paper's multi-threaded separation mistakes.
    assert accuracies[0] == 1.0
    assert min(accuracies[1:]) < 1.0
    assert min(accuracies) > 0.35


def test_ablation_parallel_decode_workers(benchmark):
    """Modelled per-thread fan-out: the makespan of one multi-threaded h2
    run's chains at 1, 2 and 4 workers.

    Each thread's decode->lift->project->recover chain is independent,
    so truly concurrent workers could shrink the analysis from the
    serial sum of the chains toward the critical path (the slowest
    thread).  The chains are pure Python and run in a loop, so this
    reports the LPT makespan (``ideal_makespan``) over the per-thread
    chain seconds one serial analysis measures, not a measured wall
    clock.
    """

    def evaluate():
        subject = build_subject("h2", size=120)
        run = subject.run(default_config(cores=2))
        result = JPortal(subject.program).analyze_run(run, lossless_pt())
        durations = [
            timing.total_seconds for timing in result.timings.per_thread.values()
        ]
        return [
            (
                workers,
                len(durations),
                sum(durations),
                ideal_makespan(durations, workers),
                max(durations),
            )
            for workers in WORKER_COUNTS
        ]

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print_table(
        "Ablation: modelled decode makespan vs. worker count (h2, lossless)",
        ("workers", "threads", "serial(s)", "makespan(s)", "crit(s)"),
        [
            (w, n, "%.3f" % s, "%.3f" % m, "%.3f" % c)
            for w, n, s, m, c in rows
        ],
    )

    # --- shape assertions ---------------------------------------------------
    thread_count = rows[0][1]
    assert thread_count >= 2, "h2 must be multi-threaded for this ablation"
    makespans = [m for _w, _n, _s, m, _c in rows]
    # One worker = the serial sum; more workers strictly shrink the
    # schedule until it floors at the critical path (slowest thread).
    assert abs(makespans[0] - rows[0][2]) < 1e-9
    assert all(a >= b - 1e-12 for a, b in zip(makespans, makespans[1:]))
    assert makespans[1] < makespans[0]
    critical_path = rows[0][4]
    assert makespans[-1] >= critical_path - 1e-9
