"""Golden-trace regression suite for the per-thread pipeline.

A fixed, deterministic multi-thread, multi-core run (with real buffer
loss) is the golden fixture: its per-thread streams are serialised and
restored through the on-disk trace format, and ``JPortal.analyze_trace``
runs one decode/project/recover chain per thread over it.  The lossless
flows must equal each thread's ground truth; the chains must be
deterministic, independent of each other and of the order they run in,
and must run on the caller's thread; a chain that fails degrades only
its own thread; and the per-thread timing breakdowns and metrics must
account for every thread and add up to the aggregates.
"""

import pickle
import threading

from repro.core import JPortal, ideal_makespan
from repro.core.metadata import collect_metadata
from repro.core.metrics import MetricsRegistry
from repro.core.multicore import split_by_thread
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.pt.perf import collect
from repro.pt.serialize import dump_bytes, load_bytes

from ..conftest import build_figure2_program, lossless_config, lossy_config


def _golden_run(threads=3, iterations=90):
    """The golden fixture: deterministic 3-thread run on 2 shared cores."""
    program = build_figure2_program(iterations=iterations)
    config = RuntimeConfig(cores=2, quantum=50, jit=JITPolicy(hot_threshold=8))
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    for _ in range(threads - 1):
        runtime.add_thread("Test", "main", ())
    return program, runtime.run()


def _analysis(pt_config):
    program, run = _golden_run()
    trace = collect(run, pt_config)
    result = JPortal(program).analyze_trace(trace, collect_metadata(run))
    return run, trace, result


class TestGoldenFixtureStability:
    def test_streams_roundtrip_through_disk_format(self):
        """The fixture's per-thread streams survive serialisation exactly."""
        _program, run = _golden_run()
        trace = collect(run, lossy_config(capacity=600, bandwidth=0.1))
        threads = split_by_thread(trace)
        assert len(threads) == 3
        for thread_trace in threads.values():
            restored = load_bytes(dump_bytes(thread_trace.stream))
            assert restored == thread_trace.stream

    def test_fixture_is_deterministic(self):
        _p1, run1 = _golden_run()
        _p2, run2 = _golden_run()
        for t1, t2 in zip(run1.threads, run2.threads):
            assert t1.truth == t2.truth


class TestGroundTruth:
    def test_lossless_flows_match_ground_truth(self):
        run, _trace, result = _analysis(lossless_config())
        assert len(result.flows) == 3
        for tid in sorted(result.flows):
            assert (
                result.flow_of(tid).reconstructed_nodes()
                == run.threads[tid].truth
            ), "tid=%d" % tid


class TestChainRunner:
    def test_lossy_flows_byte_identical_across_profilers(self):
        program, run = _golden_run()
        trace = collect(run, lossy_config(capacity=600, bandwidth=0.1))
        database = collect_metadata(run)
        shared = JPortal(program)
        first = shared.analyze_trace(trace, database)
        assert first.loss_fraction > 0  # the hard case: holes + recovery
        golden = pickle.dumps(first.flows)
        # The shared profiler's second run reuses its cached lifter; a
        # fresh profiler rebuilds every per-program structure.
        for label, result in (
            ("repeat", shared.analyze_trace(trace, database)),
            ("fresh", JPortal(program).analyze_trace(trace, database)),
        ):
            assert result.flows == first.flows, label
            assert pickle.dumps(result.flows) == golden, label
            assert result.anomalies == first.anomalies, label
            assert result.anomalies_by_kind == first.anomalies_by_kind, label

    def test_chains_are_order_independent(self):
        """Each chain depends only on its own thread: running them one
        by one in descending tid order, each into its own registry,
        reproduces the loop's flows, provenance and projection stats."""
        program, run = _golden_run()
        trace = collect(run, lossy_config(capacity=600, bandwidth=0.1))
        database = collect_metadata(run)
        result = JPortal(program).analyze_trace(trace, database)
        jportal = JPortal(program)
        threads = split_by_thread(trace)
        assert len(threads) == 3
        for tid in sorted(threads, reverse=True):
            flow = jportal._analyze_thread(
                tid, threads[tid], database, MetricsRegistry()
            )
            expected = result.flow_of(tid)
            assert pickle.dumps(flow) == pickle.dumps(expected), tid
            assert flow.entry_counts() == expected.entry_counts(), tid
            assert flow.projection == expected.projection, tid
            assert flow.flow.stats == expected.flow.stats, tid
            assert flow.observed.holes() == expected.observed.holes(), tid

    def test_analyze_run_matches_analyze_trace(self):
        """`analyze_run` is `collect` + `collect_metadata` + `analyze_trace`."""
        program, run = _golden_run()
        jportal = JPortal(program)
        from_run = jportal.analyze_run(run, lossless_config())
        from_trace = jportal.analyze_trace(
            collect(run, lossless_config()), collect_metadata(run)
        )
        assert from_run.flows == from_trace.flows
        assert from_run.anomalies == from_trace.anomalies

    def test_failed_chain_degrades_only_its_thread(self, monkeypatch):
        program, run = _golden_run()
        trace = collect(run, lossy_config(capacity=600, bandwidth=0.1))
        database = collect_metadata(run)
        baseline = JPortal(program).analyze_trace(trace, database)
        jportal = JPortal(program)
        recover = jportal.recovery_engine.recover
        victim = 1

        def failing_recover(segments, holes, metrics=None, tid=None):
            if tid == victim:
                raise RuntimeError("injected recovery failure")
            return recover(segments, holes, metrics=metrics, tid=tid)

        monkeypatch.setattr(jportal.recovery_engine, "recover", failing_recover)
        result = jportal.analyze_trace(trace, database)
        assert sorted(result.flows) == sorted(baseline.flows)
        degraded = result.flow_of(victim)
        assert degraded.flow.entries == []
        assert degraded.segments == []
        assert degraded.observed.symbols == []
        assert result.timings.per_thread[victim].holes == 0
        metrics = result.metrics
        assert metrics.counter("pipeline.thread_chain_failures", tid=victim) == 1
        assert metrics.counter("pipeline.thread_chain_failures") == 1
        for tid, flow in baseline.flows.items():
            if tid != victim:
                assert result.flow_of(tid) == flow, tid
        assert result.anomalies == sum(
            flow.observed.anomalies
            for tid, flow in baseline.flows.items()
            if tid != victim
        )

    def test_chains_start_no_threads(self, monkeypatch):
        """The chains run on the caller's thread: an analysis during
        which no thread may start completes without a failed chain."""
        program, run = _golden_run()
        trace = collect(run, lossy_config(capacity=600, bandwidth=0.1))
        database = collect_metadata(run)
        baseline = JPortal(program).analyze_trace(trace, database)
        jportal = JPortal(program)

        def no_start(thread):
            raise AssertionError("analysis started thread %r" % thread.name)

        monkeypatch.setattr(threading.Thread, "start", no_start)
        result = jportal.analyze_trace(trace, database)
        monkeypatch.undo()
        assert result.metrics.counter("pipeline.thread_chain_failures") == 0
        assert result.flows == baseline.flows


class TestPerThreadMetrics:
    def test_breakdowns_cover_every_thread(self):
        _run, trace, result = _analysis(
            lossy_config(capacity=600, bandwidth=0.1)
        )
        threads = split_by_thread(trace)
        assert sorted(result.timings.per_thread) == sorted(threads)
        for tid, breakdown in result.timings.per_thread.items():
            assert breakdown.tid == tid
            assert breakdown.decode_seconds > 0
            assert breakdown.reconstruct_seconds >= 0
            assert breakdown.recovery_seconds >= 0
            assert breakdown.holes == len(result.flow_of(tid).observed.holes())
            assert breakdown.frontier_peak >= 1

    def test_aggregates_are_sums_of_per_thread_phases(self):
        _run, _trace, result = _analysis(lossless_config())
        timings = result.timings
        for phase in ("decode", "reconstruct", "recovery"):
            aggregate = getattr(timings, phase + "_seconds")
            split = sum(
                getattr(breakdown, phase + "_seconds")
                for breakdown in timings.per_thread.values()
            )
            assert abs(aggregate - split) < 1e-9
        assert timings.wall_seconds > 0
        assert timings.critical_path_seconds <= timings.total_seconds + 1e-9

    def test_registry_counts_match_stream_contents(self):
        _run, trace, result = _analysis(lossless_config())
        threads = split_by_thread(trace)
        metrics = result.metrics
        for tid, thread_trace in threads.items():
            assert (
                metrics.counter("decode.packets", tid=tid)
                == thread_trace.packet_count()
            )
        assert metrics.counter("decode.packets") == trace.packet_count()
        assert metrics.counter("decode.anomalies") == result.anomalies
        assert metrics.maximum("project.frontier_peak") >= 1

    def test_ideal_makespan_monotone_in_workers(self):
        _run, _trace, result = _analysis(lossless_config())
        durations = [
            breakdown.total_seconds
            for breakdown in result.timings.per_thread.values()
        ]
        spans = [ideal_makespan(durations, workers) for workers in (1, 2, 4)]
        assert spans[0] >= spans[1] >= spans[2]
        assert abs(spans[0] - sum(durations)) < 1e-9
        assert abs(spans[2] - max(durations)) < 1e-9  # 4 workers, 3 threads
