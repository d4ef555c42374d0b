"""Golden-trace regression suite for the parallel per-thread pipeline.

A fixed, deterministic multi-thread, multi-core run (with real buffer
loss) is the golden fixture: its per-thread streams are serialised and
restored through the on-disk trace format, then analysed by the serial
pipeline and by ``JPortal.analyze_trace`` on a thread pool at several
worker counts.  The
refactor contract is that every configuration produces *byte-identical*
per-thread flows, provenance counts, and projection stats -- so any
change to the decode/project/recover chain that alters results is caught
here regardless of which pipeline ran it.
"""

import pickle

import pytest

from repro.core import JPortal, ideal_makespan, pipeline
from repro.core.metadata import collect_metadata
from repro.core.multicore import split_by_thread
from repro.core.parallel import make_executor
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.pt.perf import collect
from repro.pt.serialize import dump_bytes, load_bytes

from ..conftest import build_figure2_program, lossless_config, lossy_config

WORKER_COUNTS = (1, 2, 4)


def _golden_run(threads=3, iterations=90):
    """The golden fixture: deterministic 3-thread run on 2 shared cores."""
    program = build_figure2_program(iterations=iterations)
    config = RuntimeConfig(cores=2, quantum=50, jit=JITPolicy(hot_threshold=8))
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    for _ in range(threads - 1):
        runtime.add_thread("Test", "main", ())
    return program, runtime.run()


def _analyses(pt_config):
    program, run = _golden_run()
    trace = collect(run, pt_config)
    database = collect_metadata(run)
    jportal = JPortal(program)
    serial = jportal.analyze_trace(trace, database)
    parallel = {
        workers: jportal.analyze_trace(trace, database, max_workers=workers)
        for workers in WORKER_COUNTS
    }
    return run, trace, serial, parallel


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


class TestSerialParallelEquivalence:
    def test_lossy_flows_byte_identical_across_worker_counts(self):
        _run, _trace, serial, parallel = _analyses(
            lossy_config(capacity=600, bandwidth=0.1)
        )
        golden = pickle.dumps(serial.flows)
        assert serial.loss_fraction > 0  # the hard case: holes + recovery
        for workers, result in parallel.items():
            assert result.flows == serial.flows, "workers=%d" % workers
            assert pickle.dumps(result.flows) == golden, "workers=%d" % workers
            assert result.anomalies == serial.anomalies

    def test_lossless_parallel_matches_ground_truth(self):
        run, _trace, serial, parallel = _analyses(lossless_config())
        for workers, result in parallel.items():
            for tid in sorted(result.flows):
                assert (
                    result.flow_of(tid).reconstructed_nodes()
                    == run.threads[tid].truth
                ), "workers=%d tid=%d" % (workers, tid)
            assert result.flows == serial.flows

    def test_provenance_and_projection_stats_identical(self):
        _run, _trace, serial, parallel = _analyses(
            lossy_config(capacity=600, bandwidth=0.1)
        )
        for workers, result in parallel.items():
            for tid, flow in serial.flows.items():
                other = result.flow_of(tid)
                assert other.entry_counts() == flow.entry_counts()
                assert other.projection == flow.projection
                assert other.flow.stats == flow.flow.stats
                assert other.observed.holes() == flow.observed.holes()

    def test_workers_beyond_thread_count_are_harmless(self):
        program, run = _golden_run()
        trace = collect(run, lossless_config())
        database = collect_metadata(run)
        jportal = JPortal(program)
        serial = jportal.analyze_trace(trace, database)
        wide = jportal.analyze_trace(trace, database, max_workers=16)
        assert wide.flows == serial.flows

    def test_analyze_run_max_workers_matches_serial(self):
        """`analyze_run` hands *max_workers* to `analyze_trace`."""
        program, run = _golden_run()
        jportal = JPortal(program)
        serial = jportal.analyze_run(run, lossless_config())
        pooled = jportal.analyze_run(run, lossless_config(), max_workers=4)
        assert pooled.flows == serial.flows

    def test_zero_workers_rejected(self):
        program, run = _golden_run()
        trace = collect(run, lossless_config())
        with pytest.raises(ValueError, match="max_workers"):
            JPortal(program).analyze_trace(
                trace, collect_metadata(run), max_workers=0
            )

    def test_analyze_run_rejects_zero_workers(self):
        program, run = _golden_run()
        with pytest.raises(ValueError, match="max_workers"):
            JPortal(program).analyze_run(run, lossless_config(), max_workers=0)

    def test_pool_has_at_most_one_worker_per_thread(self, monkeypatch):
        """A pool is built only for ``max_workers > 1``, and never wider
        than the trace has threads."""
        program, run = _golden_run()
        trace = collect(run, lossless_config())
        database = collect_metadata(run)
        jportal = JPortal(program)
        widths = []

        def recording_executor(workers, *args, **kwargs):
            widths.append(workers)
            return make_executor(workers, *args, **kwargs)

        monkeypatch.setattr(pipeline, "make_executor", recording_executor)
        for workers in (1, 2, 16):
            jportal.analyze_trace(trace, database, max_workers=workers)
        assert widths == [2, len(split_by_thread(trace))]


class TestPerThreadMetrics:
    def test_breakdowns_cover_every_thread(self):
        _run, trace, serial, parallel = _analyses(
            lossy_config(capacity=600, bandwidth=0.1)
        )
        threads = split_by_thread(trace)
        for result in [serial, *parallel.values()]:
            assert sorted(result.timings.per_thread) == sorted(threads)
            for tid, breakdown in result.timings.per_thread.items():
                assert breakdown.tid == tid
                assert breakdown.decode_seconds > 0
                assert breakdown.reconstruct_seconds >= 0
                assert breakdown.recovery_seconds >= 0
                assert breakdown.holes == len(
                    result.flow_of(tid).observed.holes()
                )
                assert breakdown.frontier_peak >= 1

    def test_aggregates_are_sums_of_per_thread_phases(self):
        _run, _trace, serial, parallel = _analyses(lossless_config())
        for result in [serial, *parallel.values()]:
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
        _run, trace, serial, _parallel = _analyses(lossless_config())
        threads = split_by_thread(trace)
        metrics = serial.metrics
        for tid, thread_trace in threads.items():
            assert (
                metrics.counter("decode.packets", tid=tid)
                == thread_trace.packet_count()
            )
        assert metrics.counter("decode.packets") == trace.packet_count()
        assert metrics.counter("decode.anomalies") == serial.anomalies
        assert metrics.maximum("project.frontier_peak") >= 1

    def test_ideal_makespan_monotone_in_workers(self):
        _run, _trace, serial, _parallel = _analyses(lossless_config())
        durations = [
            breakdown.total_seconds
            for breakdown in serial.timings.per_thread.values()
        ]
        spans = [ideal_makespan(durations, workers) for workers in (1, 2, 4)]
        assert spans[0] >= spans[1] >= spans[2]
        assert abs(spans[0] - sum(durations)) < 1e-9
        assert abs(spans[2] - max(durations)) < 1e-9  # 4 workers, 3 threads
