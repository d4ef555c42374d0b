"""Integration tests for the end-to-end JPortal pipeline."""

import gc
import weakref

import pytest

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.core.recovery import RecoveryConfig
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig, run_program
from repro.pt.buffer import RingBufferConfig
from repro.pt.perf import PTConfig, calibrate_drain_period, collect
from repro.workloads import build_subject, default_config

from ..conftest import (
    build_figure2_program,
    lossless_config,
    lossy_config,
)


class TestLosslessExactness:
    def test_interp_only_run_reconstructs_exactly(self):
        program = build_figure2_program(iterations=40)
        run = run_program(
            program, RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=10**9))
        )
        result = JPortal(program).analyze_run(run, lossless_config())
        assert result.flow_of(0).reconstructed_nodes() == run.threads[0].truth

    def test_mixed_mode_run_reconstructs_exactly(self):
        program = build_figure2_program(iterations=80)
        run = run_program(
            program, RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=5))
        )
        result = JPortal(program).analyze_run(run, lossless_config())
        flow = result.flow_of(0)
        assert flow.reconstructed_nodes() == run.threads[0].truth
        assert flow.projection.restarts == 0
        assert result.anomalies == 0

    def test_inlined_run_reconstructs_exactly(self):
        program = build_figure2_program(iterations=80)
        run = run_program(
            program,
            RuntimeConfig(
                cores=1, jit=JITPolicy(hot_threshold=3, enable_inlining=True)
            ),
        )
        result = JPortal(program).analyze_run(run, lossless_config())
        assert result.flow_of(0).reconstructed_nodes() == run.threads[0].truth

    def test_all_entries_decoded_when_lossless(self):
        program = build_figure2_program(iterations=30)
        run = run_program(program, RuntimeConfig(cores=1))
        result = JPortal(program).analyze_run(run, lossless_config())
        counts = result.flow_of(0).entry_counts()
        assert counts["recovered"] == 0
        assert counts["fallback"] == 0
        assert result.loss_fraction == 0.0


class TestLossyPipeline:
    def _lossy_result(self):
        program = build_figure2_program(iterations=400)
        run = run_program(
            program, RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=10))
        )
        jportal = JPortal(program, recovery=RecoveryConfig(cost_per_instruction=1.0))
        return run, jportal.analyze_run(run, lossy_config())

    def test_loss_produces_holes_and_recovery(self):
        run, result = self._lossy_result()
        flow = result.flow_of(0)
        assert result.loss_fraction > 0
        assert flow.observed.holes()
        counts = flow.entry_counts()
        assert counts["recovered"] + counts["fallback"] > 0

    def test_segments_match_holes(self):
        _run, result = self._lossy_result()
        flow = result.flow_of(0)
        assert len(flow.segments) >= len(flow.observed.holes())

    def test_timings_populated(self):
        _run, result = self._lossy_result()
        timings = result.timings
        assert timings.decode_seconds >= 0
        assert timings.total_seconds == (
            timings.decode_seconds
            + timings.reconstruct_seconds
            + timings.recovery_seconds
        )


class TestRecoveryTimers:
    def test_subphases_sum_to_recovery_timer(self):
        """``recovery.index/rank/fill/fallback`` split the ``recovery``
        phase: their sum is within a few percent of it."""
        subject = build_subject("batik", size=15)
        run = subject.run(default_config())
        period = calibrate_drain_period(run, 2048)
        trace = collect(
            run,
            PTConfig(buffer=RingBufferConfig(capacity_bytes=2048, drain_period=period)),
        )
        database = collect_metadata(run)
        jportal = JPortal(
            subject.program,
            recovery=RecoveryConfig(cost_per_instruction=run.config.compiled_step_cost),
        )
        ratios = []
        for _attempt in range(3):  # best of three: host noise only adds gaps
            metrics = jportal.analyze_trace(trace, database).metrics
            assert metrics.counter("recover.holes") > 0
            split = metrics.timings_by_prefix("recovery")
            total = split.pop("")
            assert {".index", ".rank", ".fill"} <= set(split)
            assert set(split) <= {".index", ".rank", ".fill", ".fallback"}
            ratios.append(sum(split.values()) / total)
            if ratios[-1] >= 0.95:
                break
        assert 0.95 <= max(ratios) <= 1.0


class TestPhaseTimers:
    def test_phases_sum_to_wall(self):
        """``split + decode + reconstruct + recovery + analysis`` account
        for the serial analysis wall clock within a few percent."""
        subject = build_subject("h2", size=120)  # 4 threads: split_by_thread has work
        run = subject.run(default_config(cores=2))
        trace = collect(run, lossless_config())
        database = collect_metadata(run)
        jportal = JPortal(subject.program)
        ratios = []
        for _attempt in range(3):  # best of three: host noise only adds gaps
            result = jportal.analyze_trace(trace, database)
            metrics = result.metrics
            assert metrics.timing("split") > 0
            phases = sum(
                metrics.timing(phase)
                for phase in ("split", "decode", "reconstruct", "recovery", "analysis")
            )
            ratios.append(phases / result.timings.wall_seconds)
            if ratios[-1] >= 0.95:
                break
        assert 0.95 <= max(ratios) <= 1.0


class TestMultiThreaded:
    def test_two_threads_reconstruct_independently(self):
        program = build_figure2_program(iterations=50)
        config = RuntimeConfig(cores=2, quantum=60, jit=JITPolicy(hot_threshold=10**9))
        runtime = JVMRuntime(program, config)
        runtime.add_thread(name="main")
        runtime.add_thread("Test", "main", ())
        run = runtime.run()
        result = JPortal(program).analyze_run(run, lossless_config())
        for tid in (0, 1):
            assert result.flow_of(tid).reconstructed_nodes() == run.threads[tid].truth


class TestLifterCache:
    def test_dropped_database_is_released(self):
        """The per-database lifter cache must not keep a database alive
        once the caller has dropped it (and every result holding it)."""
        program = build_figure2_program(iterations=40)
        run = run_program(
            program, RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=5))
        )
        jportal = JPortal(program)
        trace = collect(run, lossless_config())
        database = collect_metadata(run)
        result = jportal.analyze_trace(trace, database)
        assert result.flow_of(0).reconstructed_nodes() == run.threads[0].truth
        assert len(jportal._lifters) == 1
        alive = weakref.ref(database)
        del database, result
        gc.collect()
        assert alive() is None
        assert len(jportal._lifters) == 0


class TestEngineKeyword:
    """``engine`` has one legal value: the deleted object core and any
    other name are refused."""

    def test_array_engine_constructs(self):
        program = build_figure2_program(iterations=4)
        assert JPortal(program, engine="array").program is program

    @pytest.mark.parametrize("engine", ("object", "columnar"))
    def test_other_engines_raise(self, engine):
        with pytest.raises(ValueError, match="engine"):
            JPortal(build_figure2_program(iterations=4), engine=engine)
