"""Property-based whole-pipeline tests over generated programs.

The central invariant: for ANY generated program, under ANY tiering
policy, a lossless PT trace decodes and reconstructs to exactly the
executed bytecode path.  Lossy variants must degrade gracefully: the
decoded portion stays correct and every reconstructed transition is
ICFG-feasible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.core.multicore import split_by_thread
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.pt.encoder import PTEncoder
from repro.pt.perf import collect
from repro.workloads.generator import GeneratorConfig, generate_program

from ..conftest import decode_columns, lossless_config, lossy_config


def _run(program, threshold, cores=1, inlining=True):
    config = RuntimeConfig(
        cores=cores,
        jit=JITPolicy(hot_threshold=threshold, enable_inlining=inlining),
        max_steps=2_000_000,
    )
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    return runtime.run()


class TestLosslessExactness:
    @given(st.integers(0, 10_000), st.sampled_from([1, 3, 10**9]))
    @settings(max_examples=12, deadline=None)
    def test_reconstruction_equals_truth(self, seed, threshold):
        program = generate_program(seed)
        run = _run(program, threshold)
        result = JPortal(program).analyze_run(run, lossless_config())
        assert result.flow_of(0).reconstructed_nodes() == run.threads[0].truth

    @given(st.integers(0, 5_000))
    @settings(max_examples=6, deadline=None)
    def test_inlining_invisible_to_reconstruction(self, seed):
        config = GeneratorConfig(methods=5, call_probability=0.8)
        program = generate_program(seed, config)
        with_inline = _run(program, threshold=2, inlining=True)
        without = _run(program, threshold=2, inlining=False)
        assert with_inline.threads[0].truth == without.threads[0].truth
        for run in (with_inline, without):
            result = JPortal(program).analyze_run(run, lossless_config())
            assert (
                result.flow_of(0).reconstructed_nodes() == run.threads[0].truth
            )


class TestLossyGracefulDegradation:
    @given(st.integers(0, 2_000))
    @settings(max_examples=6, deadline=None)
    def test_recovered_flow_is_icfg_feasible(self, seed):
        config = GeneratorConfig(methods=4, max_depth=4)
        program = generate_program(seed, config)
        run = _run(program, threshold=3)
        jportal = JPortal(program)
        result = jportal.analyze_run(run, lossy_config(capacity=700, bandwidth=0.3))
        icfg = jportal.icfg
        flow = result.flow_of(0)
        entries = flow.flow.entries
        for (left, lp), (right, rp) in zip(entries, entries[1:]):
            if left is None or right is None:
                continue
            if lp == "decoded" and rp == "decoded":
                # Within one decoded segment transitions are feasible;
                # across holes they need not be (that's what holes mean),
                # so only check pairs not separated by recovery output.
                continue
            if "recovered" in (lp, rp) or "fallback" in (lp, rp):
                successors = {dst for dst, _k in icfg.successors(left)}
                if rp == lp == "recovered" or (lp, rp) == ("fallback", "fallback"):
                    assert right in successors


class TestMultiThreadSplitRoundtrip:
    """encode -> split_by_thread -> decode conservation for seeded random
    programs running several threads across shared cores."""

    def _multithread_run(self, seed, thread_count, cores=2):
        program = generate_program(seed)
        config = RuntimeConfig(
            cores=cores,
            jit=JITPolicy(hot_threshold=3),
            max_steps=2_000_000,
        )
        runtime = JVMRuntime(program, config)
        for index in range(thread_count):
            runtime.add_thread(name="t%d" % index)
        return program, runtime.run()

    @given(st.integers(0, 5_000), st.integers(2, 4))
    @settings(max_examples=6, deadline=None)
    def test_every_packet_lands_in_exactly_one_stream(self, seed, thread_count):
        _program, run = self._multithread_run(seed, thread_count)
        trace = collect(run, lossless_config())
        threads = split_by_thread(trace)
        # Conservation by identity: the same packet objects, no duplicates,
        # none dropped, each in exactly one per-thread stream.
        original = sorted(
            id(packet) for core in trace.cores for packet in core.packets
        )
        assigned = sorted(
            id(item)
            for thread in threads.values()
            for tag, item in thread.stream
            if tag == "packet"
        )
        assert assigned == original
        assert sum(t.packet_count() for t in threads.values()) == trace.packet_count()

    @given(st.integers(0, 5_000), st.integers(2, 3))
    @settings(max_examples=6, deadline=None)
    def test_loss_records_conserved_and_streams_tsc_ordered(
        self, seed, thread_count
    ):
        _program, run = self._multithread_run(seed, thread_count)
        trace = collect(run, lossy_config(capacity=700, bandwidth=0.3))
        threads = split_by_thread(trace)
        total_losses = sum(len(core.losses) for core in trace.cores)
        assert sum(t.loss_count() for t in threads.values()) == total_losses
        for thread in threads.values():
            timestamps = [
                item.tsc if tag == "packet" else item.start_tsc
                for tag, item in thread.stream
            ]
            assert timestamps == sorted(timestamps)

    @given(st.integers(0, 5_000), st.integers(2, 3))
    @settings(max_examples=4, deadline=None)
    def test_split_streams_decode_cleanly_when_lossless(self, seed, thread_count):
        """With exact sideband (no jitter), each reassembled stream decodes
        without anomalies and the walked/dispatched totals across threads
        conserve the run's executed step counts."""
        program, run = self._multithread_run(seed, thread_count)
        trace = collect(run, lossless_config())
        threads = split_by_thread(trace)
        database = collect_metadata(run)
        walked = dispatched = 0
        for tid in sorted(threads):
            decoder, columns = decode_columns(
                threads[tid].stream, database, program
            )
            assert decoder.stats.anomalies == 0
            walked += decoder.stats.walked_instructions
            dispatched += columns.locations.count(None)
        assert walked == run.counters["steps_compiled"]
        assert dispatched == run.counters["steps_interp"]


class TestEncoderDecoderRoundtrip:
    @given(st.integers(0, 5_000))
    @settings(max_examples=8, deadline=None)
    def test_packet_counts_conserve_events(self, seed):
        """Every TIP event becomes exactly one TIP packet; every TNT bit
        is carried by exactly one TNT packet bit."""
        from repro.jvm.machine import TipEvent, TntEvent

        program = generate_program(seed)
        run = _run(program, threshold=3)
        events = run.core_events[0]
        tips = sum(1 for e in events if isinstance(e, TipEvent))
        tnts = sum(1 for e in events if isinstance(e, TntEvent))
        encoder = PTEncoder()
        encoder.encode(events)
        assert encoder.stats.tips == tips
        assert encoder.stats.tnt_bits == tnts

    @given(st.integers(0, 5_000))
    @settings(max_examples=6, deadline=None)
    def test_decoder_consumes_every_walked_step(self, seed):
        """Lossless decode must walk exactly the compiled steps executed
        and dispatch exactly the interpreted steps executed."""
        program = generate_program(seed)
        run = _run(program, threshold=3)
        trace = collect(run, lossless_config())
        threads = split_by_thread(trace)
        database = collect_metadata(run)
        decoder, columns = decode_columns(threads[0].stream, database, program)
        assert decoder.stats.walked_instructions == run.counters["steps_compiled"]
        assert columns.locations.count(None) == run.counters["steps_interp"]
        assert decoder.stats.anomalies == 0
