"""Fault-injection fuzz suite: the decode pipeline never crashes.

The invariant under test: **no corrupted stream ever raises** -- it
degrades to anomalies + holes -- and analysing the same faulted trace
twice gives bit-identical output under every injected fault.  A
seeded :class:`~repro.pt.faults.FaultInjector` mutates real collected
traces (truncations, loss-record corruption, unmapped TIPs, TNT
split/merge, tie reordering, stale debug info); 1000 decoder-level seeds
(through :class:`~repro.pt.decoder.PTBatchDecoder` into columns, the
decoder every analysis runs) plus a pipeline-level sweep cover every
fault kind and every :class:`~repro.pt.decoder.DegradationPolicy`
variant.

``TestFaultSmoke`` is the fixed 50-seed subset the CI fault-smoke job
runs on every push (see .github/workflows/ci.yml).
"""

import pickle

import pytest

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.core.multicore import split_by_thread
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.pt.decoder import AnomalyKind, DegradationPolicy
from repro.pt.faults import FaultInjector, FaultKind, STREAM_FAULT_KINDS
from repro.pt.perf import collect

from ..conftest import build_figure2_program, decode_columns, lossy_config

#: Policy variants cycled through the fuzz loop (seed % 3).
POLICIES = (
    DegradationPolicy(),
    DegradationPolicy(max_anomalies_per_segment=4),
    DegradationPolicy(max_anomalies_per_segment=None),
)


@pytest.fixture(scope="module")
def fixture():
    """One deterministic lossy 3-thread run: program, trace, database,
    per-thread streams, and a pre-built analyser."""
    program = build_figure2_program(iterations=40)
    config = RuntimeConfig(cores=2, quantum=50, jit=JITPolicy(hot_threshold=8))
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    for _ in range(2):
        runtime.add_thread("Test", "main", ())
    run = runtime.run()
    trace = collect(run, lossy_config(capacity=600, bandwidth=0.1))
    database = collect_metadata(run)
    streams = {
        tid: thread.stream for tid, thread in split_by_thread(trace).items()
    }
    return {
        "program": program,
        "run": run,
        "trace": trace,
        "database": database,
        "streams": streams,
        "jportal": JPortal(program),
    }


def _check_decoder_invariants(decoder, columns, seed):
    """The degradation contract, checked on every fuzzed decode."""
    stats = decoder.stats
    note = "seed=%d" % seed
    assert sum(stats.by_kind.values()) == stats.anomalies, note
    assert stats.anomalies == columns.anomalies, note
    # TNT bit conservation: every emitted bit is consumed, orphaned,
    # discarded during resync, dropped with a hole, or left unused.
    assert (
        stats.tnt_bits
        == stats.tnt_consumed
        + stats.tnt_orphaned
        + stats.tnt_discarded
        + stats.tnt_dropped_on_loss
        + stats.tnt_unused
    ), note
    # Output accounting: every step and hole traces back to a counted
    # event.  An interpreted step is one template target, so there are
    # at most as many as mapped targets (return stubs and code-cache
    # targets add none).
    assert stats.by_kind.get(AnomalyKind.DECODER_ERROR, 0) == 0, note
    interp_steps = columns.locations.count(None)
    mapped = stats.tips - stats.by_kind.get(AnomalyKind.TIP_UNMAPPED, 0)
    assert interp_steps <= mapped, note
    holes = columns.holes()
    assert sum(1 for hole in holes if not hole.synthetic) == stats.losses, note
    assert sum(1 for hole in holes if hole.synthetic) == stats.synthetic_holes, note


def _fuzz_one_seed(fixture, seed):
    """Mutate one thread's stream and decode it; returns applied kinds."""
    injector = FaultInjector(seed)
    tids = sorted(fixture["streams"])
    stream = fixture["streams"][tids[seed % len(tids)]]
    # One directed kind (cycling for coverage) plus random extras.
    directed = STREAM_FAULT_KINDS[seed % len(STREAM_FAULT_KINDS)]
    mutated, faults = injector.mutate_stream(stream, kinds=[directed], faults=1)
    mutated, extra = injector.mutate_stream(mutated, faults=seed % 3)
    policy = POLICIES[seed % len(POLICIES)]
    database, program = fixture["database"], fixture["program"]
    decoder, columns = decode_columns(mutated, database, program, policy=policy)
    _check_decoder_invariants(decoder, columns, seed)
    if seed % 10 == 0:  # determinism spot check: same stream, same columns
        again = decode_columns(mutated, database, program, policy=policy)[1]
        assert again == columns, "seed=%d" % seed
    return {fault.kind for fault in faults + extra}


class TestDecoderFuzz:
    def test_thousand_seeds_never_raise(self, fixture):
        """1000 seeds x all stream fault kinds x all policy variants."""
        covered = set()
        for seed in range(1000):
            covered |= _fuzz_one_seed(fixture, seed)
        assert covered == set(STREAM_FAULT_KINDS)


def _pipeline_invariants(result, note):
    assert isinstance(result.anomalies_by_kind, dict), note
    if result.anomalies:
        assert result.anomalies_by_kind, note
        assert sum(result.anomalies_by_kind.values()) >= result.anomalies, note
    for tid, flow in result.flows.items():
        assert flow.tid == tid, note


def _analyse_twice(jportal, trace, database, note):
    """Analyse *trace* twice; the second run reuses the profiler's cached
    lifter, so state that leaks from one analysis into the next shows up
    as a difference."""
    first = jportal.analyze_trace(trace, database)
    second = jportal.analyze_trace(trace, database)
    assert pickle.dumps(second.flows) == pickle.dumps(first.flows), note
    assert second.anomalies == first.anomalies, note
    assert second.anomalies_by_kind == first.anomalies_by_kind, note
    _pipeline_invariants(first, note)


class TestPipelineFuzz:
    """Repeat-run bit-identity on faulted fixtures (>= 20 seeds)."""

    @pytest.mark.parametrize("seed", range(24))
    def test_repeat_analysis_identical_under_faults(self, fixture, seed):
        injector = FaultInjector(1_000_000 + seed)
        trace, faults = injector.mutate_trace(
            fixture["trace"], faults_per_core=3
        )
        database = fixture["database"]
        if seed % 3 == 0:
            database, db_faults = injector.corrupt_database(database)
            faults = faults + db_faults
        assert faults, "seed=%d produced no faults" % seed
        note = "seed=%d faults=%r" % (seed, [f.kind for f in faults])
        _analyse_twice(fixture["jportal"], trace, database, note)

    def test_corrupt_database_counts_stale_debug(self, fixture):
        """A database with invalidated debug entries degrades the lift
        (skipped instructions counted per kind), never crashes it."""
        injector = FaultInjector(77)
        database, faults = injector.corrupt_database(
            fixture["database"], entries=16
        )
        assert any(f.kind is FaultKind.STALE_DEBUG for f in faults)
        result = fixture["jportal"].analyze_trace(fixture["trace"], database)
        breakdown = result.anomalies_by_kind
        # The fixture JITs Test.fun, so some corrupted entries are hit.
        assert breakdown.get(AnomalyKind.STALE_DEBUG_INFO.value, 0) > 0
        assert result.metrics.counter("lift.stale_debug_entries") > 0
        _pipeline_invariants(result, "stale-debug")


class TestStatsReconciliation:
    """ISSUE satellite: decoder stats reconcile against stream contents
    on clean (non-injected) lossy streams across seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_stats_account_for_every_stream_item(self, fixture, seed):
        from repro.workloads.generator import generate_program

        program = generate_program(seed)
        config = RuntimeConfig(
            cores=1, jit=JITPolicy(hot_threshold=3), max_steps=2_000_000
        )
        runtime = JVMRuntime(program, config)
        runtime.add_thread(name="main")
        run = runtime.run()
        trace = collect(run, lossy_config(capacity=700, bandwidth=0.4))
        database = collect_metadata(run)
        for tid, thread in split_by_thread(trace).items():
            decoder, columns = decode_columns(thread.stream, database, program)
            _check_decoder_invariants(decoder, columns, seed)
            # Packet/loss accounting against the raw stream.
            packets = sum(1 for tag, _ in thread.stream if tag == "packet")
            losses = sum(1 for tag, _ in thread.stream if tag == "loss")
            assert decoder.stats.packets == packets
            assert decoder.stats.losses == losses


class TestLintFlagsCorruption:
    """ISSUE 4 satellite: every database-corruption fault the injector can
    apply is flagged by the static metadata lint *before* any decode."""

    @staticmethod
    def _expected_flagged(fault, findings, database):
        """One fault is covered by an unresolvable finding at its address
        or by the containing dump's debug-count-mismatch (deletions, and
        mutations later shadowed by a deletion at the same address)."""
        address = int(fault.detail.split("0x", 1)[1].split(" ", 1)[0], 16)
        if any(
            f.check == "debug-unresolvable" and f.address == address
            for f in findings
        ):
            return True
        owners = [
            dump.qname
            for dump in database.code_dumps
            if dump.entry <= address < dump.limit
        ]
        return any(
            f.check == "debug-count-mismatch" and f.qname in owners
            for f in findings
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_every_corruption_flagged_before_decode(self, fixture, seed):
        from repro.analysis import lint_database

        injector = FaultInjector(2_000_000 + seed)
        database, faults = injector.corrupt_database(
            fixture["database"], entries=8
        )
        assert faults, "seed=%d applied nothing" % seed
        findings = lint_database(database, fixture["program"])
        for fault in faults:
            assert self._expected_flagged(fault, findings, database), (
                "seed=%d fault %r not flagged" % (seed, fault.detail)
            )

    def test_clean_database_not_flagged(self, fixture):
        from repro.analysis import Severity, lint_database

        findings = lint_database(fixture["database"], fixture["program"])
        assert [f for f in findings if f.severity is Severity.ERROR] == []

    def test_pipeline_report_carries_the_findings(self, fixture):
        injector = FaultInjector(99)
        database, faults = injector.corrupt_database(
            fixture["database"], entries=8
        )
        assert faults
        result = fixture["jportal"].analyze_trace(fixture["trace"], database)
        assert result.analysis_report is not None
        assert result.analysis_report.lint.has_errors


class TestFaultSmoke:
    """Fast fixed-seed subset for CI (see the fault-smoke job)."""

    def test_fifty_seed_smoke(self, fixture):
        covered = set()
        for seed in range(50):
            covered |= _fuzz_one_seed(fixture, seed)
        assert covered  # at least one fault applied per smoke run

    def test_smoke_pipeline_identity(self, fixture):
        for seed in (3, 11):
            injector = FaultInjector(seed)
            trace, _faults = injector.mutate_trace(
                fixture["trace"], faults_per_core=2
            )
            _analyse_twice(
                fixture["jportal"],
                trace,
                fixture["database"],
                "smoke seed=%d" % seed,
            )
