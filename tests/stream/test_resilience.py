"""Resilience suite: kill/restart, quarantine, backpressure, watchdog.

The fault-tolerance contract extends the streaming bit-identity
guarantee to the *process* level:

* **kill/restart** -- a tenant checkpointed into its ``JPSC`` sidecar
  and rebuilt in a fresh process (here: a fresh decoder) continues
  tail-follow where the old one stood, and ``finalize()`` is still
  bit-identical to batch ``analyze_archive``.  200 seeded schedules
  vary pacing, flavour, kill point, transient I/O faults, checkpoint
  corruption, and writer crash;

* **checkpoint damage** -- every damaged sidecar (missing, truncated,
  bit-rotted, version-skewed, stale) reads as a cold start plus one
  ``stream.checkpoint.<kind>`` counter, never an exception;

* **quarantine** -- the HEALTHY -> DEGRADED -> QUARANTINED machine
  retries transient failures under a capped, deterministically
  jittered backoff, excludes quarantined tenants from rounds, and
  still finalizes them correctly via batch replay;

* **backpressure** -- a tenant whose watermark stalls (entries that
  can never release) or whose raw tail balloons is shed at its cap:
  memory stays bounded, finalize stays correct;

* **watchdog** -- a poll that outlives the deadline is abandoned
  without blocking the round or poisoning the result.
"""

from __future__ import annotations

import hashlib
import os
import random
import time

from repro.pt import archive as archive_mod
from repro.pt.archive import ArchiveWriter, iter_archive_events, write_archive
from repro.pt.faults import FaultInjector
from repro.stream import (
    BackpressureConfig,
    ResilienceConfig,
    RetryPolicy,
    StreamDecoder,
    StreamSupervisor,
    TenantHealth,
    checkpoint_path_for,
)
from repro.stream import resilience
from repro.stream.resilience import TenantSupervision, load_checkpoint

from .conftest import (
    SEGMENT_PACKETS,
    GrowingArchiveSimulator,
    assert_results_identical,
)

#: Seed breadth the ISSUE names for the kill/restart property block.
RESILIENCE_SEEDS = 200

#: Seeds for the side-by-side restored-vs-uninterrupted delta check.
DELTA_SEEDS = 40

#: The ``FlowDelta`` fields a restored tenant must reproduce exactly
#: (everything but wall-clock latency and the degradation markers).
DELTA_FIELDS = (
    "new_steps", "cursors", "new_holes", "new_anomalies", "salvage_events",
    "pending_entries", "lag_segments", "segments", "records", "sealed",
)


# ------------------------------------------------------------ shared helpers
class _Clock:
    """Injectable monotonic clock for the supervisor's backoff logic."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class _AlwaysFail:
    """I/O hooks whose every read raises a transient ``OSError``."""

    def __init__(self):
        self.calls = 0

    def before_read(self, reader) -> None:
        import errno

        self.calls += 1
        raise OSError(errno.EIO, "persistent injected I/O failure")

    def read_limit(self, available):
        return None


class _StallHooks:
    """I/O hooks that sleep before every read (hung-media model)."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.calls = 0

    def before_read(self, reader) -> None:
        self.calls += 1
        time.sleep(self.seconds)

    def read_limit(self, available):
        return None


class _ShortRead:
    """I/O hooks that leave the last few available bytes unread, so the
    reader's offset stops inside the newest record."""

    def before_read(self, reader) -> None:
        pass

    def read_limit(self, available):
        return max(1, available - 3)


class _MkdirOnUnpickle:
    """A pickle payload whose load has a side effect (creates a dir)."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _sealed_archive(fixture, tmp_path, name, flavour="lossless"):
    path = tmp_path / name
    write_archive(
        fixture[flavour], fixture["database"], path,
        segment_packets=SEGMENT_PACKETS,
    )
    return str(path)


# ------------------------------------------------------- checkpoint framing
class TestCheckpointCodec:
    """The JPSC sidecar: atomic write, gated load, counted damage."""

    STATE = {"polls": 3, "pending": [1, 2, 3], "name": "codec"}

    def _written(self, tmp_path):
        path = str(tmp_path / "codec.jpsc")
        resilience.write_checkpoint_file(path, dict(self.STATE))
        return path

    def test_roundtrip(self, tmp_path):
        path = self._written(tmp_path)
        state, anomaly = load_checkpoint(path)
        assert anomaly is None
        assert state == self.STATE

    def test_missing_sidecar(self, tmp_path):
        state, anomaly = load_checkpoint(str(tmp_path / "absent.jpsc"))
        assert state is None
        assert anomaly == resilience.ANOMALY_MISSING

    def test_truncation_is_corrupt(self, tmp_path):
        path = self._written(tmp_path)
        blob = open(path, "rb").read()
        for cut in (0, 3, resilience._HEADER.size, len(blob) - 1):
            with open(path, "wb") as sink:
                sink.write(blob[:cut])
            state, anomaly = load_checkpoint(path)
            assert state is None, cut
            assert anomaly == resilience.ANOMALY_CORRUPT, cut

    def test_payload_bit_rot_is_corrupt(self, tmp_path):
        path = self._written(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[resilience._HEADER.size + 2] ^= 0x10
        with open(path, "wb") as sink:
            sink.write(bytes(blob))
        state, anomaly = load_checkpoint(path)
        assert state is None
        assert anomaly == resilience.ANOMALY_CORRUPT

    def test_bad_magic_is_corrupt(self, tmp_path):
        path = self._written(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"
        with open(path, "wb") as sink:
            sink.write(bytes(blob))
        assert load_checkpoint(path) == (None, resilience.ANOMALY_CORRUPT)

    def test_version_skew(self, tmp_path):
        path = self._written(tmp_path)
        blob = open(path, "rb").read()
        magic, version, digest, length = resilience._HEADER.unpack_from(blob)
        skewed = resilience._HEADER.pack(
            magic, version + 1, digest, length
        ) + blob[resilience._HEADER.size:]
        with open(path, "wb") as sink:
            sink.write(skewed)
        assert load_checkpoint(path) == (None, resilience.ANOMALY_VERSION_SKEW)

    def test_every_injected_damage_loads_as_anomaly(self, tmp_path):
        for seed in range(30):
            path = str(tmp_path / ("rot_%d.jpsc" % seed))
            resilience.write_checkpoint_file(path, dict(self.STATE, seed=seed))
            fault = FaultInjector(seed=seed).corrupt_checkpoint(path)
            assert fault is not None
            state, anomaly = load_checkpoint(path)
            assert state is None, (seed, fault.detail)
            assert anomaly in (
                resilience.ANOMALY_MISSING,
                resilience.ANOMALY_CORRUPT,
                resilience.ANOMALY_VERSION_SKEW,
            ), (seed, fault.detail, anomaly)

    def test_pickled_body_is_never_unpickled(self, tmp_path):
        """A correctly framed sidecar cannot run code on load: the body
        is JSON, so a pickle with a side-effecting ``__reduce__`` loads
        as corrupt and the side effect never happens."""
        import pickle

        marker = str(tmp_path / "created_by_unpickling")
        payload = pickle.dumps({"polls": _MkdirOnUnpickle(marker)})
        path = str(tmp_path / "hostile.jpsc")
        with open(path, "wb") as sink:
            sink.write(resilience._HEADER.pack(
                resilience.CHECKPOINT_MAGIC,
                resilience.CHECKPOINT_VERSION,
                hashlib.sha256(payload).digest(),
                len(payload),
            ) + payload)
        assert load_checkpoint(path) == (None, resilience.ANOMALY_CORRUPT)
        assert not os.path.exists(marker)

    def test_non_object_json_body_is_corrupt(self, tmp_path):
        path = str(tmp_path / "list.jpsc")
        resilience.write_checkpoint_file(path, [1, 2, 3])
        assert load_checkpoint(path) == (None, resilience.ANOMALY_CORRUPT)

    def test_store_failure_counts_not_raises(self, stream_fixture, tmp_path):
        path = _sealed_archive(stream_fixture, tmp_path, "store.rpt2")
        tenant = StreamDecoder(stream_fixture["jportal"], path, name="store")
        tenant.poll()
        target = str(tmp_path / "no" / "such" / "dir" / "x.jpsc")
        assert tenant.write_checkpoint(target) is None
        assert tenant.metrics.counter(
            "stream.checkpoint." + resilience.ANOMALY_STORE_FAILED
        ) == 1
        assert tenant.write_checkpoint(str(tmp_path / "ok.jpsc")) > 0
        assert tenant.metrics.counter("stream.checkpoint.writes") == 1


# ------------------------------------------------- kill/restart (property)
def _kill_restart_one_seed(fixture, tmp_path, seed, batch_cache):
    rng = random.Random(7_000_000 + seed)
    interp = seed % 4 == 0
    if interp:
        jportal = fixture["interp_jportal"]
        trace, database = fixture["interp_trace"], fixture["interp_database"]
        flavour = "interp"
    else:
        jportal = fixture["jportal"]
        flavour = "lossy" if seed % 2 else "lossless"
        trace, database = fixture[flavour], fixture["database"]
    path = tmp_path / ("kill_%d.rpt2" % seed)
    ckpt = str(path) + ".jpsc"
    simulator = GrowingArchiveSimulator(trace, database, path)
    tenant = StreamDecoder(jportal, str(path), name="kill%d" % seed)
    injector = FaultInjector(seed=7_000_000 + seed)
    io_faults = (not interp) and seed % 5 == 3
    if io_faults:
        tenant.reader.io_hooks = injector.io_schedule(
            error_rate=0.2, partial_rate=0.3, max_faults=6
        )
    corrupt_ckpt = (not interp) and seed % 7 == 5
    crash_clean = (not interp) and seed % 10 == 6
    crash_torn = (not interp) and seed % 10 == 2
    kill_at = injector.kill_index(10)
    checkpoint_every = rng.randrange(1, 4)
    polls = 0
    killed = False
    while simulator.remaining:
        simulator.step(rng.randrange(1, 6))
        tenant.poll()
        polls += 1
        if polls % checkpoint_every == 0 or (not killed and polls == kill_at):
            tenant.write_checkpoint(ckpt)
        if not killed and polls >= kill_at:
            killed = True
            if corrupt_ckpt:
                injector.corrupt_checkpoint(ckpt)
            old_polls = tenant.polls
            tenant, anomaly = StreamDecoder.restore(
                jportal, str(path), name="kill%d" % seed, checkpoint_path=ckpt
            )
            if corrupt_ckpt:
                assert anomaly is not None, seed
                assert tenant.polls == 0, seed  # cold start
            else:
                assert anomaly is None, (seed, anomaly)
                assert tenant.polls == old_polls, seed
            if io_faults:
                tenant.reader.io_hooks = injector.io_schedule(
                    error_rate=0.2, partial_rate=0.3, max_faults=4
                )
    assert killed, seed
    if crash_torn:
        simulator.crash_mid_record()
    elif crash_clean:
        simulator.crash()
    else:
        simulator.finish()
    tenant.poll()
    streamed = tenant.finalize()
    final_bytes = open(path, "rb").read()
    digest = hashlib.sha1(final_bytes).hexdigest()
    baseline = batch_cache.get(digest)
    if baseline is None:
        baseline = batch_cache[digest] = jportal.analyze_archive(str(path))
    note = (
        "seed=%d flavour=%s kill_at=%d corrupt=%s io=%s crash=%s replayed=%s (%s)"
        % (
            seed, flavour, kill_at, corrupt_ckpt, io_faults,
            crash_clean or crash_torn, tenant.replayed, tenant.replay_reason,
        )
    )
    assert_results_identical(streamed, baseline, note)
    if interp:
        # The acceptance pin: a clean archive resumed from checkpoint
        # finalizes WITHOUT a replay -- recovery really is incremental.
        assert tenant.replayed is False, note
    for leftover in (str(path), str(path) + ".meta", ckpt):
        if os.path.exists(leftover):
            os.unlink(leftover)


class TestKillRestartProperty:
    """200 seeds x (pacing, flavour, kill point, fault flavour)."""

    def test_two_hundred_seeds_survive_kill_restart(
        self, stream_fixture, tmp_path
    ):
        batch_cache = {}
        for seed in range(RESILIENCE_SEEDS):
            _kill_restart_one_seed(stream_fixture, tmp_path, seed, batch_cache)
        assert len(batch_cache) > 2


class TestSupervisorResume:
    """Supervisor-level checkpoint lifecycle (the tentpole surface)."""

    def test_kill_restart_resumes_without_replay(
        self, stream_fixture, tmp_path
    ):
        jportal = stream_fixture["interp_jportal"]
        path = tmp_path / "resume.rpt2"
        simulator = GrowingArchiveSimulator(
            stream_fixture["interp_trace"],
            stream_fixture["interp_database"],
            path,
        )
        config = ResilienceConfig(checkpoint=True)
        rng = random.Random(1234)
        supervisor = StreamSupervisor(resilience=config)
        tenant = supervisor.add_tenant("t", str(path), jportal)
        half = simulator.remaining // 2
        while simulator.remaining > half:
            simulator.step(rng.randrange(1, 5))
            supervisor.poll_all()
        polls_before = tenant.polls
        assert supervisor.metrics.counter("stream.checkpoint.writes") > 0
        supervisor.close()

        supervisor = StreamSupervisor(resilience=config)
        tenant = supervisor.add_tenant("t", str(path), jportal, resume=True)
        assert supervisor.metrics.counter("stream.checkpoint.restored") == 1
        assert tenant.polls == polls_before
        while simulator.remaining:
            simulator.step(rng.randrange(1, 5))
            supervisor.poll_all()
        simulator.finish()
        supervisor.poll_all()
        result = supervisor.finalize("t")
        assert tenant.replayed is False
        assert supervisor.metrics.counter("stream.finalize_replays") == 0
        baseline = jportal.analyze_archive(str(path))
        assert_results_identical(result, baseline, "supervisor resume")
        supervisor.close()

    def test_restored_tenant_continues_the_deltas(
        self, stream_fixture, tmp_path
    ):
        """Restored == uninterrupted holds poll by poll, not only at
        finalize: after the kill, the restored tenant and the tenant it
        was checkpointed from emit the same next delta."""
        jportal = stream_fixture["jportal"]
        mid_record = 0
        for seed in range(DELTA_SEEDS):
            rng = random.Random(8_000_000 + seed)
            flavour = "lossy" if seed % 2 else "lossless"
            path = tmp_path / ("delta_%d.rpt2" % seed)
            ckpt = str(path) + ".jpsc"
            simulator = GrowingArchiveSimulator(
                stream_fixture[flavour], stream_fixture["database"], path
            )
            tenant = StreamDecoder(jportal, str(path), name="delta")
            kill_when_remaining = rng.randrange(2, simulator.remaining)
            while simulator.remaining > kill_when_remaining:
                simulator.step(rng.randrange(1, 6))
                tenant.poll()
            if seed % 4 == 1:
                # The cursor is taken right after a short read.
                simulator.step(1)
                tenant.reader.io_hooks = _ShortRead()
                tenant.poll()
                tenant.reader.io_hooks = None
                mid_record += tenant.reader.buffered_bytes() > 0
            assert tenant.write_checkpoint(ckpt) is not None
            restored, anomaly = StreamDecoder.restore(
                jportal, str(path), name="delta", checkpoint_path=ckpt
            )
            assert anomaly is None, seed
            simulator.step(1)
            expected, actual = tenant.poll(), restored.poll()
            for field in DELTA_FIELDS:
                assert getattr(actual, field) == getattr(expected, field), (
                    seed, field,
                )
            assert restored.polls == tenant.polls, seed
            simulator.finish()
        assert mid_record, "no cursor sat mid-record"

    def test_missing_checkpoint_cold_starts(self, stream_fixture, tmp_path):
        path = _sealed_archive(stream_fixture, tmp_path, "cold.rpt2")
        supervisor = StreamSupervisor()
        tenant = supervisor.add_tenant(
            "t", path, stream_fixture["jportal"], resume=True
        )
        assert tenant.polls == 0
        assert supervisor.metrics.counter("stream.checkpoint.missing") == 1
        assert supervisor.metrics.state("stream.health", tid=0) == "healthy"
        supervisor.close()

    def test_stale_checkpoint_cold_starts(self, stream_fixture, tmp_path):
        path = _sealed_archive(stream_fixture, tmp_path, "stale.rpt2")
        jportal = stream_fixture["jportal"]
        tenant = StreamDecoder(jportal, path, name="t")
        tenant.poll()
        assert tenant.reader.offset > 8
        assert tenant.write_checkpoint() is not None
        # The archive is truncated below the checkpointed offset: the
        # sidecar no longer matches the bytes on disk.
        with open(path, "r+b") as sink:
            sink.truncate(tenant.reader.offset // 2)
        supervisor = StreamSupervisor()
        resumed = supervisor.add_tenant("t", path, jportal, resume=True)
        assert resumed.polls == 0
        assert supervisor.metrics.counter(
            "stream.checkpoint.stale_checkpoint"
        ) == 1
        # And the cold start still finalizes to the batch result of the
        # truncated file (a torn tail: salvage -> replay, never a raise).
        supervisor.poll_all()
        result = supervisor.finalize("t")
        baseline = jportal.analyze_archive(path)
        assert_results_identical(result, baseline, "stale restore")
        supervisor.close()

    def test_corrupt_checkpoint_cold_starts(self, stream_fixture, tmp_path):
        path = _sealed_archive(stream_fixture, tmp_path, "rot.rpt2")
        jportal = stream_fixture["jportal"]
        tenant = StreamDecoder(jportal, path, name="t")
        tenant.poll()
        assert tenant.write_checkpoint() is not None
        blob = bytearray(open(checkpoint_path_for(path), "rb").read())
        blob[-1] ^= 0x40
        with open(checkpoint_path_for(path), "wb") as sink:
            sink.write(bytes(blob))
        supervisor = StreamSupervisor()
        resumed = supervisor.add_tenant("t", path, jportal, resume=True)
        assert resumed.polls == 0
        assert supervisor.metrics.counter(
            "stream.checkpoint.corrupt_checkpoint"
        ) == 1
        supervisor.close()


# ------------------------------------------------------ health state machine
class TestQuarantineStateMachine:
    """Directed checks on the HEALTHY -> DEGRADED -> QUARANTINED path."""

    def test_backoff_schedule_deterministic_monotone_capped(self):
        policy = RetryPolicy(
            retry_budget=8, backoff_base=0.05, backoff_cap=1.0,
            backoff_factor=2.0, jitter=0.25,
        )
        delays = [policy.backoff_delay("tenant7", n) for n in range(1, 9)]
        again = [policy.backoff_delay("tenant7", n) for n in range(1, 9)]
        assert delays == again  # deterministic: same tenant, same schedule
        for earlier, later in zip(delays, delays[1:]):
            assert later >= earlier * 0.8  # monotone modulo jitter
        assert max(delays) <= 1.0 * 1.25  # capped (plus jitter fraction)
        assert delays[0] >= 0.05
        # Distinct tenants fan out: same attempt, different jitter.
        other = [policy.backoff_delay("tenant8", n) for n in range(1, 9)]
        assert other != delays

    def test_transitions_and_budget(self):
        policy = RetryPolicy(retry_budget=2, backoff_base=0.5, jitter=0.0)
        state = TenantSupervision(name="t", policy=policy)
        assert state.health is TenantHealth.HEALTHY
        assert state.should_poll(0.0)
        assert not state.record_failure("boom", now=10.0)
        assert state.health is TenantHealth.DEGRADED
        assert not state.should_poll(10.0)  # inside the backoff window
        assert state.should_poll(10.0 + 2.0)
        assert state.record_success()  # recovery resets the budget
        assert state.health is TenantHealth.HEALTHY
        assert state.consecutive_failures == 0
        for _ in range(2):
            assert not state.record_failure("boom", now=0.0)
        assert state.record_failure("boom", now=0.0)  # budget exhausted
        assert state.health is TenantHealth.QUARANTINED
        assert not state.should_poll(10.0**9)
        assert state.record_success() is False  # quarantine is terminal
        assert state.health is TenantHealth.QUARANTINED

    def test_supervisor_quarantines_and_still_finalizes(
        self, stream_fixture, tmp_path
    ):
        jportal = stream_fixture["jportal"]
        sick_path = _sealed_archive(stream_fixture, tmp_path, "sick.rpt2")
        well_path = _sealed_archive(stream_fixture, tmp_path, "well.rpt2")
        clock = _Clock()
        config = ResilienceConfig(
            retry=RetryPolicy(retry_budget=2, backoff_base=0.01, jitter=0.0)
        )
        supervisor = StreamSupervisor(resilience=config, clock=clock)
        sick = supervisor.add_tenant("sick", sick_path, jportal)
        supervisor.add_tenant("well", well_path, jportal)
        sick.reader.io_hooks = _AlwaysFail()

        # Round 1: the failing poll degrades only its own tenant.
        deltas = supervisor.poll_all()
        assert deltas["sick"].error is not None and deltas["sick"].transient
        assert deltas["well"].error is None
        assert supervisor.health("sick") is TenantHealth.DEGRADED
        assert supervisor.health("well") is TenantHealth.HEALTHY
        assert supervisor.metrics.state("stream.health", tid=0) == "degraded"

        # Same instant: the degraded tenant is inside its backoff
        # window and must be skipped; the healthy one is not.
        deltas = supervisor.poll_all()
        assert "sick" not in deltas and "well" in deltas

        # Advance past each backoff; the budget (2) exhausts on the
        # third consecutive failure and the tenant quarantines.
        failures = 1
        while supervisor.health("sick") is not TenantHealth.QUARANTINED:
            clock.now += 1.0
            deltas = supervisor.poll_all()
            if "sick" in deltas:
                failures += 1
            assert failures <= 4, "quarantine never reached"
        assert failures == 3
        assert supervisor.metrics.counter("stream.quarantines", tid=0) == 1
        assert supervisor.metrics.counter("stream.retries_scheduled") == 2
        assert (
            supervisor.metrics.state("stream.health", tid=0) == "quarantined"
        )

        # Quarantined: excluded from every later round.
        clock.now += 100.0
        deltas = supervisor.poll_all()
        assert "sick" not in deltas and "well" in deltas

        # Finalize is still correct for both: the quarantined tenant
        # was shed, so it replays from the (intact) file.
        results = supervisor.finalize_all()
        baseline = jportal.analyze_archive(sick_path)
        assert_results_identical(results["sick"], baseline, "quarantined")
        assert sick.replayed is True
        assert supervisor.metrics.counter("stream.finalize_replays") >= 1
        well_baseline = jportal.analyze_archive(well_path)
        assert_results_identical(results["well"], well_baseline, "well")
        supervisor.close()

    def test_recovery_after_transient_failures(self, stream_fixture, tmp_path):
        jportal = stream_fixture["jportal"]
        path = _sealed_archive(stream_fixture, tmp_path, "flaky.rpt2")
        clock = _Clock()
        config = ResilienceConfig(
            retry=RetryPolicy(retry_budget=4, backoff_base=0.01, jitter=0.0)
        )
        supervisor = StreamSupervisor(resilience=config, clock=clock)
        tenant = supervisor.add_tenant("flaky", path, jportal)
        hooks = _AlwaysFail()
        tenant.reader.io_hooks = hooks
        supervisor.poll_all()
        assert supervisor.health("flaky") is TenantHealth.DEGRADED
        tenant.reader.io_hooks = None  # the fault clears
        clock.now += 10.0
        deltas = supervisor.poll_all()
        assert deltas["flaky"].error is None
        assert supervisor.health("flaky") is TenantHealth.HEALTHY
        assert supervisor.metrics.counter("stream.recoveries", tid=0) == 1
        result = supervisor.finalize("flaky")
        assert tenant.replayed is False  # transient faults cost nothing
        baseline = jportal.analyze_archive(path)
        assert_results_identical(result, baseline, "recovered")
        supervisor.close()


# ----------------------------------------------------------- backpressure
def _stall_segment(fixture):
    """A segment chunk whose entries all share one tsc: committed
    repeatedly, the commit watermark pins at that tsc and nothing is
    ever strictly below it -- pending entries grow without release."""
    events = list(
        iter_archive_events(
            fixture["lossless"], fixture["database"], SEGMENT_PACKETS
        )
    )
    seg = next(event for event in events if event[0] == "segment")
    _kind, core, chunk, _lo, _hi = seg
    packet = next(item for tag, item in chunk if tag != "loss")
    return core, [("packet", packet)] * 32, packet.tsc


class TestBackpressure:
    """Bounded memory: caps shed the offender, invariants hold."""

    def test_watermark_stall_bounded_by_pending_cap(
        self, stream_fixture, tmp_path
    ):
        core, chunk, tsc = _stall_segment(stream_fixture)
        path = str(tmp_path / "stall.rpt2")
        writer = ArchiveWriter(path)
        writer.snapshot_metadata(stream_fixture["database"], include_dumps=False)
        tenant = StreamDecoder(stream_fixture["jportal"], path, name="stall")
        cap = 100
        tenant.backpressure = BackpressureConfig(max_pending_entries=cap)
        shed_seen = False
        peak = 0
        for _ in range(12):
            writer.append_segment(core, chunk, tsc_span=(tsc, tsc))
            delta = tenant.poll()
            peak = max(peak, tenant.pending_entries())
            if delta.shed:
                shed_seen = True
            # The invariant: pending never exceeds the cap by more than
            # one poll's worth of arrivals (the breach that trips it).
            assert tenant.pending_entries() <= cap + len(chunk)
        assert shed_seen, "stalling tenant never shed (peak=%d)" % peak
        assert tenant.pending_entries() == 0
        assert tenant.buffered_bytes() == 0
        assert tenant.shed_reason is not None
        # Polls stay cheap no-ops after the shed.
        writer.append_segment(core, chunk, tsc_span=(tsc, tsc))
        delta = tenant.poll()
        assert delta.shed and tenant.pending_entries() == 0
        writer.abort()

    def test_buffered_bytes_cap_sheds_ballooning_tail(
        self, stream_fixture, tmp_path
    ):
        core, chunk, tsc = _stall_segment(stream_fixture)
        path = str(tmp_path / "tail.rpt2")
        writer = ArchiveWriter(path)
        writer.snapshot_metadata(stream_fixture["database"], include_dumps=False)
        writer.append_segment(core, chunk, tsc_span=(tsc, tsc))
        writer.abort()  # unsealed: the tail may legally keep growing
        tenant = StreamDecoder(stream_fixture["jportal"], path, name="tail")
        tenant.backpressure = BackpressureConfig(max_buffered_bytes=2048)
        tenant.poll()  # consume the committed prefix cleanly
        # An in-flight record declaring a huge payload: the scanner must
        # buffer it until commit, so the raw tail balloons.
        header = archive_mod._HEADER.pack(
            archive_mod.REC_SEGMENT, 10**6, 0, 0, 0, 1 << 20, 0
        )
        with open(path, "ab") as sink:
            sink.write(archive_mod._SYNC)
            sink.write(header)
            sink.write(archive_mod._HCRC.pack(archive_mod._crc(header)))
        shed_seen = False
        with open(path, "ab") as sink:
            for _ in range(8):
                sink.write(b"\x00" * 512)
                sink.flush()
                delta = tenant.poll()
                assert tenant.buffered_bytes() <= 2048 + 512 + 64
                if delta.shed:
                    shed_seen = True
        assert shed_seen
        assert tenant.buffered_bytes() == 0

    def test_global_cap_sheds_largest_tenant_only(
        self, stream_fixture, tmp_path
    ):
        core, chunk, tsc = _stall_segment(stream_fixture)
        jportal = stream_fixture["jportal"]
        stall_path = str(tmp_path / "gstall.rpt2")
        writer = ArchiveWriter(stall_path)
        writer.snapshot_metadata(stream_fixture["database"], include_dumps=False)
        small_path = _sealed_archive(stream_fixture, tmp_path, "gsmall.rpt2")
        config = ResilienceConfig(
            backpressure=BackpressureConfig(global_max_pending_entries=200)
        )
        supervisor = StreamSupervisor(resilience=config)
        stall = supervisor.add_tenant("stall", stall_path, jportal)
        small = supervisor.add_tenant("small", small_path, jportal)
        shed_round = None
        for round_no in range(12):
            writer.append_segment(core, chunk, tsc_span=(tsc, tsc))
            deltas = supervisor.poll_all()
            total = sum(
                tenant.pending_entries()
                for tenant in (stall, small)
            )
            assert total <= 200 + len(chunk)
            if deltas["stall"].shed and shed_round is None:
                shed_round = round_no
        assert shed_round is not None, "global cap never tripped"
        assert stall.shed_reason is not None and "global" in stall.shed_reason
        assert small.shed_reason is None  # only the offender pays
        assert supervisor.metrics.counter("stream.sheds", tid=0) >= 1
        assert supervisor.metrics.counter("stream.sheds", tid=1) == 0
        writer.abort()
        # The small tenant still finalizes on the fast path.
        results = supervisor.finalize_all()
        baseline = jportal.analyze_archive(small_path)
        assert_results_identical(results["small"], baseline, "small tenant")
        assert small.replayed is False
        supervisor.close()


# -------------------------------------------------------------- watchdog
class TestWatchdog:
    """Poll deadlines: hung tenants are abandoned, not waited on."""

    def test_hung_poll_is_abandoned_and_recovers(
        self, stream_fixture, tmp_path
    ):
        jportal = stream_fixture["jportal"]
        slow_path = _sealed_archive(stream_fixture, tmp_path, "slow.rpt2")
        fast_path = _sealed_archive(stream_fixture, tmp_path, "fast.rpt2")
        config = ResilienceConfig(
            retry=RetryPolicy(retry_budget=8, backoff_base=0.0, jitter=0.0),
            poll_deadline=0.05,
        )
        supervisor = StreamSupervisor(resilience=config)
        slow = supervisor.add_tenant("slow", slow_path, jportal)
        supervisor.add_tenant("fast", fast_path, jportal)
        slow.reader.io_hooks = _StallHooks(0.4)
        started = time.monotonic()
        deltas = supervisor.poll_all()
        elapsed = time.monotonic() - started
        assert "slow" not in deltas  # abandoned by the watchdog
        assert "fast" in deltas  # the round was not blocked
        assert elapsed < 0.35, "watchdog did not cut the wait"
        assert supervisor.metrics.counter("stream.watchdog_timeouts") == 1
        assert supervisor.health("slow") is TenantHealth.DEGRADED
        # Once the stalled thread drains, the next round reaps it and
        # the tenant recovers.
        time.sleep(0.5)
        slow.reader.io_hooks = None
        deltas = supervisor.poll_all()
        assert "slow" in deltas
        assert supervisor.health("slow") is TenantHealth.HEALTHY
        result = supervisor.finalize("slow")
        baseline = jportal.analyze_archive(slow_path)
        assert_results_identical(result, baseline, "reaped hung tenant")
        supervisor.close()

    def test_finalize_while_hung_replays_from_file(
        self, stream_fixture, tmp_path
    ):
        jportal = stream_fixture["jportal"]
        path = _sealed_archive(stream_fixture, tmp_path, "hung.rpt2")
        config = ResilienceConfig(poll_deadline=0.05)
        supervisor = StreamSupervisor(resilience=config)
        tenant = supervisor.add_tenant("hung", path, jportal)
        tenant.reader.io_hooks = _StallHooks(1.0)
        deltas = supervisor.poll_all()
        assert "hung" not in deltas
        # Finalize immediately, while the poll thread is still inside
        # the stall: the decoder state is untrusted, so the supervisor
        # replays from the file without touching it.
        results = supervisor.finalize_all()
        assert supervisor.metrics.counter("stream.forced_replays") == 1
        baseline = jportal.analyze_archive(path)
        assert_results_identical(results["hung"], baseline, "hung finalize")
        supervisor.close()
