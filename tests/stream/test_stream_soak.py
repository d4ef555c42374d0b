"""Multi-tenant soak: hostile live tails never escape the supervisor.

Eight tenants tail-follow archives whose bytes were mutated by
:class:`~repro.pt.faults.FaultInjector` *before* being revealed
chunk-by-chunk -- so every fault lands mid-stream, on a live tail.  Two
tenants additionally see their file *shrink* mid-follow (a salvage
truncation, not an append), which must flip the reader dirty rather
than corrupt state.  The contract under soak:

* no exception escapes ``poll_all``/``finalize_all`` (no-crash);
* every tenant's salvage byte-accounting balances against its final
  file (``salvaged + dropped + converted == file_size``);
* the resumable scanner's final stats equal a one-shot batch
  ``read_archive`` of the same bytes (non-shrunk tenants);
* memory high-water stays bounded: the raw tail buffer never exceeds
  the archive itself.

``TestChaosSoakFull`` layers the *process-level* fault model on top:
per-tenant transient I/O fault schedules (EIO, partial reads), a tenant
whose file is wholesale replaced mid-follow, periodic supervisor
kill/restart cycles restoring every tenant from its JPSC checkpoint --
with a rotating subset of those checkpoints corrupted first -- and a
global memory cap.  The chaos contract adds to the byte-level one:

* every tenant's finalize is *bit-identical* to a batch
  ``analyze_archive`` of its final file, whatever degradations fired;
* checkpoint accounting balances: every resume lands exactly one
  ``stream.checkpoint.*`` counter (restored or one anomaly kind);
* quarantines, sheds, and retries never leak across tenants.

``TestStreamSoakSmoke``/``TestChaosSoakSmoke`` are the reduced variants
CI's soak jobs run; the full eight-tenant soaks run with tier-1.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil

from repro.core.metrics import MetricsRegistry
from repro.pt.archive import read_archive, write_archive
from repro.pt.faults import FaultInjector
from repro.stream import (
    BackpressureConfig,
    ResilienceConfig,
    RetryPolicy,
    StreamSupervisor,
    TenantFailure,
    checkpoint_path_for,
)

from ..integration.test_archive_salvage import salvage_contract
from .conftest import SEGMENT_PACKETS, assert_results_identical


def _run_soak(fixture, tmp_path, tenants: int, chunks: int, seed_base: int):
    clean_path = tmp_path / "clean.rpt2"
    write_archive(
        fixture["lossy"], fixture["database"], clean_path,
        segment_packets=SEGMENT_PACKETS,
    )
    clean_bytes = open(clean_path, "rb").read()
    snapshot_src = str(clean_path) + ".meta"

    plans = {}
    with StreamSupervisor(max_workers=4) as supervisor:
        for index in range(tenants):
            name = "tenant%d" % index
            rng = random.Random(seed_base + index)
            injector = FaultInjector(seed=seed_base + index)
            mutated, faults = injector.corrupt_archive(
                clean_bytes, faults=1 + index % 3
            )
            path = str(tmp_path / ("%s.rpt2" % name))
            shutil.copy(snapshot_src, path + ".meta")
            cuts = sorted(
                rng.sample(range(1, len(mutated)), min(chunks - 1, len(mutated) - 1))
            ) + [len(mutated)]
            shrink_at = rng.randrange(1, len(cuts)) if index % 4 == 2 else None
            plans[name] = {
                "path": path,
                "bytes": mutated,
                "cuts": cuts,
                "shrink_at": shrink_at,
                "faults": faults,
                "written": 0,
                "step": 0,
            }
            supervisor.add_tenant(name, path, fixture["jportal"])

        live = set(plans)
        while live:
            for name in sorted(live):
                plan = plans[name]
                step = plan["step"]
                if step >= len(plan["cuts"]):
                    live.discard(name)
                    continue
                if plan["shrink_at"] is not None and step == plan["shrink_at"]:
                    # The file shrinks under the reader: rewrite a
                    # shorter prefix, then keep appending next steps.
                    keep = max(1, plan["written"] // 2)
                    with open(plan["path"], "wb") as sink:
                        sink.write(plan["bytes"][:keep])
                    plan["written"] = keep
                    plan["shrink_at"] = None
                    continue
                target = plan["cuts"][step]
                if target > plan["written"]:
                    with open(plan["path"], "ab") as sink:
                        sink.write(plan["bytes"][plan["written"]:target])
                    plan["written"] = target
                plan["step"] = step + 1
            supervisor.poll_all()  # must never raise, whatever the bytes

        results = supervisor.finalize_all()  # must never raise either
        metrics = supervisor.metrics

    assert sorted(results) == sorted(plans)
    for name, result in results.items():
        plan = plans[name]
        final_size = os.path.getsize(plan["path"])
        assert final_size == len(plan["bytes"]), name
        note = "%s faults=%r" % (name, [f.kind for f in plan["faults"]])
        assert result.salvage is not None, note
        salvage_contract(result.salvage, final_size, note)
        tenant = supervisor._tenants[name]
        if not tenant.reader.dirty:
            # The resumable scanner saw the same bytes as a batch read
            # would: its accounting must be byte-for-byte identical.
            batch = read_archive(plan["path"], snapshot_path=plan["path"] + ".meta")
            assert tenant.reader.stats == batch.stats, note

    # Memory high-water: the undecoded tail buffer is bounded by the
    # archive itself (pending bytes are discarded once determinate).
    assert metrics.maximum("stream.buffer_bytes") <= len(clean_bytes) + 64
    assert metrics.counter("stream.polls") > 0
    return results


class TestStreamSoakFull:
    """The ISSUE's soak: 8 tenants, faults on live tails, no escapes."""

    def test_eight_tenants_survive_hostile_tails(
        self, stream_fixture, tmp_path
    ):
        _run_soak(
            stream_fixture, tmp_path, tenants=8, chunks=40,
            seed_base=6_000_000,
        )


class TestStreamSoakSmoke:
    """Reduced soak for the CI ``stream-soak`` job."""

    def test_soak_smoke(self, stream_fixture, tmp_path):
        _run_soak(
            stream_fixture, tmp_path, tenants=3, chunks=12,
            seed_base=6_500_000,
        )


# Restore-side checkpoint outcomes: every resume must land on exactly
# one of these counters (``restored`` or a load anomaly).
_RESTORE_COUNTERS = (
    "stream.checkpoint.restored",
    "stream.checkpoint.missing",
    "stream.checkpoint.corrupt_checkpoint",
    "stream.checkpoint.version_skew",
    "stream.checkpoint.stale_checkpoint",
)


def _chaos_resilience() -> ResilienceConfig:
    # Zero backoff keeps the soak free of wall-clock sleeps while still
    # exercising the DEGRADED -> QUARANTINED transitions; the global
    # pending cap is high enough to stay out of the way unless a tenant
    # genuinely balloons.
    return ResilienceConfig(
        retry=RetryPolicy(retry_budget=3, backoff_base=0.0, jitter=0.0),
        backpressure=BackpressureConfig(global_max_pending_entries=200_000),
        checkpoint=True,
        checkpoint_interval=2,
    )


def _run_chaos_soak(
    fixture, tmp_path, tenants: int, chunks: int, seed_base: int, kills: int
):
    """Byte faults *and* process faults together, with restarts.

    On top of ``_run_soak``'s hostile tails: every reader runs behind a
    transient I/O fault schedule, one tenant's file is wholesale
    replaced mid-follow (distinct inode, so the reader must flip
    dirty), and the supervisor itself is killed ``kills`` times --
    every tenant resuming from its JPSC sidecar, a rotating subset of
    which the injector corrupts first.  Finalize must still be
    bit-identical to batch for every tenant, and the checkpoint
    accounting must balance across all supervisor generations.
    """
    clean_path = tmp_path / "clean.rpt2"
    write_archive(
        fixture["lossy"], fixture["database"], clean_path,
        segment_packets=SEGMENT_PACKETS,
    )
    clean_bytes = open(clean_path, "rb").read()
    snapshot_src = str(clean_path) + ".meta"
    resilience = _chaos_resilience()
    rng = random.Random(seed_base)
    kill_rounds = set(rng.sample(range(2, chunks - 2), kills))
    aggregate = MetricsRegistry()
    resumes = 0

    def _attach_io_faults(supervisor, name, plan, max_faults):
        schedule = plan["injector"].io_schedule(
            error_rate=0.1, partial_rate=0.2, max_faults=max_faults
        )
        supervisor._tenants[name].reader.io_hooks = schedule

    plans = {}
    supervisor = StreamSupervisor(max_workers=4, resilience=resilience)
    try:
        for index in range(tenants):
            name = "tenant%d" % index
            injector = FaultInjector(seed=seed_base + index)
            mutated, faults = injector.corrupt_archive(
                clean_bytes, faults=1 + index % 3
            )
            path = str(tmp_path / ("%s.rpt2" % name))
            shutil.copy(snapshot_src, path + ".meta")
            cuts = sorted(
                rng.sample(range(1, len(mutated)), min(chunks - 1, len(mutated) - 1))
            ) + [len(mutated)]
            plans[name] = {
                "path": path,
                "bytes": mutated,
                "cuts": cuts,
                # One tenant sees its archive *replaced* (new inode,
                # clean bytes) mid-follow; precomputed so the reveal
                # loop stays deterministic.
                "replace_at": (
                    rng.randrange(1, len(cuts)) if index % 4 == 1 else None
                ),
                "replacement": clean_bytes,
                "injector": injector,
                "faults": faults,
                "written": 0,
                "step": 0,
            }
            supervisor.add_tenant(name, path, fixture["jportal"])
            _attach_io_faults(supervisor, name, plans[name], max_faults=8)

        live = set(plans)
        rounds = 0
        while live:
            for name in sorted(live):
                plan = plans[name]
                step = plan["step"]
                if step >= len(plan["cuts"]):
                    live.discard(name)
                    continue
                if plan["replace_at"] is not None and step == plan["replace_at"]:
                    # Whole-file replacement via a temp file and
                    # os.replace: guarantees a *distinct* inode (a
                    # bare unlink+create could reuse the old one and
                    # defeat the reader's replacement detection).
                    replacement = plan["replacement"]
                    temp = plan["path"] + ".swap"
                    with open(temp, "wb") as sink:
                        sink.write(replacement)
                    os.replace(temp, plan["path"])
                    plan["bytes"] = replacement
                    plan["written"] = len(replacement)
                    plan["replace_at"] = None
                    plan["step"] = step + 1
                    continue
                target = plan["cuts"][step]
                if target > plan["written"]:
                    with open(plan["path"], "ab") as sink:
                        sink.write(plan["bytes"][plan["written"]:target])
                    plan["written"] = target
                plan["step"] = step + 1
            supervisor.poll_all()  # must never raise, whatever happens
            rounds += 1
            if rounds in kill_rounds:
                # Process fault: checkpoint, kill the supervisor, and
                # resume a fresh one -- corrupting a rotating subset of
                # the sidecars first.
                supervisor.checkpoint_all()
                supervisor.close()
                aggregate.merge(supervisor.metrics)
                supervisor = StreamSupervisor(
                    max_workers=4, resilience=resilience
                )
                for index, name in enumerate(sorted(plans)):
                    plan = plans[name]
                    if index % 3 == 0:
                        plan["injector"].corrupt_checkpoint(
                            checkpoint_path_for(plan["path"])
                        )
                    supervisor.add_tenant(
                        name, plan["path"], fixture["jportal"], resume=True
                    )
                    _attach_io_faults(supervisor, name, plan, max_faults=4)
                    resumes += 1

        results = supervisor.finalize_all()  # must never raise either
        aggregate.merge(supervisor.metrics)
    finally:
        supervisor.close()

    assert sorted(results) == sorted(plans)
    batch_cache = {}
    for name, result in sorted(results.items()):
        plan = plans[name]
        note = "%s faults=%r" % (name, [f.kind for f in plan["faults"]])
        assert not isinstance(result, TenantFailure), (note, result)
        final_size = os.path.getsize(plan["path"])
        assert final_size == len(plan["bytes"]), note
        assert result.salvage is not None, note
        salvage_contract(result.salvage, final_size, note)
        digest = hashlib.sha1(plan["bytes"]).hexdigest()
        if digest not in batch_cache:
            batch_cache[digest] = fixture["jportal"].analyze_archive(
                plan["path"], snapshot_path=plan["path"] + ".meta"
            )
        assert_results_identical(result, batch_cache[digest], note)

    # Checkpoint accounting balances across every supervisor
    # generation: each resume landed exactly one restore-side counter.
    outcomes = {
        counter: aggregate.counter(counter) for counter in _RESTORE_COUNTERS
    }
    assert sum(outcomes.values()) == resumes, outcomes
    assert resumes == kills * tenants
    # The injector really did damage sidecars, and at least one resume
    # still came back clean -- both degradation paths were exercised.
    assert outcomes["stream.checkpoint.restored"] > 0, outcomes
    assert resumes - outcomes["stream.checkpoint.restored"] > 0, outcomes
    return results


class TestChaosSoakFull:
    """The ISSUE's chaos soak: byte + process faults, kill/restart."""

    def test_eight_tenants_survive_chaos(self, stream_fixture, tmp_path):
        _run_chaos_soak(
            stream_fixture, tmp_path, tenants=8, chunks=28,
            seed_base=6_600_000, kills=2,
        )


class TestChaosSoakSmoke:
    """Reduced chaos soak for the CI ``resilience-soak`` job."""

    def test_chaos_smoke(self, stream_fixture, tmp_path):
        _run_chaos_soak(
            stream_fixture, tmp_path, tenants=3, chunks=12,
            seed_base=6_700_000, kills=1,
        )
