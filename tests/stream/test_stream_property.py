"""Property suite: stream-finalize == batch ``analyze_archive``, always.

The correctness contract of :mod:`repro.stream` is bit-identity with the
batch pipeline on the same final file.  200 seeded schedules vary the
writer's pacing, the reader's poll cadence, the trace flavour (lossless
vs calibrated-lossy), the finalize backend, and the crash point (clean
stop between records, torn mid-record stop, or a proper seal), and every
one must finalize to exactly the batch result -- flows, anomaly
taxonomy, synthetic holes, projection and recovery stats.

A separate block pins the *fast path*: on a dump-free (interpreted-only)
tenant with a clean seal, the incremental decoder must never fall back
to batch replay, and must still be bit-identical.

``TestStreamUnderSidebandJitter`` runs the same identity where jittered
switch timestamps move packets between threads.  Stream and batch share
one attribution rule (``split_windows``), so this checks that the
stream's watermark slices reassemble to the batch split; the rule itself
is checked against the per-packet reference in
``tests/core/test_multicore.py``.

``TestTailReaderPending`` covers the satellite fix directly: an
unsealed, growing archive's incomplete tail means "more data coming"
(no salvage event, bytes stay pending), while the same bytes at true
end-of-file degrade exactly like the batch reader's torn-record salvage.
"""

from __future__ import annotations

import hashlib
import os
import random

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.core.multicore import split_by_thread
from repro.pt.archive import ArchiveTailReader, read_archive, write_archive
from repro.pt.perf import collect
from repro.stream import StreamDecoder
from repro.workloads import build_subject, default_config

from ..conftest import lossy_config
from .conftest import (
    SEGMENT_PACKETS,
    GrowingArchiveSimulator,
    assert_results_identical,
)

#: Seed breadth the ISSUE names.
PROPERTY_SEEDS = 200


def _stream_one_seed(fixture, tmp_path, seed, batch_cache):
    rng = random.Random(9_000_000 + seed)
    flavour = "lossy" if seed % 2 else "lossless"
    crash_clean = seed % 10 == 7
    crash_torn = seed % 10 == 3
    path = tmp_path / ("archive_%d.rpt2" % seed)
    simulator = GrowingArchiveSimulator(
        fixture[flavour], fixture["database"], path
    )
    jportal = fixture["jportal"]
    tenant = StreamDecoder(jportal, str(path), name="seed%d" % seed)
    crash_point = None
    if crash_clean or crash_torn:
        crash_point = rng.randrange(1, max(simulator.remaining, 2))
    committed = 0
    while simulator.remaining:
        committed += simulator.step(rng.randrange(1, 6))
        if crash_point is not None and committed >= crash_point:
            break
        if rng.random() < 0.7:
            tenant.poll()
    if crash_point is None:
        simulator.finish()
    elif crash_torn:
        simulator.crash_mid_record()
    else:
        simulator.crash()
    tenant.poll()
    if seed % 50 == 10:
        streamed = tenant.finalize(max_workers=2, backend="process")
    else:
        streamed = tenant.finalize()
    final_bytes = open(path, "rb").read()
    digest = hashlib.sha1(final_bytes).hexdigest()
    baseline = batch_cache.get(digest)
    if baseline is None:
        baseline = batch_cache[digest] = jportal.analyze_archive(str(path))
    note = "seed=%d flavour=%s crash=%r committed=%d replayed=%s (%s)" % (
        seed, flavour, crash_point, committed, tenant.replayed,
        tenant.replay_reason,
    )
    assert_results_identical(streamed, baseline, note)
    os.unlink(path)
    meta = str(path) + ".meta"
    if os.path.exists(meta):
        os.unlink(meta)


class TestStreamProperty:
    """200 seeds x (pacing, flavour, crash point, backend) identity."""

    def test_two_hundred_seeds_finalize_equals_batch(
        self, stream_fixture, tmp_path
    ):
        batch_cache = {}
        for seed in range(PROPERTY_SEEDS):
            _stream_one_seed(stream_fixture, tmp_path, seed, batch_cache)
        # Crash-free schedules all seal to the same file; crashed ones
        # vary by crash point.  Sanity-check the cache saw both shapes.
        assert len(batch_cache) > 2

    def test_interpreted_tenant_never_replays(self, stream_fixture, tmp_path):
        """Fast-path pin: no code dumps, clean seal -> no batch replay,
        bounded tail memory, and still bit-identical."""
        jportal = stream_fixture["interp_jportal"]
        baseline = None
        for seed in range(20):
            rng = random.Random(5_000_000 + seed)
            path = tmp_path / ("interp_%d.rpt2" % seed)
            simulator = GrowingArchiveSimulator(
                stream_fixture["interp_trace"],
                stream_fixture["interp_database"],
                path,
            )
            tenant = StreamDecoder(jportal, str(path), name="interp%d" % seed)
            while simulator.remaining:
                simulator.step(rng.randrange(1, 5))
                if rng.random() < 0.8:
                    tenant.poll()
            simulator.finish()
            tenant.poll()
            assert tenant.buffered_bytes() == 0, "clean tail fully consumed"
            streamed = tenant.finalize()
            note = "interp seed=%d (%s)" % (seed, tenant.replay_reason)
            assert tenant.replayed is False, note
            if baseline is None:
                baseline = jportal.analyze_archive(str(path))
            assert_results_identical(streamed, baseline, note)
            os.unlink(path)
            os.unlink(str(path) + ".meta")


class TestStreamUnderSidebandJitter:
    """Two multi-threaded lossy runs x switch-timestamp jitter: the
    streamed finalize must equal batch with no replay."""

    JITTERS = (3, 9, 40)

    def test_jittered_sideband_finalize_equals_batch(self, tmp_path):
        for name, size in (("h2", 30), ("pmd", 4)):
            subject = build_subject(name, size=size)
            jportal = JPortal(subject.program)
            clean_owners = None
            for jitter in (0,) + self.JITTERS:
                run = subject.run(
                    default_config(cores=2, switch_timestamp_jitter=jitter)
                )
                trace = collect(run, lossy_config(capacity=600, bandwidth=0.1))
                owners = {
                    tid: thread.packet_count()
                    for tid, thread in split_by_thread(trace).items()
                }
                if not jitter:
                    clean_owners = owners
                    continue
                note = "%s jitter=%d" % (name, jitter)
                # The jitter must move packets between threads, or this
                # compares nothing the clean suites do not.
                assert owners != clean_owners, note
                rng = random.Random(jitter)
                path = tmp_path / ("%s_%d.rpt2" % (name, jitter))
                simulator = GrowingArchiveSimulator(
                    trace, collect_metadata(run), path
                )
                tenant = StreamDecoder(jportal, str(path), name=note)
                while simulator.remaining:
                    simulator.step(rng.randrange(1, 6))
                    if rng.random() < 0.7:
                        tenant.poll()
                simulator.finish()
                tenant.poll()
                streamed = tenant.finalize()
                assert tenant.replayed is False, (note, tenant.replay_reason)
                assert_results_identical(
                    streamed, jportal.analyze_archive(str(path)), note
                )


class TestTailReaderPending:
    """Satellite: unsealed-tail reads distinguish "more data coming"
    from "torn file"."""

    def _clean_archive(self, fixture, tmp_path, name):
        path = tmp_path / name
        write_archive(
            fixture["lossless"], fixture["database"], path,
            segment_packets=SEGMENT_PACKETS,
        )
        return str(path), open(path, "rb").read()

    def test_incomplete_tail_stays_pending_until_commit(
        self, stream_fixture, tmp_path
    ):
        path, data = self._clean_archive(stream_fixture, tmp_path, "pend.rpt2")
        # Re-grow the file byte by byte around a record boundary: the
        # reader must never log a salvage event for an in-flight record.
        os.unlink(path)
        reader = ArchiveTailReader(path)
        assert reader.poll() == []  # no file yet: not an error
        written = 0
        records_seen = 0
        with open(path, "wb") as sink:
            for cut in range(0, len(data), 37):
                sink.write(data[cut:cut + 37])
                sink.flush()
                written = min(cut + 37, len(data))
                records_seen += len(reader.poll())
                assert reader.stats.events == [], (
                    "pending tail at %d bytes misread as damage" % written
                )
        records_seen += len(reader.poll())
        contents = reader.finalize()
        assert contents.stats.sealed
        assert contents.stats.events == []
        assert reader.buffered_bytes() == 0
        batch = read_archive(path)
        assert contents.stats == batch.stats
        assert records_seen > 0

    def test_truncated_tail_degrades_only_at_finalize(
        self, stream_fixture, tmp_path
    ):
        path, data = self._clean_archive(stream_fixture, tmp_path, "torn.rpt2")
        torn = data[: len(data) - 11]  # mid-record: torn tail
        os.unlink(path)
        reader = ArchiveTailReader(path)
        rng = random.Random(42)
        with open(path, "wb") as sink:
            position = 0
            while position < len(torn):
                step = rng.randrange(1, 101)
                sink.write(torn[position:position + step])
                sink.flush()
                position += step
                reader.poll()
                # While the file may still grow, the incomplete record
                # is pending -- never converted to loss.
                assert reader.stats.events == []
        contents = reader.finalize()
        # Only end-of-file applies the batch torn-tail semantics, and
        # then exactly: stats and event order equal a one-shot read.
        batch = read_archive(path)
        assert contents.stats == batch.stats
        assert [e.kind for e in contents.stats.events] == [
            e.kind for e in batch.stats.events
        ]
        assert not contents.stats.sealed

    def test_shrunk_file_flags_dirty_and_finalize_rereads(
        self, stream_fixture, tmp_path
    ):
        path, data = self._clean_archive(stream_fixture, tmp_path, "shrink.rpt2")
        reader = ArchiveTailReader(path)
        reader.poll()
        with open(path, "r+b") as sink:
            sink.truncate(len(data) // 2)
        assert reader.poll() == []
        assert reader.dirty
        contents = reader.finalize()
        batch = read_archive(path)
        assert contents.stats == batch.stats
