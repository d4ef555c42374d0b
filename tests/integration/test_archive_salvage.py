"""Archive-level fault-injection suite: salvage decode never crashes.

The invariant under test (ISSUE 5's tentpole): **no disk-level fault
ever raises** -- :meth:`~repro.core.pipeline.JPortal.analyze_archive`
completes on every corrupted file, reports the injected fault in its
salvage stats / ``anomalies_by_kind``, and still decodes every segment
the fault did not touch.  Faults come from the same seeded
:class:`~repro.pt.faults.FaultInjector` the stream-level suite uses, at
its new disk layer (truncate-at-byte, bit flips, dropped/duplicated
segment records, stale metadata snapshots).

``TestArchiveFuzz`` is the seed sweep the CI ``archive-fuzz`` job runs
on every push (see .github/workflows/ci.yml).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.pt.archive import read_archive, write_archive
from repro.pt.faults import ARCHIVE_FAULT_KINDS, FaultInjector, FaultKind
from repro.pt.perf import collect

from ..conftest import build_figure2_program, lossy_config

#: What a single injected disk fault may legitimately surface as.  Keys
#: are fault kinds; values are the salvage-kind sets of which at least
#: one must appear in ``SalvageStats.by_kind()``.  (A truncation can land
#: mid-record or exactly on a boundary; a bit flip can hit framing,
#: header, payload, or the seal -- each lands in a different bucket.)
EXPECTED_KINDS = {
    FaultKind.TRUNCATE_ARCHIVE: {
        "segment_torn", "archive_unsealed", "archive_malformed",
    },
    FaultKind.BIT_FLIP: {
        "segment_crc_mismatch", "segment_torn", "segment_gap",
        "segment_duplicate", "archive_malformed", "archive_unsealed",
    },
    FaultKind.DROP_SEGMENT: {"segment_gap"},
    FaultKind.DUPLICATE_SEGMENT: {"segment_duplicate"},
    FaultKind.STALE_SNAPSHOT: {"metadata_snapshot_missing"},
}


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    """One deterministic lossy 3-thread run, archived to disk."""
    program = build_figure2_program(iterations=40)
    config = RuntimeConfig(cores=2, quantum=50, jit=JITPolicy(hot_threshold=8))
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    for _ in range(2):
        runtime.add_thread("Test", "main", ())
    run = runtime.run()
    trace = collect(run, lossy_config(capacity=600, bandwidth=0.1))
    database = collect_metadata(run)
    base = tmp_path_factory.mktemp("archives")
    path = base / "trace.rpt2"
    write_archive(trace, database, path, segment_packets=48)
    return {
        "program": program,
        "trace": trace,
        "database": database,
        "jportal": JPortal(program),
        "path": str(path),
        "snapshot": str(path) + ".meta",
        "bytes": open(path, "rb").read(),
        "workdir": str(base),
    }


def salvage_contract(stats, mutated_size, note=""):
    """The byte-accounting invariant every salvage must satisfy."""
    accounted = (
        stats.bytes_salvaged + stats.bytes_dropped + stats.bytes_converted_to_loss
    )
    assert accounted == stats.file_size == mutated_size, note


def run_one_seed(fixture, seed, analyze=False):
    """Inject one disk fault, salvage, assert the contract; returns the
    (faults, stats) pair for kind-coverage bookkeeping."""
    injector = FaultInjector(seed=seed)
    mutated, faults = injector.corrupt_archive(fixture["bytes"], faults=1)
    target = os.path.join(fixture["workdir"], "fuzz_%d.rpt2" % seed)
    with open(target, "wb") as sink:
        sink.write(mutated)
    note = "seed=%d faults=%r" % (seed, faults)
    contents = read_archive(target, snapshot_path=fixture["snapshot"])
    stats = contents.stats
    salvage_contract(stats, len(mutated), note)
    kinds = set(stats.by_kind())
    for fault in faults:
        assert kinds & EXPECTED_KINDS[fault.kind], (
            "%s: fault not visible in salvage kinds %s" % (note, sorted(kinds))
        )
    if analyze:
        result = fixture["jportal"].analyze_archive(
            target, snapshot_path=fixture["snapshot"]
        )
        assert result.salvage is not None
        for kind in stats.by_kind():
            assert result.anomalies_by_kind.get(kind, 0) >= 1, (note, kind)
    os.unlink(target)
    return faults, stats


class TestArchiveContract:
    """Directed single-fault tests: each disk fault kind is (a) survived
    and (b) visible in the salvage report."""

    def test_undamaged_roundtrip_bit_identical(self, fixture):
        reference = fixture["jportal"].analyze_trace(
            fixture["trace"], fixture["database"]
        )
        from_disk = fixture["jportal"].analyze_archive(fixture["path"])
        assert sorted(reference.flows) == sorted(from_disk.flows)
        for tid, flow in reference.flows.items():
            disk_flow = from_disk.flows[tid]
            assert disk_flow.flow.entries == flow.flow.entries, tid
            assert disk_flow.observed.items == flow.observed.items, tid
        assert from_disk.salvage.clean

    def test_parallel_archive_matches_serial(self, fixture):
        serial = fixture["jportal"].analyze_archive(fixture["path"])
        parallel = fixture["jportal"].analyze_archive(
            fixture["path"], max_workers=4
        )
        for tid, flow in serial.flows.items():
            assert parallel.flows[tid].flow.entries == flow.flow.entries, tid

    @pytest.mark.parametrize(
        "kind",
        [
            FaultKind.TRUNCATE_ARCHIVE,
            FaultKind.BIT_FLIP,
            FaultKind.DROP_SEGMENT,
            FaultKind.DUPLICATE_SEGMENT,
        ],
    )
    def test_each_fault_kind_survives_and_reports(self, fixture, kind):
        injected = 0
        for seed in range(12):
            injector = FaultInjector(seed=seed)
            mutated, faults = injector.corrupt_archive(
                fixture["bytes"], kinds=[kind], faults=1
            )
            if not faults:
                continue
            injected += 1
            target = os.path.join(
                fixture["workdir"], "directed_%s_%d.rpt2" % (kind.value, seed)
            )
            with open(target, "wb") as sink:
                sink.write(mutated)
            result = fixture["jportal"].analyze_archive(
                target, snapshot_path=fixture["snapshot"]
            )
            kinds = set(result.salvage.by_kind())
            assert kinds & EXPECTED_KINDS[kind], (kind, seed, sorted(kinds))
            assert any(
                result.anomalies_by_kind.get(k, 0) for k in EXPECTED_KINDS[kind]
            ), (kind, seed)
            os.unlink(target)
        assert injected > 0, "no seed injected %s" % kind.value

    def test_stale_snapshot_reports_and_degrades(self, fixture, tmp_path):
        import shutil

        path = tmp_path / "trace.rpt2"
        shutil.copy(fixture["path"], path)
        shutil.copy(fixture["snapshot"], str(path) + ".meta")
        fault = FaultInjector(seed=3).corrupt_snapshot(str(path) + ".meta")
        assert fault is not None and fault.kind is FaultKind.STALE_SNAPSHOT
        result = fixture["jportal"].analyze_archive(path)
        assert result.salvage.metadata_snapshots_missing == 1
        assert result.anomalies_by_kind.get("metadata_snapshot_missing") == 1

    def test_missing_snapshot_with_explicit_database_is_lossless(
        self, fixture, tmp_path
    ):
        """Losing the sidecar costs nothing when metadata arrives through
        another channel: flows match the in-memory analysis exactly."""
        import shutil

        path = tmp_path / "trace.rpt2"
        shutil.copy(fixture["path"], path)  # no .meta copied
        result = fixture["jportal"].analyze_archive(
            path, database=fixture["database"]
        )
        reference = fixture["jportal"].analyze_trace(
            fixture["trace"], fixture["database"]
        )
        for tid, flow in reference.flows.items():
            assert result.flows[tid].flow.entries == flow.flow.entries, tid
        assert result.salvage.metadata_snapshots_missing == 1

    def test_multi_fault_archives_survive(self, fixture):
        """Several simultaneous disk faults still salvage and account."""
        for seed in range(20):
            injector = FaultInjector(seed=1000 + seed)
            mutated, faults = injector.corrupt_archive(fixture["bytes"], faults=3)
            if not faults:
                continue
            target = os.path.join(fixture["workdir"], "multi_%d.rpt2" % seed)
            with open(target, "wb") as sink:
                sink.write(mutated)
            contents = read_archive(target, snapshot_path=fixture["snapshot"])
            salvage_contract(contents.stats, len(mutated), "seed=%d" % seed)
            os.unlink(target)


class TestArchiveFuzz:
    """The CI ``archive-fuzz`` sweep: 200 seeds through the salvage
    reader (every one byte-accounted and kind-covered), a subset through
    the full pipeline."""

    def test_fuzz_salvage_200_seeds(self, fixture):
        seen_kinds = set()
        for seed in range(200):
            faults, _stats = run_one_seed(fixture, seed, analyze=(seed % 20 == 0))
            seen_kinds.update(fault.kind for fault in faults)
        assert seen_kinds == set(ARCHIVE_FAULT_KINDS), sorted(
            kind.value for kind in seen_kinds
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_salvage_property(self, fixture, seed):
        """Property form: any single seeded disk fault salvages with
        exact byte accounting and a visible report."""
        run_one_seed(fixture, seed)
