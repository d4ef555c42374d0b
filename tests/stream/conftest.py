"""Fixtures for the streaming suite: a writer that grows an archive
record by record, with controllable pacing and crash points.

The simulator replays exactly the event sequence
:func:`repro.pt.archive.write_archive` would commit (via
:func:`~repro.pt.archive.iter_archive_events`), so a simulator that runs
to ``finish()`` leaves a file byte-identical to a one-shot
``write_archive`` of the same trace -- the property suite's batch
baselines therefore apply to every pacing schedule.
"""

from __future__ import annotations

import pytest

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.pt.archive import (
    ArchiveWriter,
    iter_archive_events,
    write_archive_event,
)
from repro.pt.perf import collect

from ..conftest import build_figure2_program, lossless_config, lossy_config

#: Segment size used throughout the streaming suite (matches the
#: archive-salvage suite: small enough for many records per trace).
SEGMENT_PACKETS = 48


class GrowingArchiveSimulator:
    """Commit a collected trace to disk one archive record at a time."""

    def __init__(self, trace, database, path, snapshot_path=None,
                 segment_packets: int = SEGMENT_PACKETS):
        self.path = str(path)
        self.writer = ArchiveWriter(self.path, snapshot_path=snapshot_path)
        self.writer.snapshot_metadata(database, include_dumps=False)
        self._events = list(
            iter_archive_events(trace, database, segment_packets)
        )
        self._cursor = 0
        self.closed = False

    @property
    def remaining(self) -> int:
        return len(self._events) - self._cursor

    def step(self, count: int = 1) -> int:
        """Commit up to *count* records; returns how many committed."""
        done = 0
        while done < count and self._cursor < len(self._events):
            write_archive_event(self.writer, self._events[self._cursor])
            self._cursor += 1
            done += 1
        return done

    def crash(self) -> None:
        """Stop without sealing (writer process died between records)."""
        self.writer.abort()
        self.closed = True

    def crash_mid_record(self) -> None:
        """Stop with a torn record on disk: sync + partial header."""
        self.writer.abort()
        with open(self.path, "ab") as sink:
            sink.write(b"\xa5\x5a\x01\x07\x00")
        self.closed = True

    def finish(self):
        """Seal the archive; the file now equals ``write_archive``'s."""
        report = self.writer.close()
        self.closed = True
        return report


def _three_thread_run():
    program = build_figure2_program(iterations=40)
    config = RuntimeConfig(cores=2, quantum=50, jit=JITPolicy(hot_threshold=8))
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    for _ in range(2):
        runtime.add_thread("Test", "main", ())
    return program, runtime.run()


def _interpreted_run():
    """Same workload, JIT disabled: no code dumps ever commit, so the
    streaming fast path has no replay trigger to hit."""
    program = build_figure2_program(iterations=40)
    config = RuntimeConfig(
        cores=2, quantum=50, jit=JITPolicy(hot_threshold=10**9)
    )
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    for _ in range(2):
        runtime.add_thread("Test", "main", ())
    return program, runtime.run()


@pytest.fixture(scope="package")
def stream_fixture():
    """One deterministic multi-thread run per flavour, collected once."""
    program, run = _three_thread_run()
    interp_program, interp_run = _interpreted_run()
    return {
        "program": program,
        "jportal": JPortal(program),
        "lossless": collect(run, lossless_config()),
        "lossy": collect(run, lossy_config(capacity=600, bandwidth=0.1)),
        "database": collect_metadata(run),
        "interp_program": interp_program,
        "interp_jportal": JPortal(interp_program),
        "interp_trace": collect(interp_run, lossless_config()),
        "interp_database": collect_metadata(interp_run),
    }


def assert_results_identical(result, baseline, note: str) -> None:
    """Bit-identity of two analysis results: flows, anomaly counts,
    recovery and projection stats."""
    __tracebackhide__ = True
    assert result.flows == baseline.flows, note
    assert result.anomalies == baseline.anomalies, note
    assert result.anomalies_by_kind == baseline.anomalies_by_kind, note
    assert result.synthetic_holes == baseline.synthetic_holes, note
    for tid, flow in baseline.flows.items():
        other = result.flows[tid]
        assert other.flow.stats == flow.flow.stats, note
        assert other.projection == flow.projection, note
