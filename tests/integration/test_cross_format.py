"""Cross-format suite: the E-Trace frontend through the whole stack.

Pins the tentpole contract from the ISSUE:

* on lossless runs, flows decoded from an E-Trace stream are
  **bit-identical** to flows decoded from a PT stream of the same run;
* an E-Trace trace round-trips through the ``RPT2`` archive (format
  record first), salvages under byte-level fault injection with the
  same balanced accounting invariant as PT archives, and replays
  through the streaming service;
* losing the format record degrades (segments with foreign tags become
  synthetic loss records), never raises.
"""

import pytest

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.pt.archive import (
    REC_FORMAT,
    read_archive,
    scan_record_spans,
    write_archive,
)
from repro.pt.buffer import RingBufferConfig
from repro.pt.faults import ARCHIVE_FAULT_KINDS, FaultInjector
from repro.pt.perf import PTConfig, collect

from ..conftest import build_figure2_program

#: Archive-fuzz breadth for the cross-format salvage block.
FUZZ_SEEDS = 40


def _config(frontend, capacity=10**9, bandwidth=1e9):
    return PTConfig(
        buffer=RingBufferConfig(
            capacity_bytes=capacity, drain_bandwidth=bandwidth
        ),
        frontend=frontend,
    )


@pytest.fixture(scope="module")
def fixture():
    program = build_figure2_program(iterations=40)
    config = RuntimeConfig(cores=2, quantum=50, jit=JITPolicy(hot_threshold=8))
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    for _ in range(2):
        runtime.add_thread("Test", "main", ())
    run = runtime.run()
    return {
        "program": program,
        "run": run,
        "database": collect_metadata(run),
        "pt": collect(run, _config("pt")),
        "etrace": collect(run, _config("etrace")),
        "jportal": JPortal(program),
    }


def _assert_identical(result, baseline, note):
    __tracebackhide__ = True
    assert result.flows == baseline.flows, note
    assert result.anomalies == baseline.anomalies, note
    assert result.anomalies_by_kind == baseline.anomalies_by_kind, note
    assert result.synthetic_holes == baseline.synthetic_holes, note
    for tid, flow in baseline.flows.items():
        other = result.flows[tid]
        assert other.flow.stats == flow.flow.stats, note
        assert other.projection == flow.projection, note


class TestLosslessEquivalence:
    """E-Trace flows == PT flows on lossless runs."""

    def test_flows_bit_identical(self, fixture):
        jportal = fixture["jportal"]
        database = fixture["database"]
        baseline = jportal.analyze_trace(fixture["pt"], database)
        result = jportal.analyze_trace(fixture["etrace"], database)
        _assert_identical(result, baseline, "etrace vs pt")

    def test_flows_identical_under_equal_loss_policy(self, fixture):
        """Same buffer bytes for both formats: flows may differ (losses
        cut at different packet boundaries) but both must stay total and
        attribute every thread."""
        run = fixture["run"]
        jportal = fixture["jportal"]
        database = fixture["database"]
        for frontend in ("pt", "etrace"):
            trace = collect(run, _config(frontend, capacity=600, bandwidth=0.1))
            assert trace.bytes_lost > 0
            result = jportal.analyze_trace(trace, database)
            assert set(result.flows) == set(
                jportal.analyze_trace(fixture[frontend], database).flows
            )


class TestArchiveRoundTrip:
    def test_format_record_written_first_and_applied(self, fixture, tmp_path):
        path = tmp_path / "etrace.rpt2"
        report = write_archive(fixture["etrace"], fixture["database"], path)
        assert report.format_records == 1
        spans = scan_record_spans(path.read_bytes())
        assert spans[0].rtype == REC_FORMAT and spans[0].seq == 0
        contents = read_archive(path)
        assert contents.stats.clean
        assert contents.trace_format == "etrace"
        assert contents.to_trace().config.frontend == "etrace"

    def test_pt_archives_carry_no_format_record(self, fixture, tmp_path):
        path = tmp_path / "pt.rpt2"
        report = write_archive(fixture["pt"], fixture["database"], path)
        assert report.format_records == 0
        assert all(
            span.rtype != REC_FORMAT
            for span in scan_record_spans(path.read_bytes())
        )
        assert read_archive(path).trace_format == "pt"

    def test_archive_analysis_matches_direct_analysis(self, fixture, tmp_path):
        path = tmp_path / "etrace.rpt2"
        write_archive(fixture["etrace"], fixture["database"], path)
        jportal = fixture["jportal"]
        baseline = jportal.analyze_trace(fixture["etrace"], fixture["database"])
        result = jportal.analyze_archive(str(path))
        _assert_identical(result, baseline, "etrace archive round trip")

    def test_missing_format_record_degrades_not_raises(self, fixture, tmp_path):
        """Excise the format record.  Codec registration is process-
        global, so in a process that already imported ``repro.etrace``
        the segment bodies still parse; what the damage costs is the
        declaration (``trace_format`` falls back to ``"pt"``) plus a
        sequence gap with its synthetic loss -- salvage, never an
        exception.  (The fresh-process case is covered below.)"""
        path = tmp_path / "etrace.rpt2"
        write_archive(fixture["etrace"], fixture["database"], path)
        data = path.read_bytes()
        span = scan_record_spans(data)[0]
        assert span.rtype == REC_FORMAT
        path.write_bytes(data[: span.start] + data[span.end:])
        contents = read_archive(path)
        assert contents.trace_format == "pt"  # declaration gone
        assert not contents.stats.clean
        assert contents.stats.sequence_gaps == 1
        assert contents.stats.loss_records_synthesized == 1

    def _read_in_fresh_process(self, path):
        """read_archive in an interpreter that never imported etrace."""
        import json
        import os
        import subprocess
        import sys

        import repro

        code = (
            "import json, sys\n"
            "from repro.pt.archive import read_archive\n"
            "contents = read_archive(sys.argv[1])\n"
            "stats = contents.stats\n"
            "print(json.dumps({\n"
            "    'format': contents.trace_format,\n"
            "    'salvaged': stats.segments_salvaged,\n"
            "    'dropped': stats.segments_dropped,\n"
            "    'losses': stats.loss_records_synthesized,\n"
            "    'balanced': stats.bytes_salvaged + stats.bytes_dropped\n"
            "        + stats.bytes_converted_to_loss == stats.file_size,\n"
            "}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        return json.loads(proc.stdout)

    def test_format_record_registers_codecs_in_fresh_process(
        self, fixture, tmp_path
    ):
        """The whole point of committing the format record first: a
        reader process that never imported the etrace package still
        parses every segment, because the scanner registers the
        frontend's codecs when it hits the record."""
        path = tmp_path / "etrace.rpt2"
        write_archive(fixture["etrace"], fixture["database"], path)
        result = self._read_in_fresh_process(path)
        assert result["format"] == "etrace"
        assert result["dropped"] == 0 and result["salvaged"] > 0
        assert result["balanced"]

    def test_missing_format_record_in_fresh_process_converts_to_loss(
        self, fixture, tmp_path
    ):
        """Without the record (and without a prior etrace import), the
        0x10+ tags are unknown: every segment body is unparseable and
        converts to a synthetic loss record -- balanced, no exception."""
        path = tmp_path / "etrace.rpt2"
        write_archive(fixture["etrace"], fixture["database"], path)
        data = path.read_bytes()
        span = scan_record_spans(data)[0]
        assert span.rtype == REC_FORMAT
        path.write_bytes(data[: span.start] + data[span.end:])
        result = self._read_in_fresh_process(path)
        assert result["format"] == "pt"
        assert result["salvaged"] == 0 and result["dropped"] > 0
        assert result["losses"] >= result["dropped"]
        assert result["balanced"]

    def test_salvage_accounting_under_fault_injection(self, fixture, tmp_path):
        """The byte-accounting invariant holds for E-Trace archives under
        every disk-level mutation the injector produces."""
        path = tmp_path / "etrace.rpt2"
        write_archive(fixture["etrace"], fixture["database"], path)
        pristine = path.read_bytes()
        for seed in range(FUZZ_SEEDS):
            injector = FaultInjector(seed=7_000 + seed)
            mutated, applied = injector.corrupt_archive(
                pristine, kinds=ARCHIVE_FAULT_KINDS, faults=1 + seed % 3
            )
            target = tmp_path / ("fuzz_%d.rpt2" % seed)
            target.write_bytes(mutated)
            contents = read_archive(
                target, snapshot_path=str(path) + ".meta"
            )
            stats = contents.stats
            note = "seed=%d faults=%r" % (seed, [f.kind for f in applied])
            assert stats.file_size == len(mutated), note
            assert (
                stats.bytes_salvaged
                + stats.bytes_dropped
                + stats.bytes_converted_to_loss
                == stats.file_size
            ), note


class TestStreaming:
    def test_stream_finalize_matches_batch(self, fixture, tmp_path):
        """Tail-follow an E-Trace archive as it grows; finalize must be
        bit-identical to batch ``analyze_archive`` of the final file."""
        from repro.stream import StreamDecoder

        from ..stream.conftest import GrowingArchiveSimulator

        path = tmp_path / "etrace_stream.rpt2"
        simulator = GrowingArchiveSimulator(
            fixture["etrace"], fixture["database"], path
        )
        jportal = fixture["jportal"]
        tenant = StreamDecoder(jportal, str(path), name="etrace")
        while simulator.remaining:
            simulator.step(3)
            tenant.poll()
        simulator.finish()
        streamed = tenant.finalize()
        baseline = jportal.analyze_archive(str(path))
        _assert_identical(
            streamed,
            baseline,
            "etrace stream vs batch (replayed=%s reason=%s)"
            % (tenant.replayed, tenant.replay_reason),
        )
