"""Integration: the offline pipeline over on-disk serialised traces.

Mirrors the paper's deployment: the online collector dumps per-thread
trace files; the offline analyser later reads them back and reconstructs.
"""

from repro.core import JPortal, MetricsRegistry
from repro.core.metadata import collect_metadata
from repro.core.multicore import split_by_thread
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import RuntimeConfig, run_program
from repro.pt.perf import collect
from repro.pt.serialize import dump_bytes, load_bytes, read_stream, write_stream

from ..conftest import (
    build_figure2_program,
    decode_columns,
    lossless_config,
    lossy_config,
)


class TestFileRoundTrip:
    def test_analysis_from_files(self, tmp_path):
        program = build_figure2_program(iterations=120)
        run = run_program(
            program, RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=8))
        )
        trace = collect(run, lossless_config())
        threads = split_by_thread(trace)

        # Online side: dump one file per thread.
        paths = {}
        for tid, thread_trace in threads.items():
            path = tmp_path / ("thread-%d.rpt" % tid)
            with open(path, "wb") as sink:
                write_stream(thread_trace.stream, sink)
            paths[tid] = path

        # Offline side: read files back and decode/reconstruct manually.
        database = collect_metadata(run)
        jportal = JPortal(program)
        for tid, path in paths.items():
            with open(path, "rb") as source:
                stream = read_stream(source)
            _decoder, observed = decode_columns(stream, database, program, tid)
            flow = jportal._project_and_recover(observed, MetricsRegistry(), tid)
            assert flow.segments == [run.threads[tid].truth]
            assert flow.reconstructed_nodes() == run.threads[tid].truth

    def test_lossy_trace_survives_serialisation(self, tmp_path):
        program = build_figure2_program(iterations=300)
        run = run_program(
            program, RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=8))
        )
        trace = collect(run, lossy_config())
        threads = split_by_thread(trace)
        stream = threads[0].stream
        restored = load_bytes(dump_bytes(stream))
        assert restored == stream
        # Loss records came through the file.
        assert any(tag == "loss" for tag, _ in restored) == any(
            tag == "loss" for tag, _ in stream
        )
