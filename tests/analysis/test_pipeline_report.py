"""The pipeline surfaces an analysis report on every run, and the CLI works."""

import subprocess
import sys

from repro.core import JPortal, ParallelPipeline
from repro.workloads import SUBJECT_NAMES, build_subject, default_config

from ..conftest import lossless_config


def _analyse(name="avrora", **kwargs):
    subject = build_subject(name)
    jportal = JPortal(subject.program, opaque_call_sites=subject.opaque_call_sites)
    run = subject.run(default_config())
    return jportal, jportal.analyze_run(run, lossless_config(), **kwargs)


class TestReportOnResult:
    def test_serial_result_carries_report(self):
        _jportal, result = _analyse()
        report = result.analysis_report
        assert report is not None
        assert report.decodable()
        assert not report.lint.has_errors
        assert len(report.checks) == len(list(result.program.methods()))

    def test_parallel_result_carries_same_verdicts(self):
        jportal, serial = _analyse()
        parallel = ParallelPipeline(jportal, max_workers=3).analyze_trace(
            serial.trace, serial.database
        )
        assert parallel.analysis_report is not None
        assert (
            parallel.analysis_report.ambiguous_methods()
            == serial.analysis_report.ambiguous_methods()
        )

    def test_database_lint_merged_per_run(self):
        jportal, result = _analyse()
        # The static report (no database) has strictly fewer or equal
        # findings than the per-run merged one.
        assert len(result.analysis_report.lint) >= len(jportal.analysis_report.lint)

    def test_analysis_seconds_reported_outside_total(self):
        _jportal, result = _analyse()
        timings = result.timings
        assert timings.analysis_seconds > 0.0
        assert timings.total_seconds == (
            timings.decode_seconds
            + timings.reconstruct_seconds
            + timings.recovery_seconds
        )

    def test_projection_confidence_clean_program(self):
        _jportal, result = _analyse()
        for flow in result.flows.values():
            assert flow.projection.ambiguous_steps == 0
            assert flow.projection.confidence == 1.0


class TestFrontendSelection:
    def test_default_report_is_pt(self):
        jportal, result = _analyse()
        assert jportal.analysis_report.frontend == "pt"
        assert result.analysis_report.frontend == "pt"
        assert result.analysis_report.summary()["frontend"] == "pt"

    def test_etrace_trace_gets_etrace_report(self):
        """A run collected through the E-Trace frontend is analysed under
        the E-Trace projection model, not the default."""
        from repro.core.metadata import collect_metadata
        from repro.pt.perf import PTConfig, collect

        subject = build_subject("avrora")
        jportal = JPortal(
            subject.program, opaque_call_sites=subject.opaque_call_sites
        )
        run = subject.run(default_config())
        trace = collect(
            run, PTConfig(buffer=lossless_config().buffer, frontend="etrace")
        )
        result = jportal.analyze_trace(trace, collect_metadata(run))
        assert result.analysis_report.frontend == "etrace"
        # The pipeline's default static report is untouched.
        assert jportal.analysis_report.frontend == "pt"

    def test_analysis_frontend_constructor_override(self):
        subject = build_subject("batik")
        jportal = JPortal(subject.program, analysis_frontend="etrace")
        assert jportal.analysis_report.frontend == "etrace"
        # Both frontends observe outcomes and targets, so verdicts agree.
        assert (
            jportal.analysis_report.ambiguous_methods()
            == jportal.analysis_report_for("pt").ambiguous_methods()
        )


class TestCLI:
    def test_cli_single_subject(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "batik", "--static-only"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "batik" in proc.stdout
        assert "fully decodable" in proc.stdout

    def test_cli_generated_seed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--generated", "2416"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "generated seed 2416" in proc.stdout

    def test_cli_fail_on_error_passes_on_clean_subject(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                "luindex",
                "--static-only",
                "--fail-on-error",
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr


def test_every_subject_report_reusable():
    """JPortal computes the static report once; repeated runs reuse it."""
    subject = build_subject("h2")
    jportal = JPortal(subject.program)
    first = jportal.analyze_run(subject.run(default_config()), lossless_config())
    second = jportal.analyze_run(subject.run(default_config()), lossless_config())
    assert (
        first.analysis_report.ambiguous_methods()
        == second.analysis_report.ambiguous_methods()
    )
    assert first.analysis_report.static_seconds == jportal.analysis_report.static_seconds


def test_all_subjects_decodable_through_pipeline():
    for name in SUBJECT_NAMES:
        subject = build_subject(name)
        jportal = JPortal(subject.program, opaque_call_sites=subject.opaque_call_sites)
        assert jportal.analysis_report.decodable(), name
