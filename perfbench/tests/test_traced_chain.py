import pytest

from perfbench.batch import accuracy_of
from perfbench.chain import MAX_SELF_SHARE, ROOT, chain_metrics, traced_analyze
from perfbench.inputs import BUFFER_128, TARGET_LOSS, lossy_config, make_jportal
from perfbench.oracle import digest_entries, digest_result
from perfbench.tracer import Tracer
from repro.core.metadata import collect_metadata
from repro.profiling.accuracy import run_accuracy
from repro.pt.perf import calibrate_drain_period, collect
from repro.workloads import build_subject, default_config


@pytest.fixture(scope="module")
def jython_lossy():
    subject = build_subject("jython", size=150)
    run = subject.run(default_config())
    trace = collect(run, lossy_config(calibrate_drain_period(run, BUFFER_128, TARGET_LOSS)))
    return subject, run, trace


def test_traced_chain_reproduces_analyze_trace(jython_lossy):
    subject, run, trace = jython_lossy
    jportal = make_jportal(subject, run)
    result = jportal.analyze_trace(trace, collect_metadata(run))
    holes = sum(len(flow.observed.holes()) for flow in result.flows.values())
    assert holes > 0

    tracer = Tracer()
    flows = traced_analyze(jportal, trace, collect_metadata(run), tracer, "jython/0")
    assert digest_entries(flows) == digest_result(result)

    root = tracer.spans[0]
    assert root.name == ROOT
    selfs = tracer.self_times()
    assert sum(selfs) == pytest.approx(root.duration)
    layers = sum(s for span, s in zip(tracer.spans, selfs) if span.name != ROOT)
    assert layers >= (1.0 - MAX_SELF_SHARE) * root.duration

    metrics = chain_metrics(tracer, {"jython": trace.bytes_kept})
    assert metrics["recovery.holes"] == holes
    assert metrics["analyze.traced_s"] == pytest.approx(root.duration)
    assert metrics["analyze.self_share"] <= MAX_SELF_SHARE
    assert 0.0 < metrics["reconstruct.match_ratio"] <= 1.0


def test_overall_accuracy_matches_run_accuracy(jython_lossy):
    subject, run, trace = jython_lossy
    result = make_jportal(subject, run).analyze_trace(trace, collect_metadata(run))
    assert accuracy_of(run, result, breakdown=False).overall == run_accuracy(run, result).overall
