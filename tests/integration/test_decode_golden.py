"""Pinned end-to-end analysis outputs: the oracle for the decode engine.

``golden_decode.json`` holds one sha256 per case over a canonical
``repr`` of the whole :class:`~repro.core.pipeline.JPortalResult`: for
each thread the observed columns (symbols, takens, locations, sources,
tscs, hole positions and holes, anomaly count), the projected segments
and the recovered entries, with
:class:`~repro.core.recovery.RecoveryStats` and
:class:`~repro.core.reconstruct.MatchStats` as sorted field items; then
the sorted ``anomalies_by_kind``, ``anomalies`` and ``synthetic_holes``.
Three families of cases:

* **figure2** -- the Figure 2 program run by three threads on two cores,
  collected lossless (PT and E-Trace) and lossy (PT), each analysed
  serially and on a three-worker thread pool;
* **fuzz** -- 200 seeded fault-injected variants of the lossy PT trace
  (``FaultInjector(3_000_000 + seed)``, with a corrupted database on
  every fifth seed);
* **subjects** -- all nine DaCapo-style subjects at
  ``test_recovery_golden.SUBJECT_SIZES``, each run once and collected
  through both frontends with the ``BUFFER_128`` ring drained at the
  period calibrated to 25% loss.

Regenerate only when the analysis *output* is meant to change::

    PYTHONPATH=src python -m tests.integration.test_decode_golden --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict, replace
from typing import Dict, List

import pytest

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.core.recovery import RecoveryConfig
from repro.jvm.jit import JITPolicy
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.pt.buffer import RingBufferConfig
from repro.pt.faults import FaultInjector
from repro.pt.perf import PTConfig, calibrate_drain_period, collect
from repro.workloads import SUBJECT_NAMES, build_subject, default_config

from ..conftest import build_figure2_program, lossless_config, lossy_config
from ..core.test_recovery_golden import BUFFER_128, SUBJECT_SIZES

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_decode.json")

FIGURE2_CASES = ("pt-lossless", "pt-lossy", "etrace-lossless")
FUZZ_SEEDS = 200
FRONTENDS = ("pt", "etrace")


def digest(result) -> str:
    """sha256 over a canonical ``repr`` of everything *result* decided."""
    sha = hashlib.sha256()

    def feed(value) -> None:
        sha.update(repr(value).encode("utf-8"))
        sha.update(b"\n")

    for tid, flow in sorted(result.flows.items()):
        observed = flow.observed
        feed((tid, observed.tid, observed.anomalies))
        feed(observed.symbols)
        feed(observed.takens)
        feed(observed.locations)
        feed(observed.sources)
        feed(observed.tscs)
        feed(observed.hole_positions)
        feed(observed.holes())
        feed(flow.segments)
        feed(flow.flow.entries)
        feed(sorted(asdict(flow.flow.stats).items()))
        feed(sorted(asdict(flow.projection).items()))
    feed(sorted(result.anomalies_by_kind.items()))
    feed((result.anomalies, result.synthetic_holes))
    return sha.hexdigest()


def figure2_inputs():
    """``(program, database, {case: trace})`` for the Figure 2 cases."""
    program = build_figure2_program(iterations=40)
    config = RuntimeConfig(cores=2, quantum=50, jit=JITPolicy(hot_threshold=8))
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    for _ in range(2):
        runtime.add_thread("Test", "main", ())
    run = runtime.run()
    traces = {
        "pt-lossless": collect(run, lossless_config()),
        "pt-lossy": collect(run, lossy_config(capacity=600, bandwidth=0.1)),
        "etrace-lossless": collect(
            run, replace(lossless_config(), frontend="etrace")
        ),
    }
    return program, collect_metadata(run), traces


def fuzz_case(seed: int, trace, database):
    """The seeded ``(trace, database)`` of one fuzz case."""
    injector = FaultInjector(3_000_000 + seed)
    trace, _faults = injector.mutate_trace(trace, faults_per_core=1 + seed % 3)
    if seed % 5 == 0:
        database, _db_faults = injector.corrupt_database(database)
    return trace, database


def fuzz_digests(jportal, trace, database) -> List[str]:
    return [
        digest(jportal.analyze_trace(*fuzz_case(seed, trace, database)))
        for seed in range(FUZZ_SEEDS)
    ]


def subject_digests(name: str) -> Dict[str, str]:
    """``{frontend: digest}`` for one lossy subject run."""
    subject = build_subject(name, size=SUBJECT_SIZES[name])
    run = subject.run(default_config())
    buffer = RingBufferConfig(
        capacity_bytes=BUFFER_128,
        drain_period=calibrate_drain_period(run, BUFFER_128),
    )
    database = collect_metadata(run)
    jportal = JPortal(
        subject.program,
        recovery=RecoveryConfig(cost_per_instruction=run.config.compiled_step_cost),
    )
    return {
        frontend: digest(
            jportal.analyze_trace(
                collect(run, PTConfig(buffer=buffer, frontend=frontend)),
                database,
            )
        )
        for frontend in FRONTENDS
    }


def compute_golden() -> Dict[str, object]:
    program, database, traces = figure2_inputs()
    jportal = JPortal(program)
    return {
        "figure2": {
            case: digest(jportal.analyze_trace(traces[case], database))
            for case in FIGURE2_CASES
        },
        "fuzz": fuzz_digests(jportal, traces["pt-lossy"], database),
        "subjects": {name: subject_digests(name) for name in SUBJECT_NAMES},
    }


def _golden() -> Dict[str, object]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def figure2():
    program, database, traces = figure2_inputs()
    return {
        "database": database,
        "traces": traces,
        "jportal": JPortal(program),
    }


@pytest.mark.parametrize("max_workers", (1, 3), ids=("serial", "thread"))
@pytest.mark.parametrize("case", FIGURE2_CASES)
def test_figure2_matches_golden(figure2, case, max_workers):
    result = figure2["jportal"].analyze_trace(
        figure2["traces"][case], figure2["database"], max_workers=max_workers
    )
    assert digest(result) == _golden()["figure2"][case]


def test_fuzz_matches_golden(figure2):
    expected = _golden()["fuzz"]
    actual = fuzz_digests(
        figure2["jportal"], figure2["traces"]["pt-lossy"], figure2["database"]
    )
    mismatched = [seed for seed, (a, b) in enumerate(zip(actual, expected)) if a != b]
    assert len(actual) == len(expected)
    assert not mismatched, "fuzz seeds changed: %s" % mismatched


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_subject_matches_golden(name):
    assert subject_digests(name) == _golden()["subjects"][name]


class TestFuzzedPoolIdentity:
    """Pooled output equals serial output on fuzzed traces the golden
    does not cover (a different seed family)."""

    def test_pool_matches_serial(self, figure2):
        jportal = figure2["jportal"]
        database = figure2["database"]
        for seed in (0, 7):
            injector = FaultInjector(4_000_000 + seed)
            trace, _faults = injector.mutate_trace(
                figure2["traces"]["pt-lossy"], faults_per_core=2
            )
            serial = jportal.analyze_trace(trace, database)
            pooled = jportal.analyze_trace(trace, database, max_workers=3)
            assert digest(pooled) == digest(serial), "seed=%d" % seed


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        raise SystemExit(
            "usage: python -m tests.integration.test_decode_golden --write"
        )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
