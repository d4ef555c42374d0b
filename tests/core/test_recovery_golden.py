"""Pinned hole-recovery outputs: the oracle for any change to the engine.

``golden_recovery.json`` holds, for every case, a sha256 over the
recovered flow's ``(entry, provenance)`` pairs plus every
:class:`~repro.core.recovery.RecoveryStats` counter except
``candidates_indexed`` (whose meaning depends on how the anchor index is
built, not on what recovery decides).  Two families of cases:

* **subjects** -- all nine DaCapo-style subjects at small sizes, traced
  through the ``BUFFER_128`` ring with the drain calibrated to 25% loss
  and analysed end to end (real projections, real holes);
* **synthetic** -- 200 seeded segment/hole sets over the Figure 2
  program: hot repeated anchors (more occurrences than
  ``max_candidates``), ``None`` gaps, empty and short segments, trailing
  holes, and seeded ``RecoveryConfig`` values that hit every cap.

Regenerate only when recovery's *output* is meant to change::

    PYTHONPATH=src python -m tests.core.test_recovery_golden --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import asdict
from typing import Dict, List

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.core.observed import ObservedHole
from repro.core.recovery import RecoveryConfig, RecoveryEngine
from repro.jvm.icfg import ICFG
from repro.pt.buffer import RingBufferConfig
from repro.pt.perf import PTConfig, calibrate_drain_period, collect
from repro.workloads import SUBJECT_NAMES, build_subject, default_config

from ..conftest import build_figure2_program

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_recovery.json")

#: The "128 MB" buffer in scaled bytes (as in the Table 5 experiment).
BUFFER_128 = 2048
#: Roughly a tenth of each subject's default size (luindex less: its
#: flows are the longest per unit of size).
SUBJECT_SIZES = {
    "avrora": 400,
    "batik": 15,
    "fop": 6,
    "h2": 60,
    "jython": 150,
    "luindex": 10,
    "lusearch": 2,
    "pmd": 8,
    "sunflow": 1,
}
SYNTHETIC_CASES = 200

FUN_FALSE = [("Test.fun", bci) for bci in (0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)]
FUN_TRUE = [("Test.fun", bci) for bci in (0, 1, 2, 3, 4, 5, 6, 11, 12, 13, 14, 15, 16)]
MAIN_ITER = [("Test.main", bci) for bci in (4, 5, 6, 7, 8, 9, 10, 11)]
MAIN_RET = [("Test.main", bci) for bci in (12, 13, 14, 15, 16)]


def _digest(entries, stats) -> str:
    counters = asdict(stats)
    del counters["candidates_indexed"]
    payload = repr((list(entries), sorted(counters.items())))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def subject_digests() -> Dict[str, Dict[str, str]]:
    """``{subject: {tid: digest}}`` of a lossy end-to-end analysis."""
    digests = {}
    for name in SUBJECT_NAMES:
        subject = build_subject(name, size=SUBJECT_SIZES[name])
        run = subject.run(default_config())
        period = calibrate_drain_period(run, BUFFER_128)
        trace = collect(
            run,
            PTConfig(
                buffer=RingBufferConfig(capacity_bytes=BUFFER_128, drain_period=period)
            ),
        )
        jportal = JPortal(
            subject.program,
            recovery=RecoveryConfig(cost_per_instruction=run.config.compiled_step_cost),
        )
        result = jportal.analyze_trace(trace, collect_metadata(run))
        digests[name] = {
            str(tid): _digest(flow.flow.entries, flow.flow.stats)
            for tid, flow in sorted(result.flows.items())
        }
    return digests


def synthetic_case(seed: int):
    """One seeded ``(config, segments, holes)`` set over Figure 2."""
    rng = random.Random(seed)
    bias = rng.random()
    flow: List = []
    for _ in range(rng.randint(2, 30)):
        flow += MAIN_ITER + (FUN_TRUE if rng.random() < bias else FUN_FALSE) + MAIN_RET
    none_rate = rng.choice((0.0, 0.0, 0.01, 0.05))
    flow = [None if rng.random() < none_rate else node for node in flow]
    cuts = sorted(rng.sample(range(len(flow)), rng.randint(0, 5)))
    segments, holes, start = [], [], 0
    for cut in cuts:
        if cut < start:
            continue
        segments.append(flow[start:cut])
        duration = rng.randint(1, 120)
        holes.append(ObservedHole(start_tsc=0, end_tsc=duration))
        start = cut + rng.randint(0, 45)
    if rng.random() < 0.85:
        segments.append(flow[start:])
    config = RecoveryConfig(
        anchor_length=rng.choice((1, 2, 3, 3, 4, 6)),
        post_match_length=rng.choice((1, 2, 4, 4)),
        top_n=rng.choice((1, 2, 5)),
        max_fill=rng.choice((5, 50_000)),
        cost_per_instruction=rng.choice((0.5, 1.0, 2.0)),
        budget_slack=rng.choice((1.0, 2.0)),
        fallback_max_depth=rng.choice((4, 64)),
        max_candidates=rng.choice((1, 2, 3, 7, 200)),
        max_suffix_compare=rng.choice((1, 4, 16, 2_048)),
    )
    return config, segments, holes


def synthetic_digests() -> List[str]:
    icfg = ICFG(build_figure2_program())
    digests = []
    for seed in range(SYNTHETIC_CASES):
        config, segments, holes = synthetic_case(seed)
        flow = RecoveryEngine(icfg, config).recover(segments, holes)
        digests.append(_digest(flow.entries, flow.stats))
    return digests


def compute_golden() -> Dict[str, object]:
    return {"subjects": subject_digests(), "synthetic": synthetic_digests()}


def _golden() -> Dict[str, object]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_synthetic_recovery_matches_golden():
    expected = _golden()["synthetic"]
    actual = synthetic_digests()
    mismatched = [seed for seed, (a, b) in enumerate(zip(actual, expected)) if a != b]
    assert len(actual) == len(expected)
    assert not mismatched, "synthetic seeds changed: %s" % mismatched


def test_subject_recovery_matches_golden():
    assert subject_digests() == _golden()["subjects"]


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        raise SystemExit("usage: python -m tests.core.test_recovery_golden --write")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
