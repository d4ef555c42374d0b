"""Pinned decoder and lifter counters of every decode-golden case.

``golden_decode.json`` digests what an analysis decided (columns, flows,
stats) but no decoder counter.  ``golden_decode_counters.json`` holds,
for the same 221 cases (see :mod:`tests.integration.test_decode_golden`:
the Figure 2 fixture's three traces, 200 fault-injected seeds, and every
subject through both frontends), one sha256 over each thread's
``decode.*`` and ``lift.*`` counters -- ``walked_instructions``,
``tnt_consumed``, ``walks_abandoned``, ``lift.stale_debug_entries``,
the per-kind anomaly counts and the rest -- as published into
``result.metrics``.  A change to how compiled-code walks are stepped
must leave both files unchanged.

Regenerate only when the decoder's *counting* is meant to change::

    PYTHONPATH=src python -m tests.integration.test_decode_counters --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict

import pytest

from repro.core import JPortal
from repro.workloads import SUBJECT_NAMES

from .test_decode_golden import (
    FIGURE2_CASES,
    compute_golden,
    figure2_inputs,
    fuzz_digests,
    subject_digests,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_decode_counters.json")


def counter_digest(result) -> str:
    """sha256 over every thread's sorted ``decode.*`` and ``lift.*``
    counters in *result*'s metrics registry."""
    sha = hashlib.sha256()
    metrics = result.metrics
    for tid in sorted(result.flows):
        for prefix in ("decode.", "lift."):
            counters = metrics.counters_by_prefix(prefix, tid=tid)
            sha.update(repr((tid, prefix, sorted(counters.items()))).encode("utf-8"))
            sha.update(b"\n")
    return sha.hexdigest()


def _golden() -> Dict[str, object]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def decode_figure2():
    program, database, traces = figure2_inputs()
    return {"database": database, "traces": traces, "jportal": JPortal(program)}


@pytest.mark.parametrize("case", FIGURE2_CASES)
def test_figure2_counters_match_golden(decode_figure2, case):
    result = decode_figure2["jportal"].analyze_trace(
        decode_figure2["traces"][case], decode_figure2["database"]
    )
    assert counter_digest(result) == _golden()["figure2"][case]


def test_fuzz_counters_match_golden(decode_figure2):
    expected = _golden()["fuzz"]
    actual = fuzz_digests(
        decode_figure2["jportal"],
        decode_figure2["traces"]["pt-lossy"],
        decode_figure2["database"],
        counter_digest,
    )
    mismatched = [seed for seed, (a, b) in enumerate(zip(actual, expected)) if a != b]
    assert len(actual) == len(expected)
    assert not mismatched, "fuzz seeds changed: %s" % mismatched


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_subject_counters_match_golden(name):
    assert subject_digests(name, counter_digest) == _golden()["subjects"][name]


def test_counters_are_published(decode_figure2):
    """The digest covers real counters, not an empty registry."""
    result = decode_figure2["jportal"].analyze_trace(
        decode_figure2["traces"]["pt-lossless"], decode_figure2["database"]
    )
    for tid in result.flows:
        counters = result.metrics.counters_by_prefix("decode.", tid=tid)
        assert counters["walked_instructions"] > 0
        assert counters["tnt_consumed"] > 0


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        raise SystemExit(
            "usage: python -m tests.integration.test_decode_counters --write"
        )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_golden(counter_digest), handle, indent=1, sort_keys=True)
        handle.write("\n")
