"""Pinned per-poll stream output: what every poll reported, and the flows.

The other stream suites compare two runs of the *same* code (stream vs
batch, restored vs uninterrupted), so a change that moved every poll's
deltas the same way on both sides would pass them.  ``golden_stream.json``
pins the values themselves.  Each case grows an archive with
:class:`~.conftest.GrowingArchiveSimulator` under a seeded schedule
(segment size, records per writer step, poll probability), polls a
:class:`~repro.stream.StreamDecoder` along the way, and hashes into one
sha256:

* every poll's :data:`~.test_resilience.DELTA_FIELDS` (dicts as sorted
  items), in poll order;
* the finalized flow entries, thread by thread;
* whether finalize replayed, and the recorded replay reason.

Cases:

* **figure2** -- the Figure 2 program run by three threads on two cores
  (the decode golden's inputs), collected PT lossless, PT lossy (six loss
  spans, cut at thread switches into 36 pieces) and E-Trace lossless,
  eight schedules each; four schedules that stop without a seal: two
  stop between records and finalize incrementally, carrying the missing
  seal onto the result as batch does, and two stop mid-record and
  finalize through the batch replay; and two that
  commit the sideband after a third of the other records, so polls
  release entries before any switch is known, flag a replay when the
  sideband lands, and from then on only accumulate pending entries;
* **jitter** -- h2 and pmd, lossy, with switch timestamps jittered by 3,
  9 and 40 ticks (as in ``TestStreamUnderSidebandJitter``), two
  schedules each.

Regenerate only when the stream's per-poll output is meant to change::

    PYTHONPATH=src python -m tests.stream.test_stream_golden --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from typing import Dict, Tuple

import pytest

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.pt.perf import collect
from repro.stream import StreamDecoder
from repro.workloads import build_subject, default_config

from ..conftest import lossy_config
from ..integration.test_decode_golden import figure2_inputs
from .conftest import GrowingArchiveSimulator
from .test_resilience import DELTA_FIELDS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stream.json")

FIGURE2_FLAVOURS = ("pt-lossless", "pt-lossy", "etrace-lossless")
SCHEDULES_PER_FLAVOUR = 8
JITTER_SUBJECTS = (("h2", 30), ("pmd", 4))
JITTERS = (3, 9, 40)
SCHEDULES_PER_JITTER = 2


def case_table() -> Dict[str, Tuple[str, int, str]]:
    """``{case: (input, schedule seed, variant)}``; the variant is
    ``"seal"``, ``"crash"`` (stop between records), ``"torn"`` (stop
    mid-record) or ``"late-sideband"`` (sealed)."""
    table: Dict[str, Tuple[str, int, str]] = {}

    def add(name: str, source: str, variant: str = "seal") -> None:
        table[name] = (source, len(table), variant)

    for flavour in FIGURE2_FLAVOURS:
        for index in range(SCHEDULES_PER_FLAVOUR):
            add("figure2-%s-%d" % (flavour, index), "figure2-" + flavour)
    for flavour in ("pt-lossless", "pt-lossy"):
        for variant in ("crash", "torn"):
            name = "figure2-%s-%s" % (flavour, variant)
            add(name, "figure2-" + flavour, variant)
    for flavour in ("pt-lossy", "etrace-lossless"):
        add(
            "figure2-%s-late-sideband" % flavour,
            "figure2-" + flavour,
            "late-sideband",
        )
    for name, _size in JITTER_SUBJECTS:
        for jitter in JITTERS:
            for index in range(SCHEDULES_PER_JITTER):
                add(
                    "%s-jitter%d-%d" % (name, jitter, index),
                    "%s-jitter%d" % (name, jitter),
                )
    return table


def build_inputs() -> Dict[str, Tuple[JPortal, object, object]]:
    """``{input: (jportal, trace, database)}`` for every case input."""
    program, database, traces = figure2_inputs()
    jportal = JPortal(program)
    inputs = {
        "figure2-" + flavour: (jportal, traces[flavour], database)
        for flavour in FIGURE2_FLAVOURS
    }
    for name, size in JITTER_SUBJECTS:
        subject = build_subject(name, size=size)
        jportal = JPortal(subject.program)
        for jitter in JITTERS:
            run = subject.run(
                default_config(cores=2, switch_timestamp_jitter=jitter)
            )
            trace = collect(run, lossy_config(capacity=600, bandwidth=0.1))
            inputs["%s-jitter%d" % (name, jitter)] = (
                jportal, trace, collect_metadata(run)
            )
    return inputs


def _canonical(value):
    return sorted(value.items()) if isinstance(value, dict) else value


def stream_digest(case: str, inputs, directory: str) -> str:
    """Stream one case's schedule into *directory*; the case's sha256."""
    source, seed, variant = case_table()[case]
    jportal, trace, database = inputs[source]
    rng = random.Random(7_000_000 + seed)
    path = os.path.join(directory, case + ".rpt2")
    simulator = GrowingArchiveSimulator(
        trace, database, path, segment_packets=rng.choice((16, 48, 64))
    )
    max_step = rng.randint(1, 6)
    poll_probability = rng.choice((1.0, 0.7, 0.4))
    if variant == "late-sideband":
        events = simulator._events
        rest = [event for event in events if event[0] != "sideband"]
        cut = len(rest) // 3
        simulator._events = (
            rest[:cut]
            + [event for event in events if event[0] == "sideband"]
            + rest[cut:]
        )
    stop_at = None
    if variant in ("crash", "torn"):
        stop_at = rng.randrange(simulator.remaining // 3, simulator.remaining)
    tenant = StreamDecoder(jportal, path, name=case)
    deltas = []
    committed = 0
    while simulator.remaining:
        committed += simulator.step(rng.randint(1, max_step))
        if stop_at is not None and committed >= stop_at:
            break
        if rng.random() < poll_probability:
            deltas.append(tenant.poll())
    if stop_at is None:
        simulator.finish()
    elif variant == "torn":
        simulator.crash_mid_record()
    else:
        simulator.crash()
    deltas.append(tenant.poll())
    result = tenant.finalize()

    sha = hashlib.sha256()

    def feed(value) -> None:
        sha.update(repr(value).encode("utf-8"))
        sha.update(b"\n")

    for delta in deltas:
        feed(tuple(_canonical(getattr(delta, field)) for field in DELTA_FIELDS))
    for tid, flow in sorted(result.flows.items()):
        feed((tid, flow.flow.entries))
    feed((tenant.replayed, tenant.replay_reason))
    return sha.hexdigest()


def compute_golden() -> Dict[str, str]:
    inputs = build_inputs()
    with tempfile.TemporaryDirectory() as directory:
        return {
            case: stream_digest(case, inputs, directory)
            for case in case_table()
        }


def _golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def inputs():
    return build_inputs()


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case_table())


@pytest.mark.parametrize("case", sorted(case_table()))
def test_stream_matches_golden(inputs, case, tmp_path):
    assert stream_digest(case, inputs, str(tmp_path)) == _golden()[case]


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        raise SystemExit(
            "usage: python -m tests.stream.test_stream_golden --write"
        )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
