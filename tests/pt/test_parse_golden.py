"""Pinned entry-body parses: the oracle for any change to the body parser.

``golden_parse.json`` maps each case to what :func:`iter_body` made of
its bytes, read at a nonzero ``base_offset``, and the test asks the same
of :func:`iter_entries` over the bytes: a sha256 over ``repr`` of
the parsed entry list (so packet classes, field values and the bool
type of TNT bits are all pinned), or, when parsing raised
:class:`TraceFormatError`, the list ``[message, offset, entry_offset,
entries yielded before the error]``.  Cases:

* **pt-N** -- seeded PT bodies holding every builtin packet kind and
  loss records, parsed whole and cut at every byte;
* **etrace-N** -- seeded bodies holding every E-Trace packet kind
  (through the codecs :mod:`repro.etrace.serialize` registers), loss
  records and PT packets, whole and cut at every byte;
* **hostile/...** -- TNT counts 0, 7 and 255, TNT bitfields with bits set
  above their count, TIP sizes outside {3, 5, 9}, the tags 0x00, 0x08,
  0xff and an unregistered extension tag, and invalid E-Trace
  branch-map counts and address sizes, each alone and after a clean
  entry.

Regenerate only when the parser's *output* is meant to change::

    PYTHONPATH=src python -m tests.pt.test_parse_golden --write
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import struct
import sys
from typing import Dict, Iterator, List, Tuple

import pytest

import repro.etrace  # noqa: F401 - registers the E-Trace entry codecs
from repro.etrace.packets import (
    BRANCH_MAP_MAX_BITS,
    ETAddressPacket,
    ETBranchMapPacket,
    ETDisablePacket,
    ETEnablePacket,
    ETSyncPacket,
    ETTimePacket,
    ETTrapPacket,
)
from repro.etrace.serialize import VALID_ET_ADDRESS_SIZES
from repro.pt.packets import (
    AuxLossRecord,
    FUPPacket,
    PGDPacket,
    PGEPacket,
    TIPPacket,
    TNTPacket,
    TSCPacket,
)
from repro.pt.serialize import (
    VALID_TIP_SIZES,
    TraceFormatError,
    iter_body,
    iter_entries,
    write_body,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_parse.json")

#: Added to every reported offset, as for an archive segment payload.
BASE_OFFSET = 4099
PT_SEEDS = 2
ETRACE_SEEDS = 2
#: Random entries added to the one-of-each-kind core of a seeded body.
EXTRA_ENTRIES = 2


def _u64(rng: random.Random) -> int:
    return rng.choice((rng.getrandbits(64), rng.randrange(1 << 16)))


def _loss(rng: random.Random):
    return ("loss", AuxLossRecord(
        _u64(rng), _u64(rng), _u64(rng), rng.getrandbits(32)
    ))


def _bits(rng: random.Random, most: int) -> Tuple[bool, ...]:
    return tuple(rng.random() < 0.5 for _ in range(rng.randint(1, most)))


PT_KINDS = (
    lambda rng: PGEPacket(_u64(rng), _u64(rng)),
    lambda rng: PGDPacket(_u64(rng), _u64(rng)),
    lambda rng: TNTPacket(_u64(rng), _bits(rng, 6)),
    lambda rng: TIPPacket(_u64(rng), _u64(rng), rng.choice(VALID_TIP_SIZES)),
    lambda rng: FUPPacket(_u64(rng), _u64(rng)),
    lambda rng: TSCPacket(_u64(rng)),
)

ETRACE_KINDS = (
    lambda rng: ETBranchMapPacket(_u64(rng), _bits(rng, BRANCH_MAP_MAX_BITS)),
    lambda rng: ETAddressPacket(
        _u64(rng), _u64(rng), rng.choice(VALID_ET_ADDRESS_SIZES)
    ),
    lambda rng: ETSyncPacket(_u64(rng), _u64(rng)),
    lambda rng: ETTrapPacket(_u64(rng), _u64(rng)),
    lambda rng: ETEnablePacket(_u64(rng), _u64(rng)),
    lambda rng: ETDisablePacket(_u64(rng), _u64(rng)),
    lambda rng: ETTimePacket(_u64(rng)),
)


def _seeded_body(seed: int, kinds, extra_kinds) -> bytes:
    """One entry of every kind plus a loss record, then random extras."""
    rng = random.Random(seed)
    entries = [("packet", make(rng)) for make in kinds] + [_loss(rng)]
    pool = list(kinds) + list(extra_kinds)
    for _ in range(EXTRA_ENTRIES):
        make = rng.choice(pool + [None])
        entries.append(_loss(rng) if make is None else ("packet", make(rng)))
    rng.shuffle(entries)
    sink = io.BytesIO()
    write_body(entries, sink)
    return sink.getvalue()


def _hostile_bodies() -> Dict[str, bytes]:
    bodies = {
        "tnt-count-0": struct.pack("<BQBB", 0x03, 5, 0, 0x01),
        "tnt-count-7": struct.pack("<BQBB", 0x03, 5, 7, 0x7F),
        "tnt-count-255": struct.pack("<BQBB", 0x03, 5, 255, 0xFF),
        "tnt-bits-above-count-1": struct.pack("<BQBB", 0x03, 5, 1, 0xFE),
        "tnt-bits-above-count-3": struct.pack("<BQBB", 0x03, 5, 3, 0xFA),
        "tnt-bits-above-count-6": struct.pack("<BQBB", 0x03, 5, 6, 0xFF),
        "tag-0x00": b"\x00" + bytes(16),
        "tag-0x08": b"\x08" + bytes(16),
        "tag-0xff": b"\xff" + bytes(16),
        "tag-unregistered-extension": b"\x17" + bytes(16),
        "etrace-branch-map-count-0": struct.pack("<BQBI", 0x10, 5, 0, 1),
        "etrace-branch-map-count-32": struct.pack(
            "<BQBI", 0x10, 5, BRANCH_MAP_MAX_BITS + 1, 0xFFFFFFFF
        ),
        "etrace-branch-map-bits-above-count": struct.pack(
            "<BQBI", 0x10, 5, 4, 0xFFFFFFF5
        ),
    }
    for size in (0, 1, 2, 4, 6, 7, 8, 10, 255):
        bodies["tip-size-%d" % size] = struct.pack("<BQBQ", 0x04, 5, size, 0x1000)
    for size in (0, 1, 4, 10):
        bodies["etrace-address-size-%d" % size] = struct.pack(
            "<BQBQ", 0x11, 5, size, 0x1000
        )
    clean = struct.pack("<BQ", 0x06, 1)  # one TSC entry
    for name in list(bodies):
        bodies[name + "/after-clean-entry"] = clean + bodies[name]
    return {"hostile/" + name: body for name, body in bodies.items()}


def case_bodies() -> Dict[str, bytes]:
    """``{case: body bytes}`` for every golden case."""
    cases: Dict[str, bytes] = {}
    seeded = [
        ("pt-%d" % seed, _seeded_body(seed, PT_KINDS, ())) for seed in range(PT_SEEDS)
    ] + [
        ("etrace-%d" % seed, _seeded_body(1000 + seed, ETRACE_KINDS, PT_KINDS))
        for seed in range(ETRACE_SEEDS)
    ]
    for name, body in seeded:
        cases[name + "/whole"] = body
        for cut in range(len(body)):
            cases["%s/cut-%04d" % (name, cut)] = body[:cut]
    cases.update(_hostile_bodies())
    return cases


def parse_outcome(parsed: Iterator[Tuple[str, object]]):
    """The golden's form of what a parser yields before any error."""
    entries: List[Tuple[str, object]] = []
    try:
        for entry in parsed:
            entries.append(entry)
    except TraceFormatError as error:
        return [str(error), error.offset, error.entry_offset, len(entries)]
    return hashlib.sha256(repr(entries).encode("utf-8")).hexdigest()


def _via_iter_body(body: bytes):
    return iter_body(io.BytesIO(body), base_offset=BASE_OFFSET)


def _via_iter_entries(body: bytes):
    return iter_entries(body, base_offset=BASE_OFFSET)


def compute_golden(parse=_via_iter_body) -> Dict[str, object]:
    return {
        name: parse_outcome(parse(body)) for name, body in case_bodies().items()
    }


def _golden() -> Dict[str, object]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case_bodies())


@pytest.mark.parametrize("parse", [_via_iter_body, _via_iter_entries])
def test_parse_matches_golden(parse):
    golden = _golden()
    changed = sorted(
        name
        for name, outcome in compute_golden(parse).items()
        if outcome != golden.get(name)
    )
    assert not changed, "parse outcomes changed: %s" % changed[:20]


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        raise SystemExit("usage: python -m tests.pt.test_parse_golden --write")
    golden = compute_golden()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        # One case per line: an error outcome stays readable in a diff.
        handle.write("{\n")
        handle.write(",\n".join(
            " %s: %s" % (json.dumps(name), json.dumps(golden[name]))
            for name in sorted(golden)
        ))
        handle.write("\n}\n")
