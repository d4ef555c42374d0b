"""Output oracle: flow digests and the committed golden digests.

A flow digest is sha256 over ``(tid, repr(node), provenance)`` for every
entry of every thread's final flow, threads in tid order.  ``repr`` of a
node (a ``(method, bci)`` tuple or ``None``) does not depend on
``PYTHONHASHSEED``, so a digest names one output across processes.

``golden.json`` holds ``{workload: {seed: {subject: digest}}}``, made by
``make_golden.py`` with both decode engines, which must agree.  Seeds
without a golden entry are checked through identities instead (stream
finalize equals the batch reference, restored equals uninterrupted,
traced equals untraced, every pass equals the first).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Mapping, Optional, Sequence, Tuple

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

Entries = Sequence[Tuple[object, str]]


def digest_entries(flows: Mapping[int, Entries]) -> str:
    """Digest of ``{tid: [(node, provenance), ...]}``."""
    sha = hashlib.sha256()
    for tid in sorted(flows):
        sha.update(
            "".join(
                "%d\t%r\t%s\n" % (tid, node, provenance)
                for node, provenance in flows[tid]
            ).encode("utf-8")
        )
    return sha.hexdigest()


def result_entries(result) -> Dict[int, Entries]:
    """``{tid: entries}`` of a :class:`~repro.core.pipeline.JPortalResult`."""
    return {tid: flow.flow.entries for tid, flow in result.flows.items()}


def digest_result(result) -> str:
    return digest_entries(result_entries(result))


def fingerprint(flows: Mapping[int, Entries]) -> int:
    """Cheap in-process identity of a flow set (hash, not sha256).

    Used to compare every timed pass with the first one without paying
    for a digest per pass; ``str`` hashing is salted per process, so the
    value is meaningless across processes.
    """
    return hash(tuple((tid, tuple(flows[tid])) for tid in sorted(flows)))


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def golden_for(workload: str, seed: int, path: str = GOLDEN_PATH) -> Optional[Dict[str, str]]:
    """``{subject: digest}`` committed for (*workload*, *seed*), if any."""
    return load_golden(path).get(workload, {}).get(str(seed))
