"""Persistent static-analysis cache: skip subset construction on reruns.

Building a :class:`~repro.core.pipeline.JPortal` pays a static cost that
depends only on the program: :func:`repro.analysis.report.analyze_program`
determinizes every method's NFA (subset construction, the Figure 5
pipeline) for the ambiguity verdicts, classifies edge observability, and
lints the bytecode.  For repeated analyses of the same program -- the
normal profiling workflow -- that work is pure recomputation.
:class:`AnalysisCache` persists the finished
:class:`~repro.analysis.report.AnalysisReport` on disk, keyed by a digest
of the program's full disassembly plus the opaque-call-site set, so a
warm build loads the determinized verdicts instead of rebuilding them.

Durability follows the archive layer's salvage semantics
(:mod:`repro.pt.archive`): cache damage must never take the pipeline
down.  Entries are written atomically (temp file + ``os.replace``, like
the RPT2 metadata snapshot sidecar) and carry a magic/version header and
a SHA-256 payload checksum; a read that fails *any* gate -- missing
magic, stale format version, truncated payload, checksum mismatch,
unpicklable body -- degrades to a cold build and publishes a
``cache.anomaly.<kind>`` counter, never an exception.  Store failures
degrade the same way (the run simply stays cold).

Key stability: the digest hashes the program's deterministic textual
disassembly, not Python object identities, so any two processes
analysing the same bytecode share one entry.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import tempfile
from typing import Dict, Iterable, Optional, Tuple

from ..jvm.disasm import disassemble_program
from ..jvm.model import JProgram

#: Bump on any change to the entry layout *or* to what the pickled
#: report contains; old entries then read as ``stale_version`` and
#: rebuild cold.  v2: reports carry the frontend field and the key
#: hashes the (frontend, projection-model version) pair.
CACHE_VERSION = 2

#: Entry header: magic + little-endian format version.
MAGIC = b"JPDC"
_HEADER = struct.Struct("<4sI32sQ")  # magic, version, sha256, payload length

#: ``cache.anomaly.<kind>`` counter kinds (one per directed failure mode).
ANOMALY_CORRUPT = "corrupt_entry"
ANOMALY_STALE_VERSION = "stale_version"
ANOMALY_TRUNCATED = "truncated_entry"
ANOMALY_STORE_FAILED = "store_failed"

#: Prefix under which cache damage is published (folded into
#: ``anomalies_by_kind`` alongside decode/archive anomalies).
CACHE_METRIC_PREFIX = "cache.anomaly."


def analysis_cache_key(
    program: JProgram,
    opaque_call_sites: Iterable[Tuple[str, int]] = (),
    frontend: str = "pt",
    model_version: Optional[int] = None,
) -> str:
    """Stable digest identifying one (program, opaque-sites, frontend)
    analysis.

    The disassembly covers every method's bytecode and handlers in
    deterministic order, so recompiling an unchanged program hits and
    any bytecode edit misses.  The frontend name and its
    ProjectionModel version are part of the key: observability and
    ambiguity verdicts are per-projection, so a report built under one
    frontend must never be served to another (nor survive a model
    revision).  *model_version* defaults to the registered frontend's
    current version.
    """
    if model_version is None:
        from ..tracesource import get_projection_model

        model_version = get_projection_model(frontend).version
    hasher = hashlib.sha256()
    hasher.update(disassemble_program(program).encode("utf-8"))
    hasher.update(repr(sorted(opaque_call_sites)).encode("utf-8"))
    hasher.update(
        ("frontend:%s/%d" % (frontend, model_version)).encode("utf-8")
    )
    return hasher.hexdigest()


class AnalysisCache:
    """On-disk cache of finished analysis reports, salvage-style.

    All counters accumulate into :attr:`events` (plain name -> count),
    which the pipeline folds into each run's metrics registry --
    ``cache.hits`` / ``cache.misses`` / ``cache.stores`` plus the
    ``cache.anomaly.*`` family.
    """

    def __init__(self, cache_dir: str):
        self.cache_dir = str(cache_dir)
        self.events: Dict[str, int] = {}

    # -------------------------------------------------------------- paths
    def path_for(self, key: str) -> str:
        return os.path.join(self.cache_dir, "analysis-%s.jpdc" % key)

    # --------------------------------------------------------------- read
    def load(self, key: str):
        """The cached report for *key*, or ``None`` (cold build needed).

        Never raises: every damage class is counted under its
        ``cache.anomaly.<kind>`` name and reads as a miss.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self._count("cache.misses")
            return None
        if len(blob) < _HEADER.size:
            return self._damaged(ANOMALY_TRUNCATED)
        magic, version, digest, length = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            return self._damaged(ANOMALY_CORRUPT)
        if version != CACHE_VERSION:
            return self._damaged(ANOMALY_STALE_VERSION)
        payload = blob[_HEADER.size:]
        if len(payload) != length:
            return self._damaged(ANOMALY_TRUNCATED)
        if hashlib.sha256(payload).digest() != digest:
            return self._damaged(ANOMALY_CORRUPT)
        try:
            report = pickle.loads(payload)
        except Exception:
            return self._damaged(ANOMALY_CORRUPT)
        self._count("cache.hits")
        return report

    # -------------------------------------------------------------- write
    def store(self, key: str, report) -> bool:
        """Persist *report* atomically; ``False`` (plus a counter) on any
        failure -- a cache that cannot write just stays cold."""
        try:
            payload = self._serialize(report)
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                prefix=".analysis-", suffix=".tmp", dir=self.cache_dir
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp_path, self.path_for(key))
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except Exception:
            self._count(CACHE_METRIC_PREFIX + ANOMALY_STORE_FAILED)
            return False
        self._count("cache.stores")
        return True

    # ---------------------------------------------------------- internals
    @staticmethod
    def _serialize(report) -> bytes:
        body = io.BytesIO()
        pickle.dump(report, body, protocol=pickle.HIGHEST_PROTOCOL)
        payload = body.getvalue()
        digest = hashlib.sha256(payload).digest()
        return _HEADER.pack(MAGIC, CACHE_VERSION, digest, len(payload)) + payload

    def _damaged(self, kind: str):
        self._count(CACHE_METRIC_PREFIX + kind)
        self._count("cache.misses")
        return None

    def _count(self, name: str, value: int = 1) -> None:
        self.events[name] = self.events.get(name, 0) + value
