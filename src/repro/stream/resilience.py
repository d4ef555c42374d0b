"""Resilience layer for the streaming service: checkpoints, health,
backpressure (:mod:`repro.stream`).

The supervision loop must survive the same hostility the salvage reader
absorbs at the byte level -- but at the *process* level: supervisor
restarts, tenants whose reads fail transiently, tenants that hang, and
tenants whose watermark never advances.  This module holds the three
mechanisms the reworked :class:`~repro.stream.service.StreamSupervisor`
composes:

* the **JPSC checkpoint sidecar** -- a versioned, checksummed,
  atomically written *cursor* for one
  :class:`~repro.stream.service.StreamDecoder`: where its reader stood
  in the archive (an :func:`archive_fingerprint` holding the offset),
  its poll and I/O-error counters, and its replay/shed reasons.  The
  archive is the durable log; ``StreamDecoder.restore`` rebuilds the
  rest by re-reading that prefix.  The framing mirrors the DFA cache's
  ``JPDC`` entries (:mod:`repro.core.dfacache`): magic + format
  version + SHA-256 + payload length over a UTF-8 JSON body, written
  temp+fsync+``os.replace`` like the RPM2 metadata snapshot.  The body
  is data only -- loading a sidecar never runs code from it.  A load
  that fails *any* gate -- missing file, bad magic, version skew,
  truncation, checksum mismatch, a body that is not a JSON object --
  degrades to a cold start and publishes a
  ``stream.checkpoint.<kind>`` counter, never an exception.
  Staleness (the archive on disk no longer matches the checkpointed
  prefix) is the decoder's check, since it needs the archive: see
  ``StreamDecoder.restore``.

* the **per-tenant health state machine** --
  HEALTHY -> DEGRADED -> QUARANTINED.  Transient failures put a tenant
  in DEGRADED and schedule the next poll after a capped exponential
  backoff with *deterministic* jitter (a hash of the tenant name and
  attempt number, so two tenants degraded in the same round do not
  retry in lockstep, yet every run of the same schedule is
  reproducible).  A success resets to HEALTHY.  Exhausting the retry
  budget quarantines the tenant: it is excluded from poll rounds and
  its ``finalize`` falls back to batch replay -- degradation costs a
  re-decode, never correctness, exactly the archive salvage contract
  one layer up.

* the **bounded-memory backpressure config** -- per-tenant and global
  caps on pending entries and buffered tail bytes.  A breach sheds the
  offending tenant's incremental state to the replay path instead of
  growing without bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

#: Bump on any change to the checkpoint payload layout; old sidecars
#: then read as ``version_skew`` and the tenant cold-starts.
CHECKPOINT_VERSION = 2

#: Sidecar framing: magic + little-endian version + SHA-256 + length.
CHECKPOINT_MAGIC = b"JPSC"
_HEADER = struct.Struct("<4sI32sQ")

#: ``stream.checkpoint.<kind>`` counter kinds (mirrors ``cache.anomaly.*``).
ANOMALY_MISSING = "missing"
ANOMALY_CORRUPT = "corrupt_checkpoint"
ANOMALY_VERSION_SKEW = "version_skew"
ANOMALY_STALE = "stale_checkpoint"
ANOMALY_STORE_FAILED = "store_failed"

#: Prefix under which checkpoint damage and lifecycle events publish.
CHECKPOINT_METRIC_PREFIX = "stream.checkpoint."

#: How many trailing archive bytes the fingerprint covers.  Enough to
#: catch a rewritten file, small enough to re-read on every checkpoint.
FINGERPRINT_TAIL_BYTES = 4096


def checkpoint_path_for(archive_path) -> str:
    """The default sidecar path: ``<archive>.jpsc`` next to the file,
    like the ``.meta`` metadata snapshot."""
    return str(archive_path) + ".jpsc"


def encode_checkpoint(state: dict) -> bytes:
    """Frame *state* as one JPSC blob (header + UTF-8 JSON payload)."""
    payload = json.dumps(state, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return (
        _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, digest, len(payload))
        + payload
    )


def write_checkpoint_file(path, state: dict) -> int:
    """Atomically persist *state* to *path*; returns the byte size.

    Temp file + fsync + ``os.replace`` in the sidecar's directory, so a
    crash mid-write leaves either the old checkpoint or the new one,
    never a torn hybrid.  Raises ``OSError`` on I/O failure -- callers
    that must not raise (the supervisor) count ``store_failed`` instead.
    """
    path = str(path)
    blob = encode_checkpoint(state)
    directory = os.path.dirname(path) or "."
    fd, temp_path = tempfile.mkstemp(
        prefix=".checkpoint-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return len(blob)


def load_checkpoint(path) -> Tuple[Optional[dict], Optional[str]]:
    """Read a JPSC sidecar; ``(state, None)`` or ``(None, anomaly kind)``.

    Never raises: every damage class maps to its
    ``stream.checkpoint.<kind>`` suffix and reads as a cold start.
    """
    try:
        with open(str(path), "rb") as handle:
            blob = handle.read()
    except OSError:
        return None, ANOMALY_MISSING
    if len(blob) < _HEADER.size:
        return None, ANOMALY_CORRUPT
    magic, version, digest, length = _HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        return None, ANOMALY_CORRUPT
    if version != CHECKPOINT_VERSION:
        return None, ANOMALY_VERSION_SKEW
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        return None, ANOMALY_CORRUPT
    if hashlib.sha256(payload).digest() != digest:
        return None, ANOMALY_CORRUPT
    try:
        state = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8 / JSON, or too deep
        return None, ANOMALY_CORRUPT
    if not isinstance(state, dict):
        return None, ANOMALY_CORRUPT
    return state, None


def archive_fingerprint(path, offset: int) -> dict:
    """Identify the archive prefix a checkpoint was taken against.

    The writer is append-only, so the bytes *before* the reader's
    offset are immutable on a healthy archive: a CRC over the last
    :data:`FINGERPRINT_TAIL_BYTES` of that prefix (re-read from disk)
    pins them.  On restore, a shorter file or a CRC mismatch means the
    archive was truncated or replaced since the checkpoint -- the
    checkpoint is *stale* and the tenant cold-starts.
    """
    import zlib

    tail_len = min(int(offset), FINGERPRINT_TAIL_BYTES)
    crc = 0
    if tail_len:
        try:
            with open(str(path), "rb") as source:
                source.seek(offset - tail_len)
                blob = source.read(tail_len)
        except OSError:
            blob = b""
        if len(blob) != tail_len:
            # The file no longer covers the checkpointed prefix; make
            # the fingerprint self-evidently unverifiable.
            tail_len = -1
        else:
            crc = zlib.crc32(blob) & 0xFFFFFFFF
    return {"offset": int(offset), "tail_len": tail_len, "tail_crc": crc}


def fingerprint_matches(fingerprint, path) -> bool:
    """Whether the archive at *path* still carries the checkpointed
    prefix (see :func:`archive_fingerprint`)."""
    import zlib

    try:
        offset = int(fingerprint["offset"])
        tail_len = int(fingerprint["tail_len"])
        expected = int(fingerprint["tail_crc"])
    except (TypeError, KeyError, ValueError):
        return False
    if tail_len < 0:
        return False
    if offset == 0:
        return True  # nothing was consumed: trivially resumable
    try:
        size = os.path.getsize(str(path))
        if size < offset:
            return False
        with open(str(path), "rb") as source:
            source.seek(offset - tail_len)
            blob = source.read(tail_len)
    except OSError:
        return False
    if len(blob) != tail_len:
        return False
    return (zlib.crc32(blob) & 0xFFFFFFFF) == expected


# --------------------------------------------------------------- health
class TenantHealth(str, Enum):
    """The per-tenant supervision state machine's states."""

    #: Polling normally.
    HEALTHY = "healthy"
    #: Transient failures seen; polls retried under backoff.
    DEGRADED = "degraded"
    #: Retry budget exhausted; excluded from polls, finalize replays.
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for DEGRADED tenants.

    ``retry_budget`` consecutive failures are retried (each after a
    capped exponential backoff); the next failure quarantines.  Jitter
    is *deterministic* -- derived from the tenant name and attempt
    number -- so concurrent degraded tenants fan out in time yet every
    rerun of a seeded test reproduces the same schedule.
    """

    #: Consecutive failures tolerated before quarantine.
    retry_budget: int = 4
    #: First backoff delay, seconds.
    backoff_base: float = 0.05
    #: Backoff ceiling, seconds.
    backoff_cap: float = 2.0
    #: Exponential growth factor per consecutive failure.
    backoff_factor: float = 2.0
    #: Extra delay fraction in ``[0, jitter)``, deterministically drawn.
    jitter: float = 0.25

    def backoff_delay(self, tenant: str, attempt: int) -> float:
        """Delay before retry *attempt* (1-based) for *tenant*."""
        exponent = max(0, attempt - 1)
        delay = min(
            self.backoff_cap, self.backoff_base * self.backoff_factor ** exponent
        )
        if self.jitter:
            digest = hashlib.sha256(
                ("%s:%d" % (tenant, attempt)).encode("utf-8")
            ).digest()
            unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
            delay *= 1.0 + self.jitter * unit
        return delay


@dataclass(frozen=True)
class BackpressureConfig:
    """Memory caps; ``None`` disables the corresponding bound.

    A tenant breaching a per-tenant cap -- or the largest tenant, when
    a global cap is breached -- is *shed*: its incremental state is
    dropped and its ``finalize`` replays from the file, so memory stays
    bounded at the cost of a re-decode.
    """

    #: Per-tenant cap on parsed-but-unreleased entries.
    max_pending_entries: Optional[int] = None
    #: Per-tenant cap on raw buffered tail bytes.
    max_buffered_bytes: Optional[int] = None
    #: Cap on pending entries summed over all live tenants.
    global_max_pending_entries: Optional[int] = None
    #: Cap on buffered tail bytes summed over all live tenants.
    global_max_buffered_bytes: Optional[int] = None


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the reworked supervisor needs, in one value."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    backpressure: BackpressureConfig = field(default_factory=BackpressureConfig)
    #: Wall-clock seconds one poll round waits for a tenant before the
    #: watchdog abandons it (``None``: wait forever, PR-7 behaviour).
    poll_deadline: Optional[float] = None
    #: Whether the supervisor writes JPSC checkpoints automatically.
    checkpoint: bool = False
    #: Poll rounds between automatic checkpoints (1 = every round).
    checkpoint_interval: int = 1


@dataclass
class TenantSupervision:
    """One tenant's mutable health record inside the supervisor."""

    name: str
    policy: RetryPolicy
    health: TenantHealth = TenantHealth.HEALTHY
    consecutive_failures: int = 0
    total_failures: int = 0
    #: Monotonic timestamp before which the tenant is not re-polled.
    next_eligible: float = 0.0
    last_error: Optional[str] = None
    quarantine_reason: Optional[str] = None
    #: Set when the tenant's decoder state must not be trusted (a poll
    #: thread may still be mutating it): finalize replays from the file
    #: without touching the decoder.
    force_replay: bool = False

    def should_poll(self, now: float) -> bool:
        if self.health is TenantHealth.QUARANTINED:
            return False
        return now >= self.next_eligible

    def record_success(self) -> bool:
        """Note a clean poll; ``True`` if this was a recovery."""
        recovered = self.health is TenantHealth.DEGRADED
        if self.health is not TenantHealth.QUARANTINED:
            self.health = TenantHealth.HEALTHY
        self.consecutive_failures = 0
        self.next_eligible = 0.0
        return recovered

    def record_failure(self, error: str, now: float) -> bool:
        """Note a failed poll; ``True`` if this exhausted the budget
        (the caller then quarantines the tenant)."""
        self.consecutive_failures += 1
        self.total_failures += 1
        self.last_error = error
        if self.health is TenantHealth.QUARANTINED:
            return False
        if self.consecutive_failures > self.policy.retry_budget:
            self.health = TenantHealth.QUARANTINED
            self.quarantine_reason = error
            return True
        self.health = TenantHealth.DEGRADED
        self.next_eligible = now + self.policy.backoff_delay(
            self.name, self.consecutive_failures
        )
        return False


@dataclass(frozen=True)
class TenantFailure:
    """A finalize that could not produce a result (returned in that
    tenant's slot by ``finalize_all`` instead of aborting the batch)."""

    tenant: str
    error: str
    #: Parity with JPortalResult consumers that probe ``.salvage``.
    salvage: Optional[object] = None
