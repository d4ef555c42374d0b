"""Source-agnostic branch-event decoder: trace events -> observed columns.

Given one *thread's* TSC-ordered stream of branch events and loss records,
plus the machine-code metadata (a code database providing template lookup
and compiled-code lookup) and a lifter for compiled code,
:class:`BatchEventDecoder` produces the thread's observed bytecode trace
as parallel columns (:class:`repro.core.observed.ObservedColumns`):

* an *interp* step for each interpreter template entered (one per
  executed bytecode; paper Section 3.1: template ranges map one-to-one
  onto opcodes, so the step carries the opcode but no location; a
  conditional template carries its outcome bit, or ``None`` when the bit
  never arrived);
* *jit* steps for each walk through compiled machine code (paper
  Figure 3(d)): the walk follows direct jumps/calls statically, consumes
  one outcome bit per ``jcc``, and stops at indirect branches awaiting
  the next indirect-target event, exactly like libipt; every walked
  address with a debug record lifts to its innermost ``(method, bci)``;
* nothing for a return into the interpreter (the c2i stub target), which
  only re-anchors the stream;
* a hole for each buffer-overflow loss record (segmentation point), and
  a *synthetic* hole, declared by the decoder itself, when a segment
  exceeds its :class:`DegradationPolicy` anomaly budget;
* an anomaly count, each anomaly tagged with a structured
  :class:`AnomalyKind` reason code in :attr:`DecodeStats.by_kind` (orphan
  outcome bits after a loss, unknown IPs, desynchronised walks,
  conditionals flushed without their bit, ...).

The engine never looks at a concrete packet format.  It dispatches on the
:mod:`repro.tracesource.events` base classes -- conditional-outcome
batches, indirect targets, async events, enable/disable, time references
-- which both the Intel PT frontend (``TNT``/``TIP``/``FUP``/``PGE``/
``PGD``/``TSC`` in :mod:`repro.pt.packets`) and the RISC-V E-Trace
frontend (branch maps / address packets in :mod:`repro.etrace.packets`)
subclass.  :class:`repro.pt.decoder.PTBatchDecoder` and
:class:`repro.etrace.decoder.ETraceBatchDecoder` are aliases of the
engine here.

Robustness contract: :meth:`BatchEventDecoder.decode_into` never raises
on a malformed stream.  Corruption degrades into anomalies, discarded
outcome backlog, and (under a :class:`DegradationPolicy` budget)
synthetic holes that hand the damaged span to the recovery engine --
mirroring how production trace stacks keep lifting while the input
degrades.  On a desynchronisation the decoder *resyncs*: it scans
forward to the next structurally-valid indirect-target anchor (a
template, return-stub, or code-cache target) instead of aborting the
walk, discarding outcome bits whose branch context is unknown.

The code database must provide::

    classify_target(ip)            -> (TARGET_* code, template Op or None)
    op_is_conditional(op)          -> bool
    walk_block(ip)                 -> the cached straight-line block
        starting at ip (``bid``, ``addresses``, a BLOCK_* ``kind``, and
        ``taken_ip``/``fall_ip``/``next_ip`` successors)
    native_instruction_at(ip, tsc) -> MachineInstruction or None
        (tsc selects the code-cache epoch when reclaimed addresses
        were reused; pass None for "latest")

which :class:`repro.core.metadata.CodeDatabase` implements from the
exported metadata only (never from runtime-private state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..jvm.machine import MIKind
from .events import (
    AsyncEvent,
    ConditionalOutcomes,
    IndirectTarget,
    LossSpan,
    TimeRef,
    TraceDisable,
    TraceEnable,
)

#: Safety bound on machine instructions walked without consuming a packet.
MAX_WALK = 2_000_000

#: TIP-target classes and walk-block end kinds: the integer contract
#: between this layer and :class:`repro.core.metadata.CodeDatabase`'s
#: ``classify_target``/``walk_block`` caches.  Defined here (and imported
#: by the core layer) because the trace-source layer must never import
#: ``repro.core``.
TARGET_UNKNOWN, TARGET_STUB, TARGET_TEMPLATE, TARGET_CODE = 0, 1, 2, 3
BLOCK_COND, BLOCK_END, BLOCK_CHAIN, BLOCK_UNKNOWN, BLOCK_EPOCH = 0, 1, 2, 3, 4

#: Sentinel a batch lifter's ``lift_one`` returns for a stale debug
#: record (resolves to no live bytecode; counted, never raised).
LIFT_STALE = object()


class AnomalyKind(str, Enum):
    """Structured reason codes for decode anomalies (and the degradation
    layer built on top of them).

    Each kind is counted per thread in the metrics registry under
    ``decode.anomaly.<value>`` and aggregated onto
    :attr:`repro.core.pipeline.JPortalResult.anomalies_by_kind`.

    The ``TNT`` names are historical (Intel PT's taken/not-taken
    packets); they cover conditional-outcome batches from any frontend,
    including E-Trace branch maps.
    """

    #: Outcome bits arriving between a loss and the next indirect target:
    #: their branches were dropped with the loss, so the bits bind to
    #: nothing.
    ORPHAN_TNT = "orphan_tnt"
    #: A conditional dispatch whose outcome bit never arrived (flushed by
    #: an indirect target, async event, loss, synthetic hole, or end of
    #: stream).
    CONDITIONAL_WITHOUT_TNT = "conditional_without_tnt"
    #: A suspended compiled-code walk displaced by an indirect target.
    WALK_ABANDONED = "walk_abandoned"
    #: A compiled-code walk reached an address with no exported
    #: instruction (stale metadata, mid-instruction target).
    WALK_DESYNC = "walk_desync"
    #: A walk exceeded :data:`MAX_WALK` instructions without input.
    WALK_BUDGET = "walk_budget"
    #: An indirect target that maps to no template, stub, or compiled
    #: code.
    TIP_UNMAPPED = "tip_unmapped"
    #: An outcome batch discarded while resynchronising after a desync.
    TNT_DISCARDED_DESYNC = "tnt_discarded_desync"
    #: A debug-info record that no longer resolves (pre-GC export race);
    #: recorded by the JIT-mode lifter, not the packet decoder.
    STALE_DEBUG_INFO = "stale_debug_info"
    #: A stream entry that is not a recognised packet or loss record.
    MALFORMED_ITEM = "malformed_item"
    #: An unexpected internal failure converted into degradation instead
    #: of a raised exception (the no-crash contract's backstop).
    DECODER_ERROR = "decoder_error"
    #: A whole per-thread analysis chain that failed and was replaced by
    #: an empty flow (recorded by the pipeline, not the packet decoder).
    CHAIN_FAILURE = "chain_failure"
    # ---- archive-level kinds (recorded by the RPT2 salvage reader in
    # :mod:`repro.pt.archive`, not the packet decoder; published under
    # ``archive.anomaly.<value>`` and folded into ``anomalies_by_kind``).
    #: A segment whose payload CRC32 did not match its header (bit rot).
    SEGMENT_CRC_MISMATCH = "segment_crc_mismatch"
    #: A segment cut short or never committed (torn write / truncation).
    SEGMENT_TORN = "segment_torn"
    #: A gap in the record sequence numbering (segments lost wholesale).
    SEGMENT_GAP = "segment_gap"
    #: A record whose sequence number was already consumed (replayed dump).
    SEGMENT_DUPLICATE = "segment_duplicate"
    #: The archive ends without its seal record (crash or truncation at a
    #: record boundary -- everything present is still salvageable).
    ARCHIVE_UNSEALED = "archive_unsealed"
    #: Bytes that frame no parseable record (garbage, damaged headers).
    ARCHIVE_MALFORMED = "archive_malformed"
    #: The metadata snapshot sidecar is missing or unreadable.
    METADATA_SNAPSHOT_MISSING = "metadata_snapshot_missing"
    #: Catch-all for anomalies predating the taxonomy.
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class DegradationPolicy:
    """Error budget and resync behaviour for hostile input.

    Attributes:
        resync: On a desynchronisation (indirect target into unmapped
            space, walk reaching unknown code), scan forward to the next
            structurally-valid anchor, discarding outcome batches whose
            branch context is unknown.  ``False`` restores the legacy
            lenient behaviour (bits stay buffered and may misbind).
        max_anomalies_per_segment: After this many anomalies inside one
            hole-free segment the decoder declares a *synthetic hole*
            (a hole with ``synthetic=True``): the damaged span is handed
            to the recovery engine rather than trusted.
            ``None`` disables the budget.
    """

    resync: bool = True
    max_anomalies_per_segment: Optional[int] = 64


@dataclass
class DecodeStats:
    packets: int = 0
    tips: int = 0
    tnt_bits: int = 0
    losses: int = 0
    anomalies: int = 0
    walked_instructions: int = 0
    # --- degradation accounting -----------------------------------------
    #: Synthetic holes declared by the error budget.
    synthetic_holes: int = 0
    #: Walks abandoned before completion (by TIP, FUP, loss, or budget).
    walks_abandoned: int = 0
    #: Per-kind anomaly counts (sums to ``anomalies``).
    by_kind: Dict[AnomalyKind, int] = field(default_factory=dict)
    # --- outcome-bit conservation (consumed+orphaned+discarded+dropped+
    #     unused always equals tnt_bits; the reconciliation property test
    #     pins this invariant) ---------------------------------------------
    #: Bits bound to a conditional dispatch or a walked ``jcc``.
    tnt_consumed: int = 0
    #: Bits in batches rejected as post-loss orphans.
    tnt_orphaned: int = 0
    #: Bits in batches discarded while desynchronised (resync scan).
    tnt_discarded: int = 0
    #: Buffered bits cleared by a loss or synthetic hole.
    tnt_dropped_on_loss: int = 0
    #: Bits still buffered when the stream ended.
    tnt_unused: int = 0


# Event-kind codes for the decoder's class->kind memo: one ``issubclass``
# walk per distinct packet class, then a dict hit per entry.  The walk
# order is the dispatch precedence for a class deriving from several
# event bases; :meth:`BatchEventDecoder._on_packet_slow` keeps the same
# order for entries the memo cannot classify.
_EV_TIME, _EV_TNT, _EV_TIP, _EV_FUP, _EV_IGNORE, _EV_UNKNOWN = range(6)

_EVENT_KIND_MEMO: Dict[type, int] = {}


def _event_kind_of(cls: type) -> int:
    kind = _EVENT_KIND_MEMO.get(cls)
    if kind is None:
        if issubclass(cls, TimeRef):
            kind = _EV_TIME
        elif issubclass(cls, ConditionalOutcomes):
            kind = _EV_TNT
        elif issubclass(cls, IndirectTarget):
            kind = _EV_TIP
        elif issubclass(cls, AsyncEvent):
            kind = _EV_FUP
        elif issubclass(cls, (TraceEnable, TraceDisable)):
            kind = _EV_IGNORE
        else:
            kind = _EV_UNKNOWN
        _EVENT_KIND_MEMO[cls] = kind
    return kind


class BatchEventDecoder:
    """Decodes one thread's event stream straight into observed *columns*.

    Decode and lift are fused, and the work is organised for throughput:

    * no intermediate per-dispatch or per-walk objects: steps are
      written directly into the parallel columns of an
      :class:`repro.core.observed.ObservedColumns` sink (duck-typed:
      ``symbols``/``takens``/``locations``/``sources``/``tscs`` lists
      plus ``add_hole`` and an ``anomalies`` counter);
    * outcome payloads are kept as one flat bit-run (list + cursor)
      instead of a deque popped one object at a time;
    * compiled-code walks drain block-at-a-time through the database's
      ``walk_block`` cache (straight-line runs end at a conditional,
      an indirect branch, or an epoch-dependent address), with the
      per-block lift templates supplied by *lifter* (duck-typed:
      ``block_template(block)`` and ``lift_one(address, tsc)``, see
      :class:`repro.core.batchflow.JitLifter`); epoch-dependent
      addresses and walks near the :data:`MAX_WALK` budget fall back to
      per-instruction stepping, so a walk ends, starves, or
      desynchronises at exactly the instruction it would reach one
      address at a time;
    * indirect targets classify through the database's memoized
      ``classify_target`` (:data:`TARGET_STUB`-family codes) instead of
      three range lookups per dispatch, and packet classes resolve to
      event kinds through a module-level ``issubclass`` memo, so any
      frontend's packet types hit the same fast path.

    :class:`DecodeStats` accounts for every outcome bit (consumed,
    orphaned, discarded, dropped with a hole, or unused), every loss and
    synthetic hole, and every anomaly by kind; when a
    :class:`~repro.core.metrics.MetricsRegistry` is supplied the stats
    are published under ``decode.*`` counters for *tid* (and stale debug
    records under ``lift.stale_debug_entries``) by :meth:`finish`.
    *policy* tunes the degradation behaviour (resync + error budget);
    the default :class:`DegradationPolicy` is used when ``None``.  An
    instance decodes one stream (optionally fed in chunks) and never
    raises on malformed input.
    """

    def __init__(
        self,
        database,
        lifter,
        metrics=None,
        tid: Optional[int] = None,
        policy: Optional[DegradationPolicy] = None,
    ):
        self.database = database
        self.lifter = lifter
        self.metrics = metrics
        self.tid = tid
        self.policy = policy if policy is not None else DegradationPolicy()
        self.stats = DecodeStats()
        # Outcome bit-run: a flat list consumed through a cursor
        # (compacted on refill), never one deque hop per bit.
        self._bits: List[bool] = []
        self._cur = 0
        # Pending interpreted conditional: (dispatch_tsc, op).
        self._pending: Optional[Tuple[int, object]] = None
        # Suspended machine walk: (span_start_tsc, next_address).
        self._walk: Optional[Tuple[int, int]] = None
        # Between a loss record and the next indirect target the stream
        # has no anchor: outcome bits arriving there belong to branches
        # whose context was dropped and must not bind to later
        # conditionals.
        self._post_loss = False
        # Resync state: set when the stream desynchronises (unmapped
        # target, walk into unknown code); cleared by the next
        # structurally-valid anchor.  While set, outcome batches are
        # discarded.
        self._desync = False
        # Error-budget state for the current hole-free segment.
        self._segment_anomalies = 0
        self._segment_anomaly_start: Optional[int] = None
        # Stale debug records encountered while lifting (published once).
        self._stale = 0
        # op -> is-conditional memo (one protocol call per distinct op).
        self._cond_op: Dict[object, bool] = {}
        self._columns = None

    # -------------------------------------------------------------------- API
    def decode_into(self, stream: Sequence[Tuple[str, object]], columns):
        """Decode a merged ``("packet"|"loss", item)`` stream into *columns*.

        Never raises on malformed input: unrecognised or corrupt entries
        degrade into anomalies (and, under the error budget, synthetic
        holes).  Returns *columns*.
        """
        self.feed(stream, columns)
        return self.finish()

    def adopt_state(self, previous: "BatchEventDecoder") -> "BatchEventDecoder":
        """Take over *previous*'s mid-stream state (streaming handoff).

        Used when the metadata database grows mid-stream: a fresh decoder
        bound to the enlarged database adopts the old decoder's mutable
        state -- cumulative stats, outcome-bit remainder, pending
        conditional, suspended walk, degradation flags, and the columns
        sink -- so the concatenated ``feed`` calls across both decoders
        behave exactly like one decoder over the concatenated stream.
        """
        self.stats = previous.stats
        self._bits = previous._bits
        self._cur = previous._cur
        self._pending = previous._pending
        self._walk = previous._walk
        self._post_loss = previous._post_loss
        self._desync = previous._desync
        self._segment_anomalies = previous._segment_anomalies
        self._segment_anomaly_start = previous._segment_anomaly_start
        self._stale = previous._stale
        self._cond_op = previous._cond_op
        self._columns = previous._columns
        return self

    def feed(self, stream: Sequence[Tuple[str, object]], columns):
        """Decode one chunk of the merged stream; resumable.

        Mid-stream state (outcome remainder, pending conditional,
        suspended walk, loss/desync flags) carries across calls, so
        feeding a stream in arbitrary chunks then calling :meth:`finish`
        produces exactly the columns and stats of one :meth:`decode_into`
        call over the whole stream.  *columns* must be the same sink on
        every call.
        """
        self._columns = columns
        stats = self.stats
        limit = self.policy.max_anomalies_per_segment
        budgeted = limit is not None
        # Hot-loop locals: the indirect-target fast path below handles
        # the (dominant) clean-stream dispatches without a method call or
        # re-lookup; any pending state or unusual target falls through to
        # the full handlers.
        classify = self.database.classify_target
        tip_memo: Dict[int, Tuple[int, object]] = {}
        cond_memo = self._cond_op
        op_is_conditional = self.database.op_is_conditional
        symbols_append = columns.symbols.append
        takens_append = columns.takens.append
        locations_append = columns.locations.append
        sources_append = columns.sources.append
        tscs_append = columns.tscs.append
        kind_memo = _EVENT_KIND_MEMO
        kind_of = _event_kind_of
        for entry in stream:
            tsc = 0
            try:
                tag, item = entry
                if tag == "packet":
                    stats.packets += 1
                    cls = item.__class__
                    ekind = kind_memo.get(cls)
                    if ekind is None:
                        ekind = kind_of(cls)
                    if ekind == _EV_TIP:
                        tsc = item.tsc
                        stats.tips += 1
                        if self._pending is None and self._walk is None:
                            target = item.target
                            hit = tip_memo.get(target)
                            if hit is None:
                                hit = tip_memo[target] = classify(target)
                            code = hit[0]
                            if code == TARGET_TEMPLATE:
                                op = hit[1]
                                self._post_loss = False
                                self._desync = False
                                cond = cond_memo.get(op)
                                if cond is None:
                                    cond = cond_memo[op] = op_is_conditional(op)
                                if cond:
                                    if self._cur < len(self._bits):
                                        taken = self._bits[self._cur]
                                        self._cur += 1
                                        stats.tnt_consumed += 1
                                    else:
                                        self._pending = (tsc, op)
                                        continue
                                else:
                                    taken = None
                                symbols_append(op)
                                takens_append(taken)
                                locations_append(None)
                                sources_append("interp")
                                tscs_append(tsc)
                            elif code == TARGET_STUB:
                                self._post_loss = False
                                self._desync = False
                            elif code == TARGET_CODE:
                                self._post_loss = False
                                self._desync = False
                                self._run_walk(target, tsc, tsc)
                            else:
                                self._tip_unmapped(target, tsc)
                        else:
                            self._on_tip(item.target, tsc)
                    elif ekind == _EV_TNT:
                        tsc = item.tsc
                        self._on_tnt(item.bits, tsc)
                    elif ekind == _EV_TIME or ekind == _EV_IGNORE:
                        tsc = item.tsc
                    elif ekind == _EV_FUP:
                        tsc = item.tsc
                        self._abandon("fup", tsc)
                    else:
                        tsc = getattr(item, "tsc", None)
                        if tsc is None:
                            tsc = getattr(item, "start_tsc", 0) or 0
                        self._on_packet_slow(item, tsc)
                elif tag == "loss":
                    tsc = getattr(item, "tsc", None)
                    if tsc is None:
                        tsc = getattr(item, "start_tsc", 0) or 0
                    self._on_loss(item)
                else:
                    tsc = getattr(item, "tsc", None)
                    if tsc is None:
                        tsc = getattr(item, "start_tsc", 0) or 0
                    self._note(
                        tsc,
                        AnomalyKind.MALFORMED_ITEM,
                        "unrecognised stream tag %r" % (tag,),
                    )
            except Exception as exc:  # no-crash contract: degrade instead
                self._note(
                    tsc,
                    AnomalyKind.DECODER_ERROR,
                    "decoder error: %r" % (exc,),
                )
            if budgeted and self._segment_anomalies >= limit:
                self._declare_synthetic_hole(tsc)
        return columns

    def finish(self):
        """End of stream: flush suspended state and publish metrics."""
        self._abandon("end of stream")
        self.stats.tnt_unused += len(self._bits) - self._cur
        self._publish_metrics()
        return self._columns

    # --------------------------------------------------------------- handlers
    def _on_packet_slow(self, packet, tsc: int) -> None:
        """Entries the class memo cannot classify (injected fakes, foreign
        objects): dispatch by ``isinstance`` in the memo's precedence
        order; anything no event base claims is a malformed item."""
        if isinstance(packet, TimeRef):
            return
        if isinstance(packet, ConditionalOutcomes):
            self._on_tnt(packet.bits, tsc)
            return
        if isinstance(packet, IndirectTarget):
            self.stats.tips += 1
            self._on_tip(packet.target, tsc)
            return
        if isinstance(packet, AsyncEvent):
            self._abandon("fup", tsc)
            return
        if isinstance(packet, (TraceEnable, TraceDisable)):
            return
        self._note(
            tsc, AnomalyKind.MALFORMED_ITEM, "unknown packet %r" % (packet,)
        )

    def _on_tnt(self, tnt_bits, tsc: int) -> None:
        stats = self.stats
        count = len(tnt_bits)
        stats.tnt_bits += count
        if self._desync:
            stats.tnt_discarded += count
            self._note(
                tsc,
                AnomalyKind.TNT_DISCARDED_DESYNC,
                "TNT bits discarded while resynchronising",
            )
            return
        if (
            self._post_loss
            and self._pending is None
            and self._walk is None
        ):
            stats.tnt_orphaned += count
            self._note(
                tsc, AnomalyKind.ORPHAN_TNT, "orphan TNT bits after loss"
            )
            return
        bits = self._bits
        if self._cur:
            del bits[: self._cur]
            self._cur = 0
        bits.extend(tnt_bits)
        if self._pending is not None and self._cur < len(bits):
            taken = bits[self._cur]
            self._cur += 1
            stats.tnt_consumed += 1
            ptsc, op = self._pending
            self._pending = None
            cols = self._columns
            cols.symbols.append(op)
            cols.takens.append(taken)
            cols.locations.append(None)
            cols.sources.append("interp")
            cols.tscs.append(ptsc)
        if self._walk is not None and self._cur < len(bits):
            span_tsc, address = self._walk
            self._walk = None
            self._run_walk(address, span_tsc, tsc)

    def _on_tip(self, target: int, tsc: int) -> None:
        if self._pending is not None:
            self._note(
                tsc,
                AnomalyKind.CONDITIONAL_WITHOUT_TNT,
                "conditional without TNT bit",
            )
            self._emit_pending()
        if self._walk is not None:
            self._note(
                tsc, AnomalyKind.WALK_ABANDONED, "walk abandoned by TIP"
            )
            self.stats.walks_abandoned += 1
            self._walk = None
        code, op = self.database.classify_target(target)
        if code == TARGET_TEMPLATE:
            self._post_loss = False
            self._desync = False
            cond = self._cond_op.get(op)
            if cond is None:
                cond = self.database.op_is_conditional(op)
                self._cond_op[op] = cond
            if cond and self._cur >= len(self._bits):
                self._pending = (tsc, op)
                return
            if cond:
                taken = self._bits[self._cur]
                self._cur += 1
                self.stats.tnt_consumed += 1
            else:
                taken = None
            cols = self._columns
            cols.symbols.append(op)
            cols.takens.append(taken)
            cols.locations.append(None)
            cols.sources.append("interp")
            cols.tscs.append(tsc)
            return
        if code == TARGET_STUB:
            # Return into the interpreter: re-anchors, lifts to nothing.
            self._post_loss = False
            self._desync = False
            return
        if code == TARGET_CODE:
            self._post_loss = False
            self._desync = False
            self._run_walk(target, tsc, tsc)
            return
        self._tip_unmapped(target, tsc)

    def _tip_unmapped(self, target: int, tsc: int) -> None:
        """Structurally invalid indirect target: note + resync protocol."""
        self._note(
            tsc,
            AnomalyKind.TIP_UNMAPPED,
            "TIP to unknown address 0x%x" % target,
        )
        if self.policy.resync:
            self._enter_desync()
        else:
            self._post_loss = False  # legacy behaviour: any TIP anchors

    def _enter_desync(self) -> None:
        self._desync = True
        self.stats.tnt_discarded += len(self._bits) - self._cur
        self._bits.clear()
        self._cur = 0

    def _on_loss(self, loss: LossSpan) -> None:
        stats = self.stats
        stats.losses += 1
        self._abandon("data loss", loss.start_tsc)
        stats.tnt_dropped_on_loss += len(self._bits) - self._cur
        self._bits.clear()
        self._cur = 0
        self._post_loss = True
        self._desync = False  # the hole itself is the new segmentation point
        self._segment_anomalies = 0
        self._segment_anomaly_start = None
        self._columns.add_hole(
            loss.start_tsc, loss.end_tsc, loss.bytes_lost, False
        )

    # ------------------------------------------------------------------- walk
    def _run_walk(self, address: int, span_tsc: int, tsc: int) -> None:
        """Walk compiled code from *address*, emitting lifted steps.

        *span_tsc* is the walk's start timestamp: lifted steps carry (and
        debug info resolves against) the time the walk started, even
        across starvation resumes, while *tsc* (the current packet's
        time) drives epoch selection and anomaly records.
        """
        database = self.database
        walk_block = database.walk_block
        lifter = self.lifter
        template_of = lifter.block_template
        resync = self.policy.resync
        cols = self._columns
        symbols = cols.symbols
        takens = cols.takens
        locations = cols.locations
        sources = cols.sources
        tscs = cols.tscs
        bits = self._bits
        avail = len(bits)
        cur = self._cur
        walked = 0
        consumed = 0
        stale = 0
        try:
            while True:
                if walked > MAX_WALK:
                    self._note(
                        tsc, AnomalyKind.WALK_BUDGET, "walk budget exceeded"
                    )
                    return
                block = walk_block(address)
                kind = block.kind
                count = len(block.addresses)
                if kind == BLOCK_EPOCH or walked + count > MAX_WALK:
                    # Per-instruction stepping: epoch-dependent address
                    # (needs the real tsc) or near the walk budget (needs
                    # the exact per-instruction boundary semantics).
                    mi = database.native_instruction_at(address, tsc)
                    if mi is None:
                        self._note(
                            tsc,
                            AnomalyKind.WALK_DESYNC,
                            "walk desynchronised at 0x%x" % address,
                        )
                        if resync:
                            self._cur = cur
                            self._enter_desync()
                            cur = self._cur
                        return
                    mikind = mi.kind
                    if mikind is MIKind.COND_BRANCH and cur >= avail:
                        # Starve: suspend until more outcome bits arrive.
                        # The branch address is re-visited on resume.
                        self._walk = (span_tsc, address)
                        return
                    step = lifter.lift_one(address, span_tsc)
                    if step is not None:
                        if step is LIFT_STALE:
                            stale += 1
                        else:
                            symbols.append(step[0])
                            takens.append(None)
                            locations.append(step[1])
                            sources.append("jit")
                            tscs.append(span_tsc)
                    walked += 1
                    if mikind is MIKind.OTHER:
                        address = mi.end
                    elif (
                        mikind is MIKind.JMP_DIRECT
                        or mikind is MIKind.CALL_DIRECT
                    ):
                        address = mi.target
                    elif mikind is MIKind.COND_BRANCH:
                        taken = bits[cur]
                        cur += 1
                        consumed += 1
                        address = mi.target if taken else mi.end
                    else:
                        # Indirect branch / return: awaits the next TIP.
                        return
                    continue
                if kind == BLOCK_COND:
                    if cur >= avail:
                        # Starve mid-block: emit everything before the
                        # conditional, suspend at the conditional itself.
                        template = template_of(block)
                        body = template.body_count
                        if body:
                            symbols += template.body_ops
                            takens += template.body_nones
                            locations += template.body_locs
                            sources += template.body_jits
                            tscs += (span_tsc,) * body
                        stale += template.body_stale
                        walked += count - 1
                        self._walk = (span_tsc, block.addresses[-1])
                        return
                    template = template_of(block)
                    if template.count:
                        symbols += template.ops
                        takens += template.nones
                        locations += template.locs
                        sources += template.jits
                        tscs += (span_tsc,) * template.count
                    stale += template.stale
                    walked += count
                    taken = bits[cur]
                    cur += 1
                    consumed += 1
                    address = block.taken_ip if taken else block.fall_ip
                    continue
                # END / CHAIN / UNKNOWN: the whole block executes first.
                template = template_of(block)
                if template.count:
                    symbols += template.ops
                    takens += template.nones
                    locations += template.locs
                    sources += template.jits
                    tscs += (span_tsc,) * template.count
                stale += template.stale
                walked += count
                if kind == BLOCK_END:
                    return
                if kind == BLOCK_CHAIN:
                    address = block.next_ip
                    continue
                # BLOCK_UNKNOWN: the walk desynchronises at next_ip.
                self._note(
                    tsc,
                    AnomalyKind.WALK_DESYNC,
                    "walk desynchronised at 0x%x" % block.next_ip,
                )
                if resync:
                    self._cur = cur
                    self._enter_desync()
                    cur = self._cur
                return
        finally:
            self._cur = cur
            stats = self.stats
            stats.walked_instructions += walked
            stats.tnt_consumed += consumed
            if stale:
                self._stale += stale

    # ---------------------------------------------------------------- cleanup
    def _emit_pending(self) -> None:
        """Emit the pending conditional with unknown outcome."""
        ptsc, op = self._pending
        self._pending = None
        cols = self._columns
        cols.symbols.append(op)
        cols.takens.append(None)
        cols.locations.append(None)
        cols.sources.append("interp")
        cols.tscs.append(ptsc)

    def _abandon(self, why: str, tsc: Optional[int] = None) -> None:
        if self._pending is not None:
            self._note(
                self._pending[0] if tsc is None else tsc,
                AnomalyKind.CONDITIONAL_WITHOUT_TNT,
                "conditional without TNT bit (%s)" % why,
            )
            self._emit_pending()
        if self._walk is not None:
            self.stats.walks_abandoned += 1
            self._walk = None

    def _note(self, tsc: int, kind: AnomalyKind, reason: str) -> None:
        stats = self.stats
        stats.anomalies += 1
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        if self._segment_anomaly_start is None:
            self._segment_anomaly_start = tsc
        self._segment_anomalies += 1
        self._columns.anomalies += 1

    def _declare_synthetic_hole(self, tsc: int) -> None:
        """Error budget: too many anomalies in one segment means the span
        cannot be trusted.  Flush pending state, drop the outcome
        backlog, and declare a synthetic hole from the segment's first
        anomaly to *tsc*; recovery treats it like a buffer-overflow
        hole."""
        start = self._segment_anomaly_start
        start = tsc if start is None else start
        self._segment_anomalies = 0
        self._segment_anomaly_start = None
        self.stats.synthetic_holes += 1
        self._abandon("error budget", tsc)
        self.stats.tnt_dropped_on_loss += len(self._bits) - self._cur
        self._bits.clear()
        self._cur = 0
        self._post_loss = True
        self._desync = False
        self._columns.add_hole(start, tsc, 0, True)

    # ---------------------------------------------------------------- metrics
    def _publish_metrics(self) -> None:
        if self.metrics is None:
            return
        stats = self.stats
        for name, value in (
            ("decode.packets", stats.packets),
            ("decode.tips", stats.tips),
            ("decode.tnt_bits", stats.tnt_bits),
            ("decode.losses", stats.losses),
            ("decode.anomalies", stats.anomalies),
            ("decode.walked_instructions", stats.walked_instructions),
            ("decode.synthetic_holes", stats.synthetic_holes),
            ("decode.walks_abandoned", stats.walks_abandoned),
            ("decode.tnt_consumed", stats.tnt_consumed),
            ("decode.tnt_orphaned", stats.tnt_orphaned),
            ("decode.tnt_discarded", stats.tnt_discarded),
            ("decode.tnt_dropped_on_loss", stats.tnt_dropped_on_loss),
            ("decode.tnt_unused", stats.tnt_unused),
        ):
            if value:
                self.metrics.incr(name, value, tid=self.tid)
        for kind, count in stats.by_kind.items():
            if count:
                self.metrics.incr(
                    "decode.anomaly.%s" % kind.value, count, tid=self.tid
                )
        if self._stale:
            self.metrics.incr(
                "lift.stale_debug_entries", self._stale, tid=self.tid
            )
