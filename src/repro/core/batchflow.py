"""JIT-mode bytecode lifting for the fused decoder (paper Section 3.2).

A compiled-code walk yields the machine instruction addresses executed
inside compiled code (Figure 3(d)).  The compiler's debug info maps each
address that implements a bytecode to its ``(method, bci)`` -- with
inline frames for inlined code, whose innermost entry is the executing
location (Section 6, "Dealing with Inlined Code").  Synthetic
instructions (prologues, layout jumps) carry no debug record and are
skipped, exactly as a real decoder skips PCs without a scope descriptor;
so are negative-bci markers.  A debug record that no longer *resolves*
-- the method name does not parse, the program has no such method, the
bci runs off the end of the bytecode -- is a stale-export symptom (code
reclaimed before its metadata was flushed): the instruction is skipped
and counted under ``lift.stale_debug_entries`` rather than crashing the
lift.

:class:`repro.pt.decoder.PTBatchDecoder` walks compiled code
block-at-a-time through :meth:`repro.core.metadata.CodeDatabase.walk_block`
and needs each block's *lifted* form -- the observed-step columns its
addresses contribute.  :class:`JitLifter` supplies that as a cached
:class:`BlockTemplate` per block, so after the first traversal a
block's per-address ``debug_frames_at`` + method-resolution work is a
handful of tuple concatenations.

Cache safety: a block only exists when every address in it has exactly
one exported candidate dump (see ``walk_block``), which makes both the
debug lookup and the bytecode resolution independent of the timestamp --
one template is valid for every traversal.  Epoch-dependent addresses
never reach :meth:`JitLifter.block_template`; the decoder resolves them
through :meth:`JitLifter.lift_one` with the real span timestamp.

A lifter instance is stateless across decodes (templates and the
location-resolution memo are pure caches), so one instance is shared by
every thread chain analysing the same (program, database) pair.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from ..jvm.model import JProgram
from ..pt.decoder import LIFT_STALE
from .metadata import CodeDatabase, WalkBlock

#: Memo value for a location whose bytecode no longer resolves.
_STALE: Optional[object] = None


class BlockTemplate:
    """The lifted columns of one :class:`~repro.core.metadata.WalkBlock`.

    ``ops``/``locs`` are the step columns the whole block contributes
    (parallel tuples), with ``nones`` the matching constant column
    (``taken=None``) pre-sized for one ``list += tuple`` emission.  The
    ``body_*`` family excludes the *last* address's contribution -- what
    a TNT-starved walk emits before suspending at the block's
    conditional.  ``stale``/``body_stale`` count debug records that no
    longer resolve (re-counted on every traversal, so the stale counter
    counts executions, not records).
    """

    __slots__ = (
        "ops",
        "locs",
        "nones",
        "count",
        "stale",
        "body_ops",
        "body_locs",
        "body_nones",
        "body_count",
        "body_stale",
    )

    def __init__(
        self,
        ops: Tuple[object, ...],
        locs: Tuple[Tuple[str, int], ...],
        stale: int,
        body_count: int,
        body_stale: int,
    ):
        self.ops = ops
        self.locs = locs
        self.count = len(ops)
        self.nones = (None,) * self.count
        self.stale = stale
        self.body_ops = ops[:body_count]
        self.body_locs = locs[:body_count]
        self.body_nones = (None,) * body_count
        self.body_count = body_count
        self.body_stale = body_stale


class JitLifter:
    """Per-(program, database) cache of block lift templates."""

    def __init__(self, database: CodeDatabase, program: JProgram):
        # Held weakly: profilers cache lifters in a WeakKeyDictionary
        # keyed by the database, and a strong reference from the value
        # would keep every key -- and its lifter -- alive forever.
        self._database = weakref.ref(database)
        self.program = program
        self._templates: Dict[int, BlockTemplate] = {}
        # (qname, bci) -> Op, or None when the record is stale (the
        # method no longer resolves / the bci runs off the bytecode).
        self._location_ops: Dict[Tuple[str, int], Optional[object]] = {}

    @property
    def database(self) -> CodeDatabase:
        return self._database()

    # ------------------------------------------------------------ block path
    def block_template(self, block: WalkBlock) -> BlockTemplate:
        template = self._templates.get(block.bid)
        if template is None:
            template = self._build(block)
            self._templates[block.bid] = template
        return template

    def _build(self, block: WalkBlock) -> BlockTemplate:
        ops: List[object] = []
        locs: List[Tuple[str, int]] = []
        stale = 0
        body_count = 0
        body_stale = 0
        addresses = block.addresses
        last = len(addresses) - 1
        debug_frames_at = self.database.debug_frames_at
        resolve = self._resolve
        for index, address in enumerate(addresses):
            if index == last:
                body_count = len(ops)
                body_stale = stale
            frames = debug_frames_at(address, None)
            if not frames:
                continue  # synthetic instruction: no debug record
            location = frames[-1]
            if location[1] < 0:
                continue  # prologue/epilogue marker
            op = resolve(location)
            if op is None:
                stale += 1
                continue
            ops.append(op)
            locs.append(location)
        return BlockTemplate(tuple(ops), tuple(locs), stale, body_count, body_stale)

    # ----------------------------------------------------- per-address path
    def lift_one(self, address: int, tsc: int):
        """Lift a single epoch-dependent address at *tsc*.

        Returns ``(op, location)``, ``None`` for a silent (synthetic /
        negative-bci) address, or :data:`~repro.pt.decoder.LIFT_STALE`
        for a record that no longer resolves.
        """
        frames = self._database().debug_frames_at(address, tsc)
        if not frames:
            return None
        location = frames[-1]
        if location[1] < 0:
            return None
        op = self._resolve(location)
        if op is None:
            return LIFT_STALE
        return (op, location)

    def _resolve(self, location: Tuple[str, int]) -> Optional[object]:
        memo = self._location_ops
        if location in memo:
            return memo[location]
        qname, bci = location
        try:
            class_name, method_name = qname.rsplit(".", 1)
            op = self.program.method(class_name, method_name).code[bci].op
        except Exception:
            op = _STALE
        memo[location] = op
        return op
