"""Machine-code metadata collection and the offline code database.

JPortal's online component exports (Section 3 and Section 6):

* the template interpreter's per-opcode address ranges (collected at JVM
  initialisation);
* every JIT-compiled method's machine code and address range (exported
  before GC can reclaim it), together with the compiler's debug info
  mapping machine PCs to bytecode locations (with inline frames).

:func:`collect_metadata` performs that export from a finished run, and
:class:`CodeDatabase` is the offline index the decoder and the bytecode
mappers query.  The database is built **only** from exported artefacts --
instruction kinds/sizes/targets and debug records -- never from the
runtime's private semantic maps, preserving the paper's information
boundary (the decoder must genuinely reconstruct, not peek).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..jvm.machine import AddressSpace, MachineInstruction, MIKind
from ..jvm.opcodes import Kind, MNEMONICS, Op, info
from ..jvm.runtime import RunResult
from ..pt.decoder import (
    TARGET_CODE,
    TARGET_STUB,
    TARGET_TEMPLATE,
    TARGET_UNKNOWN,
)

#: Straight-line cap on one cached walk block (loop/runaway guard: a
#: direct-jump cycle inside compiled code must still terminate the block
#: builder; the lifter's walk trie chains blocks, so the cap only bounds
#: cache granularity, never the walk itself).
MAX_BLOCK = 512


@dataclass(frozen=True)
class WalkBlock:
    """One cached straight-line run through compiled code.

    ``addresses`` are the executed instruction addresses of the run, in
    order.  ``kind`` says how it ends:

    * ``COND`` -- the last address is a conditional branch: consume one
      TNT bit, continue at ``taken_ip`` (taken) or ``fall_ip`` (not);
    * ``END`` -- the last address is an indirect branch/return: the walk
      stops and awaits the next TIP;
    * ``CHAIN`` -- the run was cut short (block cap, or the next address
      is epoch-dependent): continue walking at ``next_ip``;
    * ``UNKNOWN`` -- ``next_ip`` maps to no exported instruction: the
      walk desynchronises there (``addresses`` may be empty);
    * ``EPOCH`` -- the *starting* address has multiple exported
      candidates (code-cache reuse across GC epochs): nothing can be
      cached; the decoder steps it per-instruction with the real ``tsc``.

    Blocks are built only across addresses with exactly one exported
    candidate instruction, so one block is valid for every timestamp --
    epoch-dependent (reused) addresses force a ``CHAIN`` cut and are
    stepped per-instruction by the decoder with the real ``tsc``.
    """

    COND, END, CHAIN, UNKNOWN, EPOCH = range(5)

    addresses: Tuple[int, ...]
    kind: int
    taken_ip: int = -1
    fall_ip: int = -1
    next_ip: int = -1


@dataclass
class CodeDump:
    """One exported compiled-code blob.

    ``debug`` maps each instruction address to its debug frame stack:
    ``((caller_qname, call_bci), ..., (qname, bci))`` -- innermost last,
    exactly the paper's Figure 3(b) with inline frames.
    """

    qname: str
    entry: int
    limit: int
    instructions: List[MachineInstruction]
    debug: Dict[int, Tuple[Tuple[str, int], ...]]
    load_tsc: int
    unload_tsc: Optional[int]
    #: Number of debug records at export time; an integrity field the
    #: lint pass checks against ``len(debug)`` to catch truncation.
    declared_debug_count: Optional[int] = None

    def alive_at(self, tsc: Optional[int]) -> bool:
        if tsc is None:
            return self.unload_tsc is None
        if tsc < self.load_tsc:
            return False
        return self.unload_tsc is None or tsc < self.unload_tsc

    @property
    def identity(self) -> Tuple[str, int, int]:
        """Stable key for one exported blob: a method recompiled (or its
        address reused after GC) gets a new ``load_tsc``, so the triple
        distinguishes every export event.  The archive layer dedups the
        metadata snapshot against the incremental journal with it."""
        return (self.qname, self.entry, self.load_tsc)


def collect_metadata(run: RunResult) -> "CodeDatabase":
    """Export the machine-code metadata of a finished run."""
    template_metadata = run.template_table.metadata()
    dumps: List[CodeDump] = []
    for code in run.code_cache.all_code():
        dumps.append(
            CodeDump(
                qname=code.method.qualified_name,
                entry=code.entry,
                limit=code.limit,
                instructions=list(code.instructions),
                debug=dict(code.debug),
                load_tsc=code.load_tsc,
                unload_tsc=code.unload_tsc,
                declared_debug_count=len(code.debug),
            )
        )
    return CodeDatabase(template_metadata, dumps, run.address_space)


class CodeDatabase:
    """Offline index over exported machine-code metadata.

    Implements the code-database protocol of the decode engine
    (:mod:`repro.tracesource.engine`: ``classify_target``,
    ``op_is_conditional``, ``native_instruction_at``), plus the block
    and debug-info queries of the JIT-mode lifter
    (:class:`repro.core.batchflow.JitLifter`: ``walk_block``,
    ``debug_frames_at``).
    """

    def __init__(
        self,
        template_metadata: Dict[str, Tuple[Tuple[int, int], ...]],
        code_dumps: List[CodeDump],
        address_space: AddressSpace,
    ):
        self.address_space = address_space
        self.code_dumps = list(code_dumps)
        self.template_metadata = dict(template_metadata)
        # Template interval index: mnemonic ranges -> Op.
        self._template_intervals: List[Tuple[int, int, Optional[Op]]] = []
        self._return_stub: Tuple[int, int] = (0, 0)
        for mnemonic, ranges in template_metadata.items():
            if mnemonic == "<return-stub>":
                self._return_stub = ranges[0]
                continue
            op = MNEMONICS[mnemonic]
            for start, end in ranges:
                self._template_intervals.append((start, end, op))
        self._template_intervals.sort()
        self._template_starts = [iv[0] for iv in self._template_intervals]
        # Compiled-code indices.  Address reuse across GC reclamation is
        # resolved by timestamp (a dump is consulted only while alive).
        self._dumps_sorted = sorted(self.code_dumps, key=lambda d: (d.entry, d.load_tsc))
        self._dump_starts = [dump.entry for dump in self._dumps_sorted]
        self._mi_index: Dict[int, List[Tuple[CodeDump, MachineInstruction]]] = {}
        for dump in self._dumps_sorted:
            for mi in dump.instructions:
                self._mi_index.setdefault(mi.address, []).append((dump, mi))
        # Batch-decoder caches (filled lazily; see the array decode core
        # section of DESIGN.md).  Both are monotone memo tables over
        # immutable inputs, so a racing fill is benign (worst case: the
        # same entry computed twice).  Tenant polls on the stream
        # supervisor's pool are the only code that decodes off the
        # caller's thread.
        self._target_class: Dict[int, Tuple[int, Optional[Op]]] = {}
        self._blocks: Dict[int, WalkBlock] = {}

    # -------------------------------------------------- decoder protocol
    def template_op_at(self, ip: int) -> Optional[Op]:
        position = bisect_right(self._template_starts, ip) - 1
        if position < 0:
            return None
        start, end, op = self._template_intervals[position]
        if start <= ip < end:
            return op
        return None

    @staticmethod
    def op_is_conditional(op: Op) -> bool:
        return info(op).kind is Kind.COND

    def is_return_stub(self, ip: int) -> bool:
        start, end = self._return_stub
        return start <= ip < end

    def in_code_cache(self, ip: int) -> bool:
        return self.address_space.in_code_cache(ip)

    def native_instruction_at(
        self, ip: int, tsc: Optional[int] = None
    ) -> Optional[MachineInstruction]:
        candidates = self._mi_index.get(ip)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0][1]
        for dump, mi in candidates:
            if dump.alive_at(tsc):
                return mi
        return candidates[-1][1]

    def classify_target(self, ip: int) -> Tuple[int, Optional[Op]]:
        """Memoized TIP-target classification: ``(class, template_op)``.

        Classes are tested in order: return stub, then template, then
        code cache, else unmapped.  The mapping is a pure function of
        the immutable metadata, hence safe to memoize for the lifetime
        of the database.
        """
        hit = self._target_class.get(ip)
        if hit is None:
            if self.is_return_stub(ip):
                hit = (TARGET_STUB, None)
            else:
                op = self.template_op_at(ip)
                if op is not None:
                    hit = (TARGET_TEMPLATE, op)
                elif self.in_code_cache(ip):
                    hit = (TARGET_CODE, None)
                else:
                    hit = (TARGET_UNKNOWN, None)
            self._target_class[ip] = hit
        return hit

    def walk_block(self, address: int) -> WalkBlock:
        """The cached straight-line :class:`WalkBlock` starting at *address*.

        The JIT-mode lifter (:class:`repro.core.batchflow.JitLifter`)
        grows its walk trie from these blocks instead of one
        ``native_instruction_at`` call per instruction -- the same
        basic-block caching real PT decoders use.  Addresses with more
        than one exported candidate (code-cache reuse across GC epochs)
        are never folded into a block: they surface as an ``EPOCH``
        block so the decoder can resolve them per-instruction with the
        real timestamp.
        """
        block = self._blocks.get(address)
        if block is None:
            block = self._build_block(address)
            self._blocks[address] = block
        return block

    def _build_block(self, start: int) -> WalkBlock:
        addresses: List[int] = []
        address = start
        mi_index = self._mi_index
        while True:
            candidates = mi_index.get(address)
            if not candidates:
                return WalkBlock(tuple(addresses), WalkBlock.UNKNOWN, next_ip=address)
            if len(candidates) != 1:
                if not addresses:
                    return WalkBlock((), WalkBlock.EPOCH, next_ip=address)
                return WalkBlock(tuple(addresses), WalkBlock.CHAIN, next_ip=address)
            mi = candidates[0][1]
            kind = mi.kind
            addresses.append(address)
            if kind is MIKind.OTHER:
                address = mi.end
            elif kind is MIKind.JMP_DIRECT or kind is MIKind.CALL_DIRECT:
                address = mi.target
            elif kind is MIKind.COND_BRANCH:
                return WalkBlock(
                    tuple(addresses),
                    WalkBlock.COND,
                    taken_ip=mi.target,
                    fall_ip=mi.end,
                )
            else:
                # Indirect branch / return: awaits the next TIP.
                return WalkBlock(tuple(addresses), WalkBlock.END)
            if len(addresses) >= MAX_BLOCK:
                return WalkBlock(tuple(addresses), WalkBlock.CHAIN, next_ip=address)

    # ------------------------------------------------ debug-info queries
    def dump_at(self, ip: int, tsc: Optional[int] = None) -> Optional[CodeDump]:
        position = bisect_right(self._dump_starts, ip) - 1
        while position >= 0:
            dump = self._dumps_sorted[position]
            if dump.entry <= ip < dump.limit and dump.alive_at(tsc):
                return dump
            position -= 1
        return None

    def debug_frames_at(
        self, ip: int, tsc: Optional[int] = None
    ) -> Optional[Tuple[Tuple[str, int], ...]]:
        """Debug frame stack for the instruction at *ip* (innermost last)."""
        candidates = self._mi_index.get(ip)
        if not candidates:
            return None
        for dump, _mi in candidates:
            if dump.alive_at(tsc):
                return dump.debug.get(ip)
        dump, _mi = candidates[-1]
        return dump.debug.get(ip)

    def with_dumps(self, extra_dumps: List[CodeDump]) -> "CodeDatabase":
        """A new database with *extra_dumps* merged in (deduplicated by
        :attr:`CodeDump.identity`, ordered by load time).

        This is how an archive's metadata snapshot and its incremental
        ``CodeDump`` journal combine: the snapshot carries everything
        exported before it was taken, the journal carries the dumps the
        online side appended afterwards (before GC could reclaim them),
        and replayed journal entries collapse onto the snapshot copy.
        """
        merged: Dict[Tuple[str, int, int], CodeDump] = {
            dump.identity: dump for dump in self.code_dumps
        }
        for dump in extra_dumps:
            merged.setdefault(dump.identity, dump)
        dumps = sorted(merged.values(), key=lambda d: (d.load_tsc, d.entry))
        return CodeDatabase(self.template_metadata, dumps, self.address_space)

    def compiled_method_count(self) -> int:
        return len({dump.qname for dump in self.code_dumps})

    def metadata_bytes(self) -> int:
        """Approximate exported-metadata volume (for overhead accounting)."""
        total = 64 * len(self._template_intervals)
        for dump in self.code_dumps:
            total += (dump.limit - dump.entry) + 16 * len(dump.debug)
        return total
