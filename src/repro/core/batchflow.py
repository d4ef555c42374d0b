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

A walk reads the trace only at conditional and indirect branches, so the
code between two of them always lifts to the same columns.
:class:`JitLifter` keeps what walks emitted as a *walk trie* per start
address: a node's edges are the outcome bits a walk consumes at its
conditional, and each node (a :class:`WalkNode`) holds the concatenated
columns, stale count and instructions walked from the root through its
straight-line code -- ``CHAIN`` blocks of
:meth:`repro.core.metadata.CodeDatabase.walk_block` merged -- plus the
same without its conditional (:attr:`WalkNode.body`), which is what a
walk that starves there emits.  The decoder
(:class:`repro.pt.decoder.PTBatchDecoder`) replays a walk with one root
lookup, one attribute hop per conditional and one extend per column.
Nodes are grown lazily, the first time a walk takes their edge.

Cache safety: a node is built only from ``walk_block`` blocks, which
exist only where every address has exactly one exported candidate dump,
so its instructions and debug records are the same at every timestamp.
An epoch-dependent address ends the node (``WALK_STEP``): the decoder
steps it per-instruction with the real timestamps and resumes the trie
after it; a walk into unexported code does the same and desynchronises
there.  :data:`MAX_TRIE_DEPTH` and :data:`MAX_TRIE_WALK` bound each
path: a walk that passes either goes on from a fresh root at the node's
``next_ip`` (``WALK_CUT``).  One descent grows at most
``MAX_TRIE_DEPTH + 1`` nodes, each holding two copies (path and body) of
columns the descent itself emits, so the trie stays within a constant
multiple of the columns it has emitted.

A lifter instance is stateless across decodes (the trie and the
location-resolution memo are pure caches), so one instance is shared by
every thread chain analysing the same (program, database) pair.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

from ..jvm.model import JProgram
from ..tracesource.engine import (
    LIFT_STALE,
    WALK_BRANCH,
    WALK_CUT,
    WALK_END,
    WALK_STEP,
)
from .metadata import MAX_BLOCK, CodeDatabase, WalkBlock

#: Memo value for a location whose bytecode no longer resolves.
_STALE: Optional[object] = None

#: Conditionals one walk-trie path resolves below its root.
MAX_TRIE_DEPTH = 16
#: Machine instructions one walk-trie path walks from its root.  At
#: least one block, so every root holds its first block.
MAX_TRIE_WALK = 8 * MAX_BLOCK


class LiftedPath:
    """The columns a walk emits along one trie path, from its root.

    ``ops``/``locs`` are parallel step columns, ``nones`` the matching
    ``taken=None`` column pre-sized for one ``list += tuple`` emission;
    ``stale`` counts debug records that no longer resolve (re-counted on
    every traversal, so the stale counter counts executions, not
    records) and ``walked`` the machine instructions walked.
    """

    __slots__ = ("ops", "locs", "nones", "count", "stale", "walked")

    def __init__(self, ops: tuple, locs: tuple, stale: int, walked: int):
        self.ops = ops
        self.locs = locs
        self.count = len(ops)
        self.nones = (None,) * self.count
        self.stale = stale
        self.walked = walked


class WalkNode(LiftedPath):
    """One walk-trie node: a :class:`LiftedPath` through its code, and
    how the walk goes on after it (``exit``, a ``WALK_*`` code):

    * ``WALK_BRANCH`` -- at the conditional at ``branch_ip``: one outcome
      bit picks ``on_taken`` (to ``taken_ip``) or ``on_fall`` (to
      ``fall_ip``), grown on first use; a walk without a bit emits
      ``body``, the path without the conditional, and suspends at
      ``branch_ip``;
    * ``WALK_END`` -- an indirect branch or return: the walk stops;
    * ``WALK_CUT`` -- a path bound: the walk goes on at ``next_ip`` from
      that address's root;
    * ``WALK_STEP`` -- ``next_ip`` is epoch-dependent or unexported: the
      decoder steps it per-instruction.

    ``body`` is what a walk that stops at the node emits, so on the
    three other exits it is the node itself.
    """

    __slots__ = (
        "exit",
        "depth",
        "body",
        "branch_ip",
        "taken_ip",
        "fall_ip",
        "next_ip",
        "on_taken",
        "on_fall",
    )

    def __init__(self, ops, locs, stale, walked, exit: int, depth: int):
        super().__init__(ops, locs, stale, walked)
        self.exit = exit
        self.depth = depth
        self.body = self
        self.branch_ip = self.taken_ip = self.fall_ip = self.next_ip = -1
        self.on_taken = self.on_fall = None


_EMPTY = LiftedPath((), (), 0, 0)


class JitLifter:
    """Per-(program, database) walk trie and location memo."""

    def __init__(self, database: CodeDatabase, program: JProgram):
        # Held weakly: profilers cache lifters in a WeakKeyDictionary
        # keyed by the database, and a strong reference from the value
        # would keep every key -- and its lifter -- alive forever.
        self._database = weakref.ref(database)
        self.program = program
        #: Start address -> walk-trie root (see :meth:`walk_root`).  The
        #: trie is a monotone memo over immutable inputs, like the
        #: database's block cache, so a racing fill from the stream
        #: supervisor's poll pool is benign: both threads build equal
        #: nodes and the last link wins.
        self.walk_roots: Dict[int, WalkNode] = {}
        # (qname, bci) -> Op, or None when the record is stale (the
        # method no longer resolves / the bci runs off the bytecode).
        self._location_ops: Dict[Tuple[str, int], Optional[object]] = {}

    @property
    def database(self) -> CodeDatabase:
        return self._database()

    # ------------------------------------------------------------- walk trie
    def walk_root(self, address: int) -> WalkNode:
        """Grow and record the root for walks starting at *address*."""
        node = self.walk_roots[address] = self._grow(address, _EMPTY, 0)
        return node

    def walk_child(self, node: WalkNode, taken) -> WalkNode:
        """Grow and link *node*'s child for outcome bit *taken*."""
        depth = node.depth + 1
        if taken:
            child = node.on_taken = self._grow(node.taken_ip, node, depth)
        else:
            child = node.on_fall = self._grow(node.fall_ip, node, depth)
        return child

    def _grow(self, address: int, base: LiftedPath, depth: int) -> WalkNode:
        """The node walking on from *address* after the path *base*:
        ``walk_block`` blocks merged across ``CHAIN`` ends until a
        conditional, an indirect branch, an epoch-dependent or unexported
        address, or a path bound."""
        ops, locs = list(base.ops), list(base.locs)
        stale, walked = base.stale, base.walked
        body = None
        exit = WALK_CUT
        if depth <= MAX_TRIE_DEPTH:
            walk_block = self.database.walk_block
            while True:
                block = walk_block(address)
                kind = block.kind
                if kind == WalkBlock.EPOCH:
                    exit = WALK_STEP
                    break
                addresses = block.addresses
                if walked + len(addresses) > MAX_TRIE_WALK:
                    break
                walked += len(addresses)
                if kind == WalkBlock.COND:
                    stale += self._lift_into(addresses[:-1], ops, locs)
                    body = LiftedPath(tuple(ops), tuple(locs), stale, walked - 1)
                    stale += self._lift_into(addresses[-1:], ops, locs)
                    exit = WALK_BRANCH
                    break
                stale += self._lift_into(addresses, ops, locs)
                address = block.next_ip
                if kind == WalkBlock.END:
                    exit = WALK_END
                    break
                if kind == WalkBlock.UNKNOWN:
                    exit = WALK_STEP
                    break
                # CHAIN: the straight-line code goes on at next_ip.
        node = WalkNode(tuple(ops), tuple(locs), stale, walked, exit, depth)
        if body is not None:
            node.body = body
            node.branch_ip = addresses[-1]
            node.taken_ip = block.taken_ip
            node.fall_ip = block.fall_ip
        else:
            node.next_ip = address
        return node

    def _lift_into(self, addresses, ops: list, locs: list) -> int:
        """Append *addresses*' lifted steps to the columns; returns the
        stale records met."""
        stale = 0
        for address in addresses:
            step = self.lift_one(address, None)
            if step is None:
                continue
            if step is LIFT_STALE:
                stale += 1
            else:
                ops.append(step[0])
                locs.append(step[1])
        return stale

    # ----------------------------------------------------- per-address path
    def lift_one(self, address: int, tsc: Optional[int]):
        """Lift a single address at *tsc* (``None`` for an address with
        one exported candidate, whose record is the same at every time).

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
