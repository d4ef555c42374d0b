"""The observed bytecode-level trace: what decoding yields before projection.

Decoding (Section 3) turns a hardware trace into a sequence of *observed*
bytecode instructions.  Crucially, the two execution modes reveal
different amounts of information:

* **interpreted** code reveals which template ran -- the opcode (plus the
  TNT outcome for conditionals) but *not* the bytecode position;
* **JITed** code reveals the exact ``(method, bci)`` via debug info.

The decoder writes both kinds of step into the parallel columns of an
:class:`ObservedColumns`, with data-loss holes (:class:`ObservedHole`)
kept out of band.  Reconstruction (Section 4) then projects each
hole-free run of steps onto the ICFG, using JIT-known locations as
anchors, and recovery (Section 5) fills the holes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..jvm.opcodes import Op


@dataclass(slots=True)
class ObservedStep:
    """One observed executed bytecode instruction.

    Attributes:
        symbol: The opcode observed (template identity / machine semantics).
        taken: Conditional outcome, when known (TNT bit).
        location: ``(method_qname, bci)`` when known (JIT debug info),
            ``None`` for interpreted steps.
        source: ``"interp"`` or ``"jit"``.
        tsc: Timestamp.
    """

    symbol: Op
    taken: Optional[bool]
    location: Optional[Tuple[str, int]]
    source: str
    tsc: int


@dataclass(slots=True)
class ObservedHole:
    """A data-loss hole between observed steps (the paper's diamond).

    ``synthetic=True`` marks a hole declared by the decoder's error
    budget (no bytes physically lost; the span was untrustworthy) --
    recovery treats it exactly like an overflow hole.
    """

    start_tsc: int
    end_tsc: int
    bytes_lost: int = 0
    synthetic: bool = False

    @property
    def duration(self) -> int:
        return max(0, self.end_tsc - self.start_tsc)


ObservedItem = Union[ObservedStep, ObservedHole]


class ObservedColumns:
    """One thread's observed trace as columns: the decoder's output.

    The decode->project hot path never needs one object per observed
    step; it needs the step *columns*.  ``symbols``/``takens``/
    ``locations``/``sources``/``tscs`` are parallel lists (position ``i``
    across all five is step ``i``), holes are kept out-of-band as
    ``(position, hole)`` pairs where ``position`` is the number of steps
    emitted before the hole, and anomalies are a count.
    :meth:`segment_ranges` cuts the columns into the hole-free runs that
    projection consumes.

    ``items`` (steps interleaved with holes) and :meth:`steps` are object
    views for consumers downstream of the pipeline (profiling clients,
    benchmarks).  ``items`` materialises real :class:`ObservedStep`
    objects lazily, exactly once: the view is paid for only when asked
    for, never inside the timed decode phase.
    """

    __slots__ = (
        "tid",
        "symbols",
        "takens",
        "locations",
        "sources",
        "tscs",
        "hole_positions",
        "_holes",
        "anomalies",
        "_items",
    )

    def __init__(self, tid: int):
        self.tid = tid
        self.symbols: List[Op] = []
        self.takens: List[Optional[bool]] = []
        self.locations: List[Optional[Tuple[str, int]]] = []
        self.sources: List[str] = []
        self.tscs: List[int] = []
        self.hole_positions: List[int] = []
        self._holes: List[ObservedHole] = []
        self.anomalies = 0
        self._items: Optional[List[ObservedItem]] = None

    # ------------------------------------------------------------- emission
    def add_hole(
        self, start_tsc: int, end_tsc: int, bytes_lost: int, synthetic: bool
    ) -> None:
        """Record a hole after the steps emitted so far (decoder callback)."""
        self.hole_positions.append(len(self.symbols))
        self._holes.append(
            ObservedHole(
                start_tsc=start_tsc,
                end_tsc=end_tsc,
                bytes_lost=bytes_lost,
                synthetic=synthetic,
            )
        )
        self._items = None

    def step_count(self) -> int:
        return len(self.symbols)

    def segment_ranges(self) -> List[Tuple[int, int]]:
        """Maximal hole-free ``[lo, hi)`` column ranges, in order; a run
        between two adjacent holes (or at either end) is empty and
        dropped."""
        result: List[Tuple[int, int]] = []
        previous = 0
        for position in self.hole_positions:
            if position > previous:
                result.append((previous, position))
            previous = position
        count = len(self.symbols)
        if count > previous:
            result.append((previous, count))
        return result

    # ----------------------------------------------------------- object views
    @property
    def items(self) -> List[ObservedItem]:
        cached = self._items
        if cached is None:
            cached = []
            hole_at = 0
            positions = self.hole_positions
            holes = self._holes
            hole_count = len(holes)
            for index in range(len(self.symbols)):
                while hole_at < hole_count and positions[hole_at] <= index:
                    cached.append(holes[hole_at])
                    hole_at += 1
                cached.append(
                    ObservedStep(
                        self.symbols[index],
                        self.takens[index],
                        self.locations[index],
                        self.sources[index],
                        self.tscs[index],
                    )
                )
            while hole_at < hole_count:
                cached.append(holes[hole_at])
                hole_at += 1
            self._items = cached
        return cached

    def steps(self) -> List[ObservedStep]:
        return [item for item in self.items if isinstance(item, ObservedStep)]

    def holes(self) -> List[ObservedHole]:
        return list(self._holes)

    def __eq__(self, other) -> bool:
        """Value equality over the observed content (the serial/parallel
        bit-identity tests compare flows through it)."""
        if not isinstance(other, ObservedColumns):
            return NotImplemented
        return (
            self.tid == other.tid
            and self.anomalies == other.anomalies
            and self.symbols == other.symbols
            and self.takens == other.takens
            and self.locations == other.locations
            and self.sources == other.sources
            and self.tscs == other.tscs
            and self.hole_positions == other.hole_positions
            and self._holes == other._holes
        )

    __hash__ = None  # mutable container

