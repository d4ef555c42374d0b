"""Sequence abstractions (paper Definitions 4.2 and 5.2).

The recovery and reconstruction machinery views a trace at three tiers:

* **tier 1 -- call structure**: calls, returns, throws;
* **tier 2 -- control structure**: tier 1 plus conditional branches,
  unconditional jumps, and switches (this is exactly Definition 4.2);
* **tier 3 -- concrete**: every instruction.

``alpha_l`` (:func:`abstract_sequence`) keeps only tier <= l entries,
preserving order -- the subsequence property of Definition 5.2.  The
functions are generic over anything that exposes the executed opcode
(observed steps, reconstructed nodes, plain opcode lists) via a key
function.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from ..jvm.opcodes import Op, tier

T = TypeVar("T")

TIER_CALL = 1
TIER_CONTROL = 2
TIER_CONCRETE = 3


def abstract_sequence(
    sequence: Sequence[T],
    level: int,
    op_of: Callable[[T], Op],
) -> List[T]:
    """``alpha_l``: the subsequence of tier <= *level* entries.

    With ``level == 3`` this is the identity (every opcode has tier <= 3).
    """
    if level >= TIER_CONCRETE:
        return list(sequence)
    return [item for item in sequence if tier(op_of(item)) <= level]


def abstract_ops(ops: Sequence[Op], level: int) -> List[Op]:
    """:func:`abstract_sequence` specialised to plain opcode sequences."""
    return abstract_sequence(ops, level, lambda op: op)


def common_suffix_length(
    left: Sequence[T],
    right: Sequence[T],
    left_end: Optional[int] = None,
    right_end: Optional[int] = None,
    limit: Optional[int] = None,
) -> int:
    """Length of the longest common suffix of ``left[:left_end]`` and
    ``right[:right_end]``, capped at *limit*.

    This is the paper's matching operator ``|a . b|`` evaluated directly on
    already-aligned sequences (recovery compares an IS against a CS prefix
    "from their end instructions, in reverse order").  The end bounds let
    callers compare prefixes without copying them.

    Suffix equality is monotone in its length (a common suffix of length
    ``k`` contains every shorter one).  So after one comparison of the
    whole bounded suffix (a full match is the common case on repetitive
    flows), the length is found by galloping over doubling chunk sizes
    and then bisecting the last chunk.  Each step is one slice equality
    evaluated at C speed, so a match of length m costs O(log m) Python
    steps instead of m.
    """
    if left_end is None:
        left_end = len(left)
    if right_end is None:
        right_end = len(right)
    bound = min(left_end, right_end)
    if limit is not None and limit < bound:
        bound = limit
    if bound <= 0 or left[left_end - 1] != right[right_end - 1]:
        return 0
    # Matches that run to the bound are the common case in recovery's
    # repetitive flows: settle those with one comparison.
    if left[left_end - bound : left_end] == right[right_end - bound : right_end]:
        return bound
    # Invariant: a suffix of length `low` matches and one of length
    # `high` does not.  Each probe compares only the chunk between the
    # known match and the candidate length.
    low = 1
    high = bound
    step = 1
    while low + step < bound:
        probe = low + step
        if left[left_end - probe : left_end - low] != right[right_end - probe : right_end - low]:
            high = probe
            break
        low = probe
        step *= 2
    while high - low > 1:
        probe = (low + high) // 2
        if left[left_end - probe : left_end - low] == right[right_end - probe : right_end - low]:
            low = probe
        else:
            high = probe
    return low
