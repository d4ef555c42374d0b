"""Abstraction-guided recovery of missing trace data (paper Section 5).

A hole (buffer overflow) splits a thread's reconstructed flow into
segments.  For each hole, the segment before it is the *incomplete
segment* (IS); recovery searches all segments for a *complete segment*
(CS) whose context matches the IS and borrows the CS's continuation to
fill the hole (Definition 5.1, Figure 6):

1. the last ``x`` instructions before the hole are the **anchor**; an
   inverted n-gram index finds every other occurrence of the anchor
   cheaply.  Only anchors some hole asks for are indexed, and a thread
   with no holes builds nothing at all;
2. candidates are compared to the IS by the length of the common suffix
   of their prefixes -- evaluated **tier by tier** (call structure ->
   control structure -> concrete, Definition 5.2), with the early exits
   that Theorem 5.5 licenses: a candidate whose tier-l common suffix is
   already shorter than the best-so-far cannot win concretely
   (Algorithm 4); :func:`basic_search` is the non-abstracted Algorithm 3
   baseline.  The engine compares *code strings* -- one character per
   entry, from a table built once per engine -- so each exit is decided
   by a length bound or one C-level string compare of the best-so-far
   length, and only surviving candidates get an exact length from
   :func:`~repro.core.abstraction.common_suffix_length`;
3. the top-N candidates are tried in rank order: instructions following
   the anchor in the CS are copied into the hole until ``y`` consecutive
   instructions match the IS's post-hole continuation; a timestamp budget
   (hole duration / cost hint) bounds the copy, and exhausted candidates
   yield to the next (Section 5, "Recovery");
4. if no CS fills the hole, an ICFG walk connects the pre- and post-hole
   instructions (the paper's random-path fallback, made deterministic).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..jvm.icfg import ICFG
from ..jvm.opcodes import tier
from .abstraction import common_suffix_length
from .observed import ObservedHole

Node = Tuple[str, int]
Entry = Optional[Node]  # a reconstructed step (None if projection failed)

#: The code of ``None`` in a segment's code string (see :class:`_Codes`).
_NONE_CODE = "\0"


@dataclass
class RecoveryConfig:
    """Recovery tuning (the paper's x, y, N and time-budget knobs)."""

    anchor_length: int = 3  # x
    post_match_length: int = 4  # y
    top_n: int = 5
    max_fill: int = 50_000
    # Conversion from hole duration (TSC units) to an instruction budget;
    # the runtime's compiled-step cost is the optimistic bound.
    cost_per_instruction: float = 1.0
    budget_slack: float = 2.0
    fallback_max_depth: int = 64
    # Efficiency valves: hot loops produce thousands of occurrences of the
    # same anchor, and candidate prefixes can be arbitrarily long; cap the
    # candidates ranked per hole (most recent first -- temporal locality)
    # and the per-tier suffix comparison depth.
    max_candidates: int = 200
    max_suffix_compare: int = 2_048


@dataclass
class RecoveryStats:
    holes: int = 0
    #: Holes declared by the decoder's error budget rather than a ring
    #: overflow; filled through the same CS/fallback machinery.
    synthetic_holes: int = 0
    filled_from_cs: int = 0
    filled_fallback: int = 0
    unfilled: int = 0
    #: Occurrences of *wanted* anchors indexed -- the anchors of the
    #: holes this run fills, not every ``x``-window of every segment.
    candidates_indexed: int = 0
    candidates_tested: int = 0
    tier1_pruned: int = 0
    tier2_pruned: int = 0
    recovered_instructions: int = 0


@dataclass
class RecoveredFlow:
    """A thread's final flow: (entry, provenance) pairs.

    Provenance is ``"decoded"`` for directly reconstructed entries,
    ``"recovered"`` for CS-borrowed fills, ``"fallback"`` for ICFG-walk
    fills.
    """

    entries: List[Tuple[Entry, str]]
    stats: RecoveryStats

    def nodes(self) -> List[Entry]:
        return [entry for entry, _provenance in self.entries]

    def decoded_nodes(self) -> List[Entry]:
        return [e for e, p in self.entries if p == "decoded"]


class _Codes(dict):
    """entry -> its one-character code in a segment's code string.

    The engine's table (a plain dict built at construction) maps
    ``None`` to ``"\\0"`` and every ICFG node to a character of its own,
    so two code strings hold equal characters exactly where the segments
    hold equal entries.  Each ``recover()`` call codes through a
    ``_Codes`` copy of it, in which an entry outside the table gets the
    next unused character on first sight: equal unknown entries share it
    within the call, and distinct ones match neither each other, ``None``
    nor a node.  The engine's table is never written, because the
    per-thread chains of a pooled ``analyze_trace`` share one engine.
    """

    def __missing__(self, entry: Entry) -> str:
        code = self[entry] = chr(len(self))
        return code


class _SegmentView:
    """A reconstructed segment, its code string, and, once it serves as
    an IS or a CS, its per-tier abstract projections.

    ``abstract`` is ``(positions1, codes1, positions2, codes2)``: the
    positions (into ``entries``) of the tier <= 1 / tier <= 2 entries and
    those entries' codes as a string.  The tier-l abstraction of the
    prefix ``entries[:end + 1]`` is then ``codesL[:bisect_right(positionsL,
    end)]`` -- a cut, never a copy.  Built on first use only, by
    ``compress`` over ``map`` (no per-entry Python step), so segments no
    anchor occurrence points into cost nothing; later reads are a plain
    attribute lookup.
    """

    def __init__(
        self,
        entries: List[Entry],
        code: str,
        tiers: Tuple[FrozenSet[str], FrozenSet[str]],
    ):
        self.entries = entries
        self.code = code
        self._tiers = tiers  # codes of tier <= 1, codes of tier <= 2

    @cached_property
    def abstract(self) -> Tuple[List[int], str, List[int], str]:
        tier1, tier2 = self._tiers
        code = self.code
        keep2 = list(map(tier2.__contains__, code))
        codes2 = "".join(compress(code, keep2))
        keep1 = list(map(tier1.__contains__, codes2))
        positions2 = list(compress(range(len(code)), keep2))
        return (
            list(compress(positions2, keep1)),
            "".join(compress(codes2, keep1)),
            positions2,
            codes2,
        )


#: A ranked candidate CS: ``(-m3, -m2, -m1, segment, anchor_end)``, where
#: ``anchor_end`` is the position of the last anchor entry in that
#: segment -- tuple order is rank order.
_Candidate = Tuple[int, int, int, int, int]


def _untimed(_phase: str, tid: Optional[int] = None):
    return nullcontext()


class _Pairs(dict):
    """entry -> the shared ``(entry, provenance)`` pair of one provenance.

    An entry outside the table gets a fresh pair that is not stored: the
    table is never written after construction, because the per-thread
    chains of a pooled ``analyze_trace`` share one engine.
    """

    def __init__(self, entries: Iterable[Entry], provenance: str):
        super().__init__((entry, (entry, provenance)) for entry in entries)
        self.provenance = provenance

    def __missing__(self, entry: Entry) -> Tuple[Entry, str]:
        return (entry, self.provenance)

    def label(self, entries: Iterable[Entry]) -> List[Tuple[Entry, str]]:
        return list(map(self.__getitem__, entries))


def _none_free_suffix(entries: Sequence[Entry], limit: int) -> int:
    """Length of the longest suffix of *entries* holding no ``None``,
    capped at *limit* (only the last *limit* entries are looked at)."""
    tail = entries[max(len(entries) - limit, 0) :]
    try:
        return tail[::-1].index(None)
    except ValueError:
        return len(tail)


class RecoveryEngine:
    """Fills the holes of a segmented, reconstructed thread flow."""

    def __init__(self, icfg: ICFG, config: Optional[RecoveryConfig] = None):
        self.icfg = icfg
        self.config = config or RecoveryConfig()
        levels = {node: tier(icfg.instruction(node).op) for node in icfg.nodes()}
        # One character per ICFG node and None (see _Codes).
        self._codes: Dict[Entry, str] = {None: _NONE_CODE}
        self._codes.update((node, chr(code)) for code, node in enumerate(levels, 1))
        # Codes of tier <= 1 / <= 2; anything else (unknown nodes
        # included) is concrete-only, tier 3.
        self._tiers: Tuple[FrozenSet[str], FrozenSet[str]] = (
            frozenset(self._codes[node] for node, level in levels.items() if level <= 1),
            frozenset(self._codes[node] for node, level in levels.items() if level <= 2),
        )
        # One shared (entry, provenance) pair per ICFG node and None: a
        # flow holds references, not a fresh tuple per entry, so labelling
        # a long flow allocates nothing the collector has to scan.
        entries = [*levels, None]
        self._pairs: Dict[str, _Pairs] = {
            provenance: _Pairs(entries, provenance)
            for provenance in ("decoded", "recovered", "fallback")
        }

    # ------------------------------------------------------------------ API
    def recover(
        self,
        segments: Sequence[List[Entry]],
        holes: Sequence[ObservedHole],
        metrics=None,
        tid: Optional[int] = None,
    ) -> RecoveredFlow:
        """Recover a thread flow of ``len(segments)`` segments separated by
        ``len(holes)`` holes (``holes[i]`` sits after ``segments[i]``).

        A trailing hole (``holes[i]`` with no ``segments[i + 1]``) has no
        post-hole context: the continuation of the best-ranked CS that has
        one is copied up to the instruction budget, or to the end of that
        CS if shorter.  Only a trailing hole that no CS candidate fills
        reaches the ICFG fallback, which leaves it unfilled because there
        is no post-hole target.  Holes past ``len(segments)`` are counted
        in ``stats.holes`` but never examined.

        When a :class:`~repro.core.metrics.MetricsRegistry` is supplied,
        the run's stats are published under ``recover.*`` for *tid*, and
        its time under the ``recovery.index`` / ``.rank`` / ``.fill`` /
        ``.fallback`` sub-phase timers (``.fill`` includes assembling the
        decoded passthrough).
        """
        timer = metrics.timer if metrics is not None else _untimed
        stats = RecoveryStats()
        stats.holes = len(holes)
        stats.synthetic_holes = sum(
            1 for hole in holes if getattr(hole, "synthetic", False)
        )
        if not holes:
            with timer("recovery.fill", tid=tid):
                entries = self._pairs["decoded"].label(chain.from_iterable(segments))
            return RecoveredFlow(entries=entries, stats=stats)
        with timer("recovery.index", tid=tid):
            views = self._views(segments)
            index = self._build_anchor_index(views, len(holes), stats)
        entries: List[Tuple[Entry, str]] = []
        decoded = self._pairs["decoded"].__getitem__
        for position, view in enumerate(views):
            with timer("recovery.fill", tid=tid):
                entries.extend(map(decoded, view.entries))
            if position < len(holes):
                next_view = views[position + 1] if position + 1 < len(views) else None
                fill = self._fill_hole(
                    views, index, position, holes[position], next_view, stats,
                    timer, tid,
                )
                entries.extend(fill)
        if metrics is not None:
            for name, value in (
                ("recover.holes", stats.holes),
                ("recover.synthetic_holes", stats.synthetic_holes),
                ("recover.filled_from_cs", stats.filled_from_cs),
                ("recover.filled_fallback", stats.filled_fallback),
                ("recover.unfilled", stats.unfilled),
                ("recover.candidates_tested", stats.candidates_tested),
                ("recover.recovered_instructions", stats.recovered_instructions),
            ):
                if value:
                    metrics.incr(name, value, tid=tid)
        return RecoveredFlow(entries=entries, stats=stats)

    # ----------------------------------------------------------- anchor index
    def _views(self, segments: Sequence[List[Entry]]) -> List[_SegmentView]:
        """One view per segment, coded through a per-call copy of the
        engine's code table."""
        code_of = _Codes(self._codes).__getitem__
        return [
            _SegmentView(segment, "".join(map(code_of, segment)), self._tiers)
            for segment in segments
        ]

    def _anchor_of(self, view: _SegmentView) -> Optional[str]:
        """The code of the IS tail anchor of *view*, or ``None`` if it has
        none."""
        x = self.config.anchor_length
        code = view.code
        if len(code) < x:
            return None
        anchor = code[-x:]
        return None if _NONE_CODE in anchor else anchor

    def _build_anchor_index(
        self, views: List[_SegmentView], hole_count: int, stats: RecoveryStats
    ) -> Dict[str, Deque[Tuple[int, int]]]:
        """n-gram index of the wanted anchors: anchor code -> its newest
        occurrences ``(segment, end_position)`` in ascending order.

        Ranking only ever reads the newest ``max_candidates`` occurrences
        other than the IS's own, so each list keeps one more than that.
        One pass per segment over its code string finds, with
        ``compress`` over ``map`` (no per-entry Python step), the
        positions whose code ends some wanted anchor; only there is the
        ``x``-character slice ending at that position looked up.  So the
        index stays linear in thread length, and every occurrence is
        counted.  Slices holding ``"\\0"`` never equal a wanted anchor.
        """
        x = self.config.anchor_length
        cap = self.config.max_candidates
        # A cap below 1 trims nothing from the newest end (see
        # _select_and_rank), so every occurrence is kept.
        keep = cap + 1 if cap > 0 else None
        index: Dict[str, Deque[Tuple[int, int]]] = {}
        for view in views[:hole_count]:
            anchor = self._anchor_of(view)
            if anchor is not None:
                index[anchor] = deque(maxlen=keep)
        if not index:
            return index
        ends_anchor = frozenset(anchor[-1] for anchor in index).__contains__
        occurrences_of = index.get
        found = 0
        for segment_id, view in enumerate(views):
            code = view.code
            for end in compress(count(x - 1), map(ends_anchor, code[x - 1 :])):
                occurrences = occurrences_of(code[end - x + 1 : end + 1])
                if occurrences is not None:
                    occurrences.append((segment_id, end))
                    found += 1
        stats.candidates_indexed += found
        return index

    # ------------------------------------------------------------- hole fill
    def _fill_hole(
        self,
        views: List[_SegmentView],
        index: Dict[str, Deque[Tuple[int, int]]],
        is_id: int,
        hole: ObservedHole,
        next_view: Optional[_SegmentView],
        stats: RecoveryStats,
        timer,
        tid: Optional[int],
    ) -> List[Tuple[Entry, str]]:
        config = self.config
        is_view = views[is_id]
        with timer("recovery.rank", tid=tid):
            ranked = self._select_and_rank(views, index, is_id, stats)
        if ranked:
            post = next_view.code[: config.post_match_length] if next_view else ""
            budget = int(
                hole.duration
                / max(config.cost_per_instruction, 1e-9)
                * config.budget_slack
            )
            budget = max(1, min(budget, config.max_fill))
            with timer("recovery.fill", tid=tid):
                for candidate in ranked[: config.top_n]:
                    fill = self._try_fill(views, candidate, post, budget)
                    if fill is not None:
                        stats.filled_from_cs += 1
                        stats.recovered_instructions += len(fill)
                        return self._pairs["recovered"].label(fill)
        with timer("recovery.fallback", tid=tid):
            return self._fallback(is_view, next_view, stats)

    def _select_and_rank(
        self,
        views: List[_SegmentView],
        index: Dict[str, Deque[Tuple[int, int]]],
        is_id: int,
        stats: RecoveryStats,
    ) -> List[_Candidate]:
        """The ranked candidates for the hole after segment *is_id*, or an
        empty list when the hole must take the fallback."""
        is_view = views[is_id]
        anchor = self._anchor_of(is_view)
        if anchor is None:
            return []
        # The newest `max_candidates` occurrences other than the IS's own:
        # the index keeps one more than the cap, which holds them all
        # whether or not the IS's own occurrence falls among them.
        occurrences = list(index[anchor])
        own = (is_id, len(is_view.entries) - 1)
        if own in occurrences:
            occurrences.remove(own)
        cap = self.config.max_candidates
        if len(occurrences) > cap:
            occurrences = occurrences[-cap:]
        if not occurrences:
            return []
        return self._rank_candidates(views, is_view, occurrences, stats)

    def _rank_candidates(
        self,
        views: List[_SegmentView],
        is_view: _SegmentView,
        occurrences: List[Tuple[int, int]],
        stats: RecoveryStats,
    ) -> List[_Candidate]:
        """Algorithm 4: tiered common-suffix ranking with early exits.

        Theorem 5.5's exit is decided before any exact length.  A CS whose
        tier-l bound (the shorter of the two cut tier strings, capped at
        ``max_suffix_compare``) is below the best-so-far ``best_l`` is
        pruned with no compare.  Otherwise one compare of its last
        ``best_l`` codes against the IS tail of that length (cached until
        ``best_l`` changes) decides it, because suffix equality is
        monotone in its length.  A survivor's exact ``m_l`` is then
        ``best_l`` plus the common suffix found below that matched tail:
        zero when its bound is ``best_l``, else one compare of the rest of
        the bound, else a gallop.
        """
        # A cap below 1 makes every suffix length 0.
        limit = max(self.config.max_suffix_compare, 0)
        # The IS side is the whole segment at every tier: computed once.
        is_code = is_view.code
        is_end = len(is_code)
        _, is_codes1, _, is_codes2 = is_view.abstract
        is_end1, is_end2 = len(is_codes1), len(is_codes2)
        limit1, limit2 = min(is_end1, limit), min(is_end2, limit)
        # The concrete match stops at the IS's nearest None.
        start = max(is_end - limit, 0)
        limit3 = is_end - max(is_code.rfind(_NONE_CODE, start) + 1, start)
        best1 = best2 = best3 = 0
        tail1 = tail2 = ""  # the IS's last best1 / best2 tier codes
        pruned1 = pruned2 = 0
        candidates: List[_Candidate] = []
        for segment_id, end in occurrences:
            cs_view = views[segment_id]
            positions1, codes1, positions2, codes2 = cs_view.abstract
            cut1 = bisect_right(positions1, end)
            bound1 = cut1 if cut1 < limit1 else limit1
            if bound1 < best1 or not codes1.endswith(tail1, 0, cut1):
                pruned1 += 1
                continue
            cut2 = bisect_right(positions2, end)
            bound2 = cut2 if cut2 < limit2 else limit2
            if bound2 < best2 or not codes2.endswith(tail2, 0, cut2):
                pruned2 += 1
                continue
            m1, m2 = best1, best2
            if bound1 > best1:
                m1 += common_suffix_length(
                    is_codes1, codes1, is_end1 - best1, cut1 - best1, bound1 - best1
                )
            if bound2 > best2:
                m2 += common_suffix_length(
                    is_codes2, codes2, is_end2 - best2, cut2 - best2, bound2 - best2
                )
            m3 = common_suffix_length(is_code, cs_view.code, is_end, end + 1, limit3)
            candidates.append((-m3, -m2, -m1, segment_id, end))
            if m3 >= best3:
                best1, best2, best3 = m1, m2, m3
                tail1, tail2 = is_codes1[is_end1 - m1 :], is_codes2[is_end2 - m2 :]
        stats.candidates_tested += len(occurrences)
        stats.tier1_pruned += pruned1
        stats.tier2_pruned += pruned2
        # Best concrete match first; ties go to the deeper abstract
        # matches, then to the older occurrence.
        candidates.sort()
        return candidates

    def _try_fill(
        self,
        views: List[_SegmentView],
        candidate: _Candidate,
        post: str,
        budget: int,
    ) -> Optional[List[Entry]]:
        """Copy the CS continuation until the post-hole context matches.

        *post* is the code string of the post-hole context.  Its first
        match is one ``str.find`` in the part of the CS's code string a
        fill within budget can use; the fill itself is sliced from the
        CS's entries.
        """
        _m3, _m2, _m1, segment, anchor_end = candidate
        cs_view = views[segment]
        start = anchor_end + 1
        if not post:
            # Trailing hole: copy up to the budget.
            entries = cs_view.entries
            return entries[start : start + budget] if start < len(entries) else None
        position = cs_view.code.find(post, start, start + budget + len(post))
        return None if position < 0 else cs_view.entries[start:position]

    # --------------------------------------------------------------- fallback
    def _fallback(
        self,
        is_view: _SegmentView,
        next_view: Optional[_SegmentView],
        stats: RecoveryStats,
    ) -> List[Tuple[Entry, str]]:
        """ICFG walk connecting the pre- and post-hole instructions."""
        source: Entry = None
        for entry in reversed(is_view.entries):
            if entry is not None:
                source = entry
                break
        target: Entry = None
        if next_view is not None:
            for entry in next_view.entries:
                if entry is not None:
                    target = entry
                    break
        if source is None or target is None:
            stats.unfilled += 1
            return []
        path = self._icfg_path(source, target)
        if path is None:
            stats.unfilled += 1
            return []
        stats.filled_fallback += 1
        stats.recovered_instructions += len(path)
        return self._pairs["fallback"].label(path)

    def _icfg_path(self, source: Node, target: Node) -> Optional[List[Node]]:
        """Shortest ICFG path strictly between *source* and *target*."""
        limit = self.config.fallback_max_depth
        parents: Dict[Node, Optional[Node]] = {source: None}
        queue = deque([(source, 0)])
        while queue:
            current, depth = queue.popleft()
            if depth >= limit:
                continue
            for nxt, _kind in self.icfg.successors(current):
                if nxt in parents:
                    continue
                parents[nxt] = current
                if nxt == target:
                    path: List[Node] = []
                    walk = parents[target]
                    while walk is not None and walk != source:
                        path.append(walk)
                        walk = parents[walk]
                    path.reverse()
                    return path
                queue.append((nxt, depth + 1))
        return None


def basic_search(
    views_entries: Sequence[List[Entry]],
    is_id: int,
    anchor_length: int = 3,
) -> Optional[Tuple[int, int, int]]:
    """Algorithm 3: exhaustive concrete CS search (ablation baseline).

    Returns ``(segment, anchor_end, suffix_length)`` of the best match, or
    ``None``.  No abstraction, no index pruning beyond the anchor scan --
    a concrete comparison against every occurrence, as written in the
    paper's basic algorithm.
    """
    segments = [list(entries) for entries in views_entries]
    is_entries = segments[is_id]
    if len(is_entries) < anchor_length:
        return None
    anchor = is_entries[-anchor_length:]
    if None in anchor:
        return None
    # The concrete match stops at the IS's nearest None.
    limit = _none_free_suffix(is_entries, len(is_entries))
    best: Optional[Tuple[int, int, int]] = None
    for segment_id, entries in enumerate(segments):
        for end in range(anchor_length - 1, len(entries)):
            if segment_id == is_id and end == len(is_entries) - 1:
                continue
            if entries[end - anchor_length + 1 : end + 1] != anchor:
                continue
            count = common_suffix_length(
                is_entries, entries, len(is_entries), end + 1, limit
            )
            if best is None or count > best[2]:
                best = (segment_id, end, count)
    return best
