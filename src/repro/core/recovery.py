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
   baseline.  Every suffix length comes from
   :func:`~repro.core.abstraction.common_suffix_length` over bounded
   views of the segments, so no comparison copies a prefix;
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
from itertools import chain
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..jvm.icfg import ICFG
from ..jvm.opcodes import tier
from .abstraction import common_suffix_length
from .observed import ObservedHole

Node = Tuple[str, int]
Entry = Optional[Node]  # a reconstructed step (None if projection failed)


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


class _SegmentView:
    """A reconstructed segment plus, once it serves as an IS or a CS, its
    per-tier abstract projections.

    ``abstract()`` returns ``(positions1, symbols1, positions2,
    symbols2)``: the positions (into ``entries``) of the tier <= 1 / tier
    <= 2 entries and those entries themselves.  The tier-l abstraction of
    the prefix ``entries[:end]`` is then ``symbolsL[:bisect(positionsL,
    end - 1)]`` -- a cut, never a copy.  Built on first use only, so
    segments no anchor occurrence points into cost nothing.
    """

    __slots__ = ("entries", "_tiers", "_abstract")

    def __init__(self, entries: List[Entry], tiers: Tuple[FrozenSet[Node], FrozenSet[Node]]):
        self.entries = entries
        self._tiers = tiers  # nodes of tier <= 1, nodes of tier <= 2
        self._abstract: Optional[Tuple[List[int], List[Node], List[int], List[Node]]] = None

    def abstract(self) -> Tuple[List[int], List[Node], List[int], List[Node]]:
        if self._abstract is None:
            tier1, tier2 = self._tiers
            entries = self.entries
            positions2 = [p for p, entry in enumerate(entries) if entry in tier2]
            positions1 = [p for p in positions2 if entries[p] in tier1]
            self._abstract = (
                positions1,
                [entries[p] for p in positions1],
                positions2,
                [entries[p] for p in positions2],
            )
        return self._abstract


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
        # Nodes of tier <= 1 / <= 2; anything else (unknown nodes
        # included) is concrete-only, tier 3.
        levels = {node: tier(icfg.instruction(node).op) for node in icfg.nodes()}
        self._tiers: Tuple[FrozenSet[Node], FrozenSet[Node]] = (
            frozenset(node for node, level in levels.items() if level <= 1),
            frozenset(node for node, level in levels.items() if level <= 2),
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
            views = [_SegmentView(segment, self._tiers) for segment in segments]
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
    def _anchor_of(self, view: _SegmentView) -> Optional[Tuple[Node, ...]]:
        """The IS tail anchor of *view*, or ``None`` if it has none."""
        x = self.config.anchor_length
        entries = view.entries
        if len(entries) < x:
            return None
        anchor = tuple(entries[-x:])
        return None if None in anchor else anchor

    def _build_anchor_index(
        self, views: List[_SegmentView], hole_count: int, stats: RecoveryStats
    ) -> Dict[Tuple, Deque[Tuple[int, int]]]:
        """n-gram index of the wanted anchors: anchor tuple -> its newest
        occurrences ``(segment, end_position)`` in ascending order.

        Ranking only ever reads the newest ``max_candidates`` occurrences
        other than the IS's own, so each list keeps one more than that.
        A window is only built where its last entry ends some wanted
        anchor; windows holding ``None`` never equal a wanted anchor.
        """
        x = self.config.anchor_length
        cap = self.config.max_candidates
        # A cap below 1 trims nothing from the newest end (see
        # _select_and_rank), so every occurrence is kept.
        keep = cap + 1 if cap > 0 else None
        index: Dict[Tuple, Deque[Tuple[int, int]]] = {}
        for view in views[:hole_count]:
            anchor = self._anchor_of(view)
            if anchor is not None:
                index[anchor] = deque(maxlen=keep)
        if not index:
            return index
        last_nodes = {anchor[-1] for anchor in index}
        found = 0
        for segment_id, view in enumerate(views):
            entries = view.entries
            for end in [p for p, entry in enumerate(entries) if entry in last_nodes]:
                if end < x - 1:
                    continue
                occurrences = index.get(tuple(entries[end - x + 1 : end + 1]))
                if occurrences is not None:
                    occurrences.append((segment_id, end))
                    found += 1
        stats.candidates_indexed += found
        return index

    # ------------------------------------------------------------- hole fill
    def _fill_hole(
        self,
        views: List[_SegmentView],
        index: Dict[Tuple, Deque[Tuple[int, int]]],
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
            post = next_view.entries[: config.post_match_length] if next_view else []
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
        index: Dict[Tuple, Deque[Tuple[int, int]]],
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
        """Algorithm 4: tiered common-suffix ranking with early exits."""
        limit = self.config.max_suffix_compare
        # The IS side is the whole segment at every tier: computed once.
        is_entries = is_view.entries
        is_end = len(is_entries)
        _, is_symbols1, _, is_symbols2 = is_view.abstract()
        is_end1, is_end2 = len(is_symbols1), len(is_symbols2)
        # The concrete match stops at the IS's nearest None.
        limit3 = _none_free_suffix(is_entries, limit)
        best1 = best2 = best3 = 0
        pruned1 = pruned2 = 0
        candidates: List[_Candidate] = []
        for segment_id, end in occurrences:
            cs_view = views[segment_id]
            positions1, symbols1, positions2, symbols2 = cs_view.abstract()
            m1 = common_suffix_length(
                is_symbols1, symbols1, is_end1, bisect_right(positions1, end), limit
            )
            if m1 < best1:
                pruned1 += 1
                continue
            m2 = common_suffix_length(
                is_symbols2, symbols2, is_end2, bisect_right(positions2, end), limit
            )
            if m2 < best2:
                pruned2 += 1
                continue
            m3 = common_suffix_length(
                is_entries, cs_view.entries, is_end, end + 1, limit3
            )
            candidates.append((-m3, -m2, -m1, segment_id, end))
            if m3 >= best3:
                best1, best2, best3 = m1, m2, m3
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
        post: List[Entry],
        budget: int,
    ) -> Optional[List[Entry]]:
        """Copy the CS continuation until the post-hole context matches."""
        _m3, _m2, _m1, segment, anchor_end = candidate
        cs_entries = views[segment].entries
        start = anchor_end + 1
        y = len(post)
        if y == 0:
            # Trailing hole: copy up to the budget.
            return cs_entries[start : start + budget] if start < len(cs_entries) else None
        # Only the part of the continuation a fill within budget can use.
        window = cs_entries[start : start + budget + y]
        stop = len(window) - y + 1  # exclusive bound on the match position
        first = post[0]
        position = 0
        while position < stop:
            try:
                position = window.index(first, position, stop)
            except ValueError:
                return None
            if window[position : position + y] == post:
                return window[:position]
            position += 1
        return None

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
