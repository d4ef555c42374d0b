"""Unit tests for abstraction-guided data recovery (Section 5)."""

import gc
import tracemalloc
from itertools import chain, repeat

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.observed import ObservedHole
from repro.core.recovery import (
    RecoveryConfig,
    RecoveryEngine,
    RecoveryStats,
    basic_search,
)
from repro.jvm.icfg import ICFG

from ..conftest import build_figure2_program

# The repeating unit of Test.fun's else-arm path (see figure2 bytecode).
FUN_FALSE = [("Test.fun", bci) for bci in (0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)]
FUN_TRUE = [("Test.fun", bci) for bci in (0, 1, 2, 3, 4, 5, 6, 11, 12, 13, 14, 15, 16)]
MAIN_ITER = [("Test.main", bci) for bci in (4, 5, 6, 7, 8, 9, 10, 11)]
MAIN_RET = [("Test.main", bci) for bci in (12, 13, 14, 15, 16)]


def _iteration(even: bool):
    """One full main-loop iteration including the call into fun."""
    return MAIN_ITER + (FUN_FALSE if even else FUN_TRUE) + MAIN_RET


def _engine(**config):
    program = build_figure2_program()
    return RecoveryEngine(ICFG(program), RecoveryConfig(**config))


def _hole(duration=10_000):
    return ObservedHole(start_tsc=0, end_tsc=duration)


def _ranked(engine, segments, is_id):
    """Algorithm 4's ranked candidates ``(-m3, -m2, -m1, segment,
    anchor_end)`` for a hole after ``segments[is_id]``."""
    views = engine._views([list(segment) for segment in segments])
    index = engine._build_anchor_index(views, is_id + 1, RecoveryStats())
    return engine._select_and_rank(views, index, is_id, RecoveryStats())


class TestAnchorSearch:
    def test_recovers_missing_iteration(self):
        """Two segments split mid-pattern: the CS from segment content
        fills the hole with the repeating unit."""
        pattern = _iteration(True) + _iteration(False)
        history = pattern * 3
        # IS ends right before a repetition; the missing part is one
        # iteration whose continuation reappears in segment 2.
        segment1 = history + _iteration(True)[:20]
        missing = _iteration(True)[20:]
        segment2 = _iteration(False) * 2
        engine = _engine(cost_per_instruction=1.0)
        flow = engine.recover([segment1, segment2], [_hole(len(missing) * 2)])
        assert flow.stats.filled_from_cs == 1
        recovered = [e for e, p in flow.entries if p == "recovered"]
        assert recovered == missing

    def test_no_anchor_match_falls_back_to_icfg(self):
        engine = _engine()
        segment1 = MAIN_ITER
        segment2 = MAIN_RET
        flow = engine.recover([segment1, segment2], [_hole()])
        # No repetition to learn from, but the ICFG connects main@11 to
        # main@12 through fun.
        assert flow.stats.filled_from_cs == 0
        assert flow.stats.filled_fallback == 1
        fallback = [e for e, p in flow.entries if p == "fallback"]
        assert fallback  # a path through fun

    def test_short_is_falls_back(self):
        engine = _engine(anchor_length=5)
        flow = engine.recover([MAIN_ITER[:2], MAIN_RET], [_hole()])
        assert flow.stats.filled_from_cs == 0

    def test_no_holes_passthrough(self):
        engine = _engine()
        flow = engine.recover([FUN_FALSE], [])
        assert [e for e, _p in flow.entries] == FUN_FALSE
        assert all(p == "decoded" for _e, p in flow.entries)
        assert flow.stats.holes == 0

    def test_trailing_hole_unfilled_without_context(self):
        engine = _engine()
        flow = engine.recover([MAIN_ITER], [_hole()])
        assert flow.stats.unfilled == 1


class TestBudget:
    def test_tiny_time_budget_rejects_long_fill(self):
        pattern = _iteration(True) * 4
        segment1 = pattern + _iteration(True)[:20]
        segment2 = _iteration(False)
        engine = _engine(cost_per_instruction=1.0, budget_slack=1.0)
        # Hole duration of 1 step: the CS continuation cannot reach the
        # post-hole context within budget.
        flow = engine.recover([segment1, segment2], [_hole(duration=1)])
        assert flow.stats.filled_from_cs == 0

    def test_max_fill_caps_recovery(self):
        engine = _engine(max_fill=3)
        pattern = _iteration(True) * 4
        segment1 = pattern + _iteration(True)[:20]
        segment2 = _iteration(False)
        flow = engine.recover([segment1, segment2], [_hole(10**6)])
        recovered = [e for e, p in flow.entries if p == "recovered"]
        assert len(recovered) <= 3 + len(segment2)


class TestRanking:
    def test_algorithm4_matches_basic_search_winner(self):
        """The abstraction-guided search must choose a CS as good (by
        concrete suffix) as Algorithm 3's exhaustive winner."""
        segments = [
            _iteration(True) * 2 + _iteration(False)[:10],
            _iteration(False) + _iteration(True),
            _iteration(True)[:18],
        ]
        best = basic_search(segments, is_id=0, anchor_length=3)
        assert best is not None
        ranked = _ranked(_engine(), segments, is_id=0)
        assert ranked
        assert -ranked[0][0] == best[2]
        flow = _engine().recover(segments, [_hole(10**6), _hole(10**6)])
        assert flow.stats.candidates_tested >= 1

    def test_tier_pruning_counts(self):
        # Many repetitions of mixed patterns: some candidates must be
        # pruned at an abstract tier before concrete comparison.
        segments = [
            (_iteration(True) + _iteration(False)) * 3,
            _iteration(False) * 2,
            _iteration(True) * 2,
        ]
        engine = _engine()
        flow = engine.recover(segments, [_hole(10**4), _hole(10**4)])
        stats = flow.stats
        assert stats.candidates_tested > 0
        assert stats.tier1_pruned + stats.tier2_pruned > 0

    def test_self_occurrence_inside_newest_candidates(self):
        """The IS's own anchor occurrence is among the newest
        ``max_candidates + 1`` occurrences: it is skipped and the cap
        still admits ``max_candidates`` others."""
        unit = _iteration(True)
        segment0 = unit * 3 + unit[:20]  # IS: anchor ends at unit[19]
        segment1 = unit[:20] + unit[20:] + MAIN_ITER  # one newer occurrence
        engine = _engine(max_candidates=2)
        flow = engine.recover([segment0, segment1], [_hole(10**4)])
        assert flow.stats.candidates_tested == 2
        ranked = _ranked(engine, [segment0, segment1], is_id=0)
        own = (0, len(segment0) - 1)
        assert own not in [(c[3], c[4]) for c in ranked]
        # Both others were tested (segment 0's last before its own, and
        # segment 1's); the one with the longer matching prefix wins.
        assert (ranked[0][3], ranked[0][4]) == (0, 2 * len(unit) + 19)

    def test_none_in_is_prefix_cuts_concrete_match(self):
        """m3 stops at the nearest ``None`` in the IS, even where the CS
        holds ``None`` at the same place."""
        unit = _iteration(False)
        is_segment = unit * 2 + unit[:5] + [None] + unit[6:]
        cs_segment = list(is_segment) + MAIN_ITER
        ranked = _ranked(_engine(), [is_segment, cs_segment], is_id=0)
        cut = len(unit) - 6  # entries after the None
        assert -ranked[0][0] == cut
        best = basic_search([is_segment, cs_segment], is_id=0)
        assert best is not None and best[2] == cut

    def test_max_suffix_compare_caps_every_tier(self):
        unit = _iteration(True)
        segments = [unit * 4, unit * 4 + MAIN_ITER]
        ranked = _ranked(_engine(max_suffix_compare=5), segments, is_id=0)
        assert ranked
        for neg_m3, neg_m2, neg_m1, _segment, _end in ranked:
            assert -neg_m3 <= 5 and -neg_m2 <= 5 and -neg_m1 <= 5
        assert -ranked[0][0] == 5
        uncapped = _ranked(_engine(), segments, is_id=0)
        assert -uncapped[0][0] > 5


class TestFill:
    def test_post_context_with_none(self):
        """A ``None`` in the post-hole context matches a ``None`` in the
        CS continuation (and may lead the context)."""
        unit = _iteration(True)
        continuation = MAIN_ITER[:3] + [None] + MAIN_ITER[4:]
        cs = unit[:20] + unit[20:] + continuation
        segment0 = unit * 2 + unit[:20]
        post = [None] + MAIN_ITER[4:7]
        engine = _engine(post_match_length=4)
        flow = engine.recover([cs + segment0, post + MAIN_ITER[7:]], [_hole(10**4)])
        assert flow.stats.filled_from_cs == 1
        recovered = [e for e, p in flow.entries if p == "recovered"]
        assert recovered == unit[20:] + MAIN_ITER[:3]

    def test_trailing_hole_copies_budget(self):
        """No segment after the hole: the CS continuation is copied up to
        the instruction budget, or to the end of the CS if shorter."""
        unit = _iteration(True)
        segment = unit * 3
        newest = 2 * len(unit) - 1  # the newest earlier anchor occurrence
        engine = _engine(cost_per_instruction=1.0, budget_slack=1.0)
        flow = engine.recover([segment], [_hole(duration=7)])
        recovered = [e for e, p in flow.entries if p == "recovered"]
        assert recovered == segment[newest + 1 : newest + 8]
        flow = engine.recover([segment], [_hole(duration=10**4)])
        recovered = [e for e, p in flow.entries if p == "recovered"]
        assert recovered == segment[newest + 1 :]


#: Four Figure 2 nodes, None and two nodes outside the ICFG.
INDEX_ALPHABET = [
    ("Test.main", 4),
    ("Test.main", 5),
    ("Test.fun", 1),
    ("Test.fun", 16),
    None,
    ("X.missing", 0),
    ("X.other", 1),
]
_A, _B = INDEX_ALPHABET[0], INDEX_ALPHABET[1]


class TestAnchorIndex:
    @given(
        st.lists(st.lists(st.sampled_from(INDEX_ALPHABET), max_size=24), min_size=1, max_size=5),
        st.integers(1, 4),
        st.sampled_from((0, 1, 3, 200)),
        st.integers(1, 5),
    )
    @example([[_A, _B, _A, _B, _A]], 3, 0, 1)  # a self-overlapping anchor
    @example([[_A, _B, _A, _B, _A], [_B, _A, _B, _A]], 3, 1, 2)
    @settings(max_examples=200, deadline=None)
    def test_index_matches_a_brute_force_scan(self, segments, anchor_length, cap, holes):
        """Each wanted anchor maps to its newest ``cap + 1`` occurrences
        in ascending ``(segment, end)`` order (all of them for a cap
        below 1), and ``candidates_indexed`` counts every occurrence."""
        engine = _engine(anchor_length=anchor_length, max_candidates=cap)
        hole_count = min(holes, len(segments))
        views = engine._views(segments)
        stats = RecoveryStats()
        index = engine._build_anchor_index(views, hole_count, stats)
        x = anchor_length
        occurrences = {}
        for segment in segments[:hole_count]:
            anchor = tuple(segment[-x:])
            if len(segment) >= x and None not in anchor:
                occurrences[anchor] = [
                    (segment_id, end)
                    for segment_id, entries in enumerate(segments)
                    for end in range(x - 1, len(entries))
                    if tuple(entries[end - x + 1 : end + 1]) == anchor
                ]
        assert len(index) == len(occurrences)
        for view, segment in zip(views[:hole_count], segments):
            if tuple(segment[-x:]) in occurrences:
                expected = occurrences[tuple(segment[-x:])]
                kept = expected[-(cap + 1) :] if cap > 0 else expected
                assert list(index[engine._anchor_of(view)]) == kept
            else:
                assert engine._anchor_of(view) is None
        assert stats.candidates_indexed == sum(map(len, occurrences.values()))


class TestProperties:
    @given(st.integers(0, 6), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_recovered_entries_lie_on_icfg(self, cut, repeats):
        """Whatever recovery fills, consecutive non-None entries must be
        connected in the ICFG (recovered paths are feasible)."""
        program = build_figure2_program()
        icfg = ICFG(program)
        engine = RecoveryEngine(icfg, RecoveryConfig(cost_per_instruction=1.0))
        pattern = _iteration(True) + _iteration(False)
        segment1 = pattern * repeats + pattern[: 20 + cut]
        segment2 = _iteration(False)
        flow = engine.recover([segment1, segment2], [_hole(10**4)])
        entries = [e for e, _p in flow.entries]
        # Across the pre-hole boundary the connection may legitimately
        # break if recovery failed; only check within recovered spans.
        provenance = [p for _e, p in flow.entries]
        for i in range(len(entries) - 1):
            if provenance[i] == provenance[i + 1] == "recovered":
                left, right = entries[i], entries[i + 1]
                successors = {dst for dst, _k in icfg.successors(left)}
                assert right in successors


def _labelled(entries, provenance):
    """The per-entry reference: one fresh ``(entry, provenance)`` each."""
    return list(zip(entries, repeat(provenance)))


MISSING = ("X.missing", 0)  # not a node of the Figure 2 ICFG
OTHER = ("X.other", 1)  # nor this one


class TestSharedEntries:
    """Flow entries are shared ``(entry, provenance)`` pairs: the same
    values in the same order as one tuple per entry, with equal entries
    one immutable object."""

    @staticmethod
    def _assert_shared(entries):
        first = {}
        for pair in entries:
            assert first.setdefault(pair, pair) is pair, pair

    @staticmethod
    def _table_sizes(engine):
        sizes = {provenance: len(table) for provenance, table in engine._pairs.items()}
        sizes["codes"] = len(engine._codes)
        return sizes

    def test_zero_hole_flow(self):
        segments = [FUN_FALSE * 3, MAIN_ITER[:4] + [None] + MAIN_ITER[4:] + [None]]
        flow = _engine().recover(segments, [])
        assert flow.entries == _labelled(chain.from_iterable(segments), "decoded")
        assert (None, "decoded") in flow.entries
        self._assert_shared(flow.entries)

    def test_cs_filled_flow(self):
        segment1 = (_iteration(True) + _iteration(False)) * 3 + _iteration(True)[:20]
        missing = _iteration(True)[20:]
        segment2 = _iteration(False) * 2
        flow = _engine().recover([segment1, segment2], [_hole(len(missing) * 2)])
        assert flow.stats.filled_from_cs == 1
        assert flow.entries == (
            _labelled(segment1, "decoded")
            + _labelled(missing, "recovered")
            + _labelled(segment2, "decoded")
        )
        self._assert_shared(flow.entries)

    def test_fallback_filled_flow(self):
        engine = _engine()
        flow = engine.recover([MAIN_ITER, MAIN_RET], [_hole()])
        assert flow.stats.filled_fallback == 1
        path = engine._icfg_path(MAIN_ITER[-1], MAIN_RET[0])
        assert path
        assert flow.entries == (
            _labelled(MAIN_ITER, "decoded")
            + _labelled(path, "fallback")
            + _labelled(MAIN_RET, "decoded")
        )
        # A shortest path repeats no node: sharing shows across flows.
        again = engine.recover([MAIN_ITER, MAIN_RET], [_hole()])
        assert all(a is b for a, b in zip(flow.entries, again.entries))

    def test_trailing_hole_flow(self):
        unit = _iteration(True)
        segment = unit * 3
        newest = 2 * len(unit) - 1
        engine = _engine(cost_per_instruction=1.0, budget_slack=1.0)
        flow = engine.recover([segment], [_hole(duration=7)])
        assert flow.entries == (
            _labelled(segment, "decoded")
            + _labelled(segment[newest + 1 : newest + 8], "recovered")
        )
        self._assert_shared(flow.entries)

    def test_node_outside_the_icfg_gets_a_fresh_pair(self):
        """A node outside the ICFG gets a fresh pair and a code of its
        own, and neither table of the shared engine grows."""
        engine = _engine(cost_per_instruction=1.0)
        sizes = self._table_sizes(engine)
        flow = engine.recover([[MISSING] + FUN_FALSE], [])
        assert flow.entries == _labelled([MISSING] + FUN_FALSE, "decoded")
        # A CS continuation holding the unknown node copies it as well.
        unit = _iteration(True) + [MISSING]
        segment = unit * 3
        flow = engine.recover([segment], [_hole(duration=10**4)])
        assert (MISSING, "recovered") in flow.entries
        assert flow.entries[: len(segment)] == _labelled(segment, "decoded")
        assert self._table_sizes(engine) == sizes
        # In one call an unknown node matches itself but neither another
        # unknown node nor None, in a concrete suffix and in a fill, and
        # None in a CS's compared suffix matches nothing.
        loop = _iteration(True)
        tail = loop[:10]
        is_segment = loop + [MISSING] + tail
        css = [
            loop + [MISSING] + tail + MAIN_RET,  # the same node: matches on
            loop + [OTHER] + tail + MAIN_RET,  # another unknown node
            loop + [None] + tail + MAIN_RET,  # None facing an unknown node
            loop + [None, MISSING] + tail + MAIN_RET,  # None facing a node
        ]
        ranked = _ranked(engine, [is_segment] + css, is_id=0)
        m3_of = {(cs, end): -neg_m3 for neg_m3, _m2, _m1, cs, end in ranked}
        ends = [len(is_segment) - 1] * 3 + [len(is_segment)]
        assert [m3_of[(cs, end)] for cs, end in zip((1, 2, 3, 4), ends)] == [
            len(is_segment),
            len(tail),
            len(tail),
            len(tail) + 1,
        ]
        # The fill runs past MISSING and None to the post-hole OTHER.
        gap = [MISSING] + MAIN_ITER[:3] + [None] + MAIN_ITER[:3]
        segment0 = loop + gap + [OTHER] + MAIN_ITER[:3] + loop[:20]
        post = [OTHER] + MAIN_ITER[:3] + MAIN_ITER[3:]
        flow = _engine(cost_per_instruction=1.0, post_match_length=4).recover(
            [segment0, post], [_hole(10**4)]
        )
        assert flow.stats.filled_from_cs == 1
        assert [e for e, p in flow.entries if p == "recovered"] == loop[20:] + gap
        engine.recover([segment0, post], [_hole(10**4)])
        assert self._table_sizes(engine) == sizes

    def test_zero_hole_flow_holds_no_tuple_per_entry(self):
        """One reference per entry: a tuple per entry would hold ~64 B."""
        count = 100_000
        segment = (FUN_FALSE * (count // len(FUN_FALSE) + 1))[:count]
        engine = _engine()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            flow = engine.recover([segment], [])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(flow.entries) == count
        assert held <= 16 * count, held / count
