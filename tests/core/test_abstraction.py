"""Tests for tier abstractions, incl. property tests of Lemmas 5.3/5.4."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.abstraction import (
    TIER_CALL,
    TIER_CONCRETE,
    TIER_CONTROL,
    abstract_ops,
    common_suffix_length,
)
from repro.jvm.opcodes import Op, tier

ALL_OPS = list(Op)
ops_lists = st.lists(st.sampled_from(ALL_OPS), max_size=60)


class TestAbstractSequence:
    def test_tier3_is_identity(self):
        ops = [Op.ILOAD_0, Op.IFEQ, Op.IADD, Op.IRETURN]
        assert abstract_ops(ops, TIER_CONCRETE) == ops

    def test_tier2_keeps_control_only(self):
        ops = [Op.ILOAD_0, Op.IFEQ, Op.IADD, Op.GOTO, Op.IRETURN]
        assert abstract_ops(ops, TIER_CONTROL) == [Op.IFEQ, Op.GOTO, Op.IRETURN]

    def test_tier1_keeps_call_structure_only(self):
        ops = [Op.IFEQ, Op.INVOKESTATIC, Op.GOTO, Op.IRETURN, Op.ATHROW]
        assert abstract_ops(ops, TIER_CALL) == [Op.INVOKESTATIC, Op.IRETURN, Op.ATHROW]

    def test_empty_sequence(self):
        for level in (1, 2, 3):
            assert abstract_ops([], level) == []

    @given(ops_lists)
    def test_abstraction_is_a_subsequence(self, ops):
        for level in (1, 2):
            abstracted = abstract_ops(ops, level)
            iterator = iter(ops)
            assert all(op in iterator for op in abstracted)

    @given(ops_lists)
    def test_tiers_are_nested(self, ops):
        tier1 = abstract_ops(ops, 1)
        tier2 = abstract_ops(ops, 2)
        # tier1 is a subsequence of tier2
        iterator = iter(tier2)
        assert all(op in iterator for op in tier1)

    @given(ops_lists)
    def test_idempotent(self, ops):
        for level in (1, 2):
            once = abstract_ops(ops, level)
            assert abstract_ops(once, level) == once


def _reverse_scan(left, right) -> int:
    """Reference common suffix: one element at a time from the end."""
    count = 0
    while count < min(len(left), len(right)) and left[-1 - count] == right[-1 - count]:
        count += 1
    return count


class TestCommonSuffix:
    def test_basic(self):
        assert common_suffix_length("abcd", "xbcd") == 3
        assert common_suffix_length("abcd", "abcd") == 4
        assert common_suffix_length("abcd", "xyz") == 0
        assert common_suffix_length("", "abc") == 0

    @given(ops_lists, ops_lists)
    def test_bounded_by_lengths(self, left, right):
        n = common_suffix_length(left, right)
        assert 0 <= n <= min(len(left), len(right))
        if n:
            assert left[-n:] == right[-n:]
        if n < min(len(left), len(right)):
            assert left[-n - 1] != right[-n - 1]

    @given(
        ops_lists,
        ops_lists,
        ops_lists,
        st.integers(0, 130),
        st.integers(0, 130),
        st.one_of(st.none(), st.integers(0, 130)),
    )
    @settings(max_examples=300)
    def test_bounds_match_sliced_reference(
        self, left_head, right_head, shared, left_end, right_end, limit
    ):
        """``common_suffix_length(l, r, le, re, k)`` is the plain common
        suffix of ``l[:le]`` and ``r[:re]`` capped at ``k`` -- including
        long shared tails, where the galloping search does its work."""
        left = left_head + shared
        right = right_head + shared
        left_end = min(left_end, len(left))
        right_end = min(right_end, len(right))
        expected = _reverse_scan(left[:left_end], right[:right_end])
        if limit is not None:
            expected = min(expected, limit)
        assert (
            common_suffix_length(left, right, left_end, right_end, limit) == expected
        )
        unbounded = _reverse_scan(left, right)
        assert common_suffix_length(left, right, limit=limit) == (
            unbounded if limit is None else min(limit, unbounded)
        )

    def test_bounds_against_reverse_scan(self):
        """Every match length at every position, against a reverse
        element-by-element scan (covers each gallop/bisect boundary)."""
        for size in range(0, 40):
            left = list(range(size))
            for cut in range(size + 1):
                right = [-1] * 3 + left[cut:]
                assert (
                    common_suffix_length(left, right)
                    == _reverse_scan(left, right)
                    == size - cut
                )


class TestLemmas:
    """Property tests for the paper's Lemma 5.3 and Lemma 5.4.

    The matching operator on already-aligned sequences is the common
    suffix; tier abstraction then commutes with it in the inequality
    directions the paper proves.
    """

    @staticmethod
    def _alpha(ops, level):
        return abstract_ops(list(ops), level)

    @given(ops_lists, ops_lists, ops_lists)
    @settings(max_examples=200)
    def test_lemma_5_3_monotone_over_tiers(self, omega0, omega1, omega2):
        """|w0 . w1| >= |w0 . w2| => |a2(w0 . w1)| >= |a2(w0 . w2)| (and
        tier 2 => tier 1)."""
        suffix1 = omega0[len(omega0) - common_suffix_length(omega0, omega1) :]
        suffix2 = omega0[len(omega0) - common_suffix_length(omega0, omega2) :]
        if len(suffix1) >= len(suffix2):
            assert len(self._alpha(suffix1, 2)) >= len(self._alpha(suffix2, 2))
        if len(self._alpha(suffix1, 2)) >= len(self._alpha(suffix2, 2)):
            # suffix2 is a suffix of suffix1 whenever it's shorter (both
            # are suffixes of omega0), which is what the lemma uses.
            if len(suffix1) >= len(suffix2):
                assert len(self._alpha(suffix1, 1)) >= len(self._alpha(suffix2, 1))

    @given(ops_lists, ops_lists)
    @settings(max_examples=200)
    def test_lemma_5_4_abstraction_relaxes_matching(self, omega0, omega1):
        """|a_l(w0) . a_l(w1)| >= |a_l(w0 . w1)| for l in {1, 2}."""
        concrete_suffix = omega0[len(omega0) - common_suffix_length(omega0, omega1) :]
        for level in (1, 2):
            abstract_match = common_suffix_length(
                self._alpha(omega0, level), self._alpha(omega1, level)
            )
            assert abstract_match >= len(self._alpha(concrete_suffix, level))

    @given(ops_lists, ops_lists, ops_lists)
    @settings(max_examples=200)
    def test_theorem_5_5_pruning_is_safe(self, omega0, omega1, omega2):
        """If the tier-2 abstract match of w1 is worse than w2's recorded
        concrete-match abstraction, w1 cannot beat w2 concretely."""
        m_12 = common_suffix_length(omega0, omega2)
        alpha2_of_concrete2 = len(self._alpha(omega0[len(omega0) - m_12 :], 2))
        abstract_match1 = common_suffix_length(
            self._alpha(omega0, 2), self._alpha(omega1, 2)
        )
        if abstract_match1 < alpha2_of_concrete2:
            assert common_suffix_length(omega0, omega1) < m_12
