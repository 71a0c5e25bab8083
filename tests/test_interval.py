"""Unit tests for the interval algebra (Section III-B / Appendix A)."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tpg import interval as iv

intervals = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
        lambda p: (min(p), max(p))
    ),
    max_size=8,
)


class TestCoalesce:
    def test_empty(self):
        assert iv.coalesce([]) == []

    def test_single(self):
        assert iv.coalesce([(1, 5)]) == [(1, 5)]

    def test_adjacent_merge(self):
        # [1,2] meets [3,4] → must merge (paper's coalescing requirement)
        assert iv.coalesce([(1, 2), (3, 4)]) == [(1, 4)]

    def test_overlap_merge(self):
        assert iv.coalesce([(1, 5), (4, 8)]) == [(1, 8)]

    def test_gap_preserved(self):
        assert iv.coalesce([(1, 2), (4, 5)]) == [(1, 2), (4, 5)]

    def test_paper_example(self):
        # ξ'(n) = {[1,3],[5,5]}, never {[1,2],[3,3],[5,5]}
        assert iv.coalesce([(1, 2), (3, 3), (5, 5)]) == [(1, 3), (5, 5)]

    def test_unsorted_input(self):
        assert iv.coalesce([(5, 6), (1, 2), (3, 4)]) == [(1, 6)]

    def test_contained(self):
        assert iv.coalesce([(1, 10), (3, 4)]) == [(1, 10)]

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            iv.coalesce([(5, 3)])

    @given(intervals)
    def test_coalesce_idempotent(self, fam):
        once = iv.coalesce(fam)
        assert iv.coalesce(once) == once
        assert iv.is_coalesced(once)

    @given(intervals)
    def test_coalesce_preserves_points(self, fam):
        raw = {t for s, e in fam for t in range(s, e + 1)}
        assert set(iv.points(iv.coalesce(fam))) == raw


class TestSetOps:
    def test_intersect_basic(self):
        assert iv.intersect([(1, 5)], [(3, 8)]) == [(3, 5)]

    def test_intersect_disjoint(self):
        assert iv.intersect([(1, 2)], [(4, 5)]) == []

    def test_intersect_multi(self):
        assert iv.intersect([(1, 10)], [(2, 3), (6, 7)]) == [(2, 3), (6, 7)]

    def test_complement_inner_gap(self):
        assert iv.complement([(3, 4)], 1, 8) == [(1, 2), (5, 8)]

    def test_complement_full(self):
        assert iv.complement([], 1, 5) == [(1, 5)]

    def test_complement_everything(self):
        assert iv.complement([(1, 5)], 1, 5) == []

    def test_clip(self):
        assert iv.clip([(1, 10)], 3, 5) == [(3, 5)]
        assert iv.clip([(1, 10)], 7, 3) == []

    @given(intervals, intervals)
    def test_intersect_is_point_intersection(self, a, b):
        got = set(iv.points(iv.intersect(a, b)))
        assert got == set(iv.points(a)) & set(iv.points(b))

    @given(intervals)
    def test_complement_partitions_domain(self, fam):
        fam = iv.clip(fam, 0, 40)
        comp = iv.complement(fam, 0, 40)
        pts, cpts = set(iv.points(fam)), set(iv.points(comp))
        assert pts & cpts == set()
        assert pts | cpts == set(range(0, 41))


class TestPredicates:
    def test_covered_by_true(self):
        assert iv.covered_by([(2, 3)], [(1, 5)])
        assert iv.covered_by([], [(1, 5)])

    def test_covered_by_false(self):
        assert not iv.covered_by([(2, 6)], [(1, 5)])

    def test_is_coalesced(self):
        assert iv.is_coalesced([(1, 2), (4, 5)])
        assert not iv.is_coalesced([(1, 2), (3, 4)])
        assert not iv.is_coalesced([(4, 5), (1, 2)])


class TestValuedCoalesce:
    def test_same_value_adjacent_merges(self):
        # F3 = {(v,[1,2]),(v,[3,4])} is NOT coalesced → merges
        assert iv.coalesce_valued([("v", (1, 2)), ("v", (3, 4))]) == [("v", (1, 4))]

    def test_distinct_values_meet_ok(self):
        fam = [("v", (1, 2)), ("w", (3, 4))]
        assert iv.coalesce_valued(fam) == fam

    def test_same_value_gap_preserved(self):
        fam = [("v", (1, 2)), ("v", (5, 8))]
        assert iv.coalesce_valued(fam) == fam

    def test_conflicting_overlap_raises(self):
        with pytest.raises(ValueError):
            iv.coalesce_valued([("v", (1, 4)), ("w", (3, 6))])

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            iv.coalesce_valued([("v", (4, 1))])
