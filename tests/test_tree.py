import sys

import pytest

from numsem.errors import GenusTooLarge
from numsem.stats import merge
from numsem.tree import (
    EnumerationPlan,
    children,
    count_genus,
    count_genus_series,
    enumerate_genus,
    iter_semigroups,
    root,
)

KNOWN = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592]


def test_root_child():
    kids = children(root())
    assert len(kids) == 1
    assert kids[0].semigroup.gaps() == (1,)


def test_children_of_gap1():
    node = children(root())[0]
    assert node.effective_generators == (2, 3)
    kids = children(node)
    assert [k.semigroup.gaps() for k in kids] == [(1, 2), (1, 3)]


def test_ordinary_children():
    node = root()
    for _ in range(5):
        node = children(node)[0]  # leftmost child stays ordinary
    g = node.semigroup.genus
    assert node.semigroup.gaps() == tuple(range(1, g + 1))
    assert len(children(node)) == g + 1


def test_count_series():
    assert count_genus_series(12) == KNOWN


def test_count_single():
    assert count_genus(5) == 12
    assert count_genus(1) == 1
    assert count_genus(0) == 1


def test_iter_matches_count():
    for g in range(9):
        seen = list(iter_semigroups(g))
        assert len(seen) == KNOWN[g]
        assert len({S.gaps() for S in seen}) == KNOWN[g]
        assert all(S.genus == g for S in seen)


def test_genus_too_large():
    with pytest.raises(GenusTooLarge):
        count_genus(46)


def test_visitor_called_once_per_semigroup():
    records = []
    agg = enumerate_genus(6, visitor=records.append)
    assert len(records) == 23
    assert agg.count == 23
    assert sum(r.embedding_dim for r in records) == agg.moments["e"]


def test_fibonacci_like_growth():
    series = count_genus_series(18)
    for g in range(2, 19):
        assert series[g - 1] + series[g - 2] <= series[g]


def test_partition_property_any_split_depth():
    base = enumerate_genus(9, threads=1)
    for depth in (1, 3, 5, 8):
        agg = enumerate_genus(9, threads=2, split_depth=depth)
        assert agg.canonical_bytes() == base.canonical_bytes()


def test_parallel_counts_match():
    assert count_genus_series(14, threads=4, split_depth=7) == count_genus_series(14)


def test_parallel_counts_match_at_default_split_depth():
    # The frontier mixes depths once the ordinary chain is split below it.
    assert count_genus_series(20, threads=2) == count_genus_series(20)


def test_merge_of_subtree_aggregates():
    # splitting at two different depths yields the same merged aggregate
    a = enumerate_genus(8, threads=2, split_depth=2)
    b = enumerate_genus(8, threads=2, split_depth=6)
    assert a == b
    assert merge(a, type(a).empty(8)) == a


def test_recursion_limit_unchanged():
    # The walk is at most MAX_GENUS + 1 frames deep; a library call must
    # leave the caller's interpreter limit alone.
    old = sys.getrecursionlimit()
    limit = old + 1  # a value no library call would pick
    sys.setrecursionlimit(limit)
    try:
        count_genus_series(12)
        enumerate_genus(12)
        assert list(iter_semigroups(5))
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(old)


def test_plan_validation():
    with pytest.raises(ValueError):
        EnumerationPlan(5, 5, 2)
    with pytest.raises(ValueError):
        EnumerationPlan(5, 2, 0)
