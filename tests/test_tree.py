import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsem import tree
from numsem.core import SemigroupSet, minimal_generators, pseudo_frobenius
from numsem.errors import GenusTooLarge
from numsem.stats import merge
from numsem.tree import (
    MAX_GENUS,
    EnumerationPlan,
    _children,
    _count_job,
    _grandchildren,
    _root,
    _series,
    _walk,
    _width,
    children,
    count_genus,
    count_genus_series,
    enumerate_genus,
    iter_semigroups,
    root,
    series_accumulators,
)

KNOWN = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592]
# N(0..22), OEIS A007323.
N_TO_22 = KNOWN + [1001, 1693, 2857, 4806, 8045, 13467, 22464, 37396, 62194, 103246]


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


def test_count_series_to_genus_22():
    assert count_genus_series(22) == N_TO_22


def test_iter_matches_count():
    for g in range(9):
        seen = list(iter_semigroups(g))
        assert len(seen) == KNOWN[g]
        assert len({S.gaps() for S in seen}) == KNOWN[g]
        assert all(S.genus == g for S in seen)


def test_genus_too_large():
    with pytest.raises(GenusTooLarge):
        count_genus(46)
    node = root()
    for _ in range(MAX_GENUS):
        node = children(node)[0]
    with pytest.raises(GenusTooLarge):
        children(node)


def _bits(ns):
    return sum(1 << n for n in ns)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=20), st.data())
def test_kernel_state_matches_from_scratch(depth, data):
    # A random root-to-node path; the width is the one a walk to genus 20
    # uses, so the shifts of the child step are as tight as they get.
    width = _width(20)
    state = _root(width)
    for _ in range(depth + 1):
        mask, rev, m, F, eff, e, pf, alpha, g = state
        S = SemigroupSet(mask, width)
        gens = minimal_generators(S)
        assert (m, F, g) == (S.multiplicity, S.frobenius, S.genus)
        assert eff == _bits(y for y in gens if y > F)
        assert e == len(gens)
        assert pf == _bits(pseudo_frobenius(S))
        assert alpha == sum(S.gaps())
        assert rev == int(format(mask, f"0{width}b")[::-1], 2)
        kids = _children(state, width - 1)
        if not kids:
            break
        state = kids[data.draw(st.integers(0, len(kids) - 1))]


def test_series_restricted_to_a_depth_is_the_walk_order():
    width = _width(12)
    series = list(_series(12))
    for g in range(13):
        walk = list(_walk([_root(width)], g, width, [0] * (g + 1)))
        assert [s for s in series if s[8] == g] == walk


def test_grandchildren_are_the_childrens_generators():
    top = _width(14) - 1
    for state in _series(14):
        kids = _children(state, top)
        assert _grandchildren(state, top) == sum(k[4].bit_count() for k in kids), state


def _count_one_level_early(roots, target, width):
    """The levels of a count that stops one level early: the reference for
    ``_count_job``, which stops two levels early."""
    levels = [0] * (target + 1)
    if roots[0][8] == target:
        levels[target] = len(roots)
    else:
        levels[target] = sum(s[4].bit_count() for s in _walk(roots, target - 1, width, levels))
    return levels


def test_count_job_at_each_root_depth():
    # Roots at depth target, target - 1 and target - 2 take the three
    # branches of _count_job; deeper roots walk to target - 2 first.
    for target in range(13):
        width = _width(target)
        states = list(_series(target, width=width))
        for d in range(target + 1):
            at_d = [s for s in states if s[8] == d]
            for roots in {tuple(at_d), tuple(at_d[:1]), tuple(at_d[1::2])} - {()}:
                want = _count_one_level_early(roots, target, width)
                assert _count_job((roots, target, width)) == want, (target, d, roots)


def test_iter_semigroups_is_lazy():
    tracemalloc.start()
    try:
        next(iter_semigroups(28))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _leaves(node, depth):
    if depth == 0:
        yield node.semigroup.gaps()
        return
    for kid in children(node):
        yield from _leaves(kid, depth - 1)


def test_iter_semigroups_in_children_order():
    for g in range(11):
        assert [S.gaps() for S in iter_semigroups(g)] == list(_leaves(root(), g))


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


def test_parallel_matches_serial_at_every_split_depth():
    # split_depth g - 1 puts the frontier where counting stops; every plan
    # has a task rooted at depth g (O_{g+1}).
    for g in range(1, 11):
        serial = count_genus_series(g)
        for d in range(g):
            assert count_genus_series(g, threads=2, split_depth=d) == serial, (g, d)
    for g in range(1, 9):
        serial = enumerate_genus(g).canonical_bytes()
        for d in range(g):
            agg = enumerate_genus(g, threads=2, split_depth=d)
            assert agg.canonical_bytes() == serial, (g, d)


def _series_bytes(genera, threads=1, split_depth=None):
    """canonical_bytes of each aggregate of a series walk, by genus."""
    accs = series_accumulators(genera, threads, split_depth)
    return {g: acc.finalize().canonical_bytes() for g, acc in accs.items()}


def test_series_is_the_per_genus_aggregates():
    # One walk for every genus up to G, or for a few genera only, serial and
    # at every 2-worker split, gives enumerate_genus's bytes and accumulates
    # no other depth; counts are the count series'.
    per_genus = {g: enumerate_genus(g).canonical_bytes() for g in range(17)}
    for G in range(17):
        accs = series_accumulators(range(G + 1))
        assert [accs[g].count for g in range(G + 1)] == count_genus_series(G), G
    for genera in [range(G + 1) for G in range(17)] + [{12}, {1, 12}, {3, 7, 8}, {0, 5}]:
        want = {g: per_genus[g] for g in genera}
        assert _series_bytes(genera) == want, genera
        for d in range(max(genera)):
            assert _series_bytes(genera, 2, d) == want, (genera, d)


def test_series_edge_cases(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("genus 0 needs no worker pool")

    with monkeypatch.context() as m:
        m.setattr(tree, "ProcessPoolExecutor", no_pool)
        assert _series_bytes([0], threads=2) == {0: enumerate_genus(0).canonical_bytes()}
    # Genus 1 splits at depth 0: the root is the only chain node, and O_2
    # the only task.
    assert _series_bytes([0, 1], threads=2) == {
        g: enumerate_genus(g).canonical_bytes() for g in (0, 1)
    }


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
