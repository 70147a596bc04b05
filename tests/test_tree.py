import concurrent.futures
import hashlib
import multiprocessing
import sys
import tracemalloc
from collections import Counter
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsem import tree
from numsem.core import (
    SemigroupSet,
    invariants,
    minimal_generators,
    pseudo_frobenius,
    semigroup_from_gaps,
)
from numsem.errors import GenusTooLarge
from numsem.stats import Accumulator, merge
from numsem.tree import (
    MAX_GENUS,
    _children,
    _count_job,
    _series,
    _series_job,
    _states,
    _width,
    count_genus,
    count_genus_series,
    enumerate_genus,
    iter_semigroups,
    series_accumulators,
)
from numsem.verify import _core_failure

KNOWN = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592]
# N(0..22), OEIS A007323.
N_TO_22 = KNOWN + [1001, 1693, 2857, 4806, 8045, 13467, 22464, 37396, 62194, 103246]


W = _width(12)


def _gaps(state):
    return SemigroupSet(state[0], W).gaps()


def test_children_of_gap1():
    # <2, 3>, as the task root O_2, walks without its generator 2: its one
    # child is <2, 5>, and the tree's other child of it, <3, 4, 5>, is O_3.
    tasks = tree._tasks(W, 12)
    assert tasks[1][4] == 1 << 3  # the effective generator 3
    assert [_gaps(k) for k in _children(tasks[1], W - 1)] == [(1, 3)]
    assert _gaps(tasks[2]) == (1, 2)


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
    with pytest.raises(GenusTooLarge):
        next(iter_semigroups(MAX_GENUS + 1))
    with pytest.raises(GenusTooLarge):
        enumerate_genus(MAX_GENUS + 1)


def test_series_rejects_a_negative_genus():
    # Before the walk, with _width's message, whatever the largest genus.
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        series_accumulators({-1, 5})


def _bits(ns):
    return sum(1 << n for n in ns)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=20), st.data())
def test_kernel_state_matches_from_scratch(depth, data):
    # A random path from a task root O_m at depth m - 1 <= depth down to
    # depth; the width is the one a walk to genus 20 uses, so the shifts of
    # the child step are as tight as they get.
    width = _width(20)
    state = tree._tasks(width, 20)[data.draw(st.integers(0, depth))]
    while True:
        _assert_from_scratch(state, width)
        kids = _children(state, width - 1)
        if not kids or state[8] == depth:
            break
        state = kids[data.draw(st.integers(0, len(kids) - 1))]


def test_grandchildren_are_the_childrens_generators():
    # _count_job's levels below one root against _children applied n times,
    # n = 0..4, in the width of a walk to genus 18, so that the fourth
    # application stays inside the mask.
    width = _width(18)
    top = width - 1
    for state in _states(width, 14):
        d = state[8]
        level, want = [state], []
        for n in range(5):
            assert _count_job((state, width, d + n))[d + 1:] == want, (n, state)
            level = [kid for s in level for kid in _children(s, top)]
            want = want + [len(level)]


def _count_full_walk(roots, target, width):
    """The levels of a walk that builds every state down to ``target``: the
    reference for ``_count_job``, which builds no state below the roots."""
    per_depth = Counter(s[8] for root in roots for s in _series(root, target, width - 1))
    return [per_depth[d] for d in range(target + 1)]


def test_count_job_at_each_root_depth():
    # Roots at depth d count every level below them, d + 1 .. target; the
    # levels of a set of roots are the sum of each root's.
    for target in range(13):
        width = _width(target)
        states = list(_states(width, target))
        for d in range(target + 1):
            at_d = [s for s in states if s[8] == d]
            for roots in {tuple(at_d), tuple(at_d[:1]), tuple(at_d[1::2])} - {()}:
                want = _count_full_walk(roots, target, width)
                per_root = [_count_job((root, width, target)) for root in roots]
                assert [sum(n) for n in zip(*per_root)] == want, (target, d, roots)


def test_count_job_of_each_task_is_a_full_walk():
    # Every task of the multiplicity split against the walk that builds each
    # state; and the serial run against their sum.
    for g in range(8, 15):
        width = _width(g)
        levels = [0] * (g + 1)
        for root in tree._tasks(width, g):
            got = _count_job((root, width, g))
            assert got == _count_full_walk((root,), g, width), (g, root)
            for i, n in enumerate(got):
                levels[i] += n
        assert levels == count_genus_series(g), g


def test_add_grandchildren_is_add_of_each_grandchild():
    # The batched add of the statistics walk's last two levels against the
    # reference: the from-scratch add_leaf of every grandchild that _children
    # builds twice.
    width = _width(16)
    top = width - 1
    for state in _states(width, 14):
        batched, each = Accumulator(state[8] + 2, width), Accumulator(state[8] + 2, width)
        batched._add_grandchildren(state, top)
        for kid in _children(state, top):
            for mask, _, m, F, *_ in _children(kid, top):
                each.add_leaf(mask, m, F)
        assert batched.finalize() == each.finalize(), _gaps(state)


def test_iter_semigroups_is_lazy():
    tracemalloc.start()
    try:
        next(iter_semigroups(28))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_iter_semigroups_in_children_order(preorder):
    for g in range(13):
        want = [S.gaps() for S in preorder if S.genus == g]
        assert [S.gaps() for S in iter_semigroups(g)] == want, g


def test_series_restricted_to_a_depth_is_the_walk_order(preorder):
    series = list(_states(W, 12))
    for g in range(13):
        want = [S.gaps() for S in preorder if S.genus == g]
        assert [_gaps(s) for s in series if s[8] == g] == want, g


def test_fibonacci_like_growth():
    series = count_genus_series(18)
    for g in range(2, 19):
        assert series[g - 1] + series[g - 2] <= series[g]


def test_parallel_aggregate_matches_serial_at_genus_9():
    base = enumerate_genus(9, threads=1)
    agg = enumerate_genus(9, threads=2)
    assert agg.canonical_bytes() == base.canonical_bytes()


def test_parallel_counts_match():
    assert count_genus_series(14, threads=4) == count_genus_series(14)


def test_parallel_matches_serial_at_every_small_genus():
    # Every split has a task rooted at depth g (O_{g+1}), where counting
    # stops.
    for g in range(1, 11):
        assert count_genus_series(g, threads=2) == count_genus_series(g), g
    for g in range(1, 9):
        agg = enumerate_genus(g, threads=2)
        assert agg.canonical_bytes() == enumerate_genus(g).canonical_bytes(), g


def test_tasks_partition_the_tree():
    # The tasks hold every state of depth <= g exactly once, so no caller of
    # _run folds a state of its own.
    for g in range(1, 13):
        width = _width(g)
        levels, masks = [0] * (g + 1), set()
        for root in tree._tasks(width, g):
            for state in _series(root, g, width - 1):
                # No state of a task, root included, has its m among its
                # effective generators.
                assert not state[4] >> state[2] & 1, (g, state)
                assert state[0] not in masks, g
                masks.add(state[0])
                levels[state[8]] += 1
        assert levels == count_genus_series(g), g


def test_one_task_per_multiplicity(monkeypatch):
    # A parallel run submits one job per task, and each task is one root:
    # O_{i+1} at depth i, for i = 0 .. g.  Only N, whose one effective
    # generator 1 is cleared, and O_{g+1}, at the target, have no state below
    # them; so a job of N alone reaches no genus above 0.
    submits = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submits.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(tree, "ProcessPoolExecutor", CountingPool)
    assert count_genus_series(20, threads=2) == N_TO_22[:21]
    assert len(submits) == 21
    for g in range(13):
        width = _width(g)
        roots = tree._tasks(width, g)
        assert [(root[2], root[8]) for root in roots] == [(i + 1, i) for i in range(g + 1)], g
        empty = {
            i for i, root in enumerate(roots) if not any(_count_job((root, width, g))[i + 1:])
        }
        assert empty == {0, g}, g
    w = _width(12)
    assert _series_job(range(1, 13), (tree._tasks(w, 12)[0], w, 12)) == {}


def _series_bytes(genera, threads=1):
    """canonical_bytes of each aggregate of a series walk, by genus."""
    accs = series_accumulators(genera, threads)
    return {g: acc.finalize().canonical_bytes() for g, acc in accs.items()}


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_runs_under_each_start_method(method, monkeypatch):
    # Workers that start from a fresh interpreter, not a fork of this one,
    # unpickle the jobs and pickle back their results (Accumulators and
    # level counts) with the serial bytes.
    from concurrent.futures import ProcessPoolExecutor

    serial = (
        enumerate_genus(12).canonical_bytes(),
        _series_bytes(range(13)),
        count_genus_series(12),
    )
    pool = partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
    monkeypatch.setattr(tree, "ProcessPoolExecutor", pool)
    parallel = (
        enumerate_genus(12, 2).canonical_bytes(),
        _series_bytes(range(13), 2),
        count_genus_series(12, 2),
    )
    assert parallel == serial


def _peak(f, g):
    """The tracemalloc peak of f(g), in bytes."""
    tracemalloc.start()
    try:
        f(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_number_of_semigroups():
    # N grows from 592 to 4,806 between genus 12 and 16; a list of the
    # leaves would grow the peak about 8x.  The peaks grow with the task
    # list and the per-genus arrays instead, a serial run holding its running
    # total and one task's result at once: over ten runs, 1.58x to 1.63x for
    # enumerate_genus (59 -> 93 to 96 KB) and 1.40x to 1.46x for
    # count_genus_series (3.7 -> 5.2 to 5.4 KB).  Each is called once before
    # it is measured, so that no first-call allocation counts.
    for f in (enumerate_genus, count_genus_series):
        f(12)
        assert _peak(f, 16) < 2 * _peak(f, 12), f.__name__


def test_series_edge_cases(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("genus 0 needs no worker pool")

    with monkeypatch.context() as m:
        m.setattr(tree, "ProcessPoolExecutor", no_pool)
        assert _series_bytes([0], threads=2) == {0: enumerate_genus(0).canonical_bytes()}
    # At genus 1 the root is the only chain node, and O_2 the only other
    # task.
    assert _series_bytes([0, 1], threads=2) == {
        g: enumerate_genus(g).canonical_bytes() for g in (0, 1)
    }


# Roots of deep subtrees below genus g, each as (m, path): from the task root
# O_m, the child of each index of ``path`` in turn, counted from the last
# child when negative.  Index 0 of O_m, which walks without its generator m,
# removes m + 1: the chain's neighbour.  Per genus: first children below that
# neighbour, a mixed path, alternating first and second children, and a last
# child; at 36 and 45 also a multiplicity above 32, whose e1 window [m, 2m)
# reaches past bit 64.  Each subtree holds at most 2,000 leaves.
_DEEP_ROOTS = {
    26: (
        (6, (0,) * 10),
        (18, (1, 1, 0, 2)),
        (13, (0, 1, 0, 1, 0, 1)),
        (13, (0,) + (1,) * 6 + (-1,)),
    ),
    30: (
        (8, (0,) * 16),
        (20, (1, 1, 0, 2, 0)),
        (15, (0, 1, 0, 1, 0, 1, 0, 1)),
        (15, (0, 1, 0, 1, 0, 1, 0, 0, 0, -1)),
    ),
    36: (
        (9, (0,) * 22),
        (24, (1, 1, 0, 2, 0, 3)),
        (18, (0, 1, 0, 1, 0, 1, 0, 1, 0, 1)),
        (18, (0, 1, 0, 1, 0, 1, 0, 1, 0, 0, -1)),
        (34, (0,)),
    ),
    45: (
        (11, (0,) * 31),
        (30, (1, 1, 0, 2, 0, 3, 1, 1, 0)),
        (22, (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)),
        (22, (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, -1)),
        (37, (0,) * 7),
    ),
}


def _descend(width, g, m, path):
    top = width - 1
    state = tree._tasks(width, g)[m - 1]
    for i in path:
        state = _children(state, top)[i]
    return state


def test_deep_subtrees_above_genus_30_are_the_from_scratch_fold():
    # _series_job over fixed roots down to genus g, one job per root, the
    # results merged, every depth from the shallowest root's accumulated:
    # against add_leaf over the same states, and its e histograms and e
    # counters against core.invariants, which no joint count reads.  Every
    # visited state passes verify's from-scratch check.
    for g, specs in _DEEP_ROOTS.items():
        width = _width(g)
        roots = [_descend(width, g, m, path) for m, path in specs]
        for root in roots:
            assert _count_job((root, width, g))[-1] <= 2000, (g, root[8])
        genera = range(min(root[8] for root in roots), g + 1)
        got = reduce(tree._merge_series, (_series_job(genera, (r, width, g)) for r in roots))
        want = {h: Accumulator(h, width) for h in genera}
        records = {h: [] for h in genera}
        for root in roots:
            for state in _series(root, g, width - 1):
                assert _core_failure(state, width) is None, (g, _gaps(state))
                want[state[8]].add_leaf(state[0], state[2], state[3])
                records[state[8]].append(invariants(SemigroupSet(state[0], width)))
        assert set(got) == set(genera), g
        for h in genera:
            agg = got[h].finalize()
            assert agg == want[h].finalize(), (g, h)
            recs = records[h]
            for name, field in (("e", "embedding_dim"), ("e1", "e1"), ("e2", "e2")):
                c = Counter(getattr(r, field) for r in recs)
                assert agg.hist[name] == tuple(c[i] for i in range(h + 2)), (g, h, name)
            e_m = [(r.embedding_dim, r.multiplicity) for r in recs]
            assert agg.counters["e_ge_m_half"] == sum(2 * e >= m for e, m in e_m), (g, h)
            assert agg.counters["e_ge_m_third"] == sum(3 * e >= m for e, m in e_m), (g, h)


def test_genus_24_aggregate_digest():
    # The statistics path's bytes at genus 24, pinned: any change to the walk,
    # the kernel or the accumulator that moves one count moves this digest.
    digest = hashlib.sha256(enumerate_genus(24).canonical_bytes()).hexdigest()
    assert digest == "72c38a053983e9ed610f49a8bc5393a99f6259c64d72c218d3e152a99f2bfca7"


def test_parallel_counts_match_at_genus_20():
    # The tasks' roots lie at every depth of the ordinary chain.
    assert count_genus_series(20, threads=2) == count_genus_series(20)


def test_merge_of_subtree_aggregates():
    # the merged aggregate of the 2-worker split is the serial one
    a = enumerate_genus(8, threads=2)
    b = enumerate_genus(8, threads=1)
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


def test_threads_below_one_are_rejected():
    for threads in (0, -3):
        for g in (0, 8):
            with pytest.raises(ValueError):
                count_genus(g, threads=threads)
        with pytest.raises(ValueError):
            enumerate_genus(6, threads=threads)
    assert count_genus(8, threads=None) == count_genus(8, threads=1) == KNOWN[8]
    assert enumerate_genus(6, threads=None) == enumerate_genus(6, threads=1)


def _reversed(mask, width):
    return int(format(mask, f"0{width}b")[::-1], 2)


def test_tasks_are_the_ordinary_chain_in_closed_form():
    # At every target up to MAX_GENUS, the task roots against the
    # from-scratch values of O_m = semigroup_from_gaps(1 .. m-1), each with m
    # cleared from its effective generators.
    for G in range(MAX_GENUS + 1):
        width = _width(G)
        scratch = []
        for m in range(1, G + 2):
            S = semigroup_from_gaps(range(1, m))
            mask, F, gens = ((1 << width) - 1) ^ _bits(S.gaps()), S.frobenius, minimal_generators(S)
            scratch.append((
                mask, _reversed(mask, width), S.multiplicity, F,
                _bits(y for y in gens if y > F and y != m), len(gens),
                _bits(pseudo_frobenius(S)), sum(S.gaps()), S.genus,
            ))
        assert tree._tasks(width, G) == scratch, G


def _assert_from_scratch(state, width):
    """The kernel state against the values core computes from its mask; a
    task root's m, cleared from its effective generators, is left out."""
    mask, rev, m, F, eff, e, pf, alpha, g = state
    S = SemigroupSet(mask, width)
    gens = minimal_generators(S)
    assert (m, F, g) == (S.multiplicity, S.frobenius, S.genus)
    assert eff == _bits(y for y in gens if y > F and y != m)
    assert e == len(gens)
    assert pf == _bits(pseudo_frobenius(S))
    assert alpha == sum(S.gaps())
    assert rev == _reversed(mask, width)
    assert _core_failure(state, width) is None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(2, MAX_GENUS), st.data())
def test_random_deep_paths_from_the_task_roots(m, data):
    # From the closed-form root O_m, in the width of a walk to MAX_GENUS, a
    # random path through children that have children of their own, down to
    # depth MAX_GENUS - 3 at most; each node against the from-scratch values.
    # Below its end node d, three levels, or as many as MAX_GENUS leaves:
    # counted, accumulated and checked against _children's states.
    width = _width(MAX_GENUS)
    top = width - 1
    state = tree._tasks(width, MAX_GENUS)[m - 1]
    while True:
        _assert_from_scratch(state, width)
        kids = [kid for kid in _children(state, top) if kid[4]]
        if not kids or state[8] >= MAX_GENUS - 3:
            break
        state = kids[data.draw(st.integers(0, len(kids) - 1))]
    d, target = state[8], min(state[8] + 3, MAX_GENUS)
    levels = [[state]]
    for _ in range(d, target):
        levels.append([kid for s in levels[-1] for kid in _children(s, top)])
    assert _count_job((state, width, target))[d + 1:] == [len(level) for level in levels[1:]]
    want = []
    for h, level in enumerate(levels, d):
        each = Accumulator(h, width)
        for s in level:
            assert _core_failure(s, width) is None, _gaps(s)
            each.add_leaf(s[0], s[2], s[3])
        want.append(each.finalize())
    # To d + 2, the grandchildren are added from d itself; to d + 3, from
    # each child.
    for t in range(max(d, target - 1), target + 1):
        got = _series_job(range(d, t + 1), (state, width, t))
        assert [got[h].finalize() for h in range(d, t + 1)] == want[:t - d + 1], t


@pytest.fixture(scope="module")
def two_workers():
    """One two-worker process pool for the tests that run many small
    parallel walks, shut down when the module's tests are done.  Its tests
    come last in the module: a pool forked while this one's management
    thread runs would fork a multi-threaded process."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(2) as pool:
        yield pool


@pytest.fixture
def shared_pool(two_workers, monkeypatch):
    """Make every parallel run of the test use ``two_workers``: ``_run``
    opens its pool through ``tree.ProcessPoolExecutor``, patched here to hand
    back the shared pool and leave it open on exit."""

    class Shared:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return two_workers

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(tree, "ProcessPoolExecutor", Shared)


def test_series_is_the_per_genus_aggregates(shared_pool):
    # One walk for every genus up to G, or for a few genera only, serial and
    # with 2 workers, gives enumerate_genus's bytes and accumulates
    # no other depth; counts are the count series'.
    per_genus = {g: enumerate_genus(g).canonical_bytes() for g in range(17)}
    for G in range(17):
        accs = series_accumulators(range(G + 1))
        assert [accs[g].count for g in range(G + 1)] == count_genus_series(G), G
    for genera in [range(G + 1) for G in range(17)] + [{12}, {1, 12}, {3, 7, 8}, {0, 5}]:
        want = {g: per_genus[g] for g in genera}
        assert _series_bytes(genera) == want, genera
        assert _series_bytes(genera, 2) == want, genera


def test_two_level_stop_is_the_from_scratch_fold(shared_pool):
    # The {g - 1, g} and {g - 2, g} sets reach a task root's children and
    # grandchildren, serial and with 2 workers, against add_leaf folded over
    # iter_semigroups.
    folded = {}
    for g in range(13):
        acc = Accumulator(g, _width(g))
        for S in iter_semigroups(g):
            acc.add_leaf(S.mask, S.multiplicity, S.frobenius)
        folded[g] = acc.finalize().canonical_bytes()
    sets = {frozenset({0, 2}), frozenset({1, 2})}
    for g in range(13):
        sets |= {frozenset({g}), frozenset({max(g - 1, 0), g}), frozenset({max(g - 2, 0), g})}
    for genera in sorted(sets, key=sorted):
        want = {g: folded[g] for g in genera}
        assert _series_bytes(genera) == want, genera
        assert _series_bytes(genera, 2) == want, genera


def test_a_serial_run_folds_one_job_per_task(shared_pool, monkeypatch):
    # A serial run calls its job once per task root, in ascending m, as a
    # parallel run submits one job per root; the folded bytes are the
    # parallel run's.
    parallel = _series_bytes(range(13), 2)
    seen = []

    def recording(job):
        def wrapped(*args):
            seen.append(args[-1][0][2])  # (root, width, target)'s root's m
            return job(*args)

        return wrapped

    monkeypatch.setattr(tree, "_count_job", recording(_count_job))
    monkeypatch.setattr(tree, "_series_job", recording(_series_job))
    assert count_genus_series(12) == KNOWN
    assert seen == list(range(1, 14))
    seen.clear()
    assert _series_bytes(range(13)) == parallel
    assert seen == list(range(1, 14))
    assert enumerate_genus(12).canonical_bytes() == parallel[12]
