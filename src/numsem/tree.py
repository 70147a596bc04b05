"""Exhaustive enumeration of all numerical semigroups of a given genus.

Children of a semigroup S are obtained by removing one minimal generator
strictly greater than F(S); re-adding the Frobenius number recovers the
unique parent, so the tree rooted at the full monoid visits every numerical
semigroup exactly once, with genus equal to tree depth.

Every walk runs one kernel (Fromentin & Hivert, arXiv:1305.3831).  A node's
state is ``(mask, rev, m, F, eff, e, pf, alpha, g)``: the membership mask
and its bit reversal in one width W, m, F, the effective generators (the
minimal generators above F) as a mask, e, the pseudo-Frobenius numbers as a
mask, the gap sum and the genus.  ``_children`` derives each child's state
from its parent's in O(1) big-int steps.  Counting builds no state below a
task's root, by Fromentin and Hivert's rule: a node's children are its
effective generators, and ``_count_job`` derives each child's from them by
``_children``'s rule (a child loses one when y + m = a + b), so it walks
(mask, rev, m, eff) alone, to any depth.
Statistics stop two levels early: every child is its parent plus one gap
y > F (Bras-Amorós's tree), so ``Accumulator._add_grandchildren`` adds the
last two levels from depth g - 2 without building a child.

``_series`` is the one walk of full states: a depth-first pre-order walk
with an explicit stack below a root of ``_tasks``.  Statistics read it one
task at a time; ``iter_semigroups`` and the tree-walking verify suites read
``_states``, every task in descending m.

``_run`` is the one driver.  Every run splits the tree by multiplicity into
root states, one per m, whose walks hold every state exactly once, with m
no walked state's effective generator (see ``_tasks``), and runs one job per
root: in this process, in ascending m, when serial, and on worker processes
when parallel.  It merges the jobs' results (level counts, or one
Accumulator per genus, by ``merge_in``).  Every count is a sum, so the
GenusAggregate, finalized once, is byte-identical whatever the worker
count.  The first parallel run imports ``concurrent.futures``.
"""

from functools import partial, reduce

from .core import SemigroupSet
from .errors import GenusTooLarge
from .stats import Accumulator

MAX_GENUS = 45
ProcessPoolExecutor = None  # _run's pool class; None for concurrent.futures'

__all__ = [
    "count_genus",
    "count_genus_series",
    "iter_semigroups",
    "enumerate_genus",
    "series_accumulators",
]


def _width(g):
    """The mask width W of a walk down to genus g, which must be in range."""
    if g > MAX_GENUS:
        raise GenusTooLarge(f"genus {g} exceeds the maximum {MAX_GENUS}")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    # F <= 2g-1 and m <= g+1, so F + 2m + 2 <= 4g + 3; rounded up generously.
    return 4 * g + 8


def _children(state, top):
    """Kernel states of the children, in ascending order of the removed y.

    m must not be among the state's effective generators, as it is in no
    state of ``_tasks``' walks.  Only y + m can become a generator: for a
    member a > m, y + a is m + (y + a - m).  ``top`` is W - 1, so bit j of
    ``rev >> (top - n)`` is set iff n - j is a member.
    """
    mask, rev, m, F, eff, e, pf, alpha, g = state
    g += 1
    out = []
    add = out.append
    while eff:
        low = eff & -eff
        eff ^= low  # the generators above y, which stay minimal in the child
        y = low.bit_length() - 1
        c = mask ^ low
        ty = top - y
        r = rev ^ (1 << ty)
        # PF(S - y) = {y} and the p in PF(S) with y - p not in S - y.
        p = pf & ~(r >> ty) | low
        if c & (r >> (ty - m)) & ((1 << (y + m)) - 2):  # y + m = a + b, a, b in c
            add((c, r, m, y, eff, e - 1, p, alpha + y, g))
        else:  # y + m is the one new generator
            add((c, r, m, y, eff | 1 << (y + m), e, p, alpha + y, g))
    return out


def _series(root, stop, top):
    """Yield every state of depth <= ``stop`` below ``root``, root included,
    depth first in pre-order, children in ascending order of the removed
    generator; ``top`` is W - 1."""
    stack = [root]
    while stack:
        state = stack.pop()
        yield state
        if state[8] < stop:
            stack.extend(reversed(_children(state, top)))


def _count_job(args):
    """Nodes per depth 0 .. target below a root of ``_tasks``, the root
    counted at its depth, building no state below it; m is not among the
    root's effective generators, so every descendant keeps its m.

    The walk keeps (mask, rev, eff, depth) per node on one stack and follows
    ``_children``'s rules: a child's mask and rev flip one bit, and it keeps
    the generators above y, plus y + m unless y + m = a + b, m < a, b < y.
    A node at depth j adds its generators at j + 1; one with j + 3 == target
    reads its children inline: a child with k generators has k children and
    k(k+1)/2 grandchildren, less one per generator z of the child with
    z + m = a + b (``_children``'s e - 1 test).
    """
    (mask, rev, m, _, eff, *_, d), width, target = args
    window, shift = 2 << m, width - m
    levels = [0] * (target + 1)
    levels[d] = 1
    stack = [(mask, rev, eff, d)] if d < target else []
    push = stack.append
    while stack:
        mask, rev, eff, j = stack.pop()
        j += 1  # the children's depth
        levels[j] += eff.bit_count()
        if j == target:
            continue
        inline, n2, n3 = j + 2 == target, 0, 0
        while eff:
            low = eff & -eff
            eff ^= low  # the generators above y, which the child keeps
            c, r = mask ^ low, rev ^ (1 << (width - low.bit_length()))
            kids = eff if c & (r >> (shift - low.bit_length())) & (low - window) else eff | low << m
            if not inline:
                push((c, r, kids, j))
                continue
            k = kids.bit_count()
            n2, n3 = n2 + k, n3 + k * (k + 1) // 2
            while kids:
                z = kids & -kids
                kids ^= z
                if c & (r >> (shift - z.bit_length())) & (z - window):
                    n3 -= 1
        if inline:
            levels[j + 1] += n2
            levels[j + 2] += n3
    return levels


def _series_job(genera, args):
    """{g: Accumulator} for each depth g <= target in ``genera`` that the
    walk below a root of ``_tasks`` reaches: the root's own depth d, and
    each deeper one if the root has an effective generator; no other state
    is accumulated.

    The walk stops at depth max(d, target - 2), and the root alone is
    counted from scratch, by ``add_leaf``.  Each walked state below
    ``target`` adds its children to the next genus (``_add_children``), and
    each at target - 2 its grandchildren to ``target``
    (``_add_grandchildren``), when that genus is requested.  m is no walked
    state's effective generator, as ``_children`` and the batched adds need.
    """
    root, width, target = args
    top, d = width - 1, root[8]
    reached = range(d, target + 1 if root[4] else d + 1)
    accs = {g: Accumulator(g, width) for g in genera if g in reached}
    run = [accs.get(g) for g in range(target + 1)]
    last = run[target]
    if run[d] is not None:
        run[d].add_leaf(root[0], root[2], root[3])
    for state in _series(root, max(d, target - 2), top):
        g = state[8]
        if g < target and run[g + 1] is not None:
            run[g + 1]._add_children(state, top)
        if g == target - 2 and last is not None:
            last._add_grandchildren(state, top)
    return accs


def _tasks(width, target):
    """Split the tree down to ``target`` into worker tasks by multiplicity
    (Fromentin and Hivert's split along the ordinary chain).

    A task is one kernel state, the root of a walk to ``target``: O_m at
    depth m - 1, for m = 1 .. target + 1 in ascending m, in closed form (gaps
    and PF 1 .. m - 1, F = m - 1 but -1 at m = 1, e = m, gap sum m(m - 1)/2,
    effective generators m + 1 .. 2m - 1: m is cleared).  The first child of
    O_m is O_{m+1}, the one child that m's removal skips, so task m holds O_m
    and every other semigroup of multiplicity m, and the tasks hold every
    state of depth <= ``target`` exactly once, no state with m effective.
    """
    full = (1 << width) - 1
    return [(full ^ ((1 << m) - 2), full ^ (((1 << (m - 1)) - 1) << (width - m)), m, m - 1 or -1,
             ((1 << (m - 1)) - 1) << (m + 1), m, (1 << m) - 2, m * (m - 1) // 2, m - 1)
            for m in range(1, target + 2)]


def _states(width, stop):
    """The states of depth <= ``stop``, the walks of ``_tasks`` in descending m:
    at each depth g, ``iter_semigroups``' order (O_{g+1}, task g's, task g - 1's, ...)."""
    for root in reversed(_tasks(width, stop)):
        yield from _series(root, stop, width - 1)


def _run(gmax, threads, job, merge):
    """The results of ``job`` for each root of ``_tasks`` down to ``gmax``,
    in width ``_width(gmax)``, combined by ``merge``: in this process, in
    ascending m, with one worker or at genus 0; else in one process pool, in
    the order they complete, so ``merge`` must not depend on that order
    (every job's merge is a sum).  The pool module is imported by the first
    parallel run, never by a serial one.
    """
    width = _width(gmax)
    if threads is not None and threads < 1:
        raise ValueError("threads must be positive")
    jobs = [(root, width, gmax) for root in _tasks(width, gmax)]
    if gmax == 0 or threads is None or threads == 1:
        return reduce(merge, map(job, jobs))
    from concurrent.futures import ProcessPoolExecutor as pool_class, as_completed
    with (ProcessPoolExecutor or pool_class)(max_workers=threads) as pool:
        # as_completed lets go of each future it yields, so a result is held
        # only until it is merged.
        done = as_completed([pool.submit(job, args) for args in jobs])
        return reduce(merge, (future.result() for future in done))


def count_genus(g, threads=1):
    """N(g): the number of numerical semigroups of genus g."""
    return count_genus_series(g, threads=threads)[g]


def count_genus_series(gmax, threads=1):
    """[N(0), ..., N(gmax)] from a single tree walk."""
    return _run(gmax, threads, _count_job, _add_levels)


def _add_levels(a, b):
    """The sum of two jobs' level counts."""
    return [x + y for x, y in zip(a, b)]


def iter_semigroups(g):
    """Yield every SemigroupSet of genus g, single-threaded, in ascending-child
    order: the pre-order of the tree rooted at the full monoid, each node's
    children by ascending removed generator, restricted to genus g.  These
    are the depth-g states of the task walks, in descending m."""
    width = _width(g)
    for state in _states(width, g):
        if state[8] == g:
            yield SemigroupSet(state[0], width)


def enumerate_genus(g, threads=1):
    """Aggregate statistics over all semigroups of genus g."""
    return series_accumulators((g,), threads)[g].finalize()


def series_accumulators(genera, threads=1):
    """{g: Accumulator of genus g} for each g in ``genera``, not yet
    finalized, from a single tree walk down to the largest.

    Only the states of those depths are accumulated.  Each job keeps one
    Accumulator per such depth its root reaches, and every run merges its
    jobs' Accumulators, so the bytes do not depend on the worker count.
    """
    genera = sorted(set(genera))
    _width(min(genera))  # a negative genus fails here, before the walk
    return _run(max(genera), threads, partial(_series_job, genera), _merge_series)


def _merge_series(accs, parts):
    """``accs`` with each Accumulator of ``parts`` merged in, or adopted where
    ``accs`` has none of its genus."""
    for g, part in parts.items():
        if g in accs:
            accs[g].merge_in(part)
        else:
            accs[g] = part
    return accs
