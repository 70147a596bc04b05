"""Exhaustive enumeration of all numerical semigroups of a given genus.

Children of a semigroup S are obtained by removing one minimal generator
strictly greater than F(S); re-adding the Frobenius number recovers the
unique parent, so the tree rooted at the full monoid visits every numerical
semigroup exactly once, with genus equal to tree depth.

Enumeration runs serially to ``split_depth`` and then fans the frontier
subtrees out to worker processes in one ``pool.map``: the ordinary
semigroup's subtree is split further by multiplicity into large tasks, which
go first, and the other frontier nodes are dealt round-robin into at most 8
tasks per worker.  Each task returns its own Accumulator; the driver folds
them with ``merge_in`` and finalizes once, so the resulting GenusAggregate
is byte-identical regardless of worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .core import SemigroupSet, _bit_positions, _min_gens_mask, invariants
from .errors import GenusTooLarge
from .stats import Accumulator

MAX_GENUS = 45
DEFAULT_SPLIT_DEPTH = 14

__all__ = [
    "TreeNode",
    "EnumerationPlan",
    "children",
    "count_genus",
    "count_genus_series",
    "iter_semigroups",
    "enumerate_genus",
]


def _capacity_for(genus):
    # F <= 2g-1 and m <= g+1, so F + 2m + 2 <= 4g + 3; round up generously
    # so one mask width serves the whole walk down to the target genus.
    return 4 * genus + 8


@dataclass(frozen=True)
class TreeNode:
    """A semigroup together with its removable (effective) generators."""

    semigroup: SemigroupSet
    effective_generators: tuple


def root():
    from .core import _full_monoid

    return TreeNode(_full_monoid(), (1,))


def children(node):
    """Child nodes in ascending order of the removed generator."""
    S = node.semigroup
    out = []
    for y in node.effective_generators:
        cap2 = y + 2 * (S.multiplicity + 1) + 2
        mask = S.mask
        if cap2 > S.capacity:
            mask |= ((1 << (cap2 - S.capacity)) - 1) << S.capacity
        else:
            cap2 = S.capacity
        child = SemigroupSet(mask & ~(1 << y), cap2)
        m2, F2 = child.multiplicity, child.frobenius  # genus >= 1, so F2 >= 1
        gens = _min_gens_mask(child.mask, m2, F2) >> (F2 + 1)
        out.append(TreeNode(child, tuple(F2 + 1 + p for p in _bit_positions(gens))))
    return out


@dataclass(frozen=True)
class EnumerationPlan:
    """How a genus enumeration is divided into independent work units."""

    target_genus: int
    split_depth: int
    worker_count: int

    def __post_init__(self):
        if not 0 <= self.split_depth < max(self.target_genus, 1):
            raise ValueError("split_depth must satisfy 0 <= split_depth < target_genus")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")


def _walk(mask, m, F, g, target, on_leaf, levels):
    """Depth-first over the subtree; counts every visited node per level."""
    levels[g] += 1
    if g == target:
        on_leaf(mask, m, F)
        return
    if F < 0:
        cands = (1,)
    else:
        gens = _min_gens_mask(mask, m, F) >> (F + 1)
        if not gens:
            return
        cands = tuple(F + 1 + p for p in _bit_positions(gens))
    for y in cands:
        mask2 = mask ^ (1 << y)
        if y == m:
            rest = mask2 >> (m + 1)
            m2 = m + 1 + (rest & -rest).bit_length() - 1
        else:
            m2 = m
        _walk(mask2, m2, y, g + 1, target, on_leaf, levels)


def _root_state(capacity):
    return (1 << capacity) - 1, 1, -1


def _plan(g, threads, split_depth):
    if threads is None or threads < 1:
        threads = 1
    if g == 0 or threads == 1:
        return None
    if split_depth is None:
        split_depth = min(DEFAULT_SPLIT_DEPTH, g - 1)
    return EnumerationPlan(g, split_depth, threads)


def _tasks(capacity, depth, target, workers, levels):
    """Split the tree into worker tasks ``(roots, g0)``, large ones first.

    The leftmost node at ``depth`` is the ordinary semigroup
    O_{depth+1} = {0, depth+1, depth+2, ...}.  Its subtree holds every
    semigroup of multiplicity > depth, which is most of the tree at large
    genus (90.6% of the leaves at genus 30 with depth 14), so it is split
    down the ordinary chain: the children of O_k other than O_{k+1} are the
    roots of every other semigroup of multiplicity k, and each such group
    is one large task; O_{target+1}, at depth ``target``, is one more task.
    The other nodes at ``depth`` are dealt round-robin into at most
    8 x ``workers`` tasks, which spreads the large subtrees at the left of
    the walk.  The roots of one task share their depth ``g0``.

    Workers count the nodes from their own roots down; ``levels`` receives
    the nodes above the frontier and the chain nodes walked here.
    """
    frontier = []
    mask, m, F = _root_state(capacity)
    _walk(mask, m, F, 0, depth, lambda a, b, c: frontier.append((a, b, c)), levels)
    levels[depth] = 0
    # Removing the multiplicity is always the first child, so the leftmost
    # node is O_{depth+1}.
    (mask, m, F), rest = frontier[0], frontier[1:]
    n = min(8 * workers, len(rest))
    small = [(tuple(rest[i::n]), depth) for i in range(n)]
    large = []
    for d in range(depth, target):
        # O_m sits at depth d = m - 1 and its generators are m, ..., 2m - 1.
        levels[d] += 1
        group = tuple((mask ^ (1 << y), m, y) for y in range(m + 1, 2 * m))
        if group:
            large.append((group, d + 1))
        mask, m, F = mask ^ (1 << m), m + 1, m
    return large + small + [(((mask, m, F),), target)]


def _count_job(args):
    roots, g0, target, _capacity = args
    levels = [0] * (target + 1)
    for mask, m, F in roots:
        _walk(mask, m, F, g0, target, lambda a, b, c: None, levels)
    return levels


def _stats_job(args):
    roots, g0, target, capacity = args
    acc = Accumulator(target, capacity)
    levels = [0] * (target + 1)
    for mask, m, F in roots:
        _walk(mask, m, F, g0, target, acc.add_leaf, levels)
    return acc


def _run_parallel(plan, capacity, job):
    """Results of ``job`` on every task, in task order, and the driver's levels."""
    target = plan.target_genus
    levels = [0] * (target + 1)
    tasks = _tasks(capacity, plan.split_depth, target, plan.worker_count, levels)
    with ProcessPoolExecutor(max_workers=plan.worker_count) as pool:
        results = list(pool.map(job, [(roots, g0, target, capacity) for roots, g0 in tasks]))
    return results, levels


def count_genus(g, threads=1, split_depth=None):
    """N(g): the number of numerical semigroups of genus g."""
    return count_genus_series(g, threads=threads, split_depth=split_depth)[g]


def count_genus_series(gmax, threads=1, split_depth=None):
    """[N(0), ..., N(gmax)] from a single tree walk."""
    if gmax > MAX_GENUS:
        raise GenusTooLarge(f"genus {gmax} exceeds the maximum {MAX_GENUS}")
    if gmax < 0:
        raise ValueError("genus must be nonnegative")
    capacity = _capacity_for(gmax)
    plan = _plan(gmax, threads, split_depth)
    if plan is None:
        levels = [0] * (gmax + 1)
        mask, m, F = _root_state(capacity)
        _walk(mask, m, F, 0, gmax, lambda a, b, c: None, levels)
        return levels
    results, levels = _run_parallel(plan, capacity, _count_job)
    for sub in results:
        for i, n in enumerate(sub):
            levels[i] += n
    return levels


def iter_semigroups(g):
    """Yield every SemigroupSet of genus g (single-threaded, ascending-child order)."""
    if g > MAX_GENUS:
        raise GenusTooLarge(f"genus {g} exceeds the maximum {MAX_GENUS}")
    capacity = _capacity_for(g)
    out = []
    mask, m, F = _root_state(capacity)
    levels = [0] * (g + 1)
    _walk(mask, m, F, 0, g, lambda a, b, c: out.append(a), levels)
    for leaf in out:
        yield SemigroupSet(leaf, capacity)


def enumerate_genus(g, visitor=None, threads=1, split_depth=None):
    """Aggregate statistics over all of genus g; optionally call visitor per record.

    The visitor receives one InvariantRecord per semigroup and forces a
    single-threaded walk (it may close over arbitrary state).
    """
    if g > MAX_GENUS:
        raise GenusTooLarge(f"genus {g} exceeds the maximum {MAX_GENUS}")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    capacity = _capacity_for(g)
    plan = None if visitor is not None else _plan(g, threads, split_depth)
    if plan is None:
        acc = Accumulator(g, capacity)
        if visitor is None:
            on_leaf = acc.add_leaf
        else:
            def on_leaf(mask, m, F):
                acc.add_leaf(mask, m, F)
                visitor(invariants(SemigroupSet(mask, capacity)))
        mask, m, F = _root_state(capacity)
        _walk(mask, m, F, 0, g, on_leaf, [0] * (g + 1))
        return acc.finalize()
    results, _levels = _run_parallel(plan, capacity, _stats_job)
    acc = Accumulator(g, capacity)
    for part in results:
        acc.merge_in(part)
    return acc.finalize()
