"""Per-layer probes of the traced run.

Each probe calls one module's public functions on a fixed input under a
span, and the per-layer metrics are computed from those spans.  The probes
are the same for every workload, so a layer metric means the same thing in
every traced run; see README.md for which end-to-end metric each should move.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time

from numsem import cli, core, kunz, stats, tree, verify

from measure import cpu_seconds
from workloads import AGGREGATE_SHA256, SERIES, sha256

REPEATS = 20  # calls per sub-millisecond probe (merge, from_dict, cache, finalize)


class CheckFailed(Exception):
    """A probe's output differs from the known answer."""


def _walk(tr, size, out):
    g = size["walk"]
    with tr.span("probe.tree.walk"):
        series = tree.count_genus_series(g)
    if series != list(SERIES[: g + 1]):
        raise CheckFailed(f"count_genus_series({g}) is wrong")
    out["tree.nodes"] = sum(series)
    out["tree.walk_ns_per_node"] = tr.duration("probe.tree.walk") / sum(series) * 1e9


def _iter(tr, size, out):
    g = size["iter"]
    with tr.span("probe.tree.iter"):
        with tr.span("probe.tree.iter.first"):
            it = tree.iter_semigroups(g)
            next(it)
        n = 1 + sum(1 for _ in it)
    if n != SERIES[g]:
        raise CheckFailed(f"iter_semigroups({g}) yielded {n}")
    out["tree.iter_first_yield_s"] = tr.duration("probe.tree.iter.first")
    out["tree.iter_us_per_semigroup"] = tr.duration("probe.tree.iter") / n * 1e6


def _parallel(tr, size, out):
    """enumerate_genus at one and two workers; returns the aggregate."""
    g = size["parallel"]
    aggs, cpu = {}, {}
    for threads in (1, 2):
        c0 = cpu_seconds()
        with tr.span(f"probe.tree.enumerate.{threads}"):
            aggs[threads] = tree.enumerate_genus(g, threads=threads)
        cpu[threads] = cpu_seconds() - c0
    if aggs[1].canonical_bytes() != aggs[2].canonical_bytes():
        raise CheckFailed("aggregate depends on the worker count")
    out["tree.parallel_speedup"] = tr.duration("probe.tree.enumerate.1") / tr.duration(
        "probe.tree.enumerate.2"
    )
    out["tree.fanout_cpu_overhead_s"] = cpu[2] - cpu[1]
    return aggs[1]


def _accumulate(tr, size, out):
    """Replay every leaf of the stats genus into an Accumulator."""
    g = size["stats"]
    acc = None
    busy = 0.0
    clock = time.perf_counter
    with tr.span("probe.stats.replay"):
        for S in tree.iter_semigroups(g):
            if acc is None:  # same mask width as the walk that made S
                acc = stats.Accumulator(g, S.capacity)
            t0 = clock()
            acc.add_leaf(S.mask, S.multiplicity, S.frobenius)
            busy += clock() - t0
    for _ in range(REPEATS):
        with tr.span("probe.stats.finalize"):
            agg = acc.finalize()
    if sha256(agg.canonical_bytes()) != AGGREGATE_SHA256[g]:
        raise CheckFailed(f"replayed genus-{g} aggregate differs from enumerate_genus")
    out["stats.add_leaf_us"] = busy / acc.count * 1e6
    out["stats.finalize_ms"] = statistics.median(tr.durations("probe.stats.finalize")) * 1e3


def _merge(tr, agg, out):
    """The parent process's per-task merge path: from_dict, then merge."""
    d = agg.to_dict()
    total = stats.GenusAggregate.empty(agg.genus)
    for _ in range(REPEATS):
        with tr.span("probe.stats.from_dict"):
            part = stats.GenusAggregate.from_dict(d)
        with tr.span("probe.stats.merge"):
            total = stats.merge(total, part)
    if total.count != REPEATS * agg.count:
        raise CheckFailed("merge lost semigroups")
    out["stats.from_dict_us"] = statistics.median(tr.durations("probe.stats.from_dict")) * 1e6
    out["stats.merge_us"] = statistics.median(tr.durations("probe.stats.merge")) * 1e6


def _core(tr, size, out):
    """Each from-scratch core function over every semigroup of one genus."""
    sgs = list(tree.iter_semigroups(size["core"]))
    gaps = [S.gaps() for S in sgs]
    calls = {
        "invariants": lambda: [core.invariants(S) for S in sgs],
        "minimal_generators": lambda: [core.minimal_generators(S) for S in sgs],
        "pseudo_frobenius": lambda: [core.pseudo_frobenius(S) for S in sgs],
        "semigroup_from_gaps": lambda: [core.semigroup_from_gaps(x) for x in gaps],
    }
    for name, call in calls.items():
        with tr.span(f"probe.core.{name}"):
            res = call()
        if name == "semigroup_from_gaps" and res != sgs:
            raise CheckFailed("semigroup_from_gaps does not round-trip")
        out[f"core.{name}_us"] = tr.duration(f"probe.core.{name}") / len(sgs) * 1e6


def _verify(tr, size, seed, out):
    order = sorted(size["verify"])
    random.Random(seed).shuffle(order)
    for name in order:
        with tr.span(f"probe.verify.{name}"):
            res = verify.run_suite(name, size["verify"][name])
        if not res.ok:
            raise CheckFailed(str(res))
        out[f"verify.{name}_s"] = tr.duration(f"probe.verify.{name}")


def _kunz(tr, size, out):
    g = size["kunz"]
    for _ in range(5):
        with tr.span("probe.kunz.count_by_kunz"):
            n = kunz.count_by_kunz(g)
        if n != SERIES[g]:
            raise CheckFailed(f"count_by_kunz({g}) = {n}")
    out["kunz.count_by_kunz_s"] = statistics.median(tr.durations("probe.kunz.count_by_kunz"))


def _cache(tr, agg, workdir, out):
    """cache_put into an empty directory, then cache_get of the same file."""
    d = tempfile.mkdtemp(dir=workdir)
    try:
        for _ in range(REPEATS):
            with tr.span("probe.cli.cache_put"):
                path = cli.cache_put(d, agg)
            os.remove(path)
        path = cli.cache_put(d, agg)
        out["cli.cache_bytes"] = os.path.getsize(path)
        for _ in range(REPEATS):
            with tr.span("probe.cli.cache_get"):
                got = cli.cache_get(d, agg.genus)
        if got != agg:
            raise CheckFailed("cache round trip changed the aggregate")
    finally:
        shutil.rmtree(d)
    out["cli.cache_put_ms"] = statistics.median(tr.durations("probe.cli.cache_put")) * 1e3
    out["cli.cache_get_ms"] = statistics.median(tr.durations("probe.cli.cache_get")) * 1e3


def run_probes(tr, size, seed, workdir):
    """Run every probe under ``tr``; returns {metric name: value}.

    A probe whose output is wrong raises CheckFailed.
    """
    out = {}
    _walk(tr, size, out)
    _iter(tr, size, out)
    agg = _parallel(tr, size, out)
    _accumulate(tr, size, out)
    _merge(tr, agg, out)
    _core(tr, size, out)
    _verify(tr, size, seed, out)
    _kunz(tr, size, out)
    _cache(tr, agg, workdir, out)
    return out
