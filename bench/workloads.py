"""The four benchmark workloads: fixed, exhaustive inputs and their checks.

Every workload is deterministic.  The expected outputs below were recorded
from the package before any optimisation, so a change that alters a result
shows up as a failed operation, not as a speed-up.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile

import numsem
from numsem import cli, tree, verify

from spans import wrapped

# N(0), N(1), ...: the number of numerical semigroups of each genus.
SERIES = (
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
    4806, 8045, 13467, 22464, 37396, 62194, 103246, 170963, 282828,
)

# Input sizes.  "full" is what the benchmark measures; "smoke" runs the same
# code at tiny genera in about a second, for the benchmark's own tests.
SIZES = {
    "full": {
        "count": 24,
        "stats": 22,
        "figures": 20,
        "verify": {
            "core-invariants": 18,
            "kunz-roundtrip": 12,
            "bijections": 16,
            "e2-bounds": 18,
            "t2-equality": 16,
            "t2-bounds": 18,
            "counting-m": 20,
            "counting-e": 20,
        },
        # per-layer probes of the traced run
        "walk": 22,
        "iter": 20,
        "parallel": 20,
        "core": 18,
        "kunz": 12,
    },
    "smoke": {
        "count": 10,
        "stats": 8,
        "figures": 6,
        "verify": {name: 8 for name in verify.SUITES},
        "walk": 10,
        "iter": 8,
        "parallel": 8,
        "core": 8,
        "kunz": 6,
    },
}

# sha256 of enumerate_genus(g).canonical_bytes(), by genus.
AGGREGATE_SHA256 = {
    22: "b1325d2cbbeb0601164f5e297ac9f5e074e746411038964ddcc04b68e16d1d62",
    8: "62a322e6370e5cd92419fae5ed25871413ca8bd73ce5cdb8da4f63245bfdc320",
}

# sha256 of the figure-4 CSV, by gmax.
FIGURE4_SHA256 = {
    20: "272e57737739f3931eae095c36954e1f5191caf7f5ad4d3b5b7aa2aa4ded5f2a",
    6: "49a12f3c9ead53d112fd34afd772cae63a26199f9978ee6f258d99390a0a445d",
}

FIGURES_THREADS = 2


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _step_after(step):
    """A wrapper maker: the wrapped function calls ``step()`` after each call."""

    def wrap(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                step()

        return wrapper

    return wrap


class Count:
    """count_genus_series(24), one worker: the bare tree walk."""

    def __init__(self, size, seed, workdir):
        self.gmax = size["count"]
        self.expected = list(SERIES[: self.gmax + 1])
        self.nodes = sum(self.expected)
        self.leaves = self.expected[-1]
        self.semigroups = self.nodes

    def run(self, step=None):
        return tree.count_genus_series(self.gmax) == self.expected


class Stats:
    """enumerate_genus(22), one worker: walk plus leaf accumulation."""

    def __init__(self, size, seed, workdir):
        self.genus = size["stats"]
        self.expected = AGGREGATE_SHA256[self.genus]
        self.nodes = sum(SERIES[: self.genus + 1])
        self.leaves = SERIES[self.genus]
        self.semigroups = self.leaves

    def run(self, step=None):
        agg = tree.enumerate_genus(self.genus)
        return sha256(agg.canonical_bytes()) == self.expected


class Figures:
    """`numsem figures --figure 4 --gmax 20 --threads 2`, cold then warm.

    Each operation starts from an empty cache directory: the cold call walks
    every genus through the 2-worker fan-out and writes one cache file per
    genus; the warm call reads them all back.

    A step ends after each call of the CLI's ``enumerate_genus`` (one per
    genus, wrapped for the cold call), so the host speed is sampled every
    second or so; the warm call is the last step.  A CLI that no longer
    makes those calls gives fewer steps, which ``steps_per_op`` shows.
    """

    def __init__(self, size, seed, workdir):
        self.gmax = size["figures"]
        self.expected = FIGURE4_SHA256[self.gmax]
        self.workdir = workdir
        self.semigroups = sum(SERIES[1 : self.gmax + 1])
        # The cold call walks from the root once per genus.
        self.nodes = sum(sum(SERIES[: g + 1]) for g in range(1, self.gmax + 1))
        self.leaves = self.semigroups

    def _figures(self, cache_dir, out):
        argv = [
            "figures", "--figure", "4", "--gmax", str(self.gmax),
            "--threads", str(FIGURES_THREADS), "--cache-dir", cache_dir, "--out", out,
        ]
        if cli.run(argv) != 0:
            return None
        with open(out, "rb") as fh:
            return fh.read()

    def run(self, step=None):
        d = tempfile.mkdtemp(dir=self.workdir)
        try:
            cache_dir = os.path.join(d, "cache")
            with wrapped([(cli, "enumerate_genus")] if step else [], _step_after(step)):
                cold = self._figures(cache_dir, os.path.join(d, "cold.csv"))
            cached = all(
                os.path.exists(os.path.join(cache_dir, f"genus-{g}.json"))
                for g in range(1, self.gmax + 1)
            )
            warm = self._figures(cache_dir, os.path.join(d, "warm.csv"))
        finally:
            shutil.rmtree(d)
        return cold is not None and sha256(cold) == self.expected and cached and warm == cold


class Verify:
    """All eight verify suites; the seed sets the order they run in."""

    def __init__(self, size, seed, workdir):
        self.gmax = dict(size["verify"])
        self.order = sorted(self.gmax)
        random.Random(seed).shuffle(self.order)
        # Distinct semigroups the suites cover: every genus up to the largest gmax.
        self.semigroups = sum(SERIES[: max(self.gmax.values()) + 1])
        self.nodes = None
        self.leaves = None

    def run(self, step=None):
        results = []
        for i, name in enumerate(self.order):
            if i and step:
                step()
            results.append(verify.run_suite(name, self.gmax[name]))
        return all(r.ok for r in results)


WORKLOADS = {"count": Count, "stats": Stats, "figures": Figures, "verify": Verify}

# Public functions wrapped in spans during the traced operation, as
# (module, attr); see Tracer.patched.  Per-semigroup calls are not wrapped:
# the probes time those layers.
TRACE_TARGETS = [
    (tree, "count_genus_series"),
    (tree, "enumerate_genus"),
    (cli, "run"),
    (cli, "enumerate_genus"),
    (cli, "cache_put"),
    (cli, "cache_get"),
    (numsem.stats, "figure_data"),
    (verify, "run_suite"),
    (numsem.kunz, "count_by_kunz"),
]
