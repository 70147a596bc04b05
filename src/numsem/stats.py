"""Per-genus aggregation and the statistical quantities derived from it.

A GenusAggregate is a commutative monoid: per-worker accumulators are merged
once at the end of an enumeration, and every probability or expectation read
off it is an exact rational (counts are exact integers; floats appear only at
presentation time and in band boundaries involving irrational centers).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import _bit_positions, _leaf
from .errors import (
    GenusMismatch,
    MissingAggregate,
    NoSecondMoment,
    UndefinedAtBreakpoint,
    UnknownInvariant,
    UnknownPredicate,
    UntrackedElement,
)

SQRT5 = math.sqrt(5.0)
PHI = (1.0 + SQRT5) / 2.0
GAMMA = (5.0 + SQRT5) / 10.0  # = phi / sqrt(5)

K_MAX = 10  # F - 2m classes tracked individually; larger go to one overflow bucket

_MOMENT_KEYS = ("e", "e1", "e2", "t", "t1", "t2", "w", "alpha", "w2", "alpha2")
_HIST_KEYS = ("m", "F", "e", "e1", "e2", "t", "t1", "t2", "w", "fdiff")


def f1(x):
    """Step function approximating the probability that floor(x*g) is a member."""
    if x < 0 or x > 2:
        raise ValueError("argument must lie in [0, 2]")
    if x == GAMMA or x == 2 * GAMMA:
        raise UndefinedAtBreakpoint(f"f1 is undefined at {x}")
    if x < GAMMA:
        return 0.0
    if x < 2 * GAMMA:
        return (SQRT5 - 1.0) / 2.0
    return 1.0


def decile_pairs(genus):
    """All pairs i<j among the 9 decile points of [1, 2g] (the default pair list)."""
    pts = sorted({d * 2 * genus // 10 for d in range(1, 10)} - {0})
    return tuple((pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts)))


@dataclass(frozen=True)
class GenusAggregate:
    """Mergeable exact statistics over all semigroups of one genus."""

    genus: int
    count: int
    hist: dict       # name -> tuple of counts (see _HIST_KEYS; offsets below)
    moments: dict    # name -> exact integer sum
    counters: dict   # threshold counters; "f_minus_2m" is a tuple of K_MAX counts
    membership: tuple  # membership[n] = #{S : n in S} for n in [1, 2g]; index 0 unused
    pairs: tuple       # tracked (i, j) pairs
    pair_miss: tuple   # pair_miss[idx] = #{S : pairs[idx] disjoint from S}

    # hist index conventions: "F" is indexed by F+1 (so F=-1 lands at 0);
    # "fdiff" is indexed by (F - 2m) + genus + 2.

    @classmethod
    def empty(cls, genus):
        g = genus
        sizes = _hist_sizes(g)
        return cls(
            genus=g,
            count=0,
            hist={k: (0,) * sizes[k] for k in _HIST_KEYS},
            moments={k: 0 for k in _MOMENT_KEYS},
            counters={
                "e_ge_m_half": 0,
                "e_ge_m_third": 0,
                "symmetric": 0,
                "f_lt_2m": 0,
                "f_minus_2m": (0,) * K_MAX,
                "f_minus_2m_overflow": 0,
            },
            membership=(0,) * (2 * g + 1),
            pairs=decile_pairs(g),
            pair_miss=(0,) * len(decile_pairs(g)),
        )

    def to_dict(self):
        """Plain-types dict with a canonical layout (ints stay ints)."""
        return {
            "genus": self.genus,
            "count": self.count,
            "histograms": {k: list(v) for k, v in sorted(self.hist.items())},
            "moments": dict(sorted(self.moments.items())),
            "counters": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in sorted(self.counters.items())
            },
            "membership": list(self.membership),
            "pairs": [list(p) for p in self.pairs],
            "pair_miss": list(self.pair_miss),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            genus=d["genus"],
            count=d["count"],
            hist={k: tuple(v) for k, v in d["histograms"].items()},
            moments=dict(d["moments"]),
            counters={
                k: (tuple(v) if isinstance(v, list) else v)
                for k, v in d["counters"].items()
            },
            membership=tuple(d["membership"]),
            pairs=tuple(tuple(p) for p in d["pairs"]),
            pair_miss=tuple(d["pair_miss"]),
        )

    def canonical_bytes(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode()


def _hist_sizes(g):
    return {
        "m": g + 2,
        "F": 2 * g + 1,
        "e": g + 2,
        "e1": g + 2,
        "e2": g + 2,
        "t": g + 1 if g else 1,
        "t1": g + 1 if g else 1,
        "t2": g + 1 if g else 1,
        "w": g * (g - 1) + 1 if g > 1 else 1,
        "fdiff": 3 * g + 2,
    }


def merge(a, b):
    """Componentwise sum; associative and commutative with identity empty(g)."""
    if a.genus != b.genus:
        raise GenusMismatch(f"cannot merge genus {a.genus} with {b.genus}")
    if a.pairs != b.pairs:
        raise GenusMismatch("aggregates track different pair lists")
    return GenusAggregate(
        genus=a.genus,
        count=a.count + b.count,
        hist={k: tuple(x + y for x, y in zip(a.hist[k], b.hist[k])) for k in a.hist},
        moments={k: a.moments[k] + b.moments[k] for k in a.moments},
        counters={
            k: (
                tuple(x + y for x, y in zip(a.counters[k], b.counters[k]))
                if isinstance(a.counters[k], tuple)
                else a.counters[k] + b.counters[k]
            )
            for k in a.counters
        },
        membership=tuple(x + y for x, y in zip(a.membership, b.membership)),
        pairs=a.pairs,
        pair_miss=tuple(x + y for x, y in zip(a.pair_miss, b.pair_miss)),
    )


def _band_count(agg, hist_name, center, halfwidth, index_offset=0):
    cnt = 0
    for idx, mass in enumerate(agg.hist[hist_name]):
        if mass and abs((idx - index_offset) - center) < halfwidth:
            cnt += mass
    return cnt


def proportion(agg, predicate):
    """Exact proportion of semigroups satisfying a precompiled predicate.

    ``predicate`` is either a counter name ("e_ge_m_half", "e_ge_m_third",
    "symmetric", "f_lt_2m") or a pair (band_name, epsilon) with band_name in
    {"e_band", "t_band", "w_band", "m_band", "fdiff_band"}.
    """
    g = agg.genus
    if agg.count == 0:
        raise UnknownPredicate("empty aggregate")
    if isinstance(predicate, str):
        if predicate in ("e_ge_m_half", "e_ge_m_third", "symmetric", "f_lt_2m"):
            return Fraction(agg.counters[predicate], agg.count)
        raise UnknownPredicate(predicate)
    name, eps = predicate
    if name == "e_band":
        cnt = _band_count(agg, "e", g / SQRT5, eps * g)
    elif name == "t_band":
        cnt = _band_count(agg, "t", (1 - GAMMA) * g, eps * g)
    elif name == "w_band":
        cnt = _band_count(agg, "w", g * g / (10 * PHI), eps * g * g)
    elif name == "m_band":
        cnt = _band_count(agg, "m", GAMMA * g, eps * g)
    elif name == "fdiff_band":
        cnt = _band_count(agg, "fdiff", 0.0, eps * g, index_offset=g + 2)
    else:
        raise UnknownPredicate(name)
    return Fraction(cnt, agg.count)


def expectation(agg, invariant):
    """Exact E_g[invariant] for a tracked moment sum."""
    if invariant not in ("e", "e1", "e2", "t", "t1", "t2", "w", "alpha"):
        raise UnknownInvariant(invariant)
    return Fraction(agg.moments[invariant], agg.count)


def variance(agg, invariant):
    """Exact Var_g[invariant]; only w and alpha track second moments."""
    if invariant not in ("w", "alpha"):
        if invariant in ("e", "e1", "e2", "t", "t1", "t2"):
            raise NoSecondMoment(invariant)
        raise UnknownInvariant(invariant)
    mean = Fraction(agg.moments[invariant], agg.count)
    return Fraction(agg.moments[invariant + "2"], agg.count) - mean * mean


def membership_probability(agg, n):
    """Exact P_g[n in S] for tracked n in [1, 2g]."""
    if not 1 <= n <= 2 * agg.genus:
        raise UntrackedElement(f"membership of {n} is not tracked at genus {agg.genus}")
    return Fraction(agg.membership[n], agg.count)


def pair_miss_probability(agg, i, j):
    """Exact P_g[{i, j} disjoint from S] for a tracked pair."""
    key = (i, j) if i < j else (j, i)
    try:
        idx = agg.pairs.index(key)
    except ValueError:
        raise UntrackedElement(f"pair {key} is not tracked") from None
    return Fraction(agg.pair_miss[idx], agg.count)


_FIGURE_BANDS = {1: "e_band", 2: "t_band", 3: "w_band"}
_DEFAULT_EPS = {1: (0.2, 0.15, 0.1), 2: (0.2, 0.15, 0.1), 3: (0.02, 0.03, 0.04)}


def figure_data(figure_id, aggregates, g_range, epsilons=None):
    """Typed rows backing one of the five figure families.

    Figures 1-3 yield (g, epsilon, proportion) rows; figures 4-5 yield
    (g, mean_total, mean_part1, mean_part2) rows.  ``aggregates`` maps genus
    to GenusAggregate; a missing genus raises MissingAggregate.
    """
    if figure_id not in (1, 2, 3, 4, 5):
        raise ValueError(f"unknown figure id {figure_id}")
    rows = []
    for g in g_range:
        if g not in aggregates:
            raise MissingAggregate(f"no aggregate for genus {g}")
        agg = aggregates[g]
        if figure_id in _FIGURE_BANDS:
            eps_list = tuple(epsilons) if epsilons is not None else _DEFAULT_EPS[figure_id]
            for eps in eps_list:
                rows.append((g, eps, proportion(agg, (_FIGURE_BANDS[figure_id], eps))))
        else:
            names = ("e", "e1", "e2") if figure_id == 4 else ("t", "t1", "t2")
            rows.append((g,) + tuple(expectation(agg, n) / g for n in names))
    return rows


class Accumulator:
    """Mutable statistics sink of one task; finalize() yields a GenusAggregate.

    add_leaf only counts (histograms, two counters, gap bytes per offset,
    gap sets among the decile points) and finalize derives the rest, so a
    parallel run folds its tasks' accumulators with merge_in and finalizes
    once.  The counts do not depend on ``capacity``, the walk's mask width.
    Not thread-safe; each task owns one.
    """

    def __init__(self, genus, capacity):
        g = genus
        self.genus = g
        self.count = 0
        sizes = _hist_sizes(g)
        self.hist = {k: [0] * sizes[k] for k in _HIST_KEYS}
        self.c_e_half = 0
        self.c_e_third = 0
        # gap_bytes[256 * j + b]: leaves whose gaps in [8j, 8j + 8) are the
        # bits of b; every gap is below 2g.
        self.gap_bytes = [0] * (256 * ((2 * g + 7) // 8))
        self.pairs = decile_pairs(g)
        self._decile_mask = sum(1 << n for n in {n for p in self.pairs for n in p})
        self.decile_gaps = {}  # gaps & _decile_mask -> leaves

    def add_leaf(self, mask, m, F):
        g = self.genus
        e, e1, t, t1, alpha = _leaf(mask, m, F)
        w = alpha - g * (g + 1) // 2
        self.count += 1
        h = self.hist
        h["m"][m] += 1
        h["F"][F + 1] += 1
        h["e"][e] += 1
        h["e1"][e1] += 1
        h["e2"][e - e1] += 1
        h["t"][t] += 1
        h["t1"][t1] += 1
        h["t2"][t - t1] += 1
        h["w"][w] += 1
        h["fdiff"][F - 2 * m + g + 2] += 1
        if 2 * e >= m:
            self.c_e_half += 1
        if 3 * e >= m:
            self.c_e_third += 1
        gaps = ~mask & ((1 << (F + 1)) - 1)
        gb = self.gap_bytes
        j = 0
        while gaps:
            gb[j + (gaps & 255)] += 1
            gaps >>= 8
            j += 256
        key = ~mask & self._decile_mask
        self.decile_gaps[key] = self.decile_gaps.get(key, 0) + 1

    def merge_in(self, other):
        """Add the counts of another accumulator of the same genus."""
        if other.genus != self.genus:
            raise GenusMismatch(f"cannot merge genus {self.genus} with {other.genus}")
        self.count += other.count
        for k in _HIST_KEYS:
            self.hist[k] = [x + y for x, y in zip(self.hist[k], other.hist[k])]
        self.c_e_half += other.c_e_half
        self.c_e_third += other.c_e_third
        self.gap_bytes = [x + y for x, y in zip(self.gap_bytes, other.gap_bytes)]
        for key, n in other.decile_gaps.items():
            self.decile_gaps[key] = self.decile_gaps.get(key, 0) + n

    def finalize(self):
        g = self.genus
        h = self.hist
        # The first seven moments, e .. w, are sums over their histograms.
        moments = {k: sum(i * n for i, n in enumerate(h[k])) for k in _MOMENT_KEYS[:7]}
        shift = g * (g + 1) // 2  # alpha = w + shift
        moments["alpha"] = moments["w"] + shift * self.count
        moments["w2"] = sum(w * w * n for w, n in enumerate(h["w"]))
        moments["alpha2"] = sum((w + shift) ** 2 * n for w, n in enumerate(h["w"]))
        fdiff = h["fdiff"]
        off = g + 2
        per_k = tuple((fdiff[off + 1 : off + K_MAX + 1] + [0] * K_MAX)[:K_MAX])
        gap_count = [0] * (2 * g + 1)
        for idx, n in enumerate(self.gap_bytes):
            if n:
                for p in _bit_positions(idx & 255):
                    gap_count[8 * (idx >> 8) + p] += n
        return GenusAggregate(
            genus=g,
            count=self.count,
            hist={k: tuple(h[k]) for k in _HIST_KEYS},
            moments=moments,
            counters={
                "e_ge_m_half": self.c_e_half,
                "e_ge_m_third": self.c_e_third,
                "symmetric": h["F"][2 * g] if g else 0,
                "f_lt_2m": sum(fdiff[:off]),
                "f_minus_2m": per_k,
                "f_minus_2m_overflow": sum(fdiff[off + K_MAX + 1 :]),
            },
            membership=(0,) + tuple(self.count - c for c in gap_count[1:]),
            pairs=self.pairs,
            pair_miss=tuple(
                sum(n for key, n in self.decile_gaps.items() if key >> i & key >> j & 1)
                for i, j in self.pairs
            ),
        )
