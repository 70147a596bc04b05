"""Per-genus aggregation and the statistical quantities derived from it.

A GenusAggregate is a commutative monoid: per-worker accumulators are merged
once at the end of an enumeration, and every probability or expectation read
off it is an exact rational (counts are exact integers; floats appear only at
presentation time and in band boundaries involving irrational centers).
"""

import json
import math
from collections import namedtuple
from fractions import Fraction

from .core import _bit_positions, _leaf, _windows
from .errors import (
    GenusMismatch,
    MissingAggregate,
    MissingEpsilon,
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
BAND_PREDICATES = ("e_band", "t_band", "w_band", "m_band", "fdiff_band")


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


class GenusAggregate(
    namedtuple(
        "GenusAggregate", "genus count hist moments counters membership pairs pair_miss"
    )
):
    """Mergeable exact statistics over all semigroups of one genus.

    hist: name -> tuple of counts (see _HIST_KEYS); "F" is indexed by F+1 (so
    F=-1 lands at 0) and "fdiff" by (F - 2m) + genus + 2.
    moments: name -> exact integer sum.
    counters: threshold counters; "f_minus_2m" is a tuple of K_MAX counts.
    membership: membership[n] = #{S : n in S} for n in [1, 2g]; index 0 unused.
    pairs: the tracked (i, j) pairs.
    pair_miss: pair_miss[idx] = #{S : pairs[idx] disjoint from S}.
    The field ``count`` (the number of semigroups) shadows ``tuple.count``.
    """

    __slots__ = ()

    @classmethod
    def empty(cls, genus):
        """The aggregate over no semigroups: the identity of ``merge``."""
        return Accumulator(genus, 0).finalize()

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
    ``BAND_PREDICATES``; a band name alone raises MissingEpsilon.
    """
    g = agg.genus
    if agg.count == 0:
        raise UnknownPredicate("empty aggregate")
    if isinstance(predicate, str):
        if predicate in ("e_ge_m_half", "e_ge_m_third", "symmetric", "f_lt_2m"):
            return Fraction(agg.counters[predicate], agg.count)
        if predicate in BAND_PREDICATES:
            raise MissingEpsilon(f"{predicate} needs an epsilon")
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


_BYTE_OFFSETS = range(0, 256 * 12, 256)  # of gap bytes 0 .. 11, below 96 > 2 * tree.MAX_GENUS


class Accumulator:
    """Mutable statistics sink of one task; finalize() yields a GenusAggregate.

    add_leaf only counts (joint counts, the histogram of w, gap bytes per
    offset, gap sets among the decile points) and finalize derives the rest,
    so a parallel run merges its tasks' accumulators with merge_in and
    finalizes once.  The counts do not depend on ``capacity``, the walk's
    mask width.  Not thread-safe; each task owns one.
    """

    def __init__(self, genus, capacity):
        g = genus
        self.genus = g
        sizes = _hist_sizes(g)
        # The histogram of w and the joint counts of (e, e1) at e * ek + e1,
        # (m, e) at m * ek + e, (t, t1) at t * tk + t1 and (m, F) at
        # m * fk + F + 1, from which finalize reads every other histogram
        # and the two e counters.
        self.w = [0] * sizes["w"]
        self._ek = sizes["e"]
        self._tk = sizes["t"]
        self._fk = sizes["F"]
        self.e_e1 = [0] * (self._ek * self._ek)
        self.m_e = [0] * (sizes["m"] * self._ek)
        self.t_t1 = [0] * (self._tk * self._tk)
        self.m_F = [0] * (sizes["m"] * self._fk)
        # gap_bytes[256 * j + b]: a weight on the bit pattern b of the gaps
        # in [8j, 8j + 8); each leaf's gaps below F are spread over such
        # patterns, so only the weighted bit sums, the gap counts per
        # position, mean anything.  F itself is read from the (m, F) counts.
        # Every gap is below 2g.
        self.gap_bytes = [0] * (256 * ((2 * g + 7) // 8))
        self.pairs = decile_pairs(g)
        self._decile_mask = sum(1 << n for n in {n for p in self.pairs for n in p})
        self.decile_gaps = {}  # gaps & _decile_mask -> leaves

    @property
    def count(self):
        """The number of leaves added."""
        return sum(self.w)

    def add_leaf(self, mask, m, F):
        """Count one semigroup, its invariants read from scratch (``_leaf``)."""
        g = self.genus
        e, t, alpha = _leaf(mask, m, F)
        e1, t1 = _windows(mask, m, F)
        w = alpha - g * (g + 1) // 2
        self.e_e1[e * self._ek + e1] += 1
        self.m_e[m * self._ek + e] += 1
        self.t_t1[t * self._tk + t1] += 1
        self.m_F[m * self._fk + F + 1] += 1
        self.w[w] += 1
        # Only the gaps <= F: a mask may be narrower than the decile points.
        key = ~mask & ((1 << (F + 1)) - 1) & self._decile_mask
        gaps = ~mask & (((1 << (F + 1)) - 1) >> 1)  # below F
        gb = self.gap_bytes
        j = 0
        while gaps:
            gb[j + (gaps & 255)] += 1
            gaps >>= 8
            j += 256
        self.decile_gaps[key] = self.decile_gaps.get(key, 0) + 1

    def _add_children(self, state, top):
        """``add_leaf`` of every child of a tree kernel state whose m is not
        among its effective generators, one level above the genus (the
        children of ``tree._children``), read from the parent through
        ``_leaves`` without building a child.  Their gaps below their
        Frobenius numbers are the parent's, whose bytes count once per child."""
        mask, rev, m, F, eff, e, pf, alpha, _ = state
        if not eff:
            return
        g = self.genus
        n = eff.bit_count()
        gaps = ~mask & ((1 << (F + 1)) - 1)
        gb = self.gap_bytes
        for j, b in zip(_BYTE_OFFSETS, gaps.to_bytes((F + 8) >> 3, "little")):
            gb[j + b] += n
        e1 = (mask >> m & ((1 << m) - 1)).bit_count()
        wb = alpha - g * (g + 1) // 2 - 1
        self._leaves(m, top, ((mask, rev, eff, pf, gaps, e, e1, wb, ~mask & self._decile_mask),))

    def _add_grandchildren(self, state, top):
        """``_add_children`` of every child of a tree kernel state whose m is
        not among its effective generators, two levels above the genus,
        building no child state.  Each child follows ``_children``'s rules for
        its y.  A grandchild's gaps below its Frobenius number are the parent's
        and y: the parent's gap bytes count once per grandchild, and y alone
        once per child's child."""
        mask, rev, m, F, eff, e, pf, alpha, _ = state
        g = self.genus
        gaps = ~mask & ((1 << (F + 1)) - 1)
        e1 = (mask >> m & ((1 << m) - 1)).bit_count()
        wb = alpha - g * (g + 1) // 2 - 1
        dmask = self._decile_mask
        key = ~mask & dmask
        gb = self.gap_bytes
        total = 0
        nodes = []
        while eff:
            low = eff & -eff
            eff ^= low  # the generators above y, which the child keeps
            y = low.bit_length() - 1
            drop = mask & (rev >> (top - m - y)) & (low - (2 << m))  # y + m = a + b
            kids = eff if drop else eff | low << m
            if not kids:
                continue
            n = kids.bit_count()
            total += n
            gb[(y >> 3 << 8) + (1 << (y & 7))] += n
            r = rev ^ (1 << (top - y))
            nodes.append((
                mask ^ low, r, kids, pf & ~(r >> (top - y)) | low, gaps | low,
                e - 1 if drop else e, e1 - 1 if y < 2 * m else e1, wb + y, key | low & dmask,
            ))
        for j, b in zip(_BYTE_OFFSETS, gaps.to_bytes((F + 8) >> 3, "little")):
            gb[j + b] += total
        self._leaves(m, top, nodes)

    def _leaves(self, m, top, nodes):
        """Count the children of ``nodes`` (mask, rev, effective generators,
        PF, gaps, e, e1, w offset, decile key), which share m and lack it among
        their effective generators, all but their gap bytes.  A child's PF is y
        and the p in PF with y - p a gap, and its gaps in (y - m, y] are y and
        the node's gaps above y - m, so with b = y + 1 and y left out of both,
        (t, t1) is counted at tb + t * tk + t1.  e loses one when y + m = a + b
        with m < a, b < y (``tree._children``'s test), e1 when y < 2m."""
        ee, me, tt, mf, hw = self.e_e1, self.m_e, self.t_t1, self.m_F, self.w
        dg = self.decile_gaps
        dmask = self._decile_mask
        ek, tk = self._ek, self._tk
        tb = tk + 1
        eb = m * ek
        mb = m * self._fk
        rb = top + 1
        rmb = rb - m
        m2 = 2 << m
        below = 1 << 2 * m  # y < 2m iff 1 << y < below
        for mask, rev, eff, pf, gaps, e, e1, wb, key in nodes:
            nrev = ~rev
            while eff:
                low = eff & -eff
                eff ^= low
                b = low.bit_length()
                t = (pf & (nrev >> (rb - b))).bit_count()
                tt[tb + t * tk + (gaps >> (b - m)).bit_count()] += 1
                mf[mb + b] += 1
                hw[wb + b] += 1
                ce = e - 1 if mask & (rev >> (rmb - b)) & (low - m2) else e
                ee[ce * ek + (e1 - 1 if low < below else e1)] += 1
                me[eb + ce] += 1
                k = key | low & dmask
                dg[k] = dg.get(k, 0) + 1

    def merge_in(self, other):
        """Add the counts of another accumulator of the same genus."""
        if other.genus != self.genus:
            raise GenusMismatch(f"cannot merge genus {self.genus} with {other.genus}")
        self.w = [x + y for x, y in zip(self.w, other.w)]
        self.e_e1 = [x + y for x, y in zip(self.e_e1, other.e_e1)]
        self.m_e = [x + y for x, y in zip(self.m_e, other.m_e)]
        self.t_t1 = [x + y for x, y in zip(self.t_t1, other.t_t1)]
        self.m_F = [x + y for x, y in zip(self.m_F, other.m_F)]
        self.gap_bytes = [x + y for x, y in zip(self.gap_bytes, other.gap_bytes)]
        for key, n in other.decile_gaps.items():
            self.decile_gaps[key] = self.decile_gaps.get(key, 0) + n

    def _histograms(self):
        """Every histogram of _HIST_KEYS, the joint counts read out."""
        g = self.genus
        sizes = _hist_sizes(g)
        h = {k: [0] * sizes[k] for k in _HIST_KEYS}
        h["w"][:] = self.w
        for x, joint, k in (("e", self.e_e1, self._ek), ("t", self.t_t1, self._tk)):
            hx, hx1, hx2 = h[x], h[x + "1"], h[x + "2"]
            for i, n in enumerate(joint):
                if n:
                    a, a1 = divmod(i, k)
                    hx[a] += n
                    hx1[a1] += n
                    hx2[a - a1] += n
        hm, hF, hfd = h["m"], h["F"], h["fdiff"]
        for i, n in enumerate(self.m_F):
            if n:
                m, f = divmod(i, self._fk)  # f = F + 1
                hm[m] += n
                hF[f] += n
                hfd[f - 2 * m + g + 1] += n
        return h

    def finalize(self):
        g = self.genus
        h = self._histograms()
        count = self.count
        # The first seven moments, e .. w, are sums over their histograms.
        moments = {k: sum(i * n for i, n in enumerate(h[k])) for k in _MOMENT_KEYS[:7]}
        shift = g * (g + 1) // 2  # alpha = w + shift
        moments["alpha"] = moments["w"] + shift * count
        moments["w2"] = sum(w * w * n for w, n in enumerate(h["w"]))
        moments["alpha2"] = sum((w + shift) ** 2 * n for w, n in enumerate(h["w"]))
        fdiff = h["fdiff"]
        off = g + 2
        per_k = tuple((fdiff[off + 1 : off + K_MAX + 1] + [0] * K_MAX)[:K_MAX])
        gap_count = h["F"][1:] + [0]  # F, then the gaps below F
        for idx, n in enumerate(self.gap_bytes):
            if n:
                for p in _bit_positions(idx & 255):
                    gap_count[8 * (idx >> 8) + p] += n
        m_e = [(*divmod(i, self._ek), n) for i, n in enumerate(self.m_e) if n]  # (m, e, leaves)
        return GenusAggregate(
            genus=g,
            count=count,
            hist={k: tuple(h[k]) for k in _HIST_KEYS},
            moments=moments,
            counters={
                "e_ge_m_half": sum(n for m, e, n in m_e if 2 * e >= m),
                "e_ge_m_third": sum(n for m, e, n in m_e if 3 * e >= m),
                "symmetric": h["F"][2 * g] if g else 0,
                "f_lt_2m": sum(fdiff[:off]),
                "f_minus_2m": per_k,
                "f_minus_2m_overflow": sum(fdiff[off + K_MAX + 1 :]),
            },
            membership=(0,) + tuple(count - c for c in gap_count[1:]),
            pairs=self.pairs,
            pair_miss=tuple(
                sum(n for key, n in self.decile_gaps.items() if key >> i & key >> j & 1)
                for i, j in self.pairs
            ),
        )
