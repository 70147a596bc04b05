import math
from fractions import Fraction

import pytest

from numsem.errors import (
    GenusMismatch,
    MissingAggregate,
    MissingEpsilon,
    NoSecondMoment,
    UndefinedAtBreakpoint,
    UnknownInvariant,
    UnknownPredicate,
    UntrackedElement,
)
from numsem.core import minimal_generators, pseudo_frobenius, semigroup_from_gaps
from numsem.kunz import enumerate_kunz_vectors
from numsem.stats import (
    GAMMA,
    K_MAX,
    PHI,
    SQRT5,
    Accumulator,
    GenusAggregate,
    expectation,
    f1,
    figure_data,
    membership_probability,
    merge,
    pair_miss_probability,
    proportion,
    variance,
)
from numsem.tree import _width, enumerate_genus, iter_semigroups


@pytest.fixture(scope="module")
def agg4():
    return enumerate_genus(4)


@pytest.fixture(scope="module")
def agg8():
    return enumerate_genus(8)


def test_constants():
    assert PHI == pytest.approx((1 + math.sqrt(5)) / 2)
    assert GAMMA == pytest.approx(PHI / SQRT5)


def test_f1_values():
    assert f1(0.3) == 0.0
    assert f1(1.0) == pytest.approx((math.sqrt(5) - 1) / 2)
    assert f1(1.9) == 1.0
    with pytest.raises(UndefinedAtBreakpoint):
        f1(GAMMA)
    with pytest.raises(UndefinedAtBreakpoint):
        f1(2 * GAMMA)
    with pytest.raises(ValueError):
        f1(2.5)


def test_expectation_g4(agg4):
    assert expectation(agg4, "e") == Fraction(22, 7)
    assert expectation(agg4, "e") == expectation(agg4, "e1") + expectation(agg4, "e2")
    assert expectation(agg4, "t") == expectation(agg4, "t1") + expectation(agg4, "t2")
    with pytest.raises(UnknownInvariant):
        expectation(agg4, "bogus")


def test_variance(agg8):
    v = variance(agg8, "w")
    mean = expectation(agg8, "w")
    # recompute from the histogram
    acc = sum(
        mass * (Fraction(idx) - mean) ** 2 for idx, mass in enumerate(agg8.hist["w"])
    )
    assert v == acc / agg8.count
    with pytest.raises(NoSecondMoment):
        variance(agg8, "e")
    with pytest.raises(UnknownInvariant):
        variance(agg8, "bogus")


def test_histogram_moment_consistency(agg8):
    for name in ("e", "e1", "e2", "t", "t1", "t2", "w"):
        total = sum(idx * mass for idx, mass in enumerate(agg8.hist[name]))
        assert total == agg8.moments[name]
        assert sum(agg8.hist[name]) == agg8.count


def test_proportions(agg4):
    assert proportion(agg4, "e_ge_m_half") == 1
    assert proportion(agg4, "symmetric") == Fraction(3, 7)
    with pytest.raises(UnknownPredicate):
        proportion(agg4, "nonsense")
    with pytest.raises(UnknownPredicate):
        proportion(agg4, ("nonsense", 0.1))
    with pytest.raises(MissingEpsilon, match="e_band needs an epsilon"):
        proportion(agg4, "e_band")
    p = proportion(agg4, ("e_band", 0.5))
    assert 0 <= p <= 1


def test_genus0_band():
    agg0 = enumerate_genus(0)
    assert proportion(agg0, ("e_band", 0.2)) == 0


def test_membership(agg4, agg8):
    assert membership_probability(agg4, 3) == Fraction(2, 7)
    for agg in (agg4, agg8):
        g = agg.genus
        assert membership_probability(agg, 1) == 0
        assert membership_probability(agg, 2 * g) == 1
    with pytest.raises(UntrackedElement):
        membership_probability(agg4, 9)


def _reference_aggregate(g):
    """to_dict() of genus g, folded from the from-scratch core functions."""
    ref = GenusAggregate.empty(g).to_dict()
    h, mo, c = ref["histograms"], ref["moments"], ref["counters"]
    for S in iter_semigroups(g):
        gaps, m, F = S.gaps(), S.multiplicity, S.frobenius
        gens, pf = minimal_generators(S), pseudo_frobenius(S)
        e, e1 = len(gens), sum(a < 2 * m for a in gens)
        t, t1 = len(pf), sum(p > F - m for p in pf)
        alpha = sum(gaps)
        w = alpha - g * (g + 1) // 2
        ref["count"] += 1
        values = {"m": m, "e": e, "e1": e1, "e2": e - e1, "t": t, "t1": t1,
                  "t2": t - t1, "w": w}
        for name, v in values.items():
            h[name][v] += 1
        h["F"][F + 1] += 1
        h["fdiff"][F - 2 * m + g + 2] += 1
        for name, v in values.items():
            if name != "m":
                mo[name] += v
        mo["alpha"] += alpha
        mo["w2"] += w * w
        mo["alpha2"] += alpha * alpha
        c["e_ge_m_half"] += 2 * e >= m
        c["e_ge_m_third"] += 3 * e >= m
        c["symmetric"] += g > 0 and F == 2 * g - 1
        c["f_lt_2m"] += F < 2 * m
        if 1 <= F - 2 * m <= K_MAX:
            c["f_minus_2m"][F - 2 * m - 1] += 1
        c["f_minus_2m_overflow"] += F - 2 * m > K_MAX
        for n in range(1, 2 * g + 1):
            ref["membership"][n] += n in S
        for idx, (i, j) in enumerate(ref["pairs"]):
            ref["pair_miss"][idx] += i not in S and j not in S
    return ref


def test_membership_and_pair_miss_match_brute_force():
    # Exact reference for the whole aggregate (histograms, moments,
    # counters, membership, pair_miss): folds of minimal_generators,
    # pseudo_frobenius, S.gaps() and ``n in S`` over all semigroups of the
    # genus.
    for g in range(17):
        assert enumerate_genus(g).to_dict() == _reference_aggregate(g), g


def test_add_leaf_does_not_depend_on_the_mask_width():
    # semigroup_from_gaps builds a mask of width F + 2m + 2, which for a small
    # multiplicity ends below the largest decile point (about 1.8g); its
    # missing high bits are not gaps.
    for g in range(20, 25):
        width = _width(g)
        narrow, wide = Accumulator(g, width), Accumulator(g, width)
        for m in (3, 4):
            for kv in enumerate_kunz_vectors(m, g):
                gaps = {q * m + i for i, x in enumerate(kv.coords, 1) for q in range(x)}
                S = semigroup_from_gaps(gaps)
                narrow.add_leaf(S.mask, m, S.frobenius)
                wide.add_leaf(((1 << width) - 1) ^ sum(1 << n for n in gaps), m, S.frobenius)
        assert narrow.finalize().canonical_bytes() == wide.finalize().canonical_bytes(), g


def test_pair_miss(agg8):
    i, j = agg8.pairs[0]
    p = pair_miss_probability(agg8, i, j)
    assert 0 <= p <= 1
    # symmetric in the arguments
    assert pair_miss_probability(agg8, j, i) == p
    with pytest.raises(UntrackedElement):
        pair_miss_probability(agg8, 1, 2)


def test_merge_properties(agg4):
    empty = GenusAggregate.empty(4)
    assert merge(agg4, empty) == agg4
    assert merge(agg4, agg4).count == 14
    assert merge(agg4, agg4) == merge(agg4, agg4)
    with pytest.raises(GenusMismatch):
        merge(agg4, GenusAggregate.empty(5))


def test_serialization_roundtrip(agg8):
    d = agg8.to_dict()
    back = GenusAggregate.from_dict(d)
    assert back == agg8
    assert back.canonical_bytes() == agg8.canonical_bytes()


def test_figure_data(agg4, agg8):
    aggs = {4: agg4, 8: agg8}
    rows = figure_data(1, aggs, [4, 8], [0.2, 0.1])
    assert len(rows) == 4
    assert rows[0][:2] == (4, 0.2)
    rows4 = figure_data(4, aggs, [4])
    g, tot, p1, p2 = rows4[0]
    assert tot == Fraction(22, 28)
    assert tot == p1 + p2
    with pytest.raises(MissingAggregate):
        figure_data(1, aggs, [5], [0.1])
    with pytest.raises(ValueError):
        figure_data(9, aggs, [4])


def test_fdiff_counter_consistency(agg8):
    c = agg8.counters
    total = c["f_lt_2m"] + sum(c["f_minus_2m"]) + c["f_minus_2m_overflow"]
    # fdiff histogram masses between 0 and K_MAX are the per-k counters;
    # everything accounted for exactly once, except fdiff == 0 which cannot
    # occur (F is a gap, 2m is a member)
    assert total == agg8.count
    assert agg8.hist["fdiff"][8 + 2] == 0  # F - 2m == 0 impossible
