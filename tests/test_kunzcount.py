import warnings
from fractions import Fraction
from math import factorial

import pytest

from numsem import kunzcount
from numsem.core import invariants
from numsem.errors import (
    BadAlphabet,
    KTooLarge,
    LTooLarge,
    OutOfValidityRangeWarning,
    PrefixConditionViolated,
)
from numsem.kunz import enumerate_kunz_vectors, kunz_of
from numsem.kunzcount import (
    H_polynomial,
    PrefixTuple,
    abc_stats,
    count_embedding_deficit,
    count_fixed_prefix,
    count_multiplicity_deficit,
    f_polynomial,
    generate_Y,
)
from numsem.polybounds import ExactPolynomial
from numsem.tree import _count_job, _tasks, _width, iter_semigroups
from numsem.verify import run_suite

Y1_EXPECTED = {
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1),
    (2, 2, 1), (2, 1, 2), (1, 2, 2), (3, 1, 1),
}


def test_abc_stats():
    assert abc_stats((1, 1, 1)) == (0, 0, 0)
    assert abc_stats((1, 1, 2)) == (1, 0, 1)
    assert abc_stats((2, 1, 2)) == (2, 0, 0)
    assert abc_stats(()) == (0, 0, 0)
    with pytest.raises(BadAlphabet):
        abc_stats((1, 4))


def test_generate_Y_sizes():
    assert [p.entries for p in generate_Y(-1)] == [()]
    assert {p.entries for p in generate_Y(0)} == {(1,), (2,)}
    assert {p.entries for p in generate_Y(1)} == Y1_EXPECTED
    assert len(generate_Y(2)) == 34
    with pytest.raises(KTooLarge):
        generate_Y(9)


def test_Y_conditions_hold():
    for k in range(-1, 5):
        for p in generate_Y(k):
            assert p.a + 2 * p.b <= k + 1
            # derived k2 is at least k
            assert 2 * k + 1 - p.a - p.b + p.c >= k
            ent = p.entries
            for i3 in range(1, len(ent) + 1):
                if ent[i3 - 1] == 3:
                    assert not any(
                        ent[i1 - 1] == 1 and ent[i3 - i1 - 1] == 1
                        for i1 in range(1, i3)
                    )


def test_count_fixed_prefix():
    assert count_fixed_prefix(10, 1, 3, (1, 1, 1)) == 10
    assert count_fixed_prefix(8, -1, -1, ()) == 1
    with pytest.raises(PrefixConditionViolated):
        count_fixed_prefix(10, 1, 3, (2, 3, 2))  # a + 2b = 4 > 2
    with pytest.raises(PrefixConditionViolated):
        count_fixed_prefix(10, 1, 1, (1, 1, 1))  # a+b-c != 2k1+1-k2
    with pytest.raises(PrefixConditionViolated, match=r"\(1,1,3\) pattern"):
        count_fixed_prefix(10, 1, 2, (1, 1, 3))


def test_count_multiplicity_examples():
    assert count_multiplicity_deficit(5, 0) == 4
    assert count_multiplicity_deficit(10, 1) == 29
    for g in range(3, 12):
        assert count_multiplicity_deficit(g, -1) == 1
        assert count_multiplicity_deficit(g, 0) == g - 1


def test_out_of_range_warns():
    with pytest.warns(OutOfValidityRangeWarning):
        count_multiplicity_deficit(5, 1)
    with pytest.warns(OutOfValidityRangeWarning):
        count_embedding_deficit(5, 2)


def test_counts_match_enumeration():
    for g in range(17):
        by_m = {}
        by_e = {}
        for S in iter_semigroups(g):
            r = invariants(S)
            by_m[g - r.multiplicity] = by_m.get(g - r.multiplicity, 0) + 1
            by_e[g - r.embedding_dim] = by_e.get(g - r.embedding_dim, 0) + 1
        for k in range(-1, 4):
            if g >= 4 * k + 3:
                assert count_multiplicity_deficit(g, k) == by_m.get(k, 0)
        for l in range(-1, 4):
            if g >= 4 * l + 3 and 2 * g >= 9 * l + 7:
                assert count_embedding_deficit(g, l) == by_e.get(l, 0)


def test_prefix_bijection_structure():
    # for m = g - k1 with g >= 3 k1 + 2, the Kunz prefix determines e(S)
    for g in range(2, 15):
        for S in iter_semigroups(g):
            m = S.multiplicity
            k1 = g - m
            if not (m >= 2 and g >= 3 * k1 + 2 and m >= 2 * k1 + 2):
                continue
            coords = kunz_of(S).coords
            prefix = PrefixTuple.make(coords[: max(0, 2 * k1 + 1)])
            assert all(x in (1, 2, 3) for x in coords)
            e = invariants(S).embedding_dim
            assert e == g - 2 * k1 - 1 + prefix.a + prefix.b - prefix.c


def test_H_polynomials_match_listed():
    F = Fraction
    assert H_polynomial(-1).coeffs == (F(1),)
    assert H_polynomial(0).coeffs == (F(1),)
    assert H_polynomial(1).coeffs == (F(0), F(1))
    assert H_polynomial(2).coeffs == (F(1), F(1))
    assert H_polynomial(3).coeffs == (F(2), F(-3, 2), F(1, 2))
    assert H_polynomial(4).coeffs == (F(-2), F(-1, 2), F(1, 2))
    with pytest.raises(LTooLarge):
        H_polynomial(9)


def test_embedding_deficit_over_the_guard_raises_at_once(monkeypatch):
    def no_prefixes(k):
        raise AssertionError(f"generate_Y({k}) called")

    monkeypatch.setattr(kunzcount, "generate_Y", no_prefixes)
    with pytest.raises(LTooLarge, match="l=100"):
        count_embedding_deficit(5, 100)


def test_H_degree_and_monic():
    for l in range(-1, 8):
        H = H_polynomial(l)
        l1 = (l + 1) // 2
        assert H.degree == l1
        scaled = factorial(l1) * H
        assert scaled.coeffs[-1] == 1
        assert all(c.denominator == 1 for c in scaled.coeffs)


def test_f_polynomials():
    assert f_polynomial(0).coeffs == (Fraction(-1), Fraction(1))
    for k in range(7):
        f = f_polynomial(k)
        assert f.degree == k + 1
        assert f.coeffs[-1] == 1
        assert all(c.denominator == 1 for c in f.coeffs)
    # evaluation identity against the direct count
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(5):
            for g in range(4 * k + 3, 4 * k + 9):
                assert f_polynomial(k)(g) == factorial(k + 1) * count_multiplicity_deficit(g, k)


def test_rational_polynomial_eval():
    p = ExactPolynomial((1, 2, 1))  # (1+x)^2
    assert p(3) == 16
    assert (2 * p).coeffs == (2, 4, 2)


def test_one_polynomial_class():
    assert not hasattr(kunzcount, "RationalPolynomial")
    assert type(H_polynomial(3)) is ExactPolynomial


def test_count_path_at_both_ends_of_the_multiplicity_range():
    # The task of each multiplicity m (O_m and every other semigroup of
    # multiplicity m, walked to genus g) through the count path, _count_job,
    # at genera whose masks are wider than any other count test reaches:
    # against the closed form for m >= g - 6 and the Kunz vectors of (m, g)
    # for m <= 6.  The classes with 6 < m < g - 6 stay unchecked at
    # these genera.  Every (g, g - m) used is in the closed form's proven
    # range, so no warning is raised.
    for g in (35, 45):
        width = _width(g)
        classes = {root[2]: root for root in _tasks(width, g)}
        with warnings.catch_warnings():
            warnings.simplefilter("error", OutOfValidityRangeWarning)
            for m in [*range(2, 7), *range(g - 6, g + 1)]:
                got = _count_job((classes[m], width, g))[g]
                if m >= g - 6:
                    assert got == count_multiplicity_deficit(g, g - m), (g, m)
                else:
                    assert got == len(enumerate_kunz_vectors(m, g)), (g, m)
    for suite in ("counting-m", "counting-e"):
        result = run_suite(suite, 45)
        assert result.ok, str(result)
