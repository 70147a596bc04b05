from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsem.core import minimal_generators, semigroup_from_gaps
from numsem.errors import InvalidKunz
from numsem.kunz import (
    KunzVector,
    count_by_kunz,
    enumerate_kunz_vectors,
    generators_from_kunz,
    is_valid_kunz,
    kunz_of,
    semigroup_of_kunz,
)
from numsem.stats import Accumulator
from numsem.tree import (
    MAX_GENUS,
    _series,
    _series_job,
    _tasks,
    _width,
    count_genus_series,
    enumerate_genus,
    iter_semigroups,
)


def test_kunz_of_examples():
    assert kunz_of(semigroup_from_gaps({1, 2, 4})) == KunzVector(3, (2, 1))
    assert kunz_of(semigroup_from_gaps({1, 3, 5, 7})) == KunzVector(2, (4,))
    m = 6
    S = semigroup_from_gaps(range(1, m))
    assert kunz_of(S) == KunzVector(m, (1,) * (m - 1))


def test_semigroup_of_kunz_examples():
    assert semigroup_of_kunz(KunzVector(3, (2, 1))).gaps() == (1, 2, 4)
    assert semigroup_of_kunz(KunzVector(5, (1, 1, 1, 1))).gaps() == (1, 2, 3, 4)
    with pytest.raises(InvalidKunz) as exc:
        semigroup_of_kunz(KunzVector(3, (1, 3)))
    assert exc.value.indices == (1, 1)


def test_is_valid():
    assert is_valid_kunz(3, (2, 1))
    assert not is_valid_kunz(3, (1, 3))
    for m in range(2, 51):
        assert is_valid_kunz(m, (1,) * (m - 1))


def test_generators_from_kunz_examples():
    assert generators_from_kunz(KunzVector(3, (2, 1))) == {3, 5, 7}
    assert generators_from_kunz(KunzVector(5, (1, 1, 1, 1))) == {5, 6, 7, 8, 9}
    assert generators_from_kunz(KunzVector(2, (4,))) == {2, 9}


def test_m1_empty_vector():
    kv = KunzVector(1, ())
    S = semigroup_of_kunz(kv)
    assert S.genus == 0
    assert kunz_of(S) == kv


@pytest.mark.parametrize("g", range(11))
def test_roundtrip_exhaustive(g):
    vectors = set()
    for S in iter_semigroups(g):
        kv = kunz_of(S)
        assert kv.genus == g
        assert is_valid_kunz(kv.multiplicity, kv.coords)
        assert semigroup_of_kunz(kv) == S
        assert tuple(sorted(generators_from_kunz(kv))) == minimal_generators(S)
        vectors.add(kv)
    # the map is onto the valid vectors of this genus
    expected = {KunzVector(1, ())} if g == 0 else {
        kv for m in range(2, g + 2) for kv in enumerate_kunz_vectors(m, g)
    }
    assert vectors == expected


def test_oracle_matches_tree():
    series = count_genus_series(12)
    assert [count_by_kunz(g) for g in range(13)] == series
    assert series[:8] == [1, 1, 2, 4, 7, 12, 23, 39]


def _add_kunz_leaves(acc, m, g, width):
    """``add_leaf`` of every semigroup of multiplicity m and genus g, without
    the tree: each Kunz vector x gives the gaps {q*m + i : q < x_i} and
    F = max((x_i - 1)*m + i), and the from-scratch ``add_leaf`` counts the
    rest, from a mask of the walk's ``width``."""
    full = (1 << width) - 1
    for kv in enumerate_kunz_vectors(m, g):
        gaps, F = 0, -1
        for i, x in enumerate(kv.coords, 1):
            for q in range(x):
                gaps |= 1 << (q * m + i)
            F = max(F, (x - 1) * m + i)
        acc.add_leaf(full ^ gaps, m, F)


def _kunz_aggregate(g):
    """The genus-g aggregate without the tree."""
    width = _width(g)
    acc = Accumulator(g, width)
    for m in range(1, g + 2):
        _add_kunz_leaves(acc, m, g, width)
    return acc.finalize()


def test_kunz_aggregates_match_the_walk():
    # Whole aggregates from an enumeration that does not walk the tree: a
    # wrong child step changes the set of semigroups the tree holds, and the
    # brute-force fold over iter_semigroups walks that same tree.
    for g in range(19):
        assert _kunz_aggregate(g).canonical_bytes() == enumerate_genus(g).canonical_bytes(), g


def test_multiplicity_tasks_hold_the_kunz_counts():
    # Every state of a task of the multiplicity split has its roots'
    # multiplicity, and the tasks of multiplicity m hold as many states of
    # depth g as there are Kunz vectors of (m, g), which walk no tree.
    for g in range(15):
        width = _width(g)
        per_m = Counter()
        for root in _tasks(width, g):
            m = root[2]
            for state in _series(root, g, width - 1):
                assert state[2] == m, (g, state)
                per_m[m] += state[8] == g
        kunz_counts = {m: len(enumerate_kunz_vectors(m, g)) for m in range(1, g + 2)}
        assert per_m == Counter(kunz_counts), g


def test_multiplicity_tasks_above_genus_30_are_the_kunz_slices():
    # The multiplicity-m task of the split (O_m and every other semigroup of
    # multiplicity m) at its last three genera, up to MAX_GENUS, against add_leaf
    # over the Kunz vectors of (m, h), which walk no tree.  Wider masks and
    # larger F than any other test reaches.
    for g, ms in ((30, range(3, 8)), (MAX_GENUS, range(3, 7))):
        width = _width(g)
        genera = {g - 2, g - 1, g}
        tasks = {root[2]: root for root in _tasks(width, g)}
        for m in ms:
            accs = _series_job(genera, (tasks[m], width, g))
            for h in genera:
                want = Accumulator(h, width)
                _add_kunz_leaves(want, m, h, width)
                got = accs[h].finalize().canonical_bytes()
                assert got == want.finalize().canonical_bytes(), (g, m, h)


def test_backtracker_agrees_with_filter():
    # The pruned enumerator gives the vectors of a brute-force filter of all
    # compositions of g into m - 1 parts, in the same (lexicographic) order.
    from itertools import combinations

    for m in range(2, 10):
        for g in range(10):
            brute = []
            for cuts in combinations(range(1, g), m - 2):
                c = tuple(b - a for a, b in zip((0,) + cuts, cuts + (g,)))
                if is_valid_kunz(m, c):
                    brute.append(KunzVector(m, c))
            assert enumerate_kunz_vectors(m, g) == brute, (m, g)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_random_vector_validity_consistency(m, data):
    coords = tuple(
        data.draw(st.integers(min_value=1, max_value=4)) for _ in range(m - 1)
    )
    if is_valid_kunz(m, coords):
        S = semigroup_of_kunz(KunzVector(m, coords))
        assert S.multiplicity == m
        assert S.genus == sum(coords)
    else:
        with pytest.raises(InvalidKunz):
            semigroup_of_kunz(KunzVector(m, coords))
