import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsem.core import (
    _sums_mask,
    apery,
    invariants,
    minimal_generators,
    pseudo_frobenius,
    semigroup_from_gaps,
    semigroup_from_generators,
)
from numsem.errors import InfiniteGenus, NotAMember, NotASemigroup
from numsem.tree import _states, _width


def test_from_gaps_basic():
    S = semigroup_from_gaps({1, 2, 4})
    assert S.multiplicity == 3
    assert S.frobenius == 4
    assert S.genus == 3
    assert S.gaps() == (1, 2, 4)
    assert 0 in S and 3 in S and 4 not in S and 100 in S


def test_full_monoid():
    S = semigroup_from_gaps(())
    assert S.genus == 0
    assert S.multiplicity == 1
    assert S.frobenius == -1
    r = invariants(S)
    assert (r.embedding_dim, r.e1, r.type_t, r.weight, r.gap_sum) == (1, 1, 0, 0, 0)


def test_ordinary_semigroup():
    g = 6
    S = semigroup_from_gaps(range(1, g + 1))
    r = invariants(S)
    assert r.multiplicity == 7
    assert r.frobenius == 6
    assert r.embedding_dim == 7
    assert r.e1 == 7
    assert r.type_t == 6
    assert r.t1 == 6
    assert r.weight == 0
    assert r.gap_sum == 21


def test_not_closed():
    with pytest.raises(NotASemigroup) as exc:
        semigroup_from_gaps({1, 2, 4, 8})
    assert exc.value.witness_sum == 8
    a, b = exc.value.parts
    assert a + b == 8


def test_from_generators():
    S = semigroup_from_generators([3, 5, 7])
    assert S.gaps() == (1, 2, 4)
    S = semigroup_from_generators([2, 9])
    assert S.gaps() == (1, 3, 5, 7)
    assert semigroup_from_generators([1]).genus == 0


def test_from_generators_infinite():
    with pytest.raises(InfiniteGenus):
        semigroup_from_generators([2, 4])


def test_minimal_generators_and_pf():
    S = semigroup_from_gaps({1, 2, 4})
    assert minimal_generators(S) == (3, 5, 7)
    assert pseudo_frobenius(S) == (2, 4)
    S = semigroup_from_gaps({1, 3, 5, 7})
    assert minimal_generators(S) == (2, 9)
    assert pseudo_frobenius(S) == (7,)


def test_invariant_record():
    r = invariants(semigroup_from_gaps({1, 2, 4}))
    assert (r.embedding_dim, r.e1, r.e2) == (3, 2, 1)
    assert (r.type_t, r.t1, r.t2) == (2, 2, 0)
    assert (r.weight, r.gap_sum) == (1, 7)


def test_apery():
    S = semigroup_from_gaps({1, 2, 4})
    assert apery(S, 3).entries == (0, 7, 5)
    S = semigroup_from_gaps({1, 2, 3, 4})
    assert apery(S, 5).entries == (0, 6, 7, 8, 9)
    with pytest.raises(NotAMember):
        apery(S, 4)


def test_equality_and_hash():
    a = semigroup_from_gaps({1, 2, 4})
    b = semigroup_from_generators([3, 5, 7])
    assert a == b and hash(a) == hash(b)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=25), min_size=1, max_size=6))
def test_generators_roundtrip(gens):
    try:
        S = semigroup_from_generators(gens)
    except InfiniteGenus:
        from math import gcd
        d = 0
        for a in gens:
            d = gcd(d, a)
        assert d > 1
        return
    # every generator is a member; the minimal generators generate S back
    assert all(a in S for a in gens)
    assert semigroup_from_generators(minimal_generators(S)) == S


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=20), max_size=10))
def test_gaps_roundtrip_or_witness(gaps):
    try:
        S = semigroup_from_gaps(gaps)
    except NotASemigroup as exc:
        a, b = exc.parts
        assert a + b == exc.witness_sum
        assert exc.witness_sum in gaps
        assert a not in gaps and b not in gaps
        return
    assert set(S.gaps()) == set(gaps)
    r = invariants(S)
    assert r.embedding_dim == r.e1 + r.e2
    assert r.type_t == r.t1 + r.t2
    assert r.weight == r.gap_sum - r.genus * (r.genus + 1) // 2


def test_sums_mask_is_the_all_pairs_sumset():
    # On [0, F+m], over every semigroup of genus <= 14.
    width = _width(14)
    for mask, _, m, F, *_ in _states(width, 14):
        top = F + m
        members = [a for a in range(1, top + 1) if mask >> a & 1]
        sums = {a + b for a in members for b in members if a + b <= top}
        got = _sums_mask(mask, m, F) & ((1 << (top + 1)) - 1)
        assert got == sum(1 << s for s in sums), (mask, m, F)
