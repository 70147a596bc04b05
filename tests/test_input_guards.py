"""Every input guard of the public functions: the exception it raises, or the
warning it gives, and the message, for one bad input each."""

import pytest

from numsem import bijections, core, kunz, kunzcount, polybounds, stats
from numsem.cli import run
from numsem.errors import (
    GenusMismatch,
    InvalidB,
    InvalidKunz,
    OutOfValidityRangeWarning,
    PrefixConditionViolated,
    UnknownPredicate,
)

S = core.semigroup_from_gaps([1, 2, 3, 5])
A2 = bijections.TypeSetA(2, (0,))
EMPTY6 = stats.GenusAggregate.empty(6)

GUARDS = [
    (bijections.generate_Ak, (0,), ValueError, "k must be positive"),
    (bijections.semigroup_from_AB, (5, 2, (0,), ()), ValueError, "A must be a TypeSetA for this k"),
    (bijections.semigroup_from_AB, (2, 2, A2, ()), ValueError, "need k < m"),
    (bijections.semigroup_from_AB, (5, 2, A2, (7,)), InvalidB, "B must lie in [8, 11]"),
    (bijections.zhai_partial_sums, (-1,), ValueError, "K must be nonnegative"),
    (core.semigroup_from_gaps, ([0],), ValueError, "gaps must be positive integers"),
    (core.semigroup_from_generators, ([0],), ValueError, "generators must be positive integers"),
    (setattr, (S, "mask", 0), AttributeError, "SemigroupSet is immutable"),
    (kunz.generators_from_kunz, (kunz.KunzVector(3, (1, 3)),), InvalidKunz,
     "Kunz inequality violated at indices (1, 1)"),
    (kunzcount.PrefixTuple.make, ((1, 2),), ValueError,
     "entries must have odd length (or be empty)"),
    (kunzcount.generate_Y, (-2,), ValueError, "k must be at least -1"),
    (kunzcount.count_fixed_prefix, (20, 1, 0, (1, 1, 1)), ValueError, "need -1 <= k1 <= k2"),
    (kunzcount.count_fixed_prefix, (20, 1, 1, (1,)), PrefixConditionViolated,
     "prefix length 1 != 2*1+1"),
    (kunzcount.count_fixed_prefix, (5, 1, 3, (1, 1, 1)), OutOfValidityRangeWarning,
     "g=5 is below the proven threshold 4*k1+3=7"),
    (kunzcount.H_polynomial, (-2,), ValueError, "l must be at least -1"),
    (kunzcount.f_polynomial, (-1,), ValueError, "k must be nonnegative"),
    (polybounds.fibonacci, (0,), ValueError, "n must be positive"),
    (pow, (polybounds.ExactPolynomial((1, 1)), -1), ValueError,
     "negative powers are not polynomials"),
    (polybounds.e2_bound_value_C, (5, 1, 1), ValueError, "m must be at least 2"),
    (polybounds.t2_big_value, (5, 1), ValueError, "m must be at least 2"),
    (polybounds.t2_small_bound, (5, 1), ValueError, "m must be at least 2"),
    (polybounds.t2_bounds_C, (5, 1, 1), ValueError, "m must be at least 2"),
    (stats.merge, (EMPTY6, EMPTY6._replace(pairs=((1, 2),))), GenusMismatch,
     "aggregates track different pair lists"),
    (stats.proportion, (EMPTY6, "symmetric"), UnknownPredicate, "empty aggregate"),
    (stats.Accumulator(6, 32).merge_in, (stats.Accumulator(5, 32),), GenusMismatch,
     "cannot merge genus 6 with 5"),
]


@pytest.mark.parametrize(
    "fn, args, exc, message", GUARDS,
    ids=[f"{fn.__qualname__}-{message}" for fn, _, _, message in GUARDS],
)
def test_guard_message(fn, args, exc, message):
    if issubclass(exc, Warning):
        with pytest.warns(exc) as caught:
            fn(*args)
        assert str(caught[0].message) == message
        assert caught[0].filename == __file__  # reported at the caller's line
    else:
        with pytest.raises(exc) as info:
            fn(*args)
        assert str(info.value) == message


def test_semigroup_set_reads_negative_members_and_prints_its_gaps():
    assert -1 not in S
    assert repr(S) == "SemigroupSet(gaps=[1, 2, 3, 5])"


def test_non_integer_genus_is_usage_error(capsys):
    assert run(["enumerate", "--genus", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --genus: invalid int value: 'x'\n")
