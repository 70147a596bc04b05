"""The seven record types: construction, repr, immutability, hashing, pickling,
and the validation of KunzVector and TypeSetA, message by message."""

import pickle

import pytest

from numsem.bijections import TypeSetA
from numsem.core import AperyTable, InvariantRecord, apery, invariants, semigroup_from_gaps
from numsem.kunz import KunzVector
from numsem.kunzcount import PrefixTuple
from numsem.stats import GenusAggregate
from numsem.tree import enumerate_genus
from numsem.verify import VerifyResult

# Gaps {1, 2, 4}: the semigroup <3, 5, 7> of genus 3.
S = semigroup_from_gaps({1, 2, 4})

FIELDS = {
    InvariantRecord: ("genus", "multiplicity", "frobenius", "embedding_dim", "e1", "e2",
                      "type_t", "t1", "t2", "weight", "gap_sum"),
    AperyTable: ("modulus", "entries"),
    GenusAggregate: ("genus", "count", "hist", "moments", "counters", "membership",
                     "pairs", "pair_miss"),
    KunzVector: ("multiplicity", "coords"),
    PrefixTuple: ("k", "entries", "a", "b", "c"),
    TypeSetA: ("k", "elements"),
    VerifyResult: ("suite", "ok", "detail"),
}


RECORDS = [
    invariants(S),
    apery(S, 3),
    enumerate_genus(6),
    KunzVector(3, (2, 1)),
    PrefixTuple.make((1, 2, 2)),
    TypeSetA(3, (0, 2)),
    VerifyResult("core-invariants", True, "g<=8"),
]
# A GenusAggregate holds dicts, so it has no hash, as when it was a dataclass.
HASHABLE = [rec for rec in RECORDS if not isinstance(rec, GenusAggregate)]


def _values(rec):
    return [getattr(rec, name) for name in FIELDS[type(rec)]]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_positional_and_keyword_construction(rec):
    cls, names, values = type(rec), FIELDS[type(rec)], _values(rec)
    assert cls(*values) == rec
    assert cls(**dict(zip(names, values))) == rec


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_repr_is_the_field_list(rec):
    body = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[type(rec)], _values(rec)))
    assert repr(rec) == f"{type(rec).__name__}({body})"


def test_repr_and_str_text():
    assert repr(KunzVector(3, (2, 1))) == "KunzVector(multiplicity=3, coords=(2, 1))"
    assert repr(apery(S, 3)) == "AperyTable(modulus=3, entries=(0, 7, 5))"
    assert repr(TypeSetA(3, (0, 2))) == "TypeSetA(k=3, elements=(0, 2))"
    assert repr(PrefixTuple.make((1, 2, 2))) == "PrefixTuple(k=1, entries=(1, 2, 2), a=2, b=0, c=1)"
    assert repr(invariants(S)) == (
        "InvariantRecord(genus=3, multiplicity=3, frobenius=4, embedding_dim=3, e1=2, "
        "e2=1, type_t=2, t1=2, t2=0, weight=1, gap_sum=7)"
    )
    assert str(VerifyResult("kunz-roundtrip", True, "g<=8")) == "kunz-roundtrip: ok (g<=8)"
    assert str(VerifyResult("membership", False, "g=6 n=3")) == "membership: FAIL (g=6 n=3)"


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_set(rec):
    for name in FIELDS[type(rec)]:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0


@pytest.mark.parametrize("rec", HASHABLE, ids=lambda r: type(r).__name__)
def test_equal_records_hash_equal(rec):
    twin = type(rec)(*_values(rec))
    assert twin is not rec and hash(twin) == hash(rec)
    assert {rec, twin} == {rec}


def test_aggregate_is_unhashable():
    with pytest.raises(TypeError):
        hash(enumerate_genus(4))


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_pickle_round_trip(rec):
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec


def test_aggregate_dict_round_trip_and_count_field():
    agg = enumerate_genus(6)
    assert GenusAggregate.from_dict(agg.to_dict()) == agg
    assert agg.count == 23  # the field, not tuple.count
    assert agg.to_dict()["count"] == 23


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, (1,)), "coords must have length multiplicity - 1"),
        ((1, (1,)), "coords must have length multiplicity - 1"),
        ((3, (1, 0)), "coords must be positive"),
        ((2, (-1,)), "coords must be positive"),
    ],
)
def test_kunz_vector_validation(args, message):
    with pytest.raises(ValueError, match=message):
        KunzVector(*args)
    with pytest.raises(ValueError, match=message):
        KunzVector(multiplicity=args[0], coords=args[1])


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, ()), "a type set must contain 0"),
        ((3, (1,)), "a type set must contain 0"),
        ((3, (0, 3)), r"elements must lie in \[0, k-1\]"),
        ((3, (0, -1)), r"elements must lie in \[0, k-1\]"),
        ((2, (0, 1)), "sumset must avoid k"),
        ((4, (0, 1, 3)), "sumset must avoid k"),
    ],
)
def test_type_set_validation(args, message):
    with pytest.raises(ValueError, match=message):
        TypeSetA(*args)
    with pytest.raises(ValueError, match=message):
        TypeSetA(k=args[0], elements=args[1])


@pytest.mark.parametrize(
    "rec, change, message",
    [
        (KunzVector(3, (2, 1)), {"coords": (1,)}, "coords must have length multiplicity - 1"),
        (KunzVector(3, (2, 1)), {"coords": (2, 0)}, "coords must be positive"),
        (TypeSetA(3, (0, 1)), {"elements": (1, 2)}, "a type set must contain 0"),
        (TypeSetA(3, (0, 1)), {"elements": (0, 3)}, r"elements must lie in \[0, k-1\]"),
        (TypeSetA(3, (0, 1)), {"k": 2}, "sumset must avoid k"),
    ],
)
def test_replace_and_make_validate(rec, change, message):
    # namedtuple's _replace and _make check as the constructor does.
    with pytest.raises(ValueError, match=message):
        rec._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(rec)._make({**rec._asdict(), **change}.values())


def test_valid_replace_keeps_the_record_type():
    cases = ((KunzVector(3, (2, 1)), {"coords": (1, 1)}), (TypeSetA(3, (0, 1)), {"k": 4}))
    for rec, change in cases:
        new = rec._replace(**change)
        assert type(new) is type(rec) and new == type(rec)(**{**rec._asdict(), **change})
        assert type(rec)._make(new) == new
