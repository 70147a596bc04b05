"""Exception types shared across the package."""


class NumsemError(Exception):
    """Base class for all errors raised by this package."""


class NotASemigroup(NumsemError):
    """The complement of the given gap set is not closed under addition."""

    def __init__(self, witness_sum, parts):
        self.witness_sum = witness_sum
        self.parts = parts
        super().__init__(
            f"{parts[0]}+{parts[1]}={witness_sum} is a gap but both summands are members"
        )


class InfiniteGenus(NumsemError):
    """Generators with gcd > 1 generate a monoid with infinite complement."""


class NotAMember(NumsemError):
    """Apery sets are only defined with respect to elements of the semigroup."""


class GenusTooLarge(NumsemError):
    """Requested genus exceeds the configured enumeration maximum."""


class GenusMismatch(NumsemError):
    """Aggregates of different genera cannot be merged."""


class InvalidKunz(NumsemError):
    """A Kunz inequality fails; carries the violating index pair."""

    def __init__(self, i, j, message=None):
        self.indices = (i, j)
        super().__init__(message or f"Kunz inequality violated at indices ({i}, {j})")


class InvalidB(NumsemError):
    """The B-set of a depth-3 parametrization is out of range or collides."""


class UnknownPredicate(NumsemError):
    """The proportion query names a predicate that is not tracked."""


class MissingEpsilon(NumsemError):
    """A band predicate was given without its half-width epsilon."""


class UnknownInvariant(NumsemError):
    """The moment query names an invariant that is not tracked."""


class NoSecondMoment(NumsemError):
    """Variance requested for an invariant without a tracked second moment."""


class UntrackedElement(NumsemError):
    """Membership/pair query outside the tracked range."""


class MissingAggregate(NumsemError):
    """Figure data requested for a genus with no available aggregate."""


class UndefinedAtBreakpoint(NumsemError):
    """The step function is undefined at its two breakpoints."""


class TruncationTooLarge(NumsemError):
    """Partial-sum truncation beyond the combinatorial blowup guard."""


class BadAlphabet(NumsemError):
    """Prefix tuples must have entries in {1, 2, 3}."""


class KTooLarge(NumsemError):
    """Prefix-set generation beyond the 3^(2k+1) guard."""


class LTooLarge(NumsemError):
    """Polynomial construction beyond the supported range."""


class PrefixConditionViolated(NumsemError):
    """A fixed-prefix count was requested for a non-qualifying prefix."""


class CorruptCache(NumsemError):
    """A cache file failed its checksum; it is quarantined and recomputed."""


class OutOfValidityRangeWarning(UserWarning):
    """A closed-form count was evaluated below its proven validity threshold."""
