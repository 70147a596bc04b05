"""Numerical semigroups as membership bitmasks, and their scalar invariants.

A semigroup is stored as a Python integer ``mask`` whose bit ``n`` is set iff
``n`` is a member.  The mask covers ``[0, capacity)`` with
``capacity >= F + 2m + 2``; every integer above the Frobenius number is a
member, so this finite window determines the whole semigroup.  All heavy
per-semigroup work (minimal generators, pseudo-Frobenius numbers) is done
with big-int bitwise arithmetic, which keeps the exhaustive enumeration fast
enough to run at desk scale.
"""

from collections import namedtuple
from math import gcd

from .errors import InfiniteGenus, NotAMember, NotASemigroup

__all__ = [
    "SemigroupSet",
    "InvariantRecord",
    "AperyTable",
    "semigroup_from_gaps",
    "semigroup_from_generators",
    "minimal_generators",
    "pseudo_frobenius",
    "invariants",
    "apery",
]


def _sums_mask(mask, m, F):
    """Bitmask of all sums of two positive members, valid on [0, F+m].

    Only the smaller summand a is iterated, over the members in
    [m, (F+m)//2]: a sum s <= F+m has a <= s/2.  Positions above F+m may
    miss sums.
    """
    pmask = mask & ~1
    sums = 0
    sub = (mask >> m) & ((1 << ((F - m) // 2 + 1)) - 1)
    while sub:
        low = sub & -sub
        s = m + low.bit_length() - 1
        sums |= pmask << s
        sub &= sub - 1
    return sums


def _min_gens_mask(mask, m, F):
    """Bitmask of the minimal generating set.

    Minimal generators lie in [m, F+m] (for genus >= 1): anything larger is
    m plus a member.  For the full monoid the generating set is {1}.
    """
    if F < 0:
        return 0b10
    lo, hi = m, F + m
    window = ((1 << (hi - lo + 1)) - 1) << lo
    return mask & window & ~_sums_mask(mask, m, F)


def _pf_mask(mask, m, F, gens_mask):
    """Bitmask of the pseudo-Frobenius numbers (subset of the gaps).

    A gap P is pseudo-Frobenius iff P + a is a member for every minimal
    generator a; closure extends this to every positive member.
    """
    gaps = ~mask & ((1 << (F + 1)) - 1)
    ext = mask | (-1 << (F + 1))  # everything past F is a member
    pf = gaps
    gm = gens_mask
    while gm and pf:
        low = gm & -gm
        pf &= ext >> (low.bit_length() - 1)
        gm &= gm - 1
    return pf


def _bit_positions(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask &= mask - 1
    return out


_BYTE_POSITION_SUM = tuple(sum(_bit_positions(b)) for b in range(256))


def _gap_sum(mask, F):
    """alpha, the sum of the gaps, a byte at a time."""
    gaps = ~mask & ((1 << (F + 1)) - 1)
    alpha = 0
    base = 0
    while gaps:
        b = gaps & 255
        alpha += _BYTE_POSITION_SUM[b] + base * b.bit_count()
        gaps >>= 8
        base += 8
    return alpha


def _leaf(mask, m, F):
    """(e, t, alpha) from a membership mask, from scratch: the reference for
    the state the tree kernel carries.
    """
    gens_mask = _min_gens_mask(mask, m, F)
    return (gens_mask.bit_count(), _pf_mask(mask, m, F, gens_mask).bit_count(),
            _gap_sum(mask, F))


def _windows(mask, m, F):
    """(e1, t1): the members in [m, 2m) and the gaps in (F - m, F]."""
    gaps = ~mask & ((1 << (F + 1)) - 1)
    return (mask >> m & ((1 << m) - 1)).bit_count(), (gaps << m >> (F + 1)).bit_count()


class SemigroupSet:
    """An immutable numerical semigroup with cached m(S), F(S), g(S)."""

    __slots__ = ("mask", "capacity", "multiplicity", "frobenius", "genus")

    def __init__(self, mask, capacity):
        full = (1 << capacity) - 1
        gaps = ~mask & full
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "frobenius", gaps.bit_length() - 1)
        object.__setattr__(self, "genus", gaps.bit_count())
        pos = mask & ~1
        object.__setattr__(self, "multiplicity", (pos & -pos).bit_length() - 1)

    def __setattr__(self, name, value):
        raise AttributeError("SemigroupSet is immutable")

    def __contains__(self, n):
        if n < 0:
            return False
        if n > self.frobenius:
            return True
        return (self.mask >> n) & 1 == 1

    def gaps(self):
        """Sorted tuple of the gaps."""
        return tuple(_bit_positions(~self.mask & ((1 << (self.frobenius + 1)) - 1)))

    def __eq__(self, other):
        if not isinstance(other, SemigroupSet):
            return NotImplemented
        return self.gaps() == other.gaps()

    def __hash__(self):
        return hash(self.gaps())

    def __repr__(self):
        return f"SemigroupSet(gaps={list(self.gaps())})"


class InvariantRecord(
    namedtuple(
        "InvariantRecord",
        "genus multiplicity frobenius embedding_dim e1 e2 type_t t1 t2 weight gap_sum",
    )
):
    """All scalar invariants of one semigroup."""

    __slots__ = ()


class AperyTable(namedtuple("AperyTable", "modulus entries")):
    """Least member in each residue class modulo ``modulus``."""

    __slots__ = ()


def semigroup_from_gaps(gaps):
    """Build the semigroup whose gap set is exactly ``gaps``.

    Raises NotASemigroup if the complement is not closed under addition.
    """
    gaps = set(gaps)
    if min(gaps, default=1) < 1:
        raise ValueError("gaps must be positive integers")
    F = max(gaps, default=-1)
    m = next(i for i in range(1, F + 3) if i not in gaps)
    capacity = F + 2 * m + 2
    mask = (1 << capacity) - 1
    for h in gaps:
        mask &= ~(1 << h)
    # closure check: no two positive members may sum to a gap
    bad = _sums_mask(mask, m, F) & ~mask & ((1 << capacity) - 1)
    if bad:
        s = (bad & -bad).bit_length() - 1
        for a in range(m, s - m + 1):
            if (mask >> a) & 1 and (mask >> (s - a)) & 1:
                raise NotASemigroup(s, (a, s - a))
    return SemigroupSet(mask, capacity)


def semigroup_from_generators(gens):
    """Smallest addition-closed set containing 0 and ``gens``.

    Raises InfiniteGenus when gcd(gens) != 1.
    """
    gens = sorted(set(gens))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    d = gcd(*gens)
    if d != 1:
        raise InfiniteGenus(f"gcd of generators is {d}")
    # Schur bound: every gap of a coprime generating set is below (min-1)(max-1)
    top = (gens[0] - 1) * (gens[-1] - 1)
    mask, full = 1, (1 << top) - 1
    for a in gens:
        while a < top:  # close under adding a: shifts by a, 2a, 4a, ...
            mask |= mask << a & full
            a *= 2
    return semigroup_from_gaps(_bit_positions(~mask & full))


def minimal_generators(S):
    """The unique minimal generating set, as a sorted tuple."""
    return tuple(_bit_positions(_min_gens_mask(S.mask, S.multiplicity, S.frobenius)))


def pseudo_frobenius(S):
    """The pseudo-Frobenius numbers, as a sorted tuple (empty for the full monoid)."""
    m, F = S.multiplicity, S.frobenius
    return tuple(_bit_positions(_pf_mask(S.mask, m, F, _min_gens_mask(S.mask, m, F))))


def invariants(S):
    """Compute the full invariant record of one semigroup in a single pass."""
    m, F, g = S.multiplicity, S.frobenius, S.genus
    e, t, alpha = _leaf(S.mask, m, F)
    e1, t1 = _windows(S.mask, m, F)
    w = alpha - g * (g + 1) // 2
    return InvariantRecord(g, m, F, e, e1, e - e1, t, t1, t - t1, w, alpha)


def apery(S, n):
    """Apery table of S with respect to a nonzero member n."""
    if n < 1 or n not in S:
        raise NotAMember(f"{n} is not a positive member")
    entries = [None] * n
    entries[0] = 0
    found = 1
    x = 1
    while found < n:
        if x in S and entries[x % n] is None:
            entries[x % n] = x
            found += 1
        x += 1
    return AperyTable(n, tuple(entries))
