"""Parametrizations of semigroups with small Frobenius-to-multiplicity gap.

Semigroups with F < 2m are in bijection with subsets B of [1, m-1]:
S = (m+B) union {0, m} union [2m, infinity).  Semigroups with 2m < F < 3m,
F = 2m + k, are parametrized by a "type set" A in A_k (recording
S cap [m, m+k] = m + A) together with a subset B of [m+k+1, 2m+k-1]
avoiding 2m + A + A.  The truncated series for the growth constant
c = lim N(g)/phi^g is built from the same A_k data.
"""

import math
from collections import namedtuple

from .core import SemigroupSet, semigroup_from_gaps
from .errors import InvalidB, TruncationTooLarge

__all__ = [
    "TypeSetA",
    "generate_Ak",
    "semigroup_from_B",
    "semigroup_from_AB",
    "count_B",
    "count_C",
    "zhai_partial_sum",
    "zhai_partial_sums",
]

_SQRT5 = math.sqrt(5.0)
_PHI = (1.0 + _SQRT5) / 2.0
MAX_TRUNCATION = 22


class TypeSetA(namedtuple("TypeSetA", "k elements")):
    """A subset of [0, k-1] containing 0 whose sumset avoids k."""

    __slots__ = ()

    def __new__(cls, k, elements):
        if not elements or elements[0] != 0:
            raise ValueError("a type set must contain 0")
        if any(not 0 <= a < k for a in elements):
            raise ValueError("elements must lie in [0, k-1]")
        if any(a + b == k for a in elements for b in elements):
            raise ValueError("sumset must avoid k")
        return super().__new__(cls, k, elements)

    @classmethod
    def _make(cls, iterable):  # _replace calls _make, so both check as __new__ does
        return cls(*iterable)

    def sumset_low(self):
        """(A+A) intersected with [0, k], as a sorted tuple."""
        k = self.k
        return tuple(sorted({a + b for a in self.elements for b in self.elements if a + b <= k}))


def generate_Ak(k):
    """All type sets for k, in lexicographic order of their element tuples."""
    if k < 1:
        raise ValueError("k must be positive")
    out = []
    chosen = [0]

    def extend(nxt):
        out.append(TypeSetA(k, tuple(chosen)))
        for a in range(nxt, k):
            if all(a + b != k for b in chosen) and a + a != k:
                chosen.append(a)
                extend(a + 1)
                chosen.pop()

    extend(1)
    return out


def semigroup_from_B(m, B):
    """The unique semigroup with multiplicity m, F < 2m, and S cap (m, 2m) = m + B."""
    B = set(B)
    if any(not 1 <= b < m for b in B):
        raise InvalidB(f"B must be a subset of [1, {m - 1}]")
    gaps = list(range(1, m)) + [m + j for j in range(1, m) if j not in B]
    return semigroup_from_gaps(gaps)


def semigroup_from_AB(m, k, A, B):
    """The semigroup in C(m, k, A, g) determined by the free part B."""
    if not isinstance(A, TypeSetA) or A.k != k:
        raise ValueError("A must be a TypeSetA for this k")
    if not k < m:
        raise ValueError("need k < m")
    B = set(B)
    low = set(A.sumset_low())
    blocked = {2 * m + s for s in low}
    lo, hi = m + k + 1, 2 * m + k - 1
    if any(not lo <= b <= hi for b in B):
        raise InvalidB(f"B must lie in [{lo}, {hi}]")
    if B & blocked:
        raise InvalidB(f"B meets 2m+A+A at {sorted(B & blocked)}")
    members = {0} | {m + a for a in A.elements} | blocked | B
    F = 2 * m + k
    gaps = [n for n in range(1, F + 1) if n not in members]
    return semigroup_from_gaps(gaps)


def count_B(g, m):
    """|B(g, m)|: semigroups of genus g, multiplicity m, and F < 2m."""
    return math.comb(m - 1, 2 * m - g - 2) if 0 <= 2 * m - g - 2 <= m - 1 else 0


def count_C(m, k, A, g):
    """|C(m, k, A, g)|: genus-g semigroups with F = 2m + k and S cap [m, m+k] = m + A."""
    s = len(A.sumset_low())
    n, r = m - 1 - s, 2 * m - g + k - len(A.elements) - s
    return math.comb(n, r) if 0 <= r <= n else 0


def zhai_partial_sums(K):
    """[zhai_partial_sum(0), ..., zhai_partial_sum(K)] from one pass over
    A_1 .. A_K."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    if K > MAX_TRUNCATION:
        raise TruncationTooLarge(f"K={K} exceeds the guard {MAX_TRUNCATION}")
    total = _PHI / _SQRT5
    sums = [total]
    for k in range(1, K + 1):
        for A in generate_Ak(k):
            exp = len(A.elements) - len(A.sumset_low()) - k - 1
            total += _PHI**exp / _SQRT5
        sums.append(total)
    return sums


def zhai_partial_sum(K):
    """Truncation at k=K of the series for the growth constant c.

    c = phi/sqrt5 + (1/sqrt5) * sum_{k>=1} sum_{A in A_k}
        phi^(|A| - |(A+A) cap [0,k]| - k - 1).
    """
    return zhai_partial_sums(K)[-1]
