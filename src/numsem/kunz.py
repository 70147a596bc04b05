"""Kunz coordinate vectors: the Apery-set bijection and its inverse.

For a semigroup S with multiplicity m, write the Apery set as
a_i = k_i*m + i (i in [1, m-1]); the vector (k_1, ..., k_{m-1}) determines S.
A positive integer vector arises this way iff
  x_i + x_j >= x_{i+j}       for i + j < m, and
  x_i + x_j + 1 >= x_{i+j-m} for i + j > m,
and then sum(x) is the genus.  This module also carries the generator
characterization in these coordinates and an independent backtracking
enumerator of valid vectors, used as a counting oracle against the tree walk.
"""

from collections import namedtuple

from .core import SemigroupSet, apery, semigroup_from_gaps
from .errors import InvalidKunz

__all__ = [
    "KunzVector",
    "kunz_of",
    "semigroup_of_kunz",
    "is_valid_kunz",
    "generators_from_kunz",
    "enumerate_kunz_vectors",
    "count_by_kunz",
]


class KunzVector(namedtuple("KunzVector", "multiplicity coords")):
    __slots__ = ()

    def __new__(cls, multiplicity, coords):
        if len(coords) != multiplicity - 1:
            raise ValueError("coords must have length multiplicity - 1")
        if any(x < 1 for x in coords):
            raise ValueError("coords must be positive")
        return super().__new__(cls, multiplicity, coords)

    @classmethod
    def _make(cls, iterable):  # _replace calls _make, so both check as __new__ does
        return cls(*iterable)

    @property
    def genus(self):
        return sum(self.coords)


def _violation(m, x):
    """First failing index pair, or None.  x is 1-indexed via x[i-1]."""
    for i in range(1, m):
        for j in range(i, m):
            s = i + j
            if s < m:
                if x[i - 1] + x[j - 1] < x[s - 1]:
                    return (i, j)
            elif s > m:
                if x[i - 1] + x[j - 1] + 1 < x[s - m - 1]:
                    return (i, j)
    return None


def is_valid_kunz(m, coords):
    """Whether (m, coords) satisfies both Kunz inequality families."""
    if len(coords) != m - 1 or any(x < 1 for x in coords):
        return False
    return _violation(m, tuple(coords)) is None


def kunz_of(S):
    """Kunz coordinates of S with respect to its multiplicity."""
    m = S.multiplicity
    ap = apery(S, m).entries
    return KunzVector(m, tuple((ap[i] - i) // m for i in range(1, m)))


def semigroup_of_kunz(kv):
    """The semigroup whose Apery set (mod m) is m*k_i + i."""
    m = kv.multiplicity
    bad = _violation(m, kv.coords)
    if bad is not None:
        raise InvalidKunz(*bad)
    gaps = []
    for i in range(1, m):
        # gaps in residue class i are i, m+i, ..., (k_i-1)m + i
        gaps.extend(q * m + i for q in range(kv.coords[i - 1]))
    return semigroup_from_gaps(gaps)


def generators_from_kunz(kv):
    """Minimal generators read directly off the coordinates (no semigroup built)."""
    m = kv.multiplicity
    bad = _violation(m, kv.coords)
    if bad is not None:
        raise InvalidKunz(*bad)
    k = kv.coords
    gens = {m}
    for i in range(1, m):
        ok = True
        for j1 in range(1, m):
            j2 = i - j1
            if 1 <= j2 < m and k[j1 - 1] + k[j2 - 1] == k[i - 1]:
                ok = False
                break
            j2 = m + i - j1
            if 1 <= j2 < m and k[j1 - 1] + k[j2 - 1] + 1 == k[i - 1]:
                ok = False
                break
        if ok:
            gens.add(m * k[i - 1] + i)
    return gens


def enumerate_kunz_vectors(m, g):
    """All valid Kunz vectors with multiplicity m and coordinate sum g.

    Backtracking: coordinates are placed left to right, each value in
    ascending order.  Every inequality whose indices are all placed bounds
    the new coordinate x_i from one side, so its values form an interval:
    family 1 (x_j + x_{i-j} >= x_i) from above, family 2 with i as a summand
    (x_j + x_i + 1 >= x_{j+i-m}, j <= i) from below; the remaining sum, with
    at least 1 for each coordinate left, caps it too.
    """
    n = m - 1
    out = []
    x = [0] * n

    def place(pos, remaining):
        # pos is 0-based; coordinate index i = pos + 1
        slots_left = n - pos
        if remaining < slots_left:
            return
        if slots_left == 0:
            if remaining == 0:
                out.append(KunzVector(m, tuple(x)))
            return
        i = pos + 1
        hi = min([remaining - (slots_left - 1)]
                 + [x[j - 1] + x[i - j - 1] for j in range(1, i // 2 + 1)])
        lo = max([1] + [x[j + i - m - 1] - x[j - 1] - 1 for j in range(m - i + 1, i)])
        if 2 * i > m:  # j = i: 2 x_i + 1 >= x_{2i-m}
            lo = max(lo, x[2 * i - m - 1] // 2)
        for v in range(lo, hi + 1):
            x[pos] = v
            place(pos + 1, remaining - v)
        x[pos] = 0

    place(0, g)
    return out


def count_by_kunz(g):
    """N(g) computed independently of the tree: sum valid vectors over m <= g+1."""
    return sum(len(enumerate_kunz_vectors(m, g)) for m in range(1, g + 2))
