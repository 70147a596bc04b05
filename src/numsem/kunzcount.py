"""Closed-form counting of semigroups with large multiplicity / embedding dimension.

The Kunz coordinates of a semigroup with m(S) = g - k have a short prefix
x_bar = (x_1, ..., x_{2k+1}) over {1,2,3} that determines everything except
which of the remaining coordinates equal 2; counting the qualifying prefixes
(the set Y(k)) and the placements gives exact binomial formulas for
#{m(S) = g - k} and #{e(S) = g - l}, polynomial in g for fixed deficit.
"""

import warnings
from collections import namedtuple
from fractions import Fraction
from math import factorial

from .errors import (
    BadAlphabet,
    KTooLarge,
    LTooLarge,
    OutOfValidityRangeWarning,
    PrefixConditionViolated,
)
from .polybounds import ExactPolynomial, binomial

__all__ = [
    "PrefixTuple",
    "abc_stats",
    "generate_Y",
    "count_fixed_prefix",
    "count_multiplicity_deficit",
    "count_embedding_deficit",
    "H_polynomial",
    "f_polynomial",
]

MAX_K = 8


def _ones_sum_to(entries, i):
    """Whether positions j and i - j (1-based) of ``entries`` both hold 1."""
    return any(entries[j - 1] == 1 and entries[i - j - 1] == 1 for j in range(1, i // 2 + 1))


def abc_stats(entries):
    """(a, b, c): counts of 2s, 3s, and forced 2s (those with a (1,1,2) pattern)."""
    entries = tuple(entries)
    if any(x not in (1, 2, 3) for x in entries):
        raise BadAlphabet(f"entries must lie in {{1,2,3}}: {entries}")
    a = sum(1 for x in entries if x == 2)
    b = sum(1 for x in entries if x == 3)
    c = sum(1 for i, x in enumerate(entries, 1) if x == 2 and _ones_sum_to(entries, i))
    return (a, b, c)


class PrefixTuple(namedtuple("PrefixTuple", "k entries a b c")):
    """A {1,2,3}-tuple of odd length 2k+1 with its (a, b, c) statistics."""

    __slots__ = ()

    @classmethod
    def make(cls, entries):
        entries = tuple(entries)
        if len(entries) % 2 == 0 and entries:
            raise ValueError("entries must have odd length (or be empty)")
        k = (len(entries) - 1) // 2  # -1 for the empty tuple
        a, b, c = abc_stats(entries)
        return cls(k, entries, a, b, c)


def generate_Y(k):
    """All of Y(k): {1,2,3}-tuples of length 2k+1 with no (1,1,3) pattern and
    a + 2b <= k + 1, in lexicographic order."""
    if k < -1:
        raise ValueError("k must be at least -1")
    if k > MAX_K:
        raise KTooLarge(f"k={k} exceeds the guard {MAX_K}")
    n = 2 * k + 1
    out = []
    cur = []

    def extend(a, b):
        pos = len(cur)
        if pos >= n:  # n = -1 for Y(-1) = {()}
            out.append(PrefixTuple.make(tuple(cur)))
            return
        for v in (1, 2, 3):
            a2, b2 = a + (v == 2), b + (v == 3)
            if a2 + 2 * b2 > k + 1:
                continue
            if v == 3 and _ones_sum_to(cur, pos + 1):
                continue
            cur.append(v)
            extend(a2, b2)
            cur.pop()

    extend(0, 0)
    return out


def _below(g, threshold):
    """Warn, at the caller of the public count, that g is below ``threshold``."""
    warnings.warn(f"g={g} is below {threshold}", OutOfValidityRangeWarning, stacklevel=3)


def _prefix_term(g, p):
    """binom(g - 3k - 2, k + 1 - a - 2b): the genus-g semigroups whose Kunz
    prefix is the tuple p of Y(k), zero outside the binomial's range."""
    return binomial(g - 3 * p.k - 2, p.k + 1 - p.a - 2 * p.b)


def count_fixed_prefix(g, k1, k2, prefix):
    """Semigroups with g(S)=g, m(S)=g-k1, e(S)=g-k2 whose Kunz prefix is ``prefix``."""
    if not -1 <= k1 <= k2:
        raise ValueError("need -1 <= k1 <= k2")
    p = prefix if isinstance(prefix, PrefixTuple) else PrefixTuple.make(prefix)
    if p.k != k1:
        raise PrefixConditionViolated(f"prefix length {len(p.entries)} != 2*{k1}+1")
    if any(x == 3 and _ones_sum_to(p.entries, i) for i, x in enumerate(p.entries, 1)):
        raise PrefixConditionViolated("prefix contains a (1,1,3) pattern")
    if p.a + 2 * p.b > k1 + 1:
        raise PrefixConditionViolated(f"a+2b = {p.a + 2 * p.b} > k1+1 = {k1 + 1}")
    if p.a + p.b - p.c != 2 * k1 + 1 - k2:
        raise PrefixConditionViolated(
            f"a+b-c = {p.a + p.b - p.c} != 2*k1+1-k2 = {2 * k1 + 1 - k2}"
        )
    if g < 4 * k1 + 3:
        _below(g, f"the proven threshold 4*k1+3={4 * k1 + 3}")
    return _prefix_term(g, p)


def count_multiplicity_deficit(g, k):
    """#{S of genus g with m(S) = g - k}; proven exact for g >= 4k+3."""
    if g < 4 * k + 3:
        _below(g, f"the proven threshold 4k+3={4 * k + 3}")
    return sum(_prefix_term(g, p) for p in generate_Y(k))


def _embedding_prefixes(l):
    """The prefixes p of Y(k), k <= l, that e(S) = g - l counts: a + b - c = 2k + 1 - l."""
    return (p for k in range(-1, l + 1) for p in generate_Y(k) if p.a + p.b - p.c == 2 * k + 1 - l)


def count_embedding_deficit(g, l):
    """#{S of genus g with e(S) = g - l}; proven exact for g >= 4l+3
    (a second published threshold is g >= (9l+7)/2; both are surfaced)."""
    if l > MAX_K:
        raise LTooLarge(f"l={l} exceeds the guard {MAX_K}")
    if 2 * g < 9 * l + 7 or g < 4 * l + 3:
        _below(g, f"a proven threshold (4l+3={4 * l + 3}, (9l+7)/2={(9 * l + 7) / 2})")
    return sum(_prefix_term(g, p) for p in _embedding_prefixes(l))


def _binom_poly(shift, d):
    """binom(x - shift, d) as a polynomial in x: prod_{i<d} (x - shift - i) / d!."""
    p = ExactPolynomial((Fraction(1, factorial(d)),))
    for i in range(d):
        p = p * ExactPolynomial((-shift - i, 1))
    return p


def H_polynomial(l):
    """H_l(x) = sum over k <= l and qualifying prefixes of binom(x-3k-2, k+1-a-2b).

    H_l(g) = #{S of genus g with e(S) = g - l} on the validity range; the
    degree is floor((l+1)/2) and floor((l+1)/2)! * H_l is monic with integer
    coefficients.
    """
    if l < -1:
        raise ValueError("l must be at least -1")
    if l > MAX_K:
        raise LTooLarge(f"l={l} exceeds the guard {MAX_K}")
    total = ExactPolynomial()
    for p in _embedding_prefixes(l):
        total = total + _binom_poly(3 * p.k + 2, p.k + 1 - p.a - 2 * p.b)
    return total


def f_polynomial(k):
    """f_k(x) = (k+1)! * sum over Y(k) of binom(x-3k-2, k+1-a-2b).

    f_k(g)/(k+1)! counts genus-g semigroups with m(S) = g - k; f_k is monic of
    degree k+1 with integer coefficients.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = ExactPolynomial()
    for p in generate_Y(k):
        total = total + _binom_poly(3 * k + 2, k + 1 - p.a - 2 * p.b)
    return factorial(k + 1) * total
