"""Verification suites: every claim the package relies on, checked against
brute-force enumeration.  Each suite returns (ok, detail), which ``run_suite``
names; a failure's detail names the first counterexample: g, parameters, gaps."""

from collections import Counter, defaultdict, namedtuple
from itertools import combinations

from . import bijections as bj
from . import kunz, kunzcount, polybounds, stats
from .core import SemigroupSet, _gap_sum, _min_gens_mask, _pf_mask, _windows, minimal_generators
from .tree import _series, _states, _tasks, _width

__all__ = ["VerifyResult", "SUITES", "run_suite"]

KMAX = 4  # the F = 2m + k families checked, 0 < k <= KMAX
DMAX = 3  # the largest deficit k (of m) and l (of e) counted in closed form


class VerifyResult(namedtuple("VerifyResult", "suite ok detail")):
    __slots__ = ()

    def __str__(self):
        return f"{self.suite}: {'ok' if self.ok else 'FAIL'} ({self.detail})"


def _gap_mask(mask, F):
    """The gaps of the semigroup with membership mask ``mask`` and Frobenius
    number F, as a mask: the same integer in every width."""
    return ~mask & ((1 << (F + 1)) - 1)


def _fail(g, msg, S):
    return False, f"g={g} S=gaps{list(S.gaps())}: {msg}"


def _first_failure(gmax, check):
    """(g, message, S) of check(state, width)'s first failure at the smallest
    failing genus of ``tree._states``, in ``iter_semigroups``' order within a
    depth, or None; and the number of states at each depth.  S, the failing
    semigroup, is built only once check fails."""
    width = _width(gmax)
    seen = [0] * (gmax + 1)
    found = None
    for state in _states(width, gmax):
        g = state[8]
        seen[g] += 1
        if found is None or g < found[0]:
            msg = check(state, width)
            if msg:
                found = (g, msg, SemigroupSet(state[0], width))
    return found, seen


# For each byte b of gaps (bit j set: a gap), the non-gaps below each gap of
# b within the byte, summed.
_BYTE_WEIGHT = tuple(
    sum(j - (b & ((1 << j) - 1)).bit_count() for j in range(8) if b >> j & 1) for b in range(256)
)


def _weight(gaps):
    """w from its definition, each gap h adding the positive members below h,
    a byte at a time: a gap adds the members below its byte, counted as the
    bytes go, plus those before it in its byte, from a table.  The count
    starts at -1 so as to leave out 0, a member of the first byte."""
    w, below = 0, -1
    while gaps:
        b = gaps & 255
        n = b.bit_count()
        w += _BYTE_WEIGHT[b] + below * n
        below += 8 - n
        gaps >>= 8
    return w


def _core_failure(state, width):
    """The first identity or range the semigroup of ``state`` breaks, then
    the kernel state against it, from one from-scratch pass over its mask,
    read in ``width`` bits as a ``SemigroupSet`` of that capacity reads it:
    m, F and g come from the mask alone, and no ``SemigroupSet`` is built;
    one generator mask gives e, e1 and e2 (the generators >= 2m) and the PF
    mask, which gives t, t2 (the PF below F - m + 1), each counted on its
    own, and the late gaps; the weight is counted from its definition
    (``_weight``) and checked against the gap sum.  Nothing else is read
    from the kernel state before the last comparison, whose effective
    generators leave out m, as a task root O_m does (elsewhere F > m)."""
    mask = state[0]
    gaps = ~mask & ((1 << width) - 1)
    F, g = gaps.bit_length() - 1, gaps.bit_count()
    pos = mask & ~1
    m = (pos & -pos).bit_length() - 1
    gens = _min_gens_mask(mask, m, F)
    pf = _pf_mask(mask, m, F, gens)
    e1, t1 = _windows(mask, m, F)
    alpha = _gap_sum(mask, F)
    if gens.bit_count() != e1 + (gens >> 2 * m).bit_count():
        return "e != e1+e2"
    if _weight(gaps) != alpha - g * (g + 1) // 2:
        return "w != alpha - g(g+1)/2"
    if m > g + 1:
        return f"m={m} > g+1"
    if F > 2 * g - 1:
        return f"F={F} > 2g-1"
    if (mask & ~gens) >> m & ((1 << m) - 1):
        return "[m,2m-1] member not a generator"
    if (gaps & ~pf) << m >> (F + 1):
        return "late gap not pseudo-Frobenius"
    # Checked after the late gaps, which it would otherwise report as a t split.
    if pf.bit_count() != t1 + (pf & ((1 << max(F + 1 - m, 0)) - 1)).bit_count():
        return "t != t1+t2"
    eff = gens >> (F + 1) << (F + 1) & ~(1 << m)
    if state[2:] != (m, F, eff, gens.bit_count(), pf, alpha, g):
        return "kernel state != from-scratch"


def verify_core_invariants(gmax=20):
    """Identities, ranges and the walk's kernel state of every S with genus <= gmax."""
    found, seen = _first_failure(gmax, _core_failure)
    if found:
        return _fail(*found)
    return True, f"{sum(seen)} semigroups, g<={gmax}"


def _kunz_failure(state, width):
    S = SemigroupSet(state[0], width)
    kv = kunz.kunz_of(S)
    if not kunz.is_valid_kunz(kv.multiplicity, kv.coords):
        return f"invalid vector {kv}"
    if kv.genus != state[8]:
        return f"coordinate sum {kv.genus}"
    if kunz.semigroup_of_kunz(kv) != S:
        return "round trip mismatch"
    if set(kunz.generators_from_kunz(kv)) != set(minimal_generators(S)):
        return "generator characterization"


def verify_kunz_roundtrip(gmax=12):
    """Bijection with valid Kunz vectors: round trip, validity, coordinate sum."""
    found, seen = _first_failure(gmax, _kunz_failure)
    for g in range(gmax + 1):
        if found and found[0] == g:
            return _fail(*found)
        total = kunz.count_by_kunz(g)
        if seen[g] != total:
            return False, f"g={g}: {seen[g]} semigroups vs {total} vectors"
    return True, f"exhaustive g<={gmax}"


def _family(m, F):
    """k = 0 for F < 2m, k for F = 2m + k with 0 < k <= KMAX and F < 3m (F = 2m
    is impossible, 2m being a member); None outside these families."""
    k = max(F - 2 * m, 0)
    return k if k <= KMAX and F < 3 * m else None


def _C_images(g, m, k):
    """All S_{m,A,B} images of genus g for this (m, k), as gap masks."""
    out = []
    for A in bj.generate_Ak(k):
        low = A.sumset_low()
        blocked = {2 * m + s for s in low}
        avail = [b for b in range(m + k + 1, 2 * m + k) if b not in blocked]
        size = 2 * m - g + k - len(A.elements) - len(low)
        if not 0 <= size <= len(avail):
            continue
        for B in combinations(avail, size):
            S = bj.semigroup_from_AB(m, k, A, B)
            out.append(_gap_mask(S.mask, S.frobenius))
    return out


def verify_bijections(gmax=18):
    """S_{m,B} images = {F < 2m} with the binomial count; S_{m,A,B} partitions C(k,g).
    Both sides are gap masks (``_gap_mask``): no gap tuple is built."""
    gmax_c = min(gmax, 15)
    by_m = {}  # (g, m) -> the gap masks with F < 2m
    targets = {}  # (g, k) -> the gap masks of C(k, g), checked after every B check
    for mask, _, m, F, *_, g in _states(_width(gmax), gmax):
        k = _family(m, F)
        if k == 0:
            by_m.setdefault((g, m), set()).add(_gap_mask(mask, F))
        elif k and g <= gmax_c:
            targets.setdefault((g, k), set()).add(_gap_mask(mask, F))
    for g in range(2, gmax + 1):
        for m in range(g // 2 + 1, g + 2):
            size = 2 * m - g - 2
            imgs = {
                _gap_mask(S.mask, S.frobenius)
                for S in (bj.semigroup_from_B(m, B) for B in combinations(range(1, m), size))
            } if 0 <= size <= m - 1 else set()
            if len(imgs) != bj.count_B(g, m):
                return False, f"g={g} m={m}: |images| != count_B"
            if imgs != by_m.get((g, m), set()):
                return False, f"g={g} m={m}: B-images != {{F<2m}}"
        if any(m not in range(g // 2 + 1, g + 2) for h, m in by_m if h == g):
            return False, f"g={g}: m outside [g/2+1, g+1]"
    for g in range(3, gmax_c + 1):
        for k in range(1, KMAX + 1):
            if g < 3 * k:
                continue
            got = []
            for m in range(k + 1, g + 2):
                got.extend(_C_images(g, m, k))
            if len(got) != len(set(got)):
                return False, f"g={g} k={k}: images collide"
            if set(got) != targets.get((g, k), set()):
                return False, f"g={g} k={k}: images != C(k,g)"
    return True, f"B g<={gmax}; C g<={gmax_c} k<={KMAX}"


def _sums(gmax):
    """(g, m, k) -> [e2, t2, pf_big, pf_small] summed over each family of
    ``_family``, g <= gmax; PF(S) is split at ceil((m+k)/2)."""
    sums = defaultdict(lambda: [0, 0, 0, 0])
    for mask, _, m, F, _, e, pf, _, g in _states(_width(gmax), gmax):
        k = _family(m, F)
        if k is not None:
            e1, t1 = _windows(mask, m, F)
            small = pf & ((1 << (m + k + 1) // 2) - 1)
            row = sums[g, m, k]
            row[0] += e - e1
            row[1] += pf.bit_count() - t1
            row[2] += ((pf & ((1 << (m + k)) - 1)) ^ small).bit_count()
            row[3] += small.bit_count()
    return sums


def verify_e2_bounds(gmax=20):
    """Per-(g,m) coefficient bounds on total e2, plus the Fibonacci forms."""
    gmax_c = min(gmax, 18)
    sums = _sums(gmax)
    for g in range(2, gmax + 1):
        tot = 0
        for m in range(2, g + 2):
            s = sums[g, m, 0][0]
            if s > polybounds.e2_bound_value(g, m):
                return False, f"g={g} m={m}: per-m bound"
            tot += s
        if tot > 2 * polybounds.fibonacci(g + 1):
            return False, f"g={g}: sum > 2F(g+1)"
    for g in range(3, gmax_c + 1):
        for k in range(1, KMAX + 1):
            tot = 0
            for m in range(k + 1, g + 2):
                s = sums[g, m, k][0]
                if s > polybounds.e2_bound_value_C(g, m, k):
                    return False, f"g={g} m={m} k={k}: per-m bound"
                tot += s
            if tot > 2 * polybounds.fibonacci(g + k):
                return False, f"g={g} k={k}: sum > 2F(g+k)"
    return True, f"B g<={gmax}; C g<={gmax_c} k<={KMAX}"


def verify_t2_equality(gmax=16):
    """The upper pseudo-Frobenius count over B(g,m) EQUALS its coefficient formula."""
    gmin = 4
    sums = _sums(gmax)
    for g in range(gmin, gmax + 1):
        for m in range(2, g + 2):
            lhs = sums[g, m, 0][2]
            rhs = polybounds.t2_big_value(g, m)
            if lhs != rhs:
                return False, f"g={g} m={m}: {lhs} != {rhs}"
    return True, f"all (g,m), {gmin}<=g<={gmax}"


def verify_t2_bounds(gmax=20):
    """Small-part bounds and the Fibonacci totals for t2 over both families."""
    gmax_c = min(gmax, 18)
    sums = _sums(gmax)
    for g in range(2, gmax + 1):
        t2tot = 0
        for m in range(2, g + 2):
            row = sums[g, m, 0]
            if row[3] > polybounds.t2_small_bound(g, m):
                return False, f"g={g} m={m}: small bound"
            t2tot += row[1]
        if t2tot > polybounds.fibonacci(g + 4):
            return False, f"g={g}: sum t2 > F(g+4)"
    for g in range(3, gmax_c + 1):
        for k in range(1, KMAX + 1):
            t2tot = 0
            for m in range(k + 1, g + 2):
                row = sums[g, m, k]
                big, small = polybounds.t2_bounds_C(g, m, k)
                if row[2] > big:
                    return False, f"g={g} m={m} k={k}: big bound"
                if row[3] > small:
                    return False, f"g={g} m={m} k={k}: small bound"
                t2tot += row[1]
            if t2tot > polybounds.fibonacci(g + k + 3):
                return False, f"g={g} k={k}: sum > F(g+k+3)"
    return True, f"B g<={gmax}; C g<={gmax_c} k<={KMAX}"


def _deficits(gmax, i):
    """Counter of (g, g - state[i]) over the states of depth g <= gmax whose
    deficit g - state[i] is at most ``DMAX``: i = 2 for m, 5 for e.  The walk
    is the multiplicity split of ``_tasks``, one root O_m per m, whose task
    holds O_m and every other semigroup of multiplicity m.  As e <= m, a
    state with either deficit <= DMAX lies at depth <= m + DMAX, so each task
    is walked only that far."""
    width = _width(gmax)
    return Counter(
        (s[8], s[8] - s[i])
        for root in _tasks(width, gmax)
        for s in _series(root, min(gmax, root[2] + DMAX), width - 1)
        if s[8] - s[i] <= DMAX
    )


def verify_counting_m(gmax=22):
    """Closed-form multiplicity-deficit counts against enumeration."""
    by = _deficits(gmax, 2)
    for k in range(-1, DMAX + 1):
        for g in range(max(0, 4 * k + 3), gmax + 1):
            v = kunzcount.count_multiplicity_deficit(g, k)
            if v != by[g, k]:
                return False, f"g={g} k={k}: {v} != {by[g, k]}"
    return True, f"k<={DMAX}, g<={gmax}"


def verify_counting_e(gmax=22):
    """Closed-form embedding-deficit counts against enumeration (both thresholds)."""
    by = _deficits(gmax, 5)
    for l in range(-1, DMAX + 1):
        gmin = max(0, 4 * l + 3, -(-(9 * l + 7) // 2))
        H = kunzcount.H_polynomial(l)
        for g in range(gmin, gmax + 1):
            v = kunzcount.count_embedding_deficit(g, l)
            if v != by[g, l]:
                return False, f"g={g} l={l}: {v} != {by[g, l]}"
            if H(g) != v:
                return False, f"g={g} l={l}: H_l mismatch"
    return True, f"l<={DMAX}, g<={gmax}"


def verify_membership(agg, mid_tol=0.15, low_frac=0.55, low_tol=0.05,
                      high_frac=1.6, high_tol=0.95):
    """Membership probabilities follow the three-step profile at this genus."""
    g = agg.genus
    inv_phi = 1.0 / stats.PHI
    for n in range(1, 2 * g + 1):
        x = n / g
        p = float(stats.membership_probability(agg, n))
        if stats.GAMMA + 0.15 <= x <= 2 * stats.GAMMA - 0.15 and abs(p - inv_phi) >= mid_tol:
            return VerifyResult(
                "membership", False, f"g={g} n={n}: |P-1/phi|={abs(p - inv_phi):.4f}"
            )
        if x <= low_frac and p >= low_tol:
            return VerifyResult("membership", False, f"g={g} n={n}: P={p:.4f} >= {low_tol}")
        if x >= high_frac and p <= high_tol:
            return VerifyResult("membership", False, f"g={g} n={n}: P={p:.4f} <= {high_tol}")
    return VerifyResult("membership", True, f"g={g}, all n in [1,2g]")


SUITES = {
    "core-invariants": verify_core_invariants,
    "kunz-roundtrip": verify_kunz_roundtrip,
    "bijections": verify_bijections,
    "e2-bounds": verify_e2_bounds,
    "t2-equality": verify_t2_equality,
    "t2-bounds": verify_t2_bounds,
    "counting-m": verify_counting_m,
    "counting-e": verify_counting_e,
    # "membership" needs an aggregate; the cli wires it up with --genus.
}


def run_suite(name, gmax=None):
    """Run one suite by name, at its default gmax unless one is given
    (membership excluded), as the VerifyResult of its (ok, detail)."""
    fn = SUITES[name]
    return VerifyResult(name, *(fn() if gmax is None else fn(gmax)))
