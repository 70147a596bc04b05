"""Verification suites: every claim the package relies on, checked against
brute-force enumeration.  Each suite returns a VerifyResult whose detail names
the first counterexample (genus, parameters, semigroup as a sorted gap list)."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from . import bijections as bj
from . import kunz, kunzcount, polybounds, stats
from .core import invariants, minimal_generators, pseudo_frobenius
from .tree import iter_semigroups

__all__ = ["VerifyResult", "SUITES", "run_suite"]

KMAX = 4  # the F = 2m + k families checked, 0 < k <= KMAX
DMAX = 3  # the largest deficit k (of m) and l (of e) counted in closed form


@dataclass(frozen=True)
class VerifyResult:
    suite: str
    ok: bool
    detail: str

    def __str__(self):
        return f"{self.suite}: {'ok' if self.ok else 'FAIL'} ({self.detail})"


def _fail(suite, g, msg, S=None):
    loc = f"g={g}" + (f" S=gaps{list(S.gaps())}" if S is not None else "")
    return VerifyResult(suite, False, f"{loc}: {msg}")


def verify_core_invariants(gmax=20):
    """Per-semigroup identities and ranges for every S with genus <= gmax."""
    n = 0
    for g in range(gmax + 1):
        for S in iter_semigroups(g):
            n += 1
            r = invariants(S)
            m, F = S.multiplicity, S.frobenius
            gens = minimal_generators(S)
            pf = pseudo_frobenius(S)
            if r.embedding_dim != r.e1 + r.e2:
                return _fail("core-invariants", g, "e != e1+e2", S)
            if r.type_t != r.t1 + r.t2:
                return _fail("core-invariants", g, "t != t1+t2", S)
            if r.weight != r.gap_sum - g * (g + 1) // 2:
                return _fail("core-invariants", g, "w != alpha - g(g+1)/2", S)
            if m > g + 1:
                return _fail("core-invariants", g, f"m={m} > g+1", S)
            if g >= 1 and F > 2 * g - 1:
                return _fail("core-invariants", g, f"F={F} > 2g-1", S)
            early = [x for x in range(m, 2 * m) if x in S]
            if any(x not in gens for x in early):
                return _fail("core-invariants", g, "[m,2m-1] member not a generator", S)
            late_gaps = [x for x in range(max(F - m + 1, 1), F + 1) if x not in S]
            if any(x not in pf for x in late_gaps):
                return _fail("core-invariants", g, "late gap not pseudo-Frobenius", S)
    return VerifyResult("core-invariants", True, f"{n} semigroups, g<={gmax}")


def verify_kunz_roundtrip(gmax=12):
    """Bijection with valid Kunz vectors: round trip, validity, coordinate sum."""
    for g in range(gmax + 1):
        seen = 0
        for S in iter_semigroups(g):
            kv = kunz.kunz_of(S)
            if not kunz.is_valid_kunz(kv.multiplicity, kv.coords):
                return _fail("kunz-roundtrip", g, f"invalid vector {kv}", S)
            if kv.genus != g:
                return _fail("kunz-roundtrip", g, f"coordinate sum {kv.genus}", S)
            if kunz.semigroup_of_kunz(kv) != S:
                return _fail("kunz-roundtrip", g, "round trip mismatch", S)
            if set(kunz.generators_from_kunz(kv)) != set(minimal_generators(S)):
                return _fail("kunz-roundtrip", g, "generator characterization", S)
            seen += 1
        total = kunz.count_by_kunz(g)
        if seen != total:
            return VerifyResult(
                "kunz-roundtrip", False, f"g={g}: {seen} semigroups vs {total} vectors"
            )
    return VerifyResult("kunz-roundtrip", True, f"exhaustive g<={gmax}")


def _families(g):
    """The genus-g semigroups with F < 3m, in walk order, keyed by (m, k):
    k = 0 for F < 2m, otherwise F = 2m + k with 0 < k <= KMAX (F = 2m is
    impossible, 2m being a member)."""
    fam = {}
    for S in iter_semigroups(g):
        m, F = S.multiplicity, S.frobenius
        k = max(F - 2 * m, 0)
        if k <= KMAX and F < 3 * m:
            fam.setdefault((m, k), []).append(S)
    return fam


def _C_images(g, m, k):
    """All S_{m,A,B} images of genus g for this (m, k), as gap tuples."""
    out = []
    for A in bj.generate_Ak(k):
        low = A.sumset_low()
        blocked = {2 * m + s for s in low}
        avail = [b for b in range(m + k + 1, 2 * m + k) if b not in blocked]
        size = 2 * m - g + k - len(A.elements) - len(low)
        if not 0 <= size <= len(avail):
            continue
        for B in combinations(avail, size):
            out.append(bj.semigroup_from_AB(m, k, A, B).gaps())
    return out


def verify_bijections(gmax=18):
    """S_{m,B} images = {F < 2m} with the binomial count; S_{m,A,B} partitions C(k,g)."""
    gmax_c = min(gmax, 15)
    targets = {}  # (g, k) -> the gap sets of C(k, g), checked after every B check
    for g in range(2, gmax + 1):
        fam = _families(g)
        by_m = {m: {S.gaps() for S in f} for (m, k), f in fam.items() if k == 0}
        for m in range(g // 2 + 1, g + 2):
            size = 2 * m - g - 2
            imgs = {
                bj.semigroup_from_B(m, B).gaps()
                for B in combinations(range(1, m), size)
            } if 0 <= size <= m - 1 else set()
            if len(imgs) != bj.count_B(g, m):
                return VerifyResult(
                    "bijections", False, f"g={g} m={m}: |images| != count_B"
                )
            if imgs != by_m.get(m, set()):
                return VerifyResult(
                    "bijections", False, f"g={g} m={m}: B-images != {{F<2m}}"
                )
        if any(m not in range(g // 2 + 1, g + 2) for m in by_m):
            return VerifyResult("bijections", False, f"g={g}: m outside [g/2+1, g+1]")
        if g <= gmax_c:
            for (m, k), f in fam.items():
                if k:
                    targets.setdefault((g, k), set()).update(S.gaps() for S in f)
    for g in range(3, gmax_c + 1):
        for k in range(1, KMAX + 1):
            if g < 3 * k:
                continue
            got = []
            for m in range(k + 1, g + 2):
                got.extend(_C_images(g, m, k))
            if len(got) != len(set(got)):
                return VerifyResult("bijections", False, f"g={g} k={k}: images collide")
            if set(got) != targets.get((g, k), set()):
                return VerifyResult(
                    "bijections", False, f"g={g} k={k}: images != C(k,g)"
                )
    return VerifyResult("bijections", True, f"B g<={gmax}; C g<={gmax_c} k<={KMAX}")


_NO_SUMS = (0, 0, 0, 0)


def _sums(gmax):
    """(g, m, k) -> [e2, t2, pf_big, pf_small] summed over each family of
    ``_families(g)``, g <= gmax; PF(S) is split at ceil((m+k)/2)."""
    sums = {}
    for g in range(gmax + 1):
        for (m, k), fam in _families(g).items():
            half, top = (m + k + 1) // 2, m + k - 1
            row = sums[g, m, k] = [0, 0, 0, 0]
            for S in fam:
                r = invariants(S)
                pf = pseudo_frobenius(S)
                row[0] += r.e2
                row[1] += r.t2
                row[2] += sum(1 for p in pf if half <= p <= top)
                row[3] += sum(1 for p in pf if 1 <= p < half)
    return sums


def verify_e2_bounds(gmax=20):
    """Per-(g,m) coefficient bounds on total e2, plus the Fibonacci forms."""
    gmax_c = min(gmax, 18)
    sums = _sums(gmax)
    for g in range(2, gmax + 1):
        tot = 0
        for m in range(2, g + 2):
            s = sums.get((g, m, 0), _NO_SUMS)[0]
            if s > polybounds.e2_bound_value(g, m):
                return VerifyResult("e2-bounds", False, f"g={g} m={m}: per-m bound")
            tot += s
        if tot > 2 * polybounds.fibonacci(g + 1):
            return VerifyResult("e2-bounds", False, f"g={g}: sum > 2F(g+1)")
    for g in range(3, gmax_c + 1):
        for k in range(1, KMAX + 1):
            tot = 0
            for m in range(k + 1, g + 2):
                s = sums.get((g, m, k), _NO_SUMS)[0]
                if s > polybounds.e2_bound_value_C(g, m, k):
                    return VerifyResult(
                        "e2-bounds", False, f"g={g} m={m} k={k}: per-m bound"
                    )
                tot += s
            if tot > 2 * polybounds.fibonacci(g + k):
                return VerifyResult("e2-bounds", False, f"g={g} k={k}: sum > 2F(g+k)")
    return VerifyResult("e2-bounds", True, f"B g<={gmax}; C g<={gmax_c} k<={KMAX}")


def verify_t2_equality(gmax=16):
    """The upper pseudo-Frobenius count over B(g,m) EQUALS its coefficient formula."""
    gmin = 4
    sums = _sums(gmax)
    for g in range(gmin, gmax + 1):
        for m in range(2, g + 2):
            lhs = sums.get((g, m, 0), _NO_SUMS)[2]
            rhs = polybounds.t2_big_value(g, m)
            if lhs != rhs:
                return VerifyResult(
                    "t2-equality", False, f"g={g} m={m}: {lhs} != {rhs}"
                )
    return VerifyResult("t2-equality", True, f"all (g,m), {gmin}<=g<={gmax}")


def verify_t2_bounds(gmax=20):
    """Small-part bounds and the Fibonacci totals for t2 over both families."""
    gmax_c = min(gmax, 18)
    sums = _sums(gmax)
    for g in range(2, gmax + 1):
        t2tot = 0
        for m in range(2, g + 2):
            row = sums.get((g, m, 0), _NO_SUMS)
            if row[3] > polybounds.t2_small_bound(g, m):
                return VerifyResult("t2-bounds", False, f"g={g} m={m}: small bound")
            t2tot += row[1]
        if t2tot > polybounds.fibonacci(g + 4):
            return VerifyResult("t2-bounds", False, f"g={g}: sum t2 > F(g+4)")
    for g in range(3, gmax_c + 1):
        for k in range(1, KMAX + 1):
            t2tot = 0
            for m in range(k + 1, g + 2):
                row = sums.get((g, m, k), _NO_SUMS)
                big, small = polybounds.t2_bounds_C(g, m, k)
                if row[2] > big:
                    return VerifyResult(
                        "t2-bounds", False, f"g={g} m={m} k={k}: big bound"
                    )
                if row[3] > small:
                    return VerifyResult(
                        "t2-bounds", False, f"g={g} m={m} k={k}: small bound"
                    )
                t2tot += row[1]
            if t2tot > polybounds.fibonacci(g + k + 3):
                return VerifyResult("t2-bounds", False, f"g={g} k={k}: sum > F(g+k+3)")
    return VerifyResult("t2-bounds", True, f"B g<={gmax}; C g<={gmax_c} k<={KMAX}")


def _deficits(gmax, invariant):
    """For each g <= gmax, a Counter of g - invariant(S) over the genus-g S."""
    return [Counter(g - invariant(S) for S in iter_semigroups(g)) for g in range(gmax + 1)]


def verify_counting_m(gmax=22):
    """Closed-form multiplicity-deficit counts against enumeration."""
    by = _deficits(gmax, lambda S: S.multiplicity)
    for k in range(-1, DMAX + 1):
        for g in range(max(0, 4 * k + 3), gmax + 1):
            v = kunzcount.count_multiplicity_deficit(g, k)
            if v != by[g][k]:
                return VerifyResult(
                    "counting-m", False, f"g={g} k={k}: {v} != {by[g][k]}"
                )
    return VerifyResult("counting-m", True, f"k<={DMAX}, g<={gmax}")


def verify_counting_e(gmax=22):
    """Closed-form embedding-deficit counts against enumeration (both thresholds)."""
    by = _deficits(gmax, lambda S: len(minimal_generators(S)))
    for l in range(-1, DMAX + 1):
        gmin = max(0, 4 * l + 3, -(-(9 * l + 7) // 2))
        for g in range(gmin, gmax + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                v = kunzcount.count_embedding_deficit(g, l)
            if v != by[g][l]:
                return VerifyResult(
                    "counting-e", False, f"g={g} l={l}: {v} != {by[g][l]}"
                )
            if kunzcount.H_polynomial(l)(g) != v:
                return VerifyResult("counting-e", False, f"g={g} l={l}: H_l mismatch")
    return VerifyResult("counting-e", True, f"l<={DMAX}, g<={gmax}")


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
    (membership excluded)."""
    fn = SUITES[name]
    return fn() if gmax is None else fn(gmax)
