"""The eight tree-based verify suites: their verdicts, their one parameter,
and a failure injected into each oracle they check against, so every suite
is seen to fail, and to name the right counterexample, when its oracle is off.
"""

import hashlib
import inspect
from functools import partial

import pytest

from numsem import bijections, kunz, kunzcount, polybounds, stats, tree, verify
from numsem.core import semigroup_from_gaps
from numsem.verify import SUITES, run_suite


def _off_at(monkeypatch, module, name, hit, change):
    """Replace module.name by a copy whose result is changed where hit(*args)."""
    real = getattr(module, name)

    def wrong(*args):
        value = real(*args)
        return change(value, *args) if hit(*args) else value

    monkeypatch.setattr(module, name, wrong)


def _plus_one(value, *args):
    return value + 1


def _zero(value, *args):
    return 0


def _genus(mask, F):
    return verify._gap_mask(mask, F).bit_count()


def _drop_largest(pf, *args):
    """A pseudo-Frobenius mask without its largest number, F."""
    return pf ^ 1 << (pf.bit_length() - 1)


INJECTED = [
    (
        "core-invariants", verify, "_pf_mask",
        lambda mask, m, F, gens: _genus(mask, F) == 9, _drop_largest,
        "core-invariants: FAIL (g=9 S=gaps[1, 2, 3, 4, 5, 6, 7, 8, 9]: "
        "late gap not pseudo-Frobenius)",
    ),
    (
        # m leaves the generators and 0 takes its place, so e = e1 + e2 holds.
        "core-invariants", verify, "_min_gens_mask",
        lambda mask, m, F: _genus(mask, F) == 9, lambda gens, mask, m, F: gens ^ (1 << m | 1),
        "core-invariants: FAIL (g=9 S=gaps[1, 2, 3, 4, 5, 6, 7, 8, 9]: "
        "[m,2m-1] member not a generator)",
    ),
    (
        "core-invariants", verify, "_windows",
        lambda mask, m, F: _genus(mask, F) == 9, lambda e1_t1, *args: (e1_t1[0], e1_t1[1] + 1),
        "core-invariants: FAIL (g=9 S=gaps[1, 2, 3, 4, 5, 6, 7, 8, 9]: t != t1+t2)",
    ),
    (
        "kunz-roundtrip", kunz, "count_by_kunz",
        lambda g: g == 7, _plus_one,
        "kunz-roundtrip: FAIL (g=7: 39 semigroups vs 40 vectors)",
    ),
    (
        "kunz-roundtrip", kunz, "generators_from_kunz",
        lambda kv: kv.genus == 9, lambda gens, kv: gens - {kv.multiplicity},
        "kunz-roundtrip: FAIL (g=9 S=gaps[1, 2, 3, 4, 5, 6, 7, 8, 9]: "
        "generator characterization)",
    ),
    (
        # x_1 + x_1 < x_2
        "kunz-roundtrip", kunz, "kunz_of",
        lambda S: S.genus == 9, lambda kv, S: kv._replace(coords=(1, 3) + kv.coords[2:]),
        "kunz-roundtrip: FAIL (g=9 S=gaps[1, 2, 3, 4, 5, 6, 7, 8, 9]: invalid vector "
        "KunzVector(multiplicity=10, coords=(1, 3, 1, 1, 1, 1, 1, 1, 1)))",
    ),
    (
        # Adding 1 to every coordinate keeps both inequality families.
        "kunz-roundtrip", kunz, "kunz_of",
        lambda S: S.genus == 9, lambda kv, S: kv._replace(coords=tuple(x + 1 for x in kv.coords)),
        "kunz-roundtrip: FAIL (g=9 S=gaps[1, 2, 3, 4, 5, 6, 7, 8, 9]: coordinate sum 18)",
    ),
    (
        "kunz-roundtrip", kunz, "semigroup_of_kunz",
        lambda kv: kv.genus == 9, _zero,
        "kunz-roundtrip: FAIL (g=9 S=gaps[1, 2, 3, 4, 5, 6, 7, 8, 9]: round trip mismatch)",
    ),
    (
        "bijections", bijections, "count_B",
        lambda g, m: (g, m) == (9, 7), _plus_one,
        "bijections: FAIL (g=9 m=7: |images| != count_B)",
    ),
    (
        # One image of multiplicity 7 swapped for <10, ..., 19>: as many images.
        "bijections", bijections, "semigroup_from_B",
        lambda m, B: (m, B) == (7, (1, 2, 3)), lambda S, m, B: semigroup_from_gaps(range(1, 10)),
        "bijections: FAIL (g=9 m=7: B-images != {F<2m})",
    ),
    (
        "bijections", bijections, "semigroup_from_AB",
        lambda m, k, A, B: (m, k, B) == (5, 2, (9,)),
        lambda S, m, k, A, B: bijections.semigroup_from_AB(m, k, A, (8,)),
        "bijections: FAIL (g=9 k=2: images collide)",
    ),
    (
        "bijections", bijections, "generate_Ak",
        lambda k: k == 3, lambda A, k: A[:-1],
        "bijections: FAIL (g=9 k=3: images != C(k,g))",
    ),
    (
        "e2-bounds", polybounds, "e2_bound_value",
        lambda g, m: g == 9, _zero,
        "e2-bounds: FAIL (g=9 m=6: per-m bound)",
    ),
    (
        "e2-bounds", polybounds, "e2_bound_value_C",
        lambda g, m, k: (g, k) == (9, 2), _zero,
        "e2-bounds: FAIL (g=9 m=5 k=2: per-m bound)",
    ),
    (
        "e2-bounds", polybounds, "fibonacci",
        lambda n: n == 10, _zero,
        "e2-bounds: FAIL (g=9: sum > 2F(g+1))",
    ),
    (
        "e2-bounds", polybounds, "fibonacci",
        lambda n: n == 12, _zero,
        "e2-bounds: FAIL (g=8 k=4: sum > 2F(g+k))",
    ),
    (
        "t2-equality", polybounds, "t2_big_value",
        lambda g, m: (g, m) == (9, 7), _plus_one,
        "t2-equality: FAIL (g=9 m=7: 22 != 23)",
    ),
    (
        "t2-bounds", polybounds, "t2_small_bound",
        lambda g, m: g == 9, _zero,
        "t2-bounds: FAIL (g=9 m=7: small bound)",
    ),
    (
        "t2-bounds", polybounds, "t2_bounds_C",
        lambda g, m, k: (g, k) == (9, 2), lambda bounds, g, m, k: (0, bounds[1]),
        "t2-bounds: FAIL (g=9 m=5 k=2: big bound)",
    ),
    (
        "t2-bounds", polybounds, "t2_bounds_C",
        lambda g, m, k: (g, k) == (9, 3), lambda bounds, g, m, k: (bounds[0], 0),
        "t2-bounds: FAIL (g=9 m=6 k=3: small bound)",
    ),
    (
        "t2-bounds", polybounds, "fibonacci",
        lambda n: n == 13, _zero,
        "t2-bounds: FAIL (g=9: sum t2 > F(g+4))",
    ),
    (
        "t2-bounds", polybounds, "fibonacci",
        lambda n: n == 15, _zero,
        "t2-bounds: FAIL (g=8 k=4: sum > F(g+k+3))",
    ),
    (
        "counting-m", kunzcount, "count_multiplicity_deficit",
        lambda g, k: (g, k) == (9, 1), _plus_one,
        "counting-m: FAIL (g=9 k=1: 23 != 22)",
    ),
    (
        "counting-e", kunzcount, "count_embedding_deficit",
        lambda g, l: (g, l) == (9, 1), _plus_one,
        "counting-e: FAIL (g=9 l=1: 10 != 9)",
    ),
    (
        "counting-e", kunzcount, "H_polynomial",
        lambda l: l == 1, lambda H, l: 2 * H,
        "counting-e: FAIL (g=8 l=1: H_l mismatch)",
    ),
    (
        # The walk meets the genus-9 failures before <2, 15>, the last
        # semigroup of genus 7; the smallest failing genus is reported.
        "core-invariants", verify, "_pf_mask",
        lambda mask, m, F, gens: _genus(mask, F) == 9 or (_genus(mask, F), m) == (7, 2),
        _drop_largest,
        "core-invariants: FAIL (g=7 S=gaps[1, 3, 5, 7, 9, 11, 13]: "
        "late gap not pseudo-Frobenius)",
    ),
]

# A row is named by its suite and the function it patches, except the PF
# rows, which patch ``_pf_mask`` and are named by what they break.
INJECTED_IDS = [f"{s}-{'pseudo_frobenius' if n == '_pf_mask' else n}" for s, _, n, *_ in INJECTED]
# The last row patches what the first does; its own id keeps pytest from
# renumbering both.
INJECTED_IDS[-1] += "-smallest-genus-first"


@pytest.mark.parametrize(
    "suite, module, name, hit, change, expected", INJECTED, ids=INJECTED_IDS
)
def test_injected_failure_is_reported(monkeypatch, suite, module, name, hit, change, expected):
    _off_at(monkeypatch, module, name, hit, change)
    assert str(run_suite(suite, 10)) == expected


def test_core_invariants_checks_the_kernel_state(monkeypatch):
    # A PF update that keeps all of the parent's PF: <2, 5> gets {1, 3}.
    real = tree._children

    def wrong(state, top):
        return [kid[:6] + (state[6] | 1 << kid[3],) + kid[7:] for kid in real(state, top)]

    monkeypatch.setattr(tree, "_children", wrong)
    assert str(run_suite("core-invariants", 10)) == (
        "core-invariants: FAIL (g=2 S=gaps[1, 3]: kernel state != from-scratch)"
    )


# Roots that no walk of a numerical semigroup reaches, each one breaking a
# range that a suite checks; each is (real _tasks, width, target) -> roots.
def _past_the_width(real, width, target):
    """One root whose first positive member, width + 1, lies past the width."""
    return [(1 | 1 << (width + 1),) + (0,) * 8]


def _gap_above_one(real, width, target):
    """One root of genus 1 whose gap 2 lies above the member 1."""
    return [((1 << width) - 1 ^ 0b100,) + (0,) * 7 + (1,)]


def _o3_as_multiplicity_5(real, width, target):
    """The real roots, and O_3 once more, read as multiplicity 5."""
    roots = real(width, target)
    return roots + [roots[2][:2] + (5,) + roots[2][3:]]


BOGUS_ROOTS = [
    (_past_the_width, "core-invariants", 0,
     "core-invariants: FAIL (g=0 S=gaps[1, 2, 3, 4, 5, 6, 7]: m=9 > g+1)"),
    (_gap_above_one, "core-invariants", 1,
     "core-invariants: FAIL (g=1 S=gaps[2]: F=2 > 2g-1)"),
    (_o3_as_multiplicity_5, "bijections", 4,
     "bijections: FAIL (g=2: m outside [g/2+1, g+1])"),
]


@pytest.mark.parametrize(
    "roots, suite, gmax, expected", BOGUS_ROOTS, ids=[r[0].__name__[1:] for r in BOGUS_ROOTS]
)
def test_range_failure_of_a_bogus_root_is_reported(monkeypatch, roots, suite, gmax, expected):
    monkeypatch.setattr(tree, "_tasks", partial(roots, tree._tasks))
    assert str(run_suite(suite, gmax)) == expected


@pytest.mark.parametrize("probability, expected", [
    (lambda agg, n: 0, "membership: FAIL (g=10 n=9: |P-1/phi|=0.6180)"),
    (lambda agg, n: 0 if n <= 0.55 * agg.genus else 1 / stats.PHI,
     "membership: FAIL (g=10 n=16: P=0.6180 <= 0.95)"),
], ids=["middle", "high"])
def test_membership_failure_is_reported(monkeypatch, probability, expected):
    agg = tree.enumerate_genus(10)
    monkeypatch.setattr(stats, "membership_probability", probability)
    assert str(verify.verify_membership(agg)) == expected


OK_AT_8 = {
    "core-invariants": "core-invariants: ok (156 semigroups, g<=8)",
    "kunz-roundtrip": "kunz-roundtrip: ok (exhaustive g<=8)",
    "bijections": "bijections: ok (B g<=8; C g<=8 k<=4)",
    "e2-bounds": "e2-bounds: ok (B g<=8; C g<=8 k<=4)",
    "t2-equality": "t2-equality: ok (all (g,m), 4<=g<=8)",
    "t2-bounds": "t2-bounds: ok (B g<=8; C g<=8 k<=4)",
    "counting-m": "counting-m: ok (k<=3, g<=8)",
    "counting-e": "counting-e: ok (l<=3, g<=8)",
}


@pytest.mark.parametrize("suite", sorted(OK_AT_8))
def test_verdict_at_gmax_8(suite):
    assert str(run_suite(suite, 8)) == OK_AT_8[suite]


def test_default_gmax():
    assert run_suite("t2-equality") == run_suite("t2-equality", 16)


def test_suites_take_only_gmax():
    assert sorted(SUITES) == sorted(OK_AT_8)
    for fn in SUITES.values():
        assert list(inspect.signature(fn).parameters) == ["gmax"]


# sha256 of the verdicts of every suite at gmax 0..12, the lines below joined
# by newlines, as the suites gave them when each built its own VerifyResult.
VERDICTS_0_TO_12_SHA256 = "a5d87addaf09ed3dfec0ff27d7021f38f18b49f39ce0eb77d86d2d548462cc6a"


def test_verdicts_at_gmax_0_to_12_pinned():
    lines = "\n".join(str(run_suite(name, g)) for name in sorted(SUITES) for g in range(13))
    assert hashlib.sha256(lines.encode()).hexdigest() == VERDICTS_0_TO_12_SHA256, lines
