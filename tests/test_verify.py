"""The eight tree-based verify suites: their verdicts, their one parameter,
and a failure injected into each oracle they check against, so every suite
is seen to fail, and to name the right counterexample, when its oracle is off.
"""

import hashlib
import inspect

import pytest

from numsem import bijections, kunz, kunzcount, polybounds, tree, verify
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
        "kunz-roundtrip", kunz, "count_by_kunz",
        lambda g: g == 7, _plus_one,
        "kunz-roundtrip: FAIL (g=7: 39 semigroups vs 40 vectors)",
    ),
    (
        "bijections", bijections, "count_B",
        lambda g, m: (g, m) == (9, 7), _plus_one,
        "bijections: FAIL (g=9 m=7: |images| != count_B)",
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
