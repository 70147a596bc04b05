"""The verify suites' shortcuts against their plain definitions: the counting
tally that walks each multiplicity's task of the split only as deep
as a deficit of at most DMAX reaches, and the e split and the weight of
core-invariants' one from-scratch pass, which must be able to fail."""

from collections import Counter

import pytest

from numsem import verify
from numsem.tree import _root, _series, _width
from numsem.verify import DMAX, _deficits, run_suite


@pytest.mark.parametrize("gmax", range(15))
def test_deficits_tally_every_state(gmax):
    # Against every state of the walk to gmax, the deficits the suites read.
    width = _width(gmax)
    for i in (2, 5):  # m, e
        states = _series(_root(width), gmax, width - 1)
        want = Counter((s[8], s[8] - s[i]) for s in states if s[8] - s[i] <= DMAX)
        assert _deficits(gmax, i) == want


def test_core_invariants_checks_the_e_split(monkeypatch):
    # The generator mask misses m, a member of [m, 2m), at genus 5 only.
    real = verify._min_gens_mask

    def wrong(mask, m, F):
        gens = real(mask, m, F)
        return gens & ~(1 << m) if verify._gap_mask(mask, F).bit_count() == 5 else gens

    monkeypatch.setattr(verify, "_min_gens_mask", wrong)
    assert str(run_suite("core-invariants", 10)) == (
        "core-invariants: FAIL (g=5 S=gaps[1, 2, 3, 4, 5]: e != e1+e2)"
    )


def test_core_invariants_checks_the_weight(monkeypatch):
    # The gap sum is one too large at genus 5 only; the weight counted from
    # its definition no longer matches it.
    real = verify._gap_sum

    def wrong(mask, F):
        alpha = real(mask, F)
        return alpha + 1 if verify._gap_mask(mask, F).bit_count() == 5 else alpha

    monkeypatch.setattr(verify, "_gap_sum", wrong)
    assert str(run_suite("core-invariants", 10)) == (
        "core-invariants: FAIL (g=5 S=gaps[1, 2, 3, 4, 5]: w != alpha - g(g+1)/2)"
    )
