"""The verify suites' shortcuts against their plain definitions: the first
failure of the task walks against the tree's pre-order, built from scratch
(the ``preorder`` fixture), the counting tally that walks each
multiplicity's task of the split only as deep as a deficit of at most DMAX
reaches, and the e split and the weight of core-invariants' one
from-scratch pass, which must be able to fail."""

from collections import Counter

import pytest

from numsem import verify
from numsem.core import SemigroupSet
from numsem.tree import _states, _width
from numsem.verify import DMAX, _deficits, run_suite


@pytest.mark.parametrize("gmax", range(15))
def test_deficits_tally_every_state(gmax):
    # Against every state of the walk to gmax, the deficits the suites read.
    width = _width(gmax)
    for i in (2, 5):  # m, e
        states = _states(width, gmax)
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


def _m2_m3(S):
    """Fails at multiplicity 2 and 3 from genus 3 on, where 3 does not divide
    F, naming m and F: genus 3 fails in tasks 2 and 3, never at O_{g+1}, the
    first semigroup of genus g."""
    m, F = S.multiplicity, S.frobenius
    if m in (2, 3) and S.genus >= 3 and F % 3:
        return f"m={m} F={F}"


def _m2_m3_check(state, width):
    return _m2_m3(SemigroupSet(state[0], width))


def _first_failure_from_scratch(preorder, gmax):
    """verify._first_failure's rule over the tree's pre-order to genus gmax:
    the first failure of the smallest failing genus, and the count per genus."""
    seen = [0] * (gmax + 1)
    found = None
    for S in preorder:
        g = S.genus
        if g > gmax:
            continue
        seen[g] += 1
        if found is None or g < found[0]:
            msg = _m2_m3(S)
            if msg:
                found = (g, msg, S)
    return found, seen


def test_first_failure_is_the_root_walks(preorder):
    failing = [S for S in preorder if _m2_m3(S)]
    assert len({S.genus for S in failing}) >= 3
    smallest = min(S.genus for S in failing)
    assert len({S.multiplicity for S in failing if S.genus == smallest}) >= 2
    firsts = {S.genus: S for S in reversed(preorder)}  # the first of each genus
    assert all(firsts[S.genus] is not S for S in failing)
    for gmax in range(13):
        want = _first_failure_from_scratch(preorder, gmax)
        assert verify._first_failure(gmax, _m2_m3_check) == want, gmax
