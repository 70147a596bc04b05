"""The verify suites' shortcuts against their plain definitions: the first
failure of the task walks against the walk from the tree's root, the counting
tally that walks each multiplicity's task of the split only as deep
as a deficit of at most DMAX reaches, and the e split and the weight of
core-invariants' one from-scratch pass, which must be able to fail."""

from collections import Counter

import pytest

from numsem import verify
from numsem.core import SemigroupSet
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


def _m2_m3_check(state, width):
    """Fails at multiplicity 2 and 3 from genus 3 on, where 3 does not divide
    F, naming m and F: genus 3 fails in tasks 2 and 3, never at O_{g+1}, the
    first state of depth g."""
    _, _, m, F, *_, g = state
    if m in (2, 3) and g >= 3 and F % 3:
        return f"m={m} F={F}"


def _first_failure_from_the_root(gmax, check):
    """verify._first_failure's loop over the walk from the tree's root."""
    width = _width(gmax)
    seen = [0] * (gmax + 1)
    found = None
    for state in _series(_root(width), gmax, width - 1):
        g = state[8]
        seen[g] += 1
        if found is None or g < found[0]:
            msg = check(state, width)
            if msg:
                found = (g, msg, SemigroupSet(state[0], width))
    return found, seen


def test_first_failure_is_the_root_walks():
    width = _width(12)
    states = list(_series(_root(width), 12, width - 1))
    failing = [s for s in states if _m2_m3_check(s, width)]
    assert len({s[8] for s in failing}) >= 3
    smallest = min(s[8] for s in failing)
    assert len({s[2] for s in failing if s[8] == smallest}) >= 2
    firsts = {s[8]: s for s in reversed(states)}  # the first state of each depth
    assert all(firsts[s[8]] is not s for s in failing)
    for gmax in range(13):
        want = _first_failure_from_the_root(gmax, _m2_m3_check)
        assert verify._first_failure(gmax, _m2_m3_check) == want, gmax
