"""core-invariants' one from-scratch pass: its byte-table weight against the
weight's definition, and a kernel Frobenius number that is off, which only
the pass's own F can catch."""

from numsem import tree
from numsem.tree import _states, _width
from numsem.verify import _gap_mask, _weight, run_suite


def test_weight_is_the_members_below_each_gap():
    width = _width(14)
    for mask, _, m, F, *_ in _states(width, 14):
        gaps = [h for h in range(1, F + 1) if not mask >> h & 1]
        w = sum(sum(1 for n in range(1, h) if mask >> n & 1) for h in gaps)
        assert _weight(_gap_mask(mask, F)) == w, gaps


def test_core_invariants_checks_the_kernel_frobenius(monkeypatch):
    # The child <3, 7, 8> of <3, 5, 7>, removing y = 5, carries F = y + 1.
    # Its generators above 6 are those above 5, so only F is off: a check
    # that took F from the kernel state would find nothing at genus 4.
    real = tree._children

    def wrong(state, top):
        return [kid[:3] + (kid[3] + 1,) + kid[4:] if (kid[2], kid[3], kid[8]) == (3, 5, 4)
                else kid for kid in real(state, top)]

    monkeypatch.setattr(tree, "_children", wrong)
    assert str(run_suite("core-invariants", 10)) == (
        "core-invariants: FAIL (g=4 S=gaps[1, 2, 4, 5]: kernel state != from-scratch)"
    )
