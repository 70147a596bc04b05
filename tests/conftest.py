import pytest

from numsem.core import minimal_generators, semigroup_from_gaps


def _preorder(S, depth):
    """S and its descendants down to genus ``depth``, in pre-order: the
    children of S are S minus y for each generator y > F(S), in ascending y."""
    yield S
    if S.genus < depth:
        for y in minimal_generators(S):
            if y > S.frobenius:
                yield from _preorder(semigroup_from_gaps(S.gaps() + (y,)), depth)


@pytest.fixture(scope="session")
def preorder():
    """Every semigroup of genus <= 12, in the pre-order of the tree rooted at
    the full monoid, built from scratch by ``core``: the order reference,
    which shares no code with the tree kernel."""
    return list(_preorder(semigroup_from_gaps(()), 12))
