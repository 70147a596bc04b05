import math

import pytest

from numsem.polybounds import (
    ExactPolynomial,
    _e2_poly,
    _t2_poly,
    binomial,
    coefficient,
    e2_bound_value,
    e2_bound_value_C,
    fibonacci,
    t2_big_value,
    t2_bounds_C,
    t2_small_bound,
)

ONE_PLUS_X = ExactPolynomial((1, 1))
X = ExactPolynomial((0, 1))
X_PLUS_2 = ExactPolynomial((2, 1))


def test_binomial_conventions():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(10, 5) == 252
    assert binomial(-2, 0) == 0
    assert binomial(5, -1) == 0


def test_fibonacci():
    assert fibonacci(1) == 1
    assert fibonacci(2) == 1
    assert fibonacci(10) == 55
    phi = (1 + math.sqrt(5)) / 2
    for n in range(1, 61):
        assert fibonacci(n) < (phi**n + 1) / math.sqrt(5)


def test_polynomial_arithmetic():
    p = ONE_PLUS_X**4
    assert coefficient(p, 2) == 6
    assert coefficient(p, -1) == 0
    assert coefficient(p, 9) == 0
    assert (p - p) == ExactPolynomial()
    assert ExactPolynomial((0, 2)).shift_down() == ExactPolynomial((2,))
    with pytest.raises(ValueError):
        ExactPolynomial((1, 1)).shift_down()


def test_t2_shift_example():
    # x^{-1}((1+x)^4 - (1+x+x^2)^2) = 2 + 3x + 2x^2
    q = ExactPolynomial((1, 1, 1))
    p = (ONE_PLUS_X**4 - q**2).shift_down()
    assert p == ExactPolynomial((2, 3, 2))
    assert coefficient(p, 0) == 2


def test_bound_values_small():
    assert t2_big_value(5, 4) == 2
    assert t2_big_value(4, 2) == 0  # negative extraction degree
    assert e2_bound_value(5, 4) >= 5
    with pytest.raises(ValueError):
        e2_bound_value(5, 1)


def test_e2_bound_below_binomial():
    # the subtracted polynomial has nonnegative coefficients
    for g in range(2, 22):
        for m in range(2, g + 2):
            assert 0 <= e2_bound_value(g, m) <= 2 * binomial(m, g - m)


def test_bounds_nonnegative():
    for g in range(2, 20):
        for m in range(2, g + 2):
            assert t2_big_value(g, m) >= 0
            assert t2_small_bound(g, m) >= 0
            for k in (1, 2, 3):
                big, small = t2_bounds_C(g, m, k)
                assert big >= 0 and small >= 0
                assert e2_bound_value_C(g, m, k) >= 0


def test_geometric_sum_identity():
    # sum over j1 of (1+x)^(m-2) x^j1 (x+2)^j1 / (1+x)^(2 j1), cleared of
    # denominators, telescopes to (1+x)^m - x^h (x+2)^h (1+x)^(m-2h), h = m//2
    for m in range(2, 41):
        h = m // 2
        lhs = ExactPolynomial()
        for j1 in range(h):
            lhs = lhs + ONE_PLUS_X ** (m - 2) * (X * X_PLUS_2) ** j1 * ONE_PLUS_X ** (
                2 * (h - 1 - j1)
            )
        rhs = (ONE_PLUS_X**m - X**h * X_PLUS_2**h * ONE_PLUS_X ** (m - 2 * h)) * (
            ONE_PLUS_X ** (2 * (h - 1))
        )
        assert lhs == rhs


def _inline_small(n):
    # The small-part polynomial as it was written out before the bounds
    # called _t2_poly: x^{-1} ((1+x)^n - (1+x+x^2)^h (1+x)^(n-2h)), h = floor(n/2).
    h = n // 2
    q = ExactPolynomial((1, 1, 1))
    return (ONE_PLUS_X**n - q**h * ONE_PLUS_X ** (n - 2 * h)).shift_down()


def test_small_bounds_match_inline_expression():
    for m in range(2, 31):
        ref = _inline_small(m - 1)
        for g in range(2 * m + 1):
            assert t2_small_bound(g, m) == coefficient(ref, 2 * m - g - 4)
        for k in range(7):
            ref = _inline_small(m + k - 1)
            for g in range(2 * m + k + 1):
                assert t2_bounds_C(g, m, k)[1] == coefficient(ref, 2 * m - g + k - 3)


@pytest.mark.parametrize("n", range(41))
def test_bound_polynomials_match_power_expressions(n):
    h, c = n // 2, (n + 1) // 2
    quad = ExactPolynomial((1, 1, 1))
    assert _e2_poly(n) == ONE_PLUS_X**n - X**h * X_PLUS_2**h * ONE_PLUS_X ** (n - 2 * h)
    t2 = ONE_PLUS_X**n - quad ** (n - c) * ONE_PLUS_X ** (2 * c - n)
    assert _t2_poly(n) == t2.shift_down()
