"""Exact polynomial arithmetic and the coefficient-extraction bounds.

The bounds live in the ring Z[x] with dense coefficient lists; the
"x^{-1} * p(x)" expressions appearing in the pseudo-Frobenius bounds are
handled by checking that p has zero constant term and shifting, never by
division with remainder.  The same class, with Fraction coefficients, holds
the counting polynomials of ``kunzcount``.
"""

from math import comb

__all__ = [
    "ExactPolynomial",
    "binomial",
    "fibonacci",
    "coefficient",
    "e2_bound_value",
    "e2_bound_value_C",
    "t2_big_value",
    "t2_small_bound",
    "t2_bounds_C",
]


class ExactPolynomial:
    """Dense polynomial with int or Fraction coefficients; coefficient index
    equals degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __eq__(self, other):
        return isinstance(other, ExactPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return ExactPolynomial(
            tuple(x + y for x, y in zip(a, b)) + a[len(b):]
        )

    def __sub__(self, other):
        return self + ExactPolynomial(tuple(-y for y in other.coeffs))

    def __mul__(self, other):
        if not isinstance(other, ExactPolynomial):  # an int or Fraction scalar
            return ExactPolynomial(tuple(x * other for x in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ExactPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return ExactPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = ExactPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_down(self):
        """Divide by x exactly; requires zero constant term."""
        if self.coeffs and self.coeffs[0] != 0:
            raise ValueError("constant term is nonzero; not divisible by x")
        return ExactPolynomial(self.coeffs[1:])

    def __repr__(self):
        return f"ExactPolynomial({list(self.coeffs)})"


def _binomial_row(n):
    """(1+x)^n."""
    return ExactPolynomial(comb(n, i) for i in range(n + 1))


def binomial(n, k):
    """comb with the out-of-range-is-zero convention (including n < 0)."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


_fib_cache = [0, 1, 1]


def fibonacci(n):
    """F_1 = F_2 = 1, F_{n+2} = F_{n+1} + F_n."""
    if n < 1:
        raise ValueError("n must be positive")
    while len(_fib_cache) <= n:
        _fib_cache.append(_fib_cache[-1] + _fib_cache[-2])
    return _fib_cache[n]


def coefficient(p, d):
    """[x^d] p, with 0 outside the support (including negative d)."""
    if d < 0 or d > p.degree:
        return 0
    return p.coeffs[d]


def _e2_poly(n):
    """(1+x)^n - x^floor(n/2) (x+2)^floor(n/2) (1+x)^(n - 2 floor(n/2)),
    whose powers are built as binomial rows."""
    h = n // 2
    q = ExactPolynomial([0] * h + [comb(h, j) << (h - j) for j in range(h + 1)])
    return _binomial_row(n) - q * _binomial_row(n % 2)


def e2_bound_value(g, m):
    """Upper bound for the total e2 over genus-g semigroups with m(S)=m, F<2m."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return 2 * coefficient(_e2_poly(m), g - m)


def e2_bound_value_C(g, m, k):
    """Upper bound for the total e2 over C(m, k, g) (those with F = 2m + k)."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return 2 * coefficient(_e2_poly(m + k + 1), g - m)


def _t2_poly(n):
    """x^{-1} ((1+x)^n - (1+x+x^2)^(n - ceil(n/2)) (1+x)^(2 ceil(n/2) - n)),
    whose two exponents are floor(n/2) and n mod 2."""
    row = [1]
    for _ in range(n // 2):  # times 1 + x + x^2
        row = [a + b + c for a, b, c in zip(row + [0, 0], [0] + row + [0], [0, 0] + row)]
    return (_binomial_row(n) - ExactPolynomial(row) * _binomial_row(n % 2)).shift_down()


def t2_big_value(g, m):
    """Exact total of #(PF(S) cap [ceil(m/2), m-1]) over genus-g S with F < 2m, m(S)=m."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return coefficient(_t2_poly(m), 2 * m - g - 3)


def t2_small_bound(g, m):
    """Upper bound for the total of #(PF(S) cap [1, floor((m-1)/2)]) over the same family."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return coefficient(_t2_poly(m - 1), 2 * m - g - 4)


def t2_bounds_C(g, m, k):
    """(big, small) bounds for PF counts over C(m, k, g), split at ceil((m+k)/2)."""
    if m < 2:
        raise ValueError("m must be at least 2")
    big = coefficient(_t2_poly(m + k), 2 * m - g + k - 2)
    small = coefficient(_t2_poly(m + k - 1), 2 * m - g + k - 3)
    return big, small
