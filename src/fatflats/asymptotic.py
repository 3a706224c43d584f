"""Scaling-limit polynomials of fat-flat Hilbert polynomials and their roots.

Substituting t = m*tau into the Hilbert polynomial of s fat r-flats of
multiplicity m in P^n and collecting the leading power of m yields a
degree-n polynomial in tau, here ``lambda_poly(n, r, s)``.  It has the
closed form

    (1/n!) * (tau^n - s * sum_{j=0}^{r} C(n, j) (tau - 1)^j),

is linked to lower (n, r) by differentiation, and has a single real root
g >= 1 whose value bounds the Waldschmidt constant of the ideal from above.
Descartes' rule of signs certifies it with no Sturm chain.
The closed form and the leading-coefficient extraction are implemented
independently and cross-checked.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .hilbert import check_flat_domain, hilbert_poly_symbolic
from .polynomials import UniPoly, binom, squarefree_part
from .roots import (
    DEFAULT_PRECISION,
    AlgebraicNumber,
    bisect_root,
    count_roots_in,
    exact_if_rational,
)


def lambda_poly(n: int, r: int, s: int) -> UniPoly:
    """Closed form of the scaling-limit polynomial, 1/n! factor included.

    n! lambda = tau^n - s sum_{j <= r} C(n, j) (tau - 1)^j, and in the sum
    tau^k has C(n, k) sum_{i <= r - k} (-1)^i C(n - k, i), which the identity
    sum_{i <= m} (-1)^i C(N, i) = (-1)^m C(N - 1, m) turns into C(n, k)
    (-1)^(r - k) C(n - k - 1, r - k) as k <= r < n: r + 1 terms in integers.
    """
    check_flat_domain(n, r, s)
    coeffs = [0] * n + [1]
    for k in range(r + 1):
        coeffs[k] = -s * (-1) ** (r - k) * comb(n, k) * comb(n - k - 1, r - k)
    return UniPoly(coeffs, factorial(n))


def lambda_poly_via_leading(n: int, r: int, s: int) -> UniPoly:
    """Independent construction: the m^n coefficient of the Hilbert polynomial
    at t = m*tau, computed with m fully symbolic."""
    check_flat_domain(n, r, s)
    coeffs = [Fraction(0)] * (n + 1)
    for (a, b), coef in hilbert_poly_symbolic(n, r, s).terms.items():
        # t^a m^b at t = m*tau is tau^a m^(a+b)
        if a + b > n:
            raise ArithmeticError("unexpected degree in the multiplicity variable")
        if a + b == n:
            coeffs[a] = coef
    return UniPoly(coeffs)


def tower_check(n: int, r: int, s: int) -> bool:
    """Both tower identities, exactly: the tau-derivative steps down (n, r)
    by one, and the value at tau = 1 is (1 - s)/n!."""
    if r < 1:
        raise ValueError("tower_check needs r >= 1")
    check_flat_domain(n, r, s)
    lam = lambda_poly(n, r, s)
    step = lam.derivative() == lambda_poly(n - 1, r - 1, s)
    at_one = lam(1) == Fraction(1 - s, factorial(n))
    return step and at_one


def _root_bounds(n: int, r: int, s: int) -> int:
    """A power of two up >= 2 with tau < up for every root tau >= 1 of lambda
    at s >= 2: tau^n = s sum_{j <= r} C(n, j) (tau - 1)^j <= S tau^r, with
    S = s sum_{j <= r} C(n, j) < up^(n - r).  At s = 1 lambda has no root
    above 1 (Descartes counts no variation), so any up >= 2 serves."""
    big_s = s * sum(binom(n, j) for j in range(r + 1))
    return 1 << -(-big_s.bit_length() // (n - r))


def g_value(
    n: int,
    r: int,
    s: int,
    precision: Fraction = DEFAULT_PRECISION,
) -> AlgebraicNumber:
    """The largest real root of lambda_poly(n, r, s), certified.

    Every call machine-checks that the polynomial has exactly one real root
    in [1, up], up from ``_root_bounds``; a different count would contradict
    the sign analysis this construction rests on, so it is fatal.  For s = 1
    the root is exactly 1 and is returned as an exact rational, defined by
    the squarefree part (lambda has a repeated root at 1 once r >= 1).

    No Sturm chain is built for any s: A(y) = n! lambda(1 + y) has the
    coefficients C(n, j) (1 - s) for j <= r and C(n, j) above r, so at most
    one sign change, and Descartes counts.  For s >= 2, A' = n B (B is A for
    (n - 1, r - 1)) and A - (1 + y) B = -s C(n - 1, r) y^r, so A and A' share
    no root, as A(0) = 1 - s != 0: lambda is squarefree.  With one variation
    the count over (1, up] reads lambda's sign at up, so it also certifies
    g <= up, which the bisection of (1, up] needs.
    """
    lam, one, up = lambda_poly(n, r, s), Fraction(1), _root_bounds(n, r, s)
    at_one = lam(one) == 0
    above = at_one + count_roots_in(lam, one, up)
    if above != 1:
        raise ArithmeticError(
            f"expected exactly one root >= 1 for (n={n}, r={r}, s={s}), found {above}"
        )
    if at_one:
        return AlgebraicNumber(squarefree_part(lam).primitive(), one, one)
    return exact_if_rational(lam, *bisect_root(lam, one, up, precision))


class SpecialRootRow(NamedTuple):
    """One verified instance of the integer-root family for lines."""

    n: int
    s: int
    root: int
    value_is_zero: bool
    is_largest: bool

    @property
    def ok(self) -> bool:
        return self.value_is_zero and self.is_largest


def g_specials() -> list[SpecialRootRow]:
    """For each 3 <= n <= 8, verify exactly that tau = n - 1 is the largest
    root of the scaling-limit polynomial of (n-1)^(n-2) lines in P^n."""
    rows = []
    for n in range(3, 9):
        s = (n - 1) ** (n - 2)
        lam = lambda_poly(n, 1, s)
        root = n - 1
        value_is_zero = lam(root) == 0
        g = g_value(n, 1, s)
        is_largest = g.is_exact and g.value == root
        rows.append(SpecialRootRow(n, s, root, value_is_zero, is_largest))
    return rows
