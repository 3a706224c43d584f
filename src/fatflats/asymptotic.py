"""Scaling-limit polynomials of fat-flat Hilbert polynomials and their roots.

Substituting t = m*tau into the Hilbert polynomial of s fat r-flats of
multiplicity m in P^n and collecting the leading power of m yields a
degree-n polynomial in tau, here ``lambda_poly(n, r, s)``.  It has the
closed form

    (1/n!) * (tau^n - s * sum_{j=0}^{r} C(n, j) (tau - 1)^j),

is linked to lower (n, r) by differentiation, and has a single real root
g >= 1 whose value bounds the Waldschmidt constant of the ideal from above.
Only the factor s varies within a family, so ``pencil(n, r)`` holds the
rest, built and checked once per (n, r).  Descartes' rule of signs on
n! lambda(1 + y), read off the pencil, certifies g with no Sturm chain and
no Taylor shift.
The closed form and the leading-coefficient extraction are implemented
independently and cross-checked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

from .hilbert import check_flat_domain, hilbert_poly_symbolic
from .polynomials import UniPoly, squarefree_part
from .roots import (
    DEFAULT_PRECISION,
    AlgebraicNumber,
    bisect_bracket,
    count_roots_in,
    exact_if_rational,
    taylor_shift,
)


def _b_coeffs(n: int, r: int) -> list[int]:
    """The monomial coefficients of B_n = sum_{j <= r} C(n, j) (tau - 1)^j,
    lowest degree first, for r < n.

    In the sum tau^k has C(n, k) sum_{i <= r - k} (-1)^i C(n - k, i), which
    the identity sum_{i <= m} (-1)^i C(N, i) = (-1)^m C(N - 1, m) turns into
    C(n, k) (-1)^(r - k) C(n - k - 1, r - k): r + 1 terms in integers.
    """
    return [(-1) ** (r - k) * comb(n, k) * comb(n - k - 1, r - k) for k in range(r + 1)]


class Pencil:
    """n! lambda_s = tau^n - s B_n for one (n, r) and every s.

    Holds n!, B_n's monomial coefficients ``b`` (from ``_b_coeffs``), the
    binomial row C(n, j), j <= n, of (1 + y)^n, and B_n(2) = sum_{j <= r}
    C(n, j).  B_n(1 + y) = sum_{j <= r} C(n, j) y^j, so A_s(y) = n!
    lambda_s(1 + y) has the coefficients C(n, j) - s C(n, j) for j <= r and
    C(n, j) above.  The construction checks that once: the Taylor shift of
    ``b`` to 1 must be the row's first r + 1 entries, and a closed form that
    fails it raises ArithmeticError before any lambda or g is returned.
    Nothing here depends on s.
    """

    __slots__ = ("n", "r", "factorial", "b", "row", "b_at_two")

    def __init__(self, n: int, r: int):
        self.n, self.r, self.factorial = n, r, factorial(n)
        self.b = _b_coeffs(n, r)
        self.row = [comb(n, j) for j in range(n + 1)]
        if taylor_shift(self.b, 1, 1) != self.row[: r + 1]:
            raise ArithmeticError(f"B_n's closed form for (n={n}, r={r}) is not sum C(n, j) (tau - 1)^j")
        self.b_at_two = sum(self.row[: r + 1])

    def lam(self, s: int) -> UniPoly:
        """lambda_s = (tau^n - s B_n) / n!."""
        return UniPoly([-s * c for c in self.b] + [0] * (self.n - self.r - 1) + [1], self.factorial)

    def shifted(self, s: int) -> UniPoly:
        """A_s(y) = n! lambda_s(1 + y), read off the row with no shift."""
        return UniPoly([(1 - s) * c for c in self.row[: self.r + 1]] + self.row[self.r + 1 :])


@lru_cache(maxsize=None)
def pencil(n: int, r: int) -> Pencil:
    """The cached pencil of (n, r); built and checked once per process."""
    check_flat_domain(n, r)
    return Pencil(n, r)


def lambda_poly(n: int, r: int, s: int) -> UniPoly:
    """Closed form of the scaling-limit polynomial, 1/n! factor included:
    n! lambda = tau^n - s sum_{j <= r} C(n, j) (tau - 1)^j.

    Read off the cached ``pencil(n, r)``, whose construction checked B_n's
    r + 1 closed-form coefficients against their shift to 1 once for every
    s; each call only scales them by s.
    """
    check_flat_domain(n, r, s)
    return pencil(n, r).lam(s)


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
    S = s B_n(2) = s sum_{j <= r} C(n, j) < up^(n - r); B_n(2) is the pencil's,
    summed once per (n, r).  At s = 1 lambda has no root above 1 (Descartes
    counts no variation), so any up >= 2 serves."""
    big_s = s * pencil(n, r).b_at_two
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

    No Sturm chain is built for any s, and no Taylor shift: the count runs
    on A(y) = n! lambda(1 + y), which the pencil gives directly (its shift
    of B_n to 1 was checked once per (n, r)), over (0, up - 1].  A has the
    coefficients C(n, j) (1 - s) for j <= r and C(n, j) above r, so at most
    one sign change, and Descartes counts.  For s >= 2, A' = n B (B is A
    for (n - 1, r - 1)) and A - (1 + y) B = -s C(n - 1, r) y^r, so A and A'
    share no root, as A(0) = 1 - s != 0: lambda is squarefree.  With one
    variation the count reads A's sign at up - 1, which is lambda's at up,
    so every call also certifies g <= up, which the bisection of (1, up]
    needs.  The bisection runs in integers, and the result's two
    ``Fraction`` ends are built once, at the end.
    """
    lam, one, up = lambda_poly(n, r, s), Fraction(1), _root_bounds(n, r, s)
    at_one = lam(one) == 0
    above = at_one + count_roots_in(pencil(n, r).shifted(s), 0, up - 1)
    if above != 1:
        raise ArithmeticError(
            f"expected exactly one root >= 1 for (n={n}, r={r}, s={s}), found {above}"
        )
    if at_one:
        return AlgebraicNumber(squarefree_part(lam).primitive(), one, one)
    return exact_if_rational(lam, *bisect_bracket(lam, 1, up, 1, precision))


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
