"""Intersection numbers on the blow-up of P^n along disjoint r-planes.

Writing H for the pulled-back hyperplane class and E for the sum of the s
exceptional divisors, the only nonzero mixed products are H^n = 1 and
H^j E^(n-j) for 0 <= j <= r, so (tau*H - E)^n expands to an explicit
degree-n polynomial in tau.  That expansion coincides with n! times the
scaling-limit polynomial of the same configuration; the identity is checked
exactly.  Two alternating binomial sums underpin the computation and are
exposed for direct verification.
"""

from __future__ import annotations

from .asymptotic import lambda_poly
from .hilbert import check_flat_domain
from .polynomials import UniPoly, binom
from math import factorial


def alt_sum_zero(t: int, j: int) -> int:
    """sum_{i=0}^{j} (-1)^i C(t+j, j-i) C(t+i, i), by direct summation.

    Vanishes for j >= 1; the single-term j = 0 sum equals 1 and lies
    outside the vanishing claim.
    """
    if t < 0 or j < 0:
        raise ValueError("need t >= 0 and j >= 0")
    return sum((-1) ** i * binom(t + j, j - i) * binom(t + i, i) for i in range(j + 1))


def alt_sum_one(t: int, j: int) -> int:
    """sum_{i=0}^{j} (-1)^i C(t+j, j-i) C(t+i-1, i), by direct summation; equals 1."""
    if t < 1 or j < 0:
        raise ValueError("need t >= 1 and j >= 0")
    return sum((-1) ** i * binom(t + j, j - i) * binom(t + i - 1, i) for i in range(j + 1))


def intersection_number(n: int, r: int, j: int) -> int:
    """H^j E^(n-j) on the blow-up of P^n along one r-plane (H^n = 1 at j = n)."""
    check_flat_domain(n, r)
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}")
    if j == n:
        return 1
    if j > r:
        return 0
    return (-1) ** (n + 1 - r) * binom(n - j - 1, r - j)


def expand_self_intersection(n: int, r: int, s: int) -> UniPoly:
    """(tau*H - E)^n as a polynomial in tau, for s disjoint r-planes.

    Assembled term by term from the single-plane intersection numbers; the
    exceptional divisors of distinct planes multiply to zero, so each mixed
    term just picks up a factor s.
    """
    check_flat_domain(n, r, s)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for j in range(n):
        coeffs[j] = (-1) ** (n - j) * binom(n, j) * s * intersection_number(n, r, j)
    return UniPoly(coeffs)


def identity_check(n: int, r: int, s: int) -> bool:
    """Exact polynomial identity between the self-intersection expansion and
    n! times the scaling-limit polynomial."""
    return expand_self_intersection(n, r, s) == factorial(n) * lambda_poly(n, r, s)
