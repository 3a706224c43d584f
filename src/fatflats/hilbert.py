"""Condition counts and Hilbert functions/polynomials for fat flats.

A "fat flat" is an r-dimensional linear subspace of P^n taken with a
multiplicity m: forms must vanish to order at least m along it.  For
degrees t >= m such vanishing imposes exactly

    c(n, r, m, t) = sum_{0 <= i < m} C(t - i + r, r) * C(i + n - r - 1, n - r - 1)

independent conditions.  This module provides that count, an independent
monomial-enumeration oracle for it, a difference-table stepper for the
Hilbert values of a union at consecutive degrees, the Hilbert function of a
single fat flat via the iterated-summation recursion, Hilbert polynomials of unions
with uniform or mixed multiplicities (including a fully symbolic variant
where the multiplicity stays a formal variable), and the closed-form
initial-degree formulas for general points and lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Iterator, Sequence

from .polynomials import BiPoly, UniPoly, binom, binom_poly

ORACLE_GUARD = 10**7


@dataclass(frozen=True)
class FlatConfig:
    """Ambient dimension n, flat dimension r, number of flats s."""

    n: int
    r: int
    s: int

    def __post_init__(self):
        check_flat_domain(self.n, self.r, self.s)


def check_flat_domain(n: int, r: int, s: int = 1, m: int | None = None) -> None:
    """Validate (n, r, s) and, when given, the multiplicity m.

    Requires 0 <= r < n, s >= 1, n >= 2r+1 once s >= 2 (two or more disjoint
    r-flats only fit in P^n when n >= 2r+1), and m >= 1.
    """
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got n={n}")
    if not 0 <= r < n:
        raise ValueError(f"flat dimension must satisfy 0 <= r < n, got r={r}, n={n}")
    if s < 1:
        raise ValueError(f"number of flats must be >= 1, got s={s}")
    if s >= 2 and n < 2 * r + 1:
        raise ValueError(f"disjointness needs n >= 2r+1, got n={n}, r={r}")
    if m is not None and m < 1:
        raise ValueError(f"multiplicity must be >= 1, got m={m}")


def conditions_count(n: int, r: int, m: int, t: int) -> int:
    """Independent conditions imposed on degree-t forms by order-m vanishing.

    Only valid for t >= m; below that the formula does not count conditions,
    so smaller t is rejected rather than extrapolated.
    """
    check_flat_domain(n, r, m=m)
    if t < m:
        raise ValueError(f"conditions_count requires t >= m, got t={t}, m={m}")
    return sum(binom(t - i + r, r) * binom(i + n - r - 1, n - r - 1) for i in range(m))


def hilbert_values(n: int, r: int, s: int, m: int) -> Iterator[int]:
    """Yield the Hilbert values P_m(m), P_m(m + 1), ... without end.

    P_m(t) = C(t + n, n) - s * c(n, r, m, t), and at every integer t >= m the
    count c(n, r, m, t) agrees with a polynomial of degree r in t (each
    summand C(t - i + r, r) has i < m <= t).  So the r + 1 exact counts at
    t = m..m+r fix all later ones, and each later count costs r integer
    additions through the table of backward differences.  Counts are drawn
    lazily: a caller that stops after k values makes at most k of them.
    """
    check_flat_domain(n, r, s)
    diffs: list[int] = []  # diffs[k] is the k-th backward difference of the counts at t
    for t in itertools.count(m):
        if t <= m + r:
            count = conditions_count(n, r, m, t)
            for k in range(len(diffs)):
                diffs[k], count = count, count - diffs[k]
            diffs.append(count)
        else:
            for k in range(r - 1, -1, -1):
                diffs[k] += diffs[k + 1]
        yield comb(t + n, n) - s * diffs[0]


def conditions_count_oracle(n: int, r: int, m: int, t: int, guard: int = ORACLE_GUARD) -> int:
    """Same count by direct enumeration of monomials.

    Counts degree-t monomials in x_0..x_n whose total exponent on the last
    n - r variables is < m.  Enumeration size is C(t + n, n), guarded.
    """
    check_flat_domain(n, r, m=m)
    if t < m:
        raise ValueError(f"conditions_count_oracle requires t >= m, got t={t}, m={m}")
    if comb(t + n, n) > guard:
        raise ValueError(f"enumeration of C({t + n},{n}) monomials exceeds guard {guard}")
    count = 0
    # dividers encode an exponent vector (e_0,...,e_n) with sum t
    for dividers in combinations(range(t + n), n):
        prev = -1
        tail = t
        for k, d in enumerate(dividers):
            e = d - prev - 1
            prev = d
            if k <= r:
                tail -= e
        if tail < m:
            count += 1
    return count


def conditions_count_lines(n: int, m: int, t: int) -> int:
    """Closed form of the condition count for a line (r = 1)."""
    if n < 2:
        raise ValueError(f"lines need n >= 2, got n={n}")
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got m={m}")
    if t < m:
        raise ValueError(f"conditions_count_lines requires t >= m, got t={t}, m={m}")
    return (t + 1) * binom(m + n - 2, n - 1) - (n - 1) * binom(m + n - 2, n)


def hilbert_function_flat(n: int, r: int, m: int, length: int = 6) -> list[int]:
    """First ``length`` values of the Hilbert function of one fat r-flat in P^n.

    The base sequence in codimension n - r is
    min(C(t + n - r, n - r), C(m + n - r - 1, n - r)); r iterated partial
    sums recover the flat's Hilbert function.  For t >= m the values agree
    with conditions_count.
    """
    check_flat_domain(n, r, m=m)
    if length < 1:
        raise ValueError("length must be >= 1")
    base_dim = n - r
    cap = binom(m + base_dim - 1, base_dim)
    values = [min(binom(t + base_dim, base_dim), cap) for t in range(length)]
    for _ in range(r):
        acc = 0
        summed = []
        for v in values:
            acc += v
            summed.append(acc)
        values = summed
    return values


def conditions_poly(n: int, r: int, m: int) -> UniPoly:
    """c(n, r, m, t) as an exact polynomial in t.

    Agrees with conditions_count for integers t >= m (and in fact for all
    t >= m - r - 1, the range where the Hilbert polynomial is valid).
    """
    check_flat_domain(n, r, m=m)
    total = UniPoly()
    for i in range(m):
        weight = binom(i + n - r - 1, n - r - 1)
        total = total + binom_poly(r - i, r) * weight
    return total


def conditions_poly_symbolic(n: int, r: int) -> BiPoly:
    """c(n, r, m, t) with both t and m symbolic, as a BiPoly in (t, m).

    The i-indexed summands are polynomials in (t, i); summing i from 0 to
    m - 1 symbolically replaces the index by power-sum polynomials in m.
    """
    check_flat_domain(n, r)
    # first factor C(t - i + r, r) as a BiPoly in (t, i)
    first = BiPoly({(0, 0): 1})
    for j in range(1, r + 1):
        first = first * BiPoly({(1, 0): 1, (0, 1): -1, (0, 0): j})
    first = first * Fraction(1, factorial(r))
    # second factor C(i + n - r - 1, n - r - 1) as a polynomial in i
    second = BiPoly.from_uni_v(binom_poly(n - r - 1, n - r - 1))
    return (first * second).sum_v_range()


def hilbert_poly_uniform(n: int, r: int, s: int, m: int) -> UniPoly:
    """Hilbert polynomial of s disjoint fat r-flats of multiplicity m in P^n.

    C(t + n, n) - s * c(n, r, m, t) as an exact degree-n polynomial in t,
    valid for integers t >= m - r - 1.
    """
    check_flat_domain(n, r, s, m)
    return binom_poly(n, n) - s * conditions_poly(n, r, m)


def hilbert_poly_mixed(n: int, r: int, mults: Sequence[int]) -> UniPoly:
    """Hilbert polynomial with one multiplicity per flat; zero entries impose nothing."""
    check_flat_domain(n, r, len(mults))
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be >= 0 here")
    total = binom_poly(n, n)
    for m in mults:
        if m > 0:
            total = total - conditions_poly(n, r, m)
    return total


def hilbert_poly_symbolic(n: int, r: int, s: int) -> BiPoly:
    """Hilbert polynomial with the common multiplicity m left symbolic: BiPoly in (t, m)."""
    check_flat_domain(n, r, s)
    return BiPoly.from_uni_u(binom_poly(n, n)) - s * conditions_poly_symbolic(n, r)


def expected_alpha_upper(n: int, r: int, mults: Sequence[int]) -> int:
    """Smallest t >= max multiplicity with a positive Hilbert polynomial value.

    A certified upper bound for the initial degree of the corresponding
    ideal: positivity at t >= m forces a nonzero form of degree t.
    """
    if not any(m > 0 for m in mults):
        raise ValueError("need at least one positive multiplicity")
    poly = hilbert_poly_mixed(n, r, mults)
    t = max(mults)
    while poly(t) <= 0:
        t += 1
    return t


def alpha_points_general(n: int, s: int) -> int:
    """Initial degree of the ideal of s general points in P^n."""
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    t = 1
    while binom(t + n, n) - s <= 0:
        t += 1
    return t


def alpha2_points_expected(n: int, s: int) -> int:
    """Expected initial degree of the square of the ideal of s general points.

    This is the count-based value min{t : C(t+n, n) - s(n+1) > 0}; finitely
    many configurations are known exceptions, so callers should treat the
    result as expected rather than proven.
    """
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    t = 1
    while binom(t + n, n) - s * (n + 1) <= 0:
        t += 1
    return t


def alpha_lines_general(n: int, s: int) -> int:
    """Initial degree of the ideal of s general lines in P^n, n >= 3."""
    if n < 3 or s < 1:
        raise ValueError("need n >= 3 and s >= 1")
    t = 1
    while binom(n + t, n) - s * (t + 1) <= 0:
        t += 1
    return t


def identity_sum_binom(a: int, m: int) -> tuple[int, int]:
    """(sum_{0<=i<m} C(i+a, a), C(m+a, a+1)): summation vs closed form."""
    if a < 0 or m < 1:
        raise ValueError("need a >= 0 and m >= 1")
    lhs = sum(binom(i + a, a) for i in range(m))
    rhs = binom(m + a, a + 1)
    return lhs, rhs


def identity_sum_i_binom(a: int, m: int) -> tuple[int, int]:
    """(sum_{0<=i<m} i*C(i+a, a), (a+1)*C(m+a, a+2)): summation vs closed form."""
    if a < 0 or m < 1:
        raise ValueError("need a >= 0 and m >= 1")
    lhs = sum(i * binom(i + a, a) for i in range(m))
    rhs = (a + 1) * binom(m + a, a + 2)
    return lhs, rhs
