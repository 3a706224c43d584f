"""Condition counts and Hilbert functions/polynomials for fat flats.

A "fat flat" is an r-dimensional linear subspace of P^n taken with a
multiplicity m: forms must vanish to order at least m along it.  For
degrees t >= m such vanishing imposes exactly

    c(n, r, m, t) = sum_{0 <= i < m} C(t - i + r, r) * C(i + n - r - 1, n - r - 1)

independent conditions.  The count depends on the family (n, r) only, and
``family(n, r)`` builds it once, in integers, as n! * c with both t and m
left free; every count below is an evaluation of that object, O(n * r) for
any m.  The family also tabulates its rows in t (n! * c at one m, integer
coefficients in t) for m = 0..64 once, when it is built, so the scans read
a stored row per m; beyond the table a row is r + 1 Horner evaluations in
m, and the table never grows.  At a fixed m the degrees t >= m with a
positive Hilbert value form a half-line (``Family.first_positive``), so
the least of them below a bound is a doubling walk down from the bound
plus a bisection, and the least of them at all (``alpha_expected``) a
doubling search up plus a bisection.
This module also provides an independent monomial-enumeration oracle for the count, the Hilbert
function of a single fat flat via the iterated-summation recursion, and
Hilbert polynomials of unions with uniform or mixed multiplicities
(including a fully symbolic variant where the multiplicity stays a formal
variable, kept as an independent cross-check of the family).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, factorial
from typing import Callable, Sequence

from .polynomials import BiPoly, UniPoly, binom, binom_poly

ORACLE_GUARD = 10**7
_TABLED_M = 64  # Family rows stored for m = 0.._TABLED_M: e_empirical's default m_max is 60


def check_flat_domain(n: int, r: int, s: int = 1, m: int | None = None, t: int | None = None) -> None:
    """Validate (n, r, s) and, when given, the multiplicity m and the degree t.

    Requires 0 <= r < n, s >= 1, n >= 2r+1 once s >= 2 (two or more disjoint
    r-flats only fit in P^n when n >= 2r+1), m >= 1 and t >= m (below m the
    count formula counts no conditions, so it is not extrapolated there); a
    degree t is only checked against its multiplicity, so t needs m.
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
    if t is not None and m is None:
        raise ValueError(f"a degree needs a multiplicity, got t={t} without m")
    if t is not None and t < m:
        raise ValueError(f"the count requires t >= m, got t={t}, m={m}")


def _horner(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _interpolate(values: list[int], x0: int) -> list[int]:
    """Integer coefficients, lowest degree first, of the polynomial of degree
    < len(values) that takes values[i] at x0 + i.

    Newton's forward form: with the forward differences d_i at x0 it is
    sum_i d_i / i! * (x - x0)(x - x0 - 1)...(x - x0 - i + 1), and each
    d_i / i! is an integer when the polynomial has integer coefficients.
    """
    newton = []
    for i in range(len(values)):
        newton.append(values[0] // factorial(i))
        values = [b - a for a, b in zip(values, values[1:])]
    out: list[int] = []
    for i in reversed(range(len(newton))):  # out = out * (x - x0 - i) + newton[i]
        out = [a - (x0 + i) * b for a, b in zip([0] + out, out + [0])]
        out[0] += newton[i]
    return out


class Family:
    """The condition count of the (n, r) family in integers, for every s and m.

    ``counts[a][b]`` is the coefficient of t^a m^b in n! * c(n, r; t, m), the
    count with t and m both free; a <= r and a + b <= n, and the polynomial
    equals the count at all integers m >= 0, t >= m - r - 1.  s enters the
    Hilbert polynomial P = C(t + n, n) - s * c only as a factor, so one
    object serves every s; ``along`` restricts n! * (P - 1) to a lattice
    line of (t, m).  ``rows[m]`` is ``count_in_t(m)`` stored for
    m = 0.._TABLED_M, built with the family, and rows beyond it are
    evaluated from ``counts`` on demand, so the object has a fixed size.
    Immutable by convention; use the cached ``family(n, r)`` rather than
    building one.
    """

    __slots__ = ("n", "r", "scale", "counts", "rows")

    def __init__(self, n: int, r: int):
        """Build from exact counts by interpolation.

        The count has degree r in t and n in (t, m) together, so its values
        on the box m = 1..n+1, t = n+1..n+r+1 (where t >= m, and the
        iterated sums of ``hilbert_function_flat`` give them exactly) fix
        it: n! * c is interpolated in t at each m of the box, then each
        coefficient in m.  n! * c has integer coefficients, and so has its
        restriction to any integer m, so ``_interpolate`` stays in integers.
        """
        scale = factorial(n)
        t0 = n + 1
        in_t = [
            _interpolate([scale * v for v in hilbert_function_flat(n, r, m, t0 + r + 1)[t0:]], t0)
            for m in range(1, n + 2)
        ]
        counts = [_interpolate([row[a] for row in in_t], 1)[: n + 1 - a] for a in range(r + 1)]
        self.n, self.r, self.scale = n, r, scale
        self.counts = tuple(map(tuple, counts))
        self.rows = tuple(tuple(_horner(row, m) for row in self.counts) for m in range(_TABLED_M + 1))

    def count_in_t(self, m: int) -> tuple[int, ...]:
        """n! * c(n, r; t, m) at this m, as integer coefficients in t."""
        if 0 <= m <= _TABLED_M:
            return self.rows[m]
        return tuple(_horner(row, m) for row in self.counts)

    def count(self, m: int, t: int) -> int:
        """c(n, r; t, m) for t >= m - r - 1; callers validate."""
        return _horner(self.count_in_t(m), t) // self.scale

    def hilbert_value(self, s: int, m: int, t: int) -> int:
        """P_m(t) = C(t + n, n) - s * c(n, r; t, m), the value for s flats."""
        return comb(t + self.n, self.n) - s * self.count(m, t)

    def first_positive(self, s: int, m: int, stop: int) -> int | None:
        """The least t in [m, stop) with P_m(t) > 0 for s flats, or None.

        For t >= m the family polynomial is c(t), the number of degree-t
        monomials whose exponents on the last n - r variables sum to less
        than m.  Pair each counted monomial of degree t + 1 with each
        variable dividing it, weighted by its exponent: that is
        (t + 1) * c(t + 1) in all.  Dividing out the variable lands in the
        count at t, and a monomial there receives weight t + n + 1 at most,
        so (t + 1) * c(t + 1) <= (t + n + 1) * c(t), with equality for
        C(t + n, n), which counts every monomial.  Hence (t + 1) * P_m(t + 1)
        >= (t + n + 1) * P_m(t): once positive at some t >= m, P_m stays
        positive and rises, and the positive t >= m form a half-line.
        So None exactly when P_m(stop - 1) <= 0.  Otherwise the least
        positive t is found walking down from the known end (Bentley and
        Yao's unbounded search, mirrored): t = stop - 2, stop - 4, ...
        while positive, never below the middle of what is left above m - 1,
        then a bisection of the last gap.  At most 2 * bit_length(stop - t)
        Hilbert values, each n! * C(t + n, n) against s times the stored
        row put in by Horner.  Callers validate.
        """
        n, scale = self.n, self.scale
        row = (self.rows[m] if m <= _TABLED_M else self.count_in_t(m))[::-1]  # highest degree first
        # P_m <= 0 at every t <= lo, and P_m(hi) > 0 unless hi is still stop
        lo, hi, t = m - 1, stop, stop - 1
        while hi - lo > 1:
            count = 0
            for c in row:
                count = count * t + c
            if scale * comb(t + n, n) > s * count:
                hi = t
            else:
                lo = t
            mid, t = (lo + hi) // 2, 2 * hi - stop  # walk down from stop until past mid, then bisect
            if t < mid:
                t = mid
        return hi if hi < stop else None

    def along(self, s: int, q: int, j: int, p: int, c: int) -> UniPoly:
        """n! * (P_m(t) - 1) for s flats along m = q*k + j, t = p*k + c, in k.

        Two integer lines put into the integer family polynomial give an
        integer polynomial of degree <= n in k, fixed by its values at
        k = 0..n (``_interpolate``).  The values are polynomial values,
        whatever the sign of t - m: comb(t + n, n) is C(t + n, n) at every
        integer t >= -n, and the count is the family polynomial.  Callers
        keep t >= -n.
        """
        n, scale = self.n, self.scale
        values = [
            scale * (comb(p * k + c + n, n) - 1) - s * _horner(self.count_in_t(q * k + j), p * k + c)
            for k in range(n + 1)
        ]
        return UniPoly(_interpolate(values, 0))


@lru_cache(maxsize=None)
def family(n: int, r: int) -> Family:
    """The cached integer family of (n, r); built once per process."""
    check_flat_domain(n, r)
    return Family(n, r)


def conditions_count(n: int, r: int, m: int, t: int) -> int:
    """Independent conditions imposed on degree-t forms by order-m vanishing,
    for t >= m.  One evaluation of the cached family, O(n * r) for any m.
    """
    check_flat_domain(n, r, m=m, t=t)
    return family(n, r).count(m, t)


def conditions_count_oracle(n: int, r: int, m: int, t: int) -> int:
    """Same count by direct enumeration of monomials.

    Counts degree-t monomials in x_0..x_n whose total exponent on the last
    n - r variables is < m.  Enumerates C(t + n, n) <= ``ORACLE_GUARD``.
    """
    check_flat_domain(n, r, m=m, t=t)
    if comb(t + n, n) > ORACLE_GUARD:
        raise ValueError(f"enumeration of C({t + n},{n}) monomials exceeds guard {ORACLE_GUARD}")
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
    check_flat_domain(n, 1, m=m, t=t)
    return (t + 1) * binom(m + n - 2, n - 1) - (n - 1) * binom(m + n - 2, n)


def hilbert_function_flat(n: int, r: int, m: int, length: int = 6) -> list[int]:
    """First ``length`` values of the Hilbert function of one fat r-flat in P^n.

    The base sequence in codimension n - r is C(t + n - r, n - r) up to
    its cap C(m + n - r - 1, n - r), reached at t = m - 1; r iterated
    partial sums recover the flat's Hilbert function.  For t >= m the
    values agree with conditions_count.
    """
    check_flat_domain(n, r, m=m)
    if length < 1:
        raise ValueError("length must be >= 1")
    base_dim = n - r
    below = min(m - 1, length)
    values = [binom(t + base_dim, base_dim) for t in range(below)]
    values += [binom(m + base_dim - 1, base_dim)] * (length - below)
    for _ in range(r):
        values = list(accumulate(values))
    return values


def conditions_poly(n: int, r: int, m: int) -> UniPoly:
    """c(n, r, m, t) as an exact polynomial in t.

    Agrees with conditions_count for integers t >= m (and in fact for all
    t >= m - r - 1, the range where the Hilbert polynomial is valid).
    """
    check_flat_domain(n, r, m=m)
    fam = family(n, r)
    return UniPoly(fam.count_in_t(m), fam.scale)


@lru_cache(maxsize=None)
def conditions_poly_symbolic(n: int, r: int) -> BiPoly:
    """c(n, r, m, t) with both t and m symbolic, as a BiPoly in (t, m).

    The i-indexed summands are polynomials in (t, i); summing i from 0 to
    m - 1 symbolically replaces the index by power-sum polynomials in m.
    Cached: it depends on (n, r) alone, and a ``BiPoly`` is never mutated.
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


def _least_holding(holds: Callable[[int], bool], lo: int) -> int:
    """The least t > lo with holds(t), for a predicate that stays true once
    true past lo: the t > lo where it holds form a half-line.

    hi runs lo + 1, lo + 2, lo + 4, ... (each failed hi becoming lo) until
    holds(hi); then (lo, hi] is bisected.  About 2 * log2(t - lo) + 1
    predicate calls in all.  ``Family.first_positive`` searches a bounded
    range the other way, down from its end, in its own loop.
    """
    hi, step = lo + 1, 1
    while not holds(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def alpha_expected(n: int, r: int, s: int, m: int) -> int:
    """The expected initial degree of s fat r-flats of multiplicity m in P^n:
    the least t >= m with P_m(t) > 0.

    The positive t >= m form a half-line (the lemma of
    ``Family.first_positive``), so a doubling search plus a bisection finds
    it in about 2 * log2(t) + 1 Hilbert values.  At m = 1 it is the actual
    initial degree for general points and, by Hartshorne-Hirschowitz, for
    general lines; for m >= 2 it is only expected (s = 2 points in P^2 at
    m = 2 is a known exception).
    """
    check_flat_domain(n, r, s, m)
    fam = family(n, r)
    return _least_holding(lambda t: fam.hilbert_value(s, m, t) > 0, m - 1)


def _check_sum_args(a: int, m: int) -> None:
    if a < 0 or m < 1:
        raise ValueError("need a >= 0 and m >= 1")


def identity_sum_binom(a: int, m: int) -> tuple[int, int]:
    """(sum_{0<=i<m} C(i+a, a), C(m+a, a+1)): summation vs closed form."""
    _check_sum_args(a, m)
    lhs = sum(binom(i + a, a) for i in range(m))
    rhs = binom(m + a, a + 1)
    return lhs, rhs


def identity_sum_i_binom(a: int, m: int) -> tuple[int, int]:
    """(sum_{0<=i<m} i*C(i+a, a), (a+1)*C(m+a, a+2)): summation vs closed form."""
    _check_sum_args(a, m)
    lhs = sum(i * binom(i + a, a) for i in range(m))
    rhs = (a + 1) * binom(m + a, a + 2)
    return lhs, rhs
