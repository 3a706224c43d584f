"""Condition counts and Hilbert functions/polynomials for fat flats.

A "fat flat" is an r-dimensional linear subspace of P^n taken with a
multiplicity m: forms must vanish to order at least m along it.  For
degrees t >= m such vanishing imposes exactly

    c(n, r, m, t) = sum_{0 <= i < m} C(t - i + r, r) * C(i + n - r - 1, n - r - 1)

independent conditions.  The count depends on the family (n, r) only, and
``family(n, r)`` builds it once, in integers, as n! * c with both t and m
left free; every count below is an evaluation of that object, O(n * r) for
any m.  At a fixed m the degrees t >= m with a positive Hilbert value
form a half-line (``Family.first_positive``), so the least of them below a
bound is one Hilbert value plus a bisection.  This module also provides
an independent monomial-enumeration oracle for the count, the Hilbert
function of a single fat flat via the iterated-summation recursion,
Hilbert polynomials of unions with uniform or mixed multiplicities
(including a fully symbolic variant where the multiplicity stays a formal
variable, kept as an independent cross-check of the family), and the
closed-form initial-degree formulas for general points and lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from typing import Callable, Sequence

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


def _horner(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _falling(shift: int, k: int) -> list[int]:
    """(x - shift)(x - shift - 1)...(x - shift - k + 1) as integer coefficients,
    lowest degree first."""
    out = [1]
    for j in range(k):
        c = -shift - j
        out = [c * a + b for a, b in zip(out + [0], [0] + out)]
    return out


def _forward_differences(values: list[int]) -> list[int]:
    """[values[0], (delta values)[0], (delta^2 values)[0], ...]."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


class Family:
    """The condition count of the (n, r) family in integers, for every s and m.

    ``counts[a][b]`` is the coefficient of t^a m^b in n! * c(n, r; t, m), the
    count with t and m both free; a <= r and a + b <= n, and the polynomial
    equals the count at all integers m >= 0, t >= m - r - 1.  Substituting
    t = m*x regroups the Hilbert polynomial as
    n! * P(m*x) = sum_i (A_i(x) - s * B_i(x)) * m^i, with A_i from
    n! * C(t + n, n) and B_i from n! * c; ``a_coeffs[i]`` and ``b_coeffs[i]``
    are their integer coefficient lists in x.  s enters only there,
    as a factor, so one object serves every s.  Immutable by convention; use
    the cached ``family(n, r)`` rather than building one.
    """

    __slots__ = ("n", "r", "scale", "counts", "a_coeffs", "b_coeffs")

    def __init__(self, n: int, r: int):
        """Build from exact counts by finite differences.

        The count has degree r in t and n in (t, m) together, so its values
        on the box m = 1..n+1, t = n+1..n+r+1 (where t >= m, and the
        iterated sums of ``hilbert_function_flat`` give them exactly) fix
        it: with the forward differences d_jk at (t, m) = (n + 1, 1),
        n! * c = sum_{j+k<=n} d_jk * n!/(j! k!) * (t-n-1)_j * (m-1)_k
        in falling factorials, and every term has integer coefficients.
        """
        scale = factorial(n)
        t0 = n + 1
        rows = [hilbert_function_flat(n, r, m, t0 + r + 1)[t0:] for m in range(1, n + 2)]
        by_t = [_forward_differences(row) for row in rows]  # by_t[m - 1][j]
        counts = [[0] * (n + 1 - a) for a in range(r + 1)]
        for j in range(r + 1):
            in_t = _falling(t0, j)
            diffs = _forward_differences([by_t[k][j] for k in range(n + 1)])
            for k in range(n + 1 - j):
                weight = diffs[k] * (scale // (factorial(j) * factorial(k)))
                if weight:
                    in_m = _falling(1, k)
                    for a, ca in enumerate(in_t):
                        for b, cb in enumerate(in_m):
                            counts[a][b] += weight * ca * cb
        rising = _falling(-n, n)  # n! * C(t + n, n) = (t + n)(t + n - 1)...(t + 1)
        self.n, self.r, self.scale = n, r, scale
        self.counts = tuple(map(tuple, counts))
        self.a_coeffs = tuple(tuple([0] * i + [rising[i]]) for i in range(n + 1))
        self.b_coeffs = tuple(
            tuple(counts[a][i - a] for a in range(min(i, r) + 1)) for i in range(n + 1)
        )

    def count_in_t(self, m: int) -> list[int]:
        """n! * c(n, r; t, m) at this m, as integer coefficients in t."""
        return [_horner(row, m) for row in self.counts]

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
        So None exactly when P_m(stop - 1) <= 0, and otherwise a bisection
        finds the least positive t: at most 1 + ceil(log2(stop - m)) values.
        Callers validate.
        """
        if stop <= m:
            return None
        n, scale, in_t = self.n, self.scale, self.count_in_t(m)

        def positive(t: int) -> bool:
            return scale * comb(t + n, n) > s * _horner(in_t, t)

        if not positive(stop - 1):
            return None
        return _least_holding(positive, m - 1, stop - 1)

    def scaled_coeffs(self, s: int) -> list[UniPoly]:
        """c_0, ..., c_n of n! * P(m*x) = sum_i c_i(x) m^i for s flats."""
        out = []
        for a, b in zip(self.a_coeffs, self.b_coeffs):
            b = list(b) + [0] * (len(a) - len(b))
            out.append(UniPoly([ai - s * bi for ai, bi in zip(a, b)]))
        return out


@lru_cache(maxsize=None)
def family(n: int, r: int) -> Family:
    """The cached integer family of (n, r); built once per process."""
    check_flat_domain(n, r)
    return Family(n, r)


def conditions_count(n: int, r: int, m: int, t: int) -> int:
    """Independent conditions imposed on degree-t forms by order-m vanishing.

    Only valid for t >= m; below that the formula does not count conditions,
    so smaller t is rejected rather than extrapolated.  One evaluation of
    the cached family, O(n * r) for any m.
    """
    check_flat_domain(n, r, m=m)
    if t < m:
        raise ValueError(f"conditions_count requires t >= m, got t={t}, m={m}")
    return family(n, r).count(m, t)


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
    check_flat_domain(n, 1, m=m)
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
    fam = family(n, r)
    return UniPoly(fam.count_in_t(m), fam.scale)


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


def _least_holding(holds: Callable[[int], bool], lo: int, hi: int | None = None) -> int:
    """The least t > lo with holds(t), for a predicate that stays true once
    true past lo: the t > lo where it holds form a half-line.

    Given hi, holds(hi) must be true.  Without it, hi runs lo + 1, lo + 2,
    lo + 4, ... (each failed hi becoming lo) until holds(hi); then (lo, hi]
    is bisected.  About 2 * log2(t - lo) + 1 predicate calls in all.
    """
    if hi is None:
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


def expected_alpha_upper(n: int, r: int, mults: Sequence[int]) -> int:
    """Smallest t >= max multiplicity with a positive Hilbert polynomial value.

    A certified upper bound for the initial degree of the corresponding
    ideal: positivity at t >= m forces a nonzero form of degree t.  At
    t >= max m each flat's count obeys ``Family.first_positive``'s
    inequality, so their sum does too and the positive t form a half-line.
    """
    if not any(m > 0 for m in mults):
        raise ValueError("need at least one positive multiplicity")
    poly = hilbert_poly_mixed(n, r, mults)
    return _least_holding(lambda t: poly(t) > 0, max(mults) - 1)


def alpha_points_general(n: int, s: int) -> int:
    """Initial degree of the ideal of s general points in P^n."""
    check_flat_domain(n, 0, s)
    return _least_holding(lambda t: comb(t + n, n) > s, 0)


def alpha2_points_expected(n: int, s: int) -> int:
    """Expected initial degree of the square of the ideal of s general points.

    This is the count-based value min{t : C(t+n, n) - s(n+1) > 0}; finitely
    many configurations are known exceptions, so callers should treat the
    result as expected rather than proven.
    """
    check_flat_domain(n, 0, s)
    return _least_holding(lambda t: comb(t + n, n) > s * (n + 1), 0)


def alpha_lines_general(n: int, s: int) -> int:
    """Initial degree of the ideal of s general lines in P^n, n >= 3.

    C(t + n, n) / (t + 1) grows with t for n >= 2, so the positive values
    of C(t + n, n) - s * (t + 1) form a half-line.
    """
    if n < 3 or s < 1:
        raise ValueError("need n >= 3 and s >= 1")
    return _least_holding(lambda t: comb(t + n, n) > s * (t + 1), 0)


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
