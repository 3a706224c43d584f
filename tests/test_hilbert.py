from fractions import Fraction as F
from contextlib import suppress
from math import comb, factorial, log2

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatflats import hilbert
from fatflats.hilbert import (
    alpha_expected,
    check_flat_domain,
    conditions_count,
    conditions_count_lines,
    conditions_count_oracle,
    conditions_poly,
    conditions_poly_symbolic,
    family,
    hilbert_function_flat,
    hilbert_poly_mixed,
    hilbert_poly_symbolic,
    hilbert_poly_uniform,
    identity_sum_binom,
    identity_sum_i_binom,
)
from fatflats.asymptotic import lambda_poly
from fatflats.polynomials import BiPoly, UniPoly, binom
from fatflats.waldschmidt import CertificationError, e_certify, e_empirical


def _count_sum(n, r, m, t):
    """The defining O(m) sum of c(n, r, m, t), the reference for the family."""
    return sum(binom(t - i + r, r) * binom(i + n - r - 1, n - r - 1) for i in range(m))


def test_conditions_count_examples():
    assert conditions_count(3, 1, 4, 5) == 40
    assert conditions_count(4, 2, 4, 4) == 65
    assert conditions_count(5, 2, 1, 3) == 10
    assert conditions_count(3, 1, 4, 4) == 30  # C(7,3) - C(5,1)


def test_conditions_count_rejects_small_t():
    with pytest.raises(ValueError):
        conditions_count(3, 1, 4, 3)


def test_conditions_oracle_examples():
    assert conditions_count_oracle(3, 1, 4, 5) == 40
    assert conditions_count_oracle(2, 0, 2, 2) == 3
    assert conditions_count_oracle(4, 2, 4, 4) == 65


def test_conditions_oracle_guard():
    # C(106, 6) = 1,705,904,746 > ORACLE_GUARD: refused before enumerating
    with pytest.raises(ValueError, match="exceeds guard"):
        conditions_count_oracle(6, 1, 2, 100)


def test_conditions_lines_closed_form():
    assert conditions_count_lines(3, 4, 5) == 40
    assert conditions_count_lines(3, 7, 27) == 672  # 28*C(8,2) - 2*C(8,3)
    assert conditions_count_lines(4, 1, 3) == 4  # m = 1 gives t + 1
    for n in range(2, 9):
        for m in range(1, 9):
            for t in range(m, 17):
                assert conditions_count_lines(n, m, t) == conditions_count(n, 1, m, t)


def test_hilbert_function_sequences():
    assert hilbert_function_flat(2, 0, 4, 6) == [1, 3, 6, 10, 10, 10]
    assert hilbert_function_flat(3, 1, 4, 6) == [1, 4, 10, 20, 30, 40]
    assert hilbert_function_flat(4, 2, 4, 6) == [1, 5, 15, 35, 65, 105]


def test_hilbert_function_matches_the_capped_base_sequence():
    # every m <= n + 2 and lengths around the cap, against min(C(t + n - r, n - r), cap)
    for n, r in [(200, 0), (60, 20), (12, 5), (3, 1), (1, 0)]:
        base = n - r
        for m in range(1, n + 3):
            cap = comb(m + base - 1, base)
            for length in {1, m - 1, m, m + 1, n + r + 2} - {0}:
                values = [min(comb(t + base, base), cap) for t in range(length)]
                for _ in range(r):
                    values = [sum(values[: i + 1]) for i in range(length)]
                assert hilbert_function_flat(n, r, m, length) == values, (n, r, m, length)


def test_large_family_build_stops_the_base_sequence_at_its_cap(monkeypatch):
    # Family(200, 0) asks each m = 1..201 for 202 values; past t = m - 1 they are the cap
    calls = []
    monkeypatch.setattr(hilbert, "binom", lambda a, b: calls.append(a) or binom(a, b))
    hilbert.Family(200, 0)
    assert len(calls) <= 201 * 202 // 2  # 40,803 when every value called binom
    assert max(calls) <= 400  # never C(t + 200, 200) above the cap's C(m + 199, 200)


def test_hilbert_function_agrees_with_conditions():
    for n, r, m in [(3, 1, 2), (4, 2, 3), (5, 1, 4), (5, 2, 2)]:
        values = hilbert_function_flat(n, r, m, m + 6)
        for t in range(m, m + 6):
            assert values[t] == conditions_count(n, r, m, t)


def test_hilbert_function_difference_recovers_base():
    for n, r, m in [(3, 1, 4), (4, 2, 4), (5, 2, 3)]:
        values = hilbert_function_flat(n, r, m, 10)
        diffed = values
        for _ in range(r):
            diffed = [diffed[0]] + [b - a for a, b in zip(diffed, diffed[1:])]
        base = n - r
        cap = binom(m + base - 1, base)
        assert diffed == [min(binom(t + base, base), cap) for t in range(10)]


def test_hilbert_poly_uniform_values():
    assert hilbert_poly_uniform(3, 1, 6, 7)(27) == 28
    # the worked example's printed value is off; the formula gives 4, and
    # only positivity is ever used
    assert hilbert_poly_uniform(3, 0, 4, 2)(3) == 4
    assert hilbert_poly_uniform(3, 1, 1, 4)(4) == 5  # C(m+n-r-1, n-r-1)


def test_hilbert_poly_uniform_agrees_with_counts():
    for n, r, s, m in [(3, 1, 6, 7), (5, 2, 3, 4), (4, 1, 2, 3), (2, 0, 9, 5)]:
        poly = hilbert_poly_uniform(n, r, s, m)
        assert poly.degree == n
        for t in range(m, m + 8):
            assert poly(t) == binom(t + n, n) - s * conditions_count(n, r, m, t)


def test_hilbert_poly_at_t_equals_m():
    for n in range(2, 9):
        for r in range((n - 1) // 2 + 1):
            for s in (1, 3, 10):
                for m in (1, 2, 5):
                    lhs = hilbert_poly_uniform(n, r, s, m)(m)
                    rhs = binom(m + n, n) - s * (
                        binom(m + n, n) - binom(m + n - r - 1, n - r - 1)
                    )
                    assert lhs == rhs


def _compose(p: UniPoly, inner: UniPoly) -> UniPoly:
    """p(inner(x)) by Horner."""
    acc = UniPoly()
    for c in reversed(p.coeffs):
        acc = acc * inner + UniPoly([c])
    return acc


def test_difference_property_as_polynomials():
    shift = UniPoly([-1, 1])  # t - 1
    for n in range(3, 9):
        for r in range(1, (n - 1) // 2 + 1):
            for s in range(1, 11):
                for m in range(1, 7):
                    p = hilbert_poly_uniform(n, r, s, m)
                    delta = p - _compose(p, shift)
                    assert delta == hilbert_poly_uniform(n - 1, r - 1, s, m)


def test_hilbert_poly_mixed_values():
    assert hilbert_poly_mixed(3, 1, (4, 3, 3, 3, 3, 3))(12) == -5
    # the discussion value differs in print; direct evaluation gives 1 > 0,
    # which is all the argument needs (the quadric through three lines)
    assert hilbert_poly_mixed(3, 1, (1, 1, 1, 0, 0))(2) == 1
    assert hilbert_poly_mixed(4, 0, (0, 0, 0))(3) == binom(7, 4)


def test_hilbert_poly_mixed_checks_the_domain():
    with pytest.raises(ValueError, match="disjointness"):
        hilbert_poly_mixed(2, 1, (2, 3))  # two lines in P^2 meet
    with pytest.raises(ValueError):
        hilbert_poly_mixed(3, 3, (1,))
    assert hilbert_poly_mixed(2, 1, (2,)) == hilbert_poly_uniform(2, 1, 1, 2)


def test_hilbert_poly_mixed_matches_uniform():
    assert hilbert_poly_mixed(3, 1, (4, 4, 4)) == hilbert_poly_uniform(3, 1, 3, 4)


def test_symbolic_specializes_to_uniform():
    for n, r, s in [(3, 1, 6), (4, 0, 5), (5, 2, 2)]:
        bp = hilbert_poly_symbolic(n, r, s)
        for m in (1, 2, 4):
            poly = hilbert_poly_uniform(n, r, s, m)
            for t in range(m, m + 6):
                assert bp(t, m) == poly(t)


def test_alpha_closed_forms():
    assert alpha_expected(3, 1, 3, 1) == 2
    assert alpha_expected(3, 1, 6, 1) == 4
    assert alpha_expected(3, 1, 1, 1) == 1
    assert alpha_expected(2, 0, 5, 1) == 2
    assert alpha_expected(7, 0, 1, 1) == 1
    # the stated count formula; this instance is one of the known exceptions,
    # so the true value (2) differs from the expected one computed here
    assert alpha_expected(2, 0, 2, 2) == 3


def _walk(holds, t):
    """The least-positive-degree search as a walk up one step at a time."""
    while not holds(t):
        t += 1
    return t


def test_alpha_searches_match_a_linear_walk():
    # the closed counts: one condition per point, n + 1 per double point, t + 1 per line
    for n in range(1, 8):
        for s in range(1, 300):
            assert alpha_expected(n, 0, s, 1) == _walk(lambda t: comb(t + n, n) - s > 0, 1)
            assert alpha_expected(n, 0, s, 2) == _walk(lambda t: comb(t + n, n) - s * (n + 1) > 0, 1)
            if n >= 3:
                assert alpha_expected(n, 1, s, 1) == _walk(lambda t: comb(n + t, n) - s * (t + 1) > 0, 1)


@pytest.mark.parametrize("n, r", [(3, 1), (4, 1), (5, 1), (5, 2), (6, 2)])
def test_alpha_expected_matches_a_walk_over_the_oracle(n, r):
    # fat lines and planes, which no closed count covered: the least t >= m
    # with C(t + n, n) > s * c, the count enumerated monomial by monomial
    for m in (2, 3):
        for s in range(1, 7):
            walked = _walk(lambda t: comb(t + n, n) > s * conditions_count_oracle(n, r, m, t), m)
            assert alpha_expected(n, r, s, m) == walked, (n, r, s, m)


def test_least_positive_degree_search_is_logarithmic(monkeypatch):
    # the walk up from t = 1 would take 7.7e10 steps here
    calls = 0
    search = hilbert._least_holding

    def counted(holds, *bounds):
        def holds_counted(t):
            nonlocal calls
            calls += 1
            return holds(t)

        return search(holds_counted, *bounds)

    monkeypatch.setattr(hilbert, "_least_holding", counted)
    t = alpha_expected(3, 1, 10**21, 1)
    assert t == 77459666922
    assert comb(t + 3, 3) > 10**21 * (t + 1) and comb(t + 2, 3) <= 10**21 * t
    assert calls <= 2 * log2(t) + 8


def test_points_helpers_validate_as_flats():
    with pytest.raises(ValueError, match="number of flats"):
        alpha_expected(3, 0, 0, 1)
    with pytest.raises(ValueError, match="ambient dimension"):
        alpha_expected(0, 0, 4, 2)
    with pytest.raises(ValueError, match="multiplicity must be >= 1"):
        alpha_expected(3, 0, 4, 0)


def test_lines_helper_validates_as_flats():
    assert alpha_expected(2, 1, 1, 1) == 1  # one line in P^2 is cut out by one linear form
    with pytest.raises(ValueError, match="disjointness needs n >= 2r"):
        alpha_expected(2, 1, 2, 1)
    with pytest.raises(ValueError, match="flat dimension must satisfy"):
        alpha_expected(1, 1, 1, 1)
    with pytest.raises(ValueError, match="number of flats"):
        alpha_expected(3, 1, 0, 1)


def test_identity_sums():
    assert identity_sum_binom(2, 4) == (20, 20)
    assert identity_sum_binom(0, 5) == (5, 5)
    assert identity_sum_i_binom(1, 3) == (8, 8)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=14))
def test_identity_sums_agree(a, m):
    lhs, rhs = identity_sum_binom(a, m)
    assert lhs == rhs
    lhs, rhs = identity_sum_i_binom(a, m)
    assert lhs == rhs


def test_flat_config_validation():
    check_flat_domain(3, 1, 6)
    check_flat_domain(5, 2, 1)
    with pytest.raises(ValueError):
        check_flat_domain(3, 2, 2)  # disjointness needs n >= 2r+1
    with pytest.raises(ValueError):
        check_flat_domain(3, 3, 1)  # r < n
    with pytest.raises(ValueError):
        check_flat_domain(2, 0, 0)


def test_conditions_poly_matches_count():
    for n, r, m in [(3, 1, 4), (4, 2, 2), (2, 0, 5)]:
        poly = conditions_poly(n, r, m)
        for t in range(m, m + 8):
            assert poly(t) == conditions_count(n, r, m, t)


def _first_positive_direct(n, r, s, m, stop):
    values = ((t, binom(t + n, n) - s * conditions_count(n, r, m, t)) for t in range(m, stop))
    return next((t for t, value in values if value > 0), None)


@st.composite
def _scan_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    s = draw(st.integers(min_value=1, max_value=20))
    r_max = n - 1 if s == 1 else (n - 1) // 2
    r = draw(st.integers(min_value=0, max_value=r_max))
    m = draw(st.integers(min_value=1, max_value=hilbert._TABLED_M + 20))  # across the table end
    # stop at or below m (an empty range), just above it, or far past it
    offset = draw(
        st.one_of(
            st.integers(min_value=-3, max_value=0),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=4, max_value=4 * m + 40),
        )
    )
    return n, r, s, m, m + offset


@given(_scan_cases())
@example((3, 1, 6, 11, 60))  # first positive t = 43, far above m
@example((3, 1, 6, 11, 44))  # the first positive t is the last of the range
@example((3, 1, 6, 11, 43))  # the range ends just below it: None
@example((7, 3, 2, 5, 20))  # first positive t = 10
@example((4, 1, 9, 2, 1))  # stop below m
@example((3, 1, 6, 100, 387))  # the least t = 386 is stop - 1, past the table
@example((3, 1, 1, 5, 60))  # the least t is m: the walk down passes below m
@example((2, 0, 20, 3, 100))  # the walk passes below m, then bisects (m - 1, 36]
@example((3, 1, 1, 5, 6))  # stop = m + 1, positive at m
@example((3, 1, 6, 11, 12))  # stop = m + 1, not positive: None
@example((3, 1, 6, 70, 300))  # m > _TABLED_M: the row comes from count_in_t; t = 271
def test_first_positive_matches_direct_scan(case):
    n, r, s, m, stop = case
    fam = family(n, r)
    t = fam.first_positive(s, m, stop)
    assert t == _first_positive_direct(n, r, s, m, stop)
    if t is not None:
        assert fam.hilbert_value(s, m, t) == binom(t + n, n) - s * conditions_count(n, r, m, t) > 0


@st.composite
def _rise_cases(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    m = draw(st.integers(min_value=1, max_value=5))
    t = draw(st.integers(min_value=m, max_value=m + 6))
    return n, r, m, t


@given(_rise_cases())
@example((3, 1, 4, 4))
@example((5, 0, 1, 1))
def test_monomial_count_rises_no_faster_than_all_monomials(case):
    # pairing each counted monomial of degree t + 1 with each variable
    # dividing it; equality for all monomials, C(t + n, n)
    n, r, m, t = case
    lower, upper = (conditions_count_oracle(n, r, m, d) for d in (t, t + 1))
    assert (t + 1) * upper <= (t + n + 1) * lower
    assert (t + 1) * binom(t + 1 + n, n) == (t + n + 1) * binom(t + n, n)


@st.composite
def _hilbert_rise_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    s = draw(st.integers(min_value=1, max_value=60))
    r = draw(st.integers(min_value=0, max_value=n - 1 if s == 1 else (n - 1) // 2))
    m = draw(st.integers(min_value=1, max_value=60))
    t = draw(st.integers(min_value=m, max_value=12 * m + 40))
    return n, r, s, m, t


@settings(max_examples=300)
@given(_hilbert_rise_cases())
@example((3, 1, 6, 7, 27))  # the first positive value of six lines at m = 7
@example((2, 0, 9, 4, 12))  # P_m(3m) = 1 for nine points in P^2
def test_positive_hilbert_values_stay_positive_and_rise(case):
    n, r, s, m, t = case
    here, after = (binom(d + n, n) - s * _count_sum(n, r, m, d) for d in (t, t + 1))
    if here > 0:
        assert after > here


def test_family_built_once_across_s_and_m(monkeypatch):
    # every count, scan and certificate of (n, r) reads one family
    import fatflats.hilbert as hilbert

    builds = []

    class Counting(hilbert.Family):
        __slots__ = ()

        def __init__(self, n, r):
            builds.append((n, r))
            super().__init__(n, r)

    monkeypatch.setattr(hilbert, "Family", Counting)
    hilbert.family.cache_clear()
    try:
        for s in range(1, 9):
            for m in (1, 2, 7, 30, 500):
                for stop in (m + 2, 4 * m + 9):
                    direct = _first_positive_direct(7, 3, s, m, stop)
                    assert hilbert.family(7, 3).first_positive(s, m, stop) == direct
                assert conditions_count(7, 3, m, m + 9) == _count_sum(7, 3, m, m + 9)
        assert builds == [(7, 3)]
        for s in (2, 5, 6, 7):
            with suppress(CertificationError):
                e_certify(3, 1, s, e_empirical(3, 1, s, m_max=20).ratio)
        assert builds == [(7, 3), (3, 1)]
    finally:
        hilbert.family.cache_clear()


def test_family_regrouping_matches_symbolic_expansion():
    # the counts against the BiPoly path, and the ray t = e * m at a few e
    for n in range(1, 13):
        for r in range((n - 1) // 2 + 1):
            fam = family(n, r)
            terms = {(a, b): c for a, row in enumerate(fam.counts) for b, c in enumerate(row) if c}
            assert BiPoly(terms) == factorial(n) * conditions_poly_symbolic(n, r)
            for s in (2, 9):
                symbolic = (factorial(n) * hilbert_poly_symbolic(n, r, s)).terms
                for e in (F(1), F(3, 2), F(27, 7), F(5, 3)):
                    # t^a m^b at t = m*e adds coef * e^a to c_{a+b}(e)
                    cs = [F(0)] * (n + 1)
                    for (a, b), coef in symbolic.items():
                        cs[a + b] += coef * e**a
                    p, q = e.numerator, e.denominator
                    ray = fam.along(s, q, 0, p, 0)
                    assert ray == UniPoly([0] + [cs[i] * q**i for i in range(1, n + 1)])
                    top = ray.coeffs[n] if ray.degree == n else 0
                    assert top == factorial(n) * lambda_poly(n, r, s)(e) * q**n


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
    st.integers(1, 60),
    st.integers(1, 12),
    st.integers(0, 11),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 8),
)
def test_along_is_the_hilbert_polynomial_on_a_line(family_nr, s, q, j, dp, dc, k):
    # m = q*k + j >= 1 and t = p*k + c >= m for every k >= 0
    (n, r), j = family_nr, j % q + 1
    p, c = q + dp, j + dc
    line = family(n, r).along(s, q, j, p, c)
    assert line.den == 1 and line.degree <= n
    m, t = q * k + j, p * k + c
    assert line(k) == factorial(n) * (comb(t + n, n) - s * conditions_count(n, r, m, t) - 1)


def test_family_counts_are_integer_polynomials_of_degree_n():
    for n in range(1, 13):
        for r in range(n):
            fam = family(n, r)
            assert fam.scale == factorial(n)
            assert len(fam.counts) == r + 1
            assert all(len(row) == n + 1 - a for a, row in enumerate(fam.counts))
            assert all(type(c) is int for row in fam.counts for c in row)


def test_family_rows_are_horner_on_counts_across_the_table_end():
    end = hilbert._TABLED_M
    for n in range(1, 13):
        for r in range(n):
            fam = family(n, r)
            assert type(fam.rows) is tuple and len(fam.rows) == end + 1
            assert all(type(row) is tuple for row in fam.rows)
            for m in range(end + 11):
                want = tuple(hilbert._horner(row, m) for row in fam.counts)
                assert fam.count_in_t(m) == want, (n, r, m)
                assert (m <= end) == (fam.count_in_t(m) is fam.rows[min(m, end)])


def test_counts_agree_with_the_oracle_on_both_sides_of_the_table_end():
    end = hilbert._TABLED_M
    for n in (2, 3):
        for r in range(n):
            for m in (end - 1, end, end + 1, end + 2):
                assert conditions_count(n, r, m, m) == conditions_count_oracle(n, r, m, m), (n, r, m)
            assert conditions_count(n, r, end + 1, end + 3) == conditions_count_oracle(n, r, end + 1, end + 3)


def test_a_huge_multiplicity_leaves_the_table_as_built():
    fam = family(3, 1)
    rows = fam.rows
    assert conditions_count(3, 1, 10**12, 10**12) == conditions_count_lines(3, 10**12, 10**12)
    assert fam.rows is rows and len(fam.rows) == hilbert._TABLED_M + 1


@st.composite
def _count_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    m = draw(st.integers(min_value=1, max_value=6))
    t = draw(st.integers(min_value=m, max_value=m + 5))
    return n, r, m, t


@given(_count_cases())
@example((3, 1, 4, 4))
@example((6, 2, 5, 5))
def test_family_count_matches_sum_and_oracle(case):
    n, r, m, t = case
    want = _count_sum(n, r, m, t)
    assert family(n, r).count(m, t) == want
    assert conditions_count(n, r, m, t) == want
    assert conditions_count_oracle(n, r, m, t) == want


def test_family_count_below_t_equals_m():
    # the family polynomial is the count down to t = m - r - 1, and 0 at m = 0
    for n in range(1, 10):
        for r in range(n):
            fam = family(n, r)
            assert fam.count(0, 5) == 0
            for m in range(1, 9):
                for t in range(max(0, m - r - 1), m + 3):
                    assert fam.count(m, t) == _count_sum(n, r, m, t)


def test_conditions_lines_validates_through_the_domain_check():
    with pytest.raises(ValueError, match="flat dimension"):
        conditions_count_lines(1, 2, 3)
    with pytest.raises(ValueError, match="multiplicity must be >= 1"):
        conditions_count_lines(3, 0, 3)
    with pytest.raises(ValueError, match="requires t >= m"):
        conditions_count_lines(3, 4, 3)


def test_one_validator_rejects_t_below_m():
    for count in (conditions_count, conditions_count_oracle):
        with pytest.raises(ValueError, match="requires t >= m"):
            count(3, 1, 4, 3)
    with pytest.raises(ValueError, match="requires t >= m"):
        check_flat_domain(3, 1, m=4, t=3)
    check_flat_domain(3, 1, m=4, t=4)


def test_a_degree_without_a_multiplicity_is_a_value_error():
    with pytest.raises(ValueError, match="a degree needs a multiplicity"):
        check_flat_domain(3, 1, t=5)


def test_identity_sums_share_one_check():
    for identity in (identity_sum_binom, identity_sum_i_binom):
        for a, m in ((-1, 2), (2, 0)):
            with pytest.raises(ValueError, match="need a >= 0 and m >= 1"):
                identity(a, m)
