import random
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflats.asymptotic import (
    _root_bounds,
    g_specials,
    g_value,
    lambda_poly,
    lambda_poly_via_leading,
    tower_check,
)
from fatflats.polynomials import UniPoly, poly_gcd
from fatflats.roots import count_roots_in, isolate_largest_root
from test_roots import _plain_g, _same_root


def test_lambda_closed_forms():
    assert lambda_poly(3, 1, 6) == UniPoly([12, -18, 0, 1]) * F(1, 6)
    for n, s in [(2, 5), (3, 4), (5, 9)]:
        assert lambda_poly(n, 0, s) == (UniPoly([0] * n + [1]) - UniPoly([s])) * F(
            1, factorial(n)
        )
    for n, s in [(3, 2), (4, 9), (6, 5)]:
        expected = UniPoly([(n - 1) * s, -n * s] + [0] * (n - 2) + [1]) * F(1, factorial(n))
        assert lambda_poly(n, 1, s) == expected


def test_lambda_domain():
    with pytest.raises(ValueError):
        lambda_poly(3, 2, 2)
    with pytest.raises(ValueError):
        lambda_poly(3, 1, 0)
    lambda_poly(3, 2, 1)  # single flat: no disjointness constraint


def _double_sum_lambda(n, r, s):
    """n! lambda = tau^n - s sum_j C(n, j) sum_k C(j, k) (-1)^(j - k) tau^k,
    (tau - 1)^j expanded term by term, over n!."""
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for j in range(r + 1):
        for k in range(j + 1):
            coeffs[k] -= s * comb(n, j) * comb(j, k) * (-1) ** (j - k)
    return UniPoly(coeffs, factorial(n))


def test_lambda_poly_matches_the_double_sum():
    # the O(r) closed form against (tau - 1)^j expanded, for every r < n
    for n in range(1, 15):
        for r in range(n):
            for s in (1, 2, 7, 100, 10**30):
                if s == 1 or n >= 2 * r + 1:
                    assert lambda_poly(n, r, s) == _double_sum_lambda(n, r, s), (n, r, s)


@st.composite
def lambda_configs(draw):
    """(n, r, s) with n <= 40 and s <= 10^30; r < n, and n >= 2r + 1 once s >= 2."""
    n = draw(st.integers(1, 40))
    s = draw(st.one_of(st.just(1), st.integers(2, 10**30)))
    r = draw(st.integers(0, n - 1 if s == 1 else (n - 1) // 2))
    return n, r, s


@settings(max_examples=200)
@given(lambda_configs())
def test_lambda_coefficients_match_double_sum(config):
    assert lambda_poly(*config) == _double_sum_lambda(*config)


def test_leading_extraction_matches_closed_form():
    for n in range(1, 13):
        for r in range((n - 1) // 2 + 1):
            for s in (1, 2, 5, 10, 100):
                assert lambda_poly(n, r, s) == lambda_poly_via_leading(n, r, s)


def test_tower_examples():
    assert tower_check(3, 1, 6)
    assert lambda_poly(3, 1, 6).derivative() == lambda_poly(2, 0, 6)
    assert tower_check(5, 2, 2)
    assert lambda_poly(5, 2, 2)(1) == F(-1, 120)
    assert lambda_poly(4, 1, 1)(1) == 0  # s = 1 collapses the value at 1


def test_tower_on_grid():
    for n in range(3, 9):
        for r in range(1, (n - 1) // 2 + 1):
            for s in (1, 2, 5, 10, 100):
                assert tower_check(n, r, s)


def test_g_table_values():
    approx = {2: 2.0, 3: 2.5842, 4: 3.0642, 5: 3.4826}
    for s, value in approx.items():
        g = g_value(3, 1, s)
        assert abs(float(g.midpoint) - value) < 1e-3
    g6 = g_value(3, 1, 6)
    assert abs(float(g6.midpoint) - 3.8587837) < 1e-6


def test_g_exact_cases():
    three = g_value(2, 0, 9)
    assert three.is_exact and three.value == 3
    assert g_value(11, 2, 729).is_exact and g_value(11, 2, 729).value == 3
    for r in range(1, 11):
        g = g_value(2 * r + 1, r, 2)
        assert g.is_exact and g.value == 2
    one = g_value(5, 2, 1)
    assert one.is_exact and one.value == 1


def test_g_points_defining_polynomial():
    for n in range(2, 7):
        for s in (2, 3, 9, 100):
            g = g_value(n, 0, s)
            assert g.defining == UniPoly([-s] + [0] * (n - 1) + [1])
            if g.is_exact:
                assert g.value**n == s


def test_g_precision_request():
    g = g_value(3, 1, 6, F(1, 10**6))
    assert g.hi - g.lo <= F(1, 10**6)
    assert lambda_poly(3, 1, 6)(g.lo) < 0 < lambda_poly(3, 1, 6)(g.hi)


def test_g_monotone_in_tower():
    # strict growth along the differentiation tower needs s >= 2
    for n in range(3, 9):
        for r in range(1, (n - 1) // 2 + 1):
            for s in (2, 5, 10, 100):
                upper = g_value(n, r, s)
                lower = g_value(n - 1, r - 1, s)
                assert upper.lo > lower.hi


def test_sign_profile():
    lam = lambda_poly(3, 1, 6)
    assert lam(1) == F(-5, 6)
    assert lam(4) == F(4, 6)


def test_g_specials_rows():
    rows = g_specials()
    assert [row.n for row in rows] == [3, 4, 5, 6, 7, 8]
    assert all(row.ok for row in rows)
    assert rows[0].s == 2 and rows[0].root == 2
    assert rows[1].s == 9 and rows[1].root == 3
    # direct evaluations behind two of the rows
    assert lambda_poly(4, 1, 9)(3) == 0
    assert lambda_poly(5, 1, 64)(4) == 0


def test_g_value_reads_no_sturm_chain(monkeypatch):
    # Descartes decides g's count for every s, the repeated root at 1 of
    # s = 1 included, so no chain is read at any point
    import fatflats.roots as roots

    calls = []
    variations = roots.sign_variations

    def counting(chain, x):
        calls.append(x)
        return variations(chain, x)

    monkeypatch.setattr(roots, "sign_variations", counting)
    g_one, g_six = g_value(3, 1, 1), g_value(3, 1, 6)
    assert calls == []
    monkeypatch.undo()
    assert g_one == roots.isolate_largest_root(lambda_poly(3, 1, 1), F(1))
    assert g_six == _plain_g(3, 1, 6, roots.DEFAULT_PRECISION)
    assert _same_root(g_six, roots.isolate_largest_root(lambda_poly(3, 1, 6), F(1)))


def _shifted_closed_form(n, r, s):
    """A(y) = n! lambda(1 + y) = (1 + y)^n - s sum_{j <= r} C(n, j) y^j."""
    return UniPoly([1, 1]) ** n - UniPoly([s * comb(n, j) for j in range(r + 1)])


def test_lambda_is_squarefree_for_s_at_least_two():
    # the two facts g_value's chain-free count rests on, for every r < n
    y = UniPoly([0, 1])
    for n in range(1, 13):
        for r in range(n):
            for s in range(2, 101):
                a, b = _shifted_closed_form(n, r, s), _shifted_closed_form(n - 1, r - 1, s)
                assert a.derivative() == b * n  # the tower identity
                assert a - (UniPoly([1]) + y) * b == UniPoly([0] * r + [-s * comb(n - 1, r)])
                assert poly_gcd(a, a.derivative()) == UniPoly([1])
                if n >= 2 * r + 1:
                    lam = lambda_poly(n, r, s)
                    assert poly_gcd(lam, lam.derivative()) == UniPoly([1])
                    assert all(a(k) == factorial(n) * lam(1 + k) for k in range(n + 1))


def test_s_one_is_the_exact_root_one():
    # A(y) = n! lambda(1 + y) = sum_{j > r} C(n, j) y^j at s = 1: no sign
    # variation, so no root above 1, and 1 is a root of multiplicity r + 1
    tau_minus_one = UniPoly([-1, 1])
    for n in range(1, 13):
        for r in range(n):
            a = _shifted_closed_form(n, r, 1)
            assert min(a.coeffs) >= 0 and not any(a.coeffs[: r + 1])
            if n >= 2 * r + 1:
                lam = lambda_poly(n, r, 1)
                g = g_value(n, r, 1)
                assert g.is_exact and g.value == 1
                # the primitive squarefree part: the factor left after (tau - 1)^r
                assert g.defining * tau_minus_one**r * F(lam.leading, g.defining.leading) == lam
                assert poly_gcd(g.defining, g.defining.derivative()) == UniPoly([1])


def test_root_bounds_hold_on_the_roots_grid():
    # g_value bisects (1, up]: lambda > 0 at up, and g is its one root there
    for n in range(2, 13):
        for r in range((n - 1) // 2 + 1):
            for s in range(2, 101):
                up = _root_bounds(n, r, s)
                lam = lambda_poly(n, r, s)
                assert up >= 2 and lam.sign(up) > 0 and count_roots_in(lam, 1, up) == 1, (n, r, s)


def test_g_value_checks_its_power_of_two_bracket(monkeypatch):
    # g(3, 1, 6) ~ 3.86 and g(4, 1, 10) ~ 3.12 lie above a bound of 2: the
    # count over (1, 2] reads lambda < 0 at 2 and refuses the bracket
    import fatflats.asymptotic as asymptotic

    monkeypatch.setattr(asymptotic, "_root_bounds", lambda n, r, s: 2)
    for config in [(3, 1, 6), (4, 1, 10)]:
        with pytest.raises(ArithmeticError):
            g_value(*config)


@pytest.mark.parametrize("width", [F(2), F(1), F(1, 2), F(1, 10**12), F(1, 10**50)])
def test_g_value_matches_the_chain_isolator(width):
    # isolate_largest_root halves from the Cauchy bound, counting roots where
    # g_value bisects (1, up]: the same root, and plain bisection's bytes
    rng = random.Random(27)
    configs = [(n, r) for n in range(2, 13) for r in range((n - 1) // 2 + 1)]
    for n, r in rng.sample(configs, 12):
        for s in rng.sample(range(1, 101), 6):
            g = g_value(n, r, s, width)
            assert _same_root(g, isolate_largest_root(lambda_poly(n, r, s), F(1), width)), (n, r, s, width)
            assert s == 1 or g == _plain_g(n, r, s, width), (n, r, s, width)
