import sys
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflats.hilbert import hilbert_poly_symbolic
from fatflats.polynomials import (
    BiPoly,
    UniPoly,
    binom,
    binom_poly,
    decimal_str,
    fraction_to_json,
    lagrange_interpolate,
    poly_divmod,
    poly_gcd,
    power_sum_poly,
    squarefree_part,
)


def test_binom_small_values():
    assert binom(6, 3) == 20
    assert binom(30, 3) == 4060
    assert binom(5, -1) == 0
    assert binom(5, 7) == 0
    assert binom(0, 0) == 1


def test_binom_rejects_negative_upper():
    with pytest.raises(ValueError):
        binom(-1, 0)


@given(st.integers(min_value=2, max_value=40), st.data())
def test_binom_pascal(a, data):
    b = data.draw(st.integers(min_value=1, max_value=a - 1))
    assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


def test_derivative_power_rule():
    p = UniPoly([12, -18, 0, 1])  # x^3 - 18x + 12
    assert p.derivative() == UniPoly([-18, 0, 3])
    assert UniPoly([5]).derivative().is_zero


@pytest.mark.parametrize("n,s", [(3, 4), (4, 2), (5, 7)])
def test_derivative_matches_tower_normalization(n, s):
    # d/dx (x^n - s)/n! = x^(n-1)/(n-1)!
    p = (UniPoly([0] * n + [1]) - UniPoly([s])) * F(1, factorial(n))
    expected = UniPoly([0] * (n - 1) + [1]) * F(1, factorial(n - 1))
    assert p.derivative() == expected


def test_eval_and_arithmetic():
    p = UniPoly([1, 2, 3])
    q = UniPoly([0, 1])
    assert p(2) == F(17)
    assert (p * q).coeffs == (F(0), F(1), F(2), F(3))
    assert (p - p).is_zero
    assert (q**3) == UniPoly([0, 0, 0, 1])
    assert sum([p, q, UniPoly()]) == UniPoly([1, 3, 3])


def test_divmod_and_gcd():
    p = UniPoly([-2, 1]) * UniPoly([3, 1]) * UniPoly([3, 1])
    q, r = poly_divmod(p, UniPoly([3, 1]))
    assert r.is_zero and q == UniPoly([-2, 1]) * UniPoly([3, 1])
    g = poly_gcd(p, p.derivative())
    assert g == UniPoly([3, 1]).monic()
    assert squarefree_part(p) == UniPoly([-2, 1]) * UniPoly([3, 1])


def test_primitive_normalization():
    p = UniPoly([F(2, 6), 0, F(1, 6)])
    assert p.primitive() == UniPoly([2, 0, 1])
    assert (-p).primitive() == UniPoly([2, 0, 1])


def test_binom_poly_matches_binom():
    p = binom_poly(3, 3)  # C(x + 3, 3)
    for t in range(0, 8):
        assert p(t) == binom(t + 3, 3)
    assert binom_poly(0, 0) == UniPoly([1])


def test_lagrange_and_power_sums():
    assert lagrange_interpolate([(0, 0), (1, 1), (2, 4)]) == UniPoly([0, 0, 1])
    assert power_sum_poly(0) == UniPoly([0, 1])
    assert power_sum_poly(1) == UniPoly([0, F(-1, 2), F(1, 2)])
    for j in range(5):
        p = power_sum_poly(j)
        for m in range(8):
            expected = sum((1 if (i, j) == (0, 0) else i**j) for i in range(m))
            assert p(m) == expected


def expand_scaled(bp: BiPoly) -> list[list]:
    """The c_i(x) of bp(m*x, m) = sum_i c_i(x) m^i (u = t, v = m), as
    coefficient lists: a term t^a m^b lands in c_{a+b} at x^a."""
    cs = [[F(0)] * (i + 1) for i in range(max(a + b for a, b in bp.terms) + 1)]
    for (a, b), coef in bp.terms.items():
        cs[a + b][a] = coef
    return [UniPoly(c).to_json() for c in cs]


def test_expand_scaled_frozen_points_case():
    # 6 * hilbert polynomial of four general fat points in P^3, multiplicity
    # symbolic: (t+3)(t+2)(t+1) - 4(m+2)(m+1)m regrouped under t = m*x
    assert expand_scaled(6 * hilbert_poly_symbolic(3, 0, 4)) == [
        [6],
        [-8, 11],
        [-12, 0, 6],
        [-4, 0, 0, 1],
    ]


def test_expand_scaled_frozen_lines_case():
    assert expand_scaled(6 * hilbert_poly_symbolic(3, 1, 6)) == [
        [6],
        [-30, 11],
        [-18, -18, 6],
        [12, -18, 0, 1],
    ]


def test_bipoly_arithmetic_round_trip():
    a = BiPoly({(1, 0): 1, (0, 1): -1})
    b = BiPoly({(1, 1): 2, (0, 0): 3})
    prod = a * b
    for u in range(-3, 4):
        for v in range(-3, 4):
            assert prod(u, v) == a(u, v) * b(u, v)
    assert (a - a).is_zero


def test_fraction_serialization():
    assert fraction_to_json(F(27, 7)) == "27/7"
    assert fraction_to_json(F(3, 2)) == "3/2"
    assert fraction_to_json(F(6, 3)) == 2


def test_decimal_rendering():
    assert decimal_str(F(3, 2)) == "1.5"
    assert decimal_str(F(2)) == "2"
    assert decimal_str(F(0)) == "0"
    assert decimal_str(F(-27, 7), 6) == "-3.85714"
    assert decimal_str(F(1, 1000000)) == "1e-6"
    assert decimal_str(F(10**12) + F(1, 2), 10) == "1e+12"
    assert decimal_str(F(1, 3), 4) == "0.3333"


def test_decimal_rounding_carries_into_the_next_decade():
    # rounding to sig digits gives sig + 1 digits, and the exponent moves up
    assert decimal_str(F(99999999999, 10**10)) == "10"
    assert decimal_str(F(-99999995, 10**7), 6) == "-10"
    assert decimal_str(F(999999999995, 10**17)) == "1e-5"


def _round_half_up(q, sig):
    """(digits, e) with digits * 10^(e + 1 - sig) the rounding of |q| != 0 to
    sig significant digits, half away from zero, and 10^e <= that < 10^(e + 1);
    integers only, no str()."""
    num, den = abs(q.numerator), q.denominator
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000  # about log10(2)
    while num * 10 ** max(-e, 0) < den * 10 ** max(e, 0):
        e -= 1
    while num * 10 ** max(-e - 1, 0) >= den * 10 ** max(e + 1, 0):
        e += 1
    shift = sig - 1 - e
    n, d = num * 10 ** max(shift, 0), den * 10 ** max(-shift, 0)
    digits = (2 * n + d) // (2 * d)
    if digits == 10**sig:  # the rounding carried into the next decade
        return 10 ** (sig - 1), e + 1
    return digits, e


@st.composite
def decimal_cases(draw):
    """(q, sig): a random rational, one with a numerator or denominator past
    CPython's default 4,300-digit cap on int-to-str, or an exact tie
    (2d + 1) / 2 * 10^j between two sig-digit roundings."""
    sig = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "huge", "tie"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "random":
        num, den = draw(st.integers(1, 10**80)), draw(st.integers(1, 10**80))
    elif kind == "huge":
        big = draw(st.integers(4300, 4600))
        num = draw(st.integers(1, 10**40)) * 10 ** draw(st.sampled_from([0, big]))
        den = draw(st.integers(1, 10**40)) * 10 ** draw(st.sampled_from([0, big])) + draw(st.integers(0, 1))
    else:
        d = draw(st.integers(10 ** (sig - 1), 10**sig - 1))
        j = draw(st.integers(-4400, 4400))
        num, den = (2 * d + 1) * 10 ** max(j, 0), 2 * 10 ** max(-j, 0)
    return sign * F(num, den), sig


@settings(max_examples=300)
@given(decimal_cases())
def test_decimal_str_matches_integer_rounding(case):
    q, sig = case
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4300)  # CPython's default cap on int-to-str
    text = decimal_str(q, sig)
    digits, e = _round_half_up(q, sig)
    assert F(text) == (1 if q > 0 else -1) * digits * F(10) ** (e + 1 - sig)
    mantissa, _, exponent = text.partition("e")
    assert not ("." in mantissa and mantissa.endswith(("0", ".")))
    assert bool(exponent) == (not -4 <= e < sig)
    if exponent:
        assert int(exponent) == e and len(mantissa.lstrip("-").split(".")[0]) == 1


def test_poly_json_round_trip():
    p = UniPoly([F(1, 6), -3, 2])
    assert UniPoly.from_json(p.to_json()) == p
    assert p.to_json() == ["1/6", -3, 2]
