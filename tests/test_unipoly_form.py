"""UniPoly's one representation: integer numerators over one positive denominator.

The ring operations are checked against a plain Fraction-list reference
that lives only here.
"""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fatflats.polynomials import UniPoly

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
coeff_lists = st.lists(rationals, max_size=6)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    size = max(len(a), len(b))
    a, b = list(a) + [F(0)] * (size - len(a)), list(b) + [F(0)] * (size - len(b))
    return _trim(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_primitive(a):
    if not a:
        return ()
    scale = lcm(*[c.denominator for c in a])
    ints = [int(c * scale) for c in a]
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return tuple(F(c // g) for c in ints)


def _assert_canonical(p):
    assert all(type(c) is int for c in p.nums) and type(p.den) is int
    assert p.den > 0
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


@given(coeff_lists)
def test_canonical_state(cs):
    p = UniPoly(cs)
    _assert_canonical(p)
    assert p.coeffs == _trim(cs)


@given(st.lists(st.integers(-10**6, 10**6), max_size=6), st.integers(1, 10**4))
def test_integers_over_a_denominator(ints, d):
    p, q = UniPoly(ints, d), UniPoly([F(c, d) for c in ints])
    assert p == q and hash(p) == hash(q)
    assert (p.nums, p.den) == (q.nums, q.den)


@given(coeff_lists, coeff_lists, rationals)
def test_operations_match_fraction_lists(a, b, k):
    p, q = UniPoly(a), UniPoly(b)
    a, b = _trim(a), _trim(b)
    for r in (p + q, p - q, -p, p * q, p * k, p.derivative(), p.monic(), p.primitive()):
        _assert_canonical(r)
    assert (p + q).coeffs == _ref_add(a, b)
    assert (p - q).coeffs == _ref_add(a, [-c for c in b])
    assert (-p).coeffs == _trim(-c for c in a)
    assert (p * q).coeffs == _ref_mul(a, b)
    assert (p * k).coeffs == (k * p).coeffs == _trim(c * k for c in a)
    assert p.derivative().coeffs == _trim([i * c for i, c in enumerate(a)][1:])
    assert p.primitive().coeffs == _ref_primitive(a)
    if a:
        assert p.monic().coeffs == tuple(c / a[-1] for c in a)
        assert p.leading == a[-1]
    else:
        assert p.monic().is_zero


def test_construction_accepts_what_fraction_accepts():
    p = UniPoly(["1/2", 0.25, F(3, 4), 1, "0"])
    assert p.coeffs == (F(1, 2), F(1, 4), F(3, 4), F(1))
    assert (p.nums, p.den) == ([2, 1, 3, 4], 4)
    assert UniPoly([0, 0], 6) == UniPoly() and UniPoly([0], 6).den == 1
    assert UniPoly.from_json(p.to_json()) == p


def test_denominator_must_be_positive():
    for den in (0, -3):
        with pytest.raises(ValueError):
            UniPoly([1, 2], den)
