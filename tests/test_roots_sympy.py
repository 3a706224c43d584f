"""Differential tests of root counting and isolation against sympy.

sympy is not a dependency of fatflats; these tests run only where it is
installed.  sympy counts distinct real roots on a closed interval, the
library on the half-open (lo, hi].
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflats.polynomials import UniPoly, poly_gcd, squarefree_part
from fatflats.roots import count_roots_in, isolate_largest_root

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def _rational(q: F):
    return sympy.Rational(q.numerator, q.denominator)


def _fraction(q) -> F:
    return F(int(q.p), int(q.q))


def _to_sympy(p: UniPoly):
    return sympy.Poly([int(c) for c in reversed(p.coeffs)], X)


def _from_sympy(poly) -> UniPoly:
    return UniPoly([_fraction(c) for c in reversed(poly.all_coeffs())])


@st.composite
def integer_polys(draw):
    """A small integer polynomial times powers of small factors, so repeated
    rational and irrational roots both occur."""
    def nonzero(size):
        return st.lists(st.integers(-6, 6), min_size=1, max_size=size).filter(any)

    p = UniPoly(draw(nonzero(4)))
    for factor, power in draw(st.lists(st.tuples(nonzero(3), st.integers(1, 3)), max_size=2)):
        p = p * UniPoly(factor) ** power
    return p


endpoints = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(deadline=None)
@given(integer_polys(), endpoints, endpoints)
def test_count_matches_sympy(p, a, b):
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        hi += 1
    sp = _to_sympy(p)
    closed = sp.count_roots(_rational(lo), _rational(hi))
    assert count_roots_in(p, lo, hi) == closed - (1 if sp.eval(_rational(lo)) == 0 else 0)


@settings(deadline=None)
@given(
    integer_polys(),
    st.integers(0, 3),
    st.one_of(st.none(), st.fractions(min_value=0, max_value=6, max_denominator=4).filter(bool)),
)
def test_count_from_zero_matches_sympy(p, zeros, hi):
    # lo = 0 takes no Taylor shift: x^zeros puts a root at 0 and zero low
    # coefficients; no hi counts on (0, infinity)
    p = p * UniPoly([0, 1]) ** zeros
    sp = _to_sympy(p)
    closed = sp.count_roots(0, None if hi is None else _rational(hi))
    assert count_roots_in(p, 0, hi) == closed - (1 if sp.eval(0) == 0 else 0)


@settings(deadline=None)
@given(integer_polys(), endpoints, st.sampled_from([F(1, 10), F(1, 1000), F(1, 10**12)]))
def test_isolated_interval_holds_sympys_largest_root(p, lower, width):
    sp = _to_sympy(p)
    top = isolate_largest_root(p, lower, width)
    intervals = [(_fraction(a), _fraction(b)) for (a, b), _ in sp.intervals()]
    # sympy's intervals are disjoint, and the last one holds the largest root
    a, b = max(intervals, key=lambda iv: iv[1], default=(None, None))
    if b is None or b < lower or sp.count_roots(_rational(max(a, lower)), _rational(b)) == 0:
        assert top is None
        return
    assert top is not None
    assert top.hi - top.lo <= width
    left, right = max(a, top.lo), min(b, top.hi)
    assert left <= right
    # [a, b] holds no other root, so a root in the overlap is the largest one
    assert sp.count_roots(_rational(left), _rational(right)) >= 1
    if top.is_exact:
        assert sp.eval(_rational(top.value)) == 0


@settings(deadline=None)
@given(integer_polys(), endpoints)
def test_bisection_brackets_sympys_extreme_root(p, lower):
    sp = _to_sympy(p)
    # sympy's isolating intervals of the roots >= lower, which may start at lower
    inside = [(_fraction(u), _fraction(v)) for (u, v), _ in sp.intervals(inf=_rational(lower))]
    found = isolate_largest_root(p, lower, F(1, 1000))
    if not inside:
        assert found is None
        return
    u, v = max(inside)
    left, right = max(u, found.lo), min(v, found.hi)
    assert found.hi - found.lo <= F(1, 1000) and left <= right
    assert sp.count_roots(_rational(left), _rational(right)) >= 1


@settings(deadline=None)
@given(integer_polys(), integer_polys(), integer_polys())
def test_gcd_and_squarefree_part_match_sympy(a, b, shared):
    a, b = a * shared, b * shared
    assert poly_gcd(a, b) == _from_sympy(sympy.gcd(_to_sympy(a), _to_sympy(b)).monic())
    # sympy's squarefree part is primitive with a positive leading coefficient
    assert squarefree_part(a).primitive() == _from_sympy(sympy.sqf_part(_to_sympy(a)))
