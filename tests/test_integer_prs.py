"""Integer pseudo-remainder chains, gcds and the integer lambda closed form,
checked against the rational constructions they replace.

The references below (Euclid over ``Fraction``, the power expansion of
(tau - 1)^j) live only in this file.
"""

import json
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fatflats.asymptotic import lambda_poly
from fatflats.hilbert import check_flat_domain, conditions_count
from fatflats.polynomials import UniPoly, binom, poly_gcd, squarefree_part
from fatflats.roots import sign_variations, sturm_chain
from fatflats.waldschmidt import bounds_report


# ---- Fraction-Euclid references ---------------------------------------------


def _ref_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    rem = list(a.coeffs)
    quot = [F(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    while rem and len(rem) >= len(b.coeffs):
        k = len(rem) - len(b.coeffs)
        f = quot[k] = rem[-1] / b.leading
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= f * c
        while rem and rem[-1] == 0:
            rem.pop()
    return UniPoly(quot), UniPoly(rem)


def _ref_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    while not b.is_zero:
        a, b = b, _ref_divmod(a, b)[1]
    return a.monic()


def _ref_squarefree(p: UniPoly) -> UniPoly:
    g = _ref_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = _ref_divmod(p, g)
    assert r.is_zero
    return q


def _ref_chain(p: UniPoly) -> list[UniPoly]:
    chain = [_ref_squarefree(p)]
    chain.append(chain[0].derivative())
    while not chain[-1].is_zero:
        chain.append(-_ref_divmod(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


# ---- strategies ---------------------------------------------------------------

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def _nonzero_poly(max_size):
    return st.lists(small_fractions, min_size=1, max_size=max_size).filter(any).map(UniPoly)


@st.composite
def rational_polys(draw):
    """A rational scalar (possibly negative) times a rational polynomial times
    repeated linear and quadratic factors; returns (p, rational roots of p)."""
    p = draw(_nonzero_poly(4)) * draw(small_fractions.filter(bool))
    roots = []
    for _ in range(draw(st.integers(0, 3))):
        root = draw(small_fractions)
        p = p * UniPoly([-root, 1]) ** draw(st.integers(1, 3))
        roots.append(root)
    for _ in range(draw(st.integers(0, 1))):
        p = p * draw(_nonzero_poly(3)) ** draw(st.integers(1, 2))
    return p, roots


# ---- chains, gcds, squarefree parts ------------------------------------------


@given(rational_polys(), st.lists(small_fractions, max_size=6))
def test_chain_matches_fraction_euclid(case, points):
    p, roots = case
    chain, ref = sturm_chain(p), _ref_chain(p)
    assert chain[:2] == ref[:2]
    assert len(chain) == len(ref)
    for mine, theirs in zip(chain, ref):  # positive multiples of one another
        assert mine.monic() == theirs.monic() and (mine.leading > 0) == (theirs.leading > 0)
    assert all(entry.primitive() in (entry, -entry) for entry in chain[2:])
    for x in points + roots:
        assert sign_variations(chain, x) == sign_variations(ref, x)


@given(rational_polys(), rational_polys(), _nonzero_poly(3))
def test_gcd_and_squarefree_match_fraction_euclid(a, b, shared):
    a, b = a[0] * shared, b[0] * shared
    assert poly_gcd(a, b) == _ref_gcd(a, b)
    assert poly_gcd(a, UniPoly()) == a.monic() and poly_gcd(UniPoly(), b) == b.monic()
    assert squarefree_part(a) == _ref_squarefree(a)


# ---- lambda --------------------------------------------------------------------


def _lambda_by_powers(n: int, r: int, s: int) -> UniPoly:
    shifted = UniPoly([-1, 1])
    correction = UniPoly()
    for j in range(r + 1):
        correction = correction + binom(n, j) * shifted**j
    return (UniPoly([0] * n + [1]) - s * correction) * F(1, factorial(n))


@pytest.mark.parametrize("s", [1, 2, 7, 100])
def test_lambda_matches_power_expansion(s):
    for n in range(1, 13):
        for r in range(n if s == 1 else (n - 1) // 2 + 1):
            assert lambda_poly(n, r, s) == _lambda_by_powers(n, r, s), (n, r, s)


# ---- bounds_report bytes -------------------------------------------------------

GOLDEN_BOUNDS = [(2, 0, 5), (3, 1, 6), (5, 0, 9), (4, 1, 10), (5, 2, 7), (8, 3, 20)]


def test_bounds_report_golden_bytes():
    # json.dumps of each report, captured before the chains were built in
    # integers: three certified configurations, then three uncertified
    golden = (Path(__file__).parent / "bounds_golden.jsonl").read_text().splitlines()
    got = [json.dumps(bounds_report(*config).to_json()) for config in GOLDEN_BOUNDS]
    assert got == golden
    assert [json.loads(line)["e_certified"] for line in golden] == [True] * 3 + [False] * 3


# ---- the one validator -----------------------------------------------------------


def test_one_validator_covers_the_multiplicity():
    check_flat_domain(3, 1, 6, 4)
    with pytest.raises(ValueError, match="multiplicity must be >= 1, got m=0"):
        check_flat_domain(3, 1, m=0)
    with pytest.raises(ValueError, match="flat dimension"):
        conditions_count(3, 3, 2, 5)
    with pytest.raises(ValueError, match="multiplicity"):
        conditions_count(3, 1, 0, 5)
