import hashlib
import json
import sys
from fractions import Fraction as F
from math import ceil, isqrt, lcm
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatflats.asymptotic import _root_bounds, g_value, lambda_poly
from fatflats.polynomials import UniPoly, squarefree_part
from fatflats.roots import (
    AlgebraicNumber,
    _interval_eval,
    bisect_root,
    cauchy_root_bound,
    count_roots_in,
    exact_if_rational,
    isolate_largest_root,
    refine,
    sign_at,
    sign_variations,
    sturm_chain,
)


def _float_bisect(coeffs, lo, hi, steps=80):
    """Independent oracle: plain sign bisection, no chain machinery."""

    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + float(c)
        return acc

    assert f(lo) * f(hi) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_count_examples():
    assert count_roots_in(UniPoly([4, -6, 0, 1]), F(1), F(10)) == 1
    assert count_roots_in(UniPoly([1, 0, 1]), F(-10), F(10)) == 0
    assert count_roots_in(UniPoly([12, -18, 0, 1]), F(1), F(10)) == 1


def test_count_half_open_endpoints():
    p = UniPoly([0, -1, 0, 1])  # x(x-1)(x+1)
    assert count_roots_in(p, F(0), F(1)) == 1  # root at 1 included, 0 excluded
    assert count_roots_in(p, F(-1), F(0)) == 1
    assert count_roots_in(p, F(-2), F(1)) == 3


def test_count_decided_by_descartes_builds_no_chain(monkeypatch):
    built = _count_chains(monkeypatch)
    # (1 + y)^3 - 18 (1 + y) + 12 = y^3 + 3y^2 - 15y - 5: one variation above 1
    assert count_roots_in(UniPoly([12, -18, 0, 1]), F(1), F(10)) == 1
    assert count_roots_in(UniPoly([12, -18, 0, 1]), F(1), F(3)) == 0
    assert count_roots_in(UniPoly([0, -1, 0, 1]), F(0), F(1)) == 1  # the root at hi counts
    assert count_roots_in(UniPoly([1, 0, 1]), F(0), F(10)) == 0  # no variation
    assert built == []
    assert count_roots_in(UniPoly([1, 0, 1]), F(-10), F(10)) == 0  # y^2 - 20y + 101: two
    assert len(built) == 1
    assert count_roots_in(UniPoly([0, -1, 0, 1]), F(-2), F(1)) == 3  # three variations
    assert len(built) == 2


@st.composite
def counting_cases(draw):
    """(p, lo, hi): a random integer polynomial times (x - lo)^i (x - hi)^j,
    i, j <= 2, and at times the square of a random factor."""
    lo = draw(st.fractions(min_value=-4, max_value=4, max_denominator=7))
    hi = lo + draw(st.fractions(min_value=0, max_value=6, max_denominator=9).filter(bool))
    p = UniPoly(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6)))
    assume(not p.is_zero)
    for end in (lo, hi):
        p = p * UniPoly([-end, 1]) ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        h = UniPoly(draw(st.lists(st.integers(-5, 5), min_size=2, max_size=3)))
        p = p * h * h if h.degree > 0 else p
    return p, lo, hi


@settings(max_examples=300)
@given(counting_cases())
def test_descartes_count_matches_the_sturm_count(case):
    p, lo, hi = case
    chain = sturm_chain(p)
    assert count_roots_in(p, lo, hi) == sign_variations(chain, lo) - sign_variations(chain, hi)


def test_count_rejects_zero_and_bad_interval():
    with pytest.raises(ValueError):
        count_roots_in(UniPoly(), F(0), F(1))
    with pytest.raises(ValueError):
        count_roots_in(UniPoly([1, 1]), F(2), F(1))


def test_isolate_irrational_roots():
    frozen = _float_bisect([12, -18, 0, 1], 1.0, 10.0)
    root = isolate_largest_root(UniPoly([12, -18, 0, 1]), F(1))
    assert not root.is_exact
    assert root.hi - root.lo <= F(1, 10**12)
    assert abs(root.midpoint - F(frozen).limit_denominator(10**9)) < F(1, 10**8)
    cbrt4 = _float_bisect([-4, 0, 0, 1], 1.0, 2.0)
    root2 = isolate_largest_root(UniPoly([-4, 0, 0, 1]), F(1))
    assert abs(float(root2.midpoint) - cbrt4) < 1e-9


def test_isolate_rational_and_missing_roots():
    one = isolate_largest_root(UniPoly([-1, 1]), F(1))
    assert one.is_exact and one.value == 1
    assert isolate_largest_root(UniPoly([1, 0, 1]), F(0)) is None
    # largest root below the cutoff
    assert isolate_largest_root(UniPoly([-1, 1]), F(2)) is None


def test_isolate_detects_simple_rationals():
    p = UniPoly([-3, 1]) * UniPoly([1, 2]) * UniPoly([5, 0, 1])
    root = isolate_largest_root(p, F(0))
    assert root.is_exact and root.value == 3
    half = isolate_largest_root(UniPoly([-1, 2]) * UniPoly([7, 0, 3]), F(0))
    assert half.is_exact and half.value == F(1, 2)


def test_isolate_repeated_roots_use_squarefree_part():
    p = UniPoly([-1, 1]) ** 2 * UniPoly([2, 1])
    assert count_roots_in(p, F(-3), F(3)) == 2
    root = isolate_largest_root(p, F(-3))
    assert root.is_exact and root.value == 1


def test_count_with_hidden_double_root():
    # x^6 + 2x^4 - 5x^2 + 4x + 6 has a double root at -1 that float root
    # finders split into a complex pair; the chain on the squarefree part
    # counts it once, exactly
    p = UniPoly([6, 4, -5, 0, 2, 0, 1])
    assert p(-1) == 0 and p.derivative()(-1) == 0
    assert count_roots_in(p, F(-6), F(9)) == 1
    top = isolate_largest_root(p, F(-6))
    assert top.is_exact and top.value == -1


def test_isolate_zero_poly_rejected():
    with pytest.raises(ValueError):
        isolate_largest_root(UniPoly(), F(0))


@given(
    st.lists(
        st.fractions(min_value=-8, max_value=8, max_denominator=6),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    st.integers(min_value=1, max_value=3),
)
def test_counts_match_constructed_roots(roots, lead):
    p = UniPoly([lead])
    for r in roots:
        p = p * UniPoly([-r, 1])
    bound = cauchy_root_bound(p)
    assert count_roots_in(p, -bound, bound) == len(roots)
    top = isolate_largest_root(p, -bound)
    assert top.is_exact and top.value == max(roots)
    # distinct fractions with denominators <= 6 lie at least 1/36 apart, so
    # (top - 1/36, bound] holds the top root alone
    top_root = max(roots)
    assert count_roots_in(p, top_root - F(1, 36), bound) == 1


def test_sign_scan_oracle_on_separated_roots():
    # deterministic family with roots at least 1/100 apart; a 1e-3 grid scan
    # of sign changes must agree with the chain count
    families = [
        [F(-2), F(0), F(1), F(5, 2)],
        [F(-15, 4), F(-1, 3), F(2)],
        [F(1, 7), F(3, 7), F(6, 7)],
    ]
    for roots in families:
        p = UniPoly([1])
        for r in roots:
            p = p * UniPoly([-r, 1])
        lo, hi = F(-4), F(3)
        step = F(1, 1000)
        changes = 0
        prev = p(lo)
        x = lo + step
        while x <= hi:
            cur = p(x)
            if prev * cur < 0:
                changes += 1
            if cur != 0:
                prev = cur
            x += step
        exact = count_roots_in(p, lo, hi)
        assert changes <= exact <= changes + 1  # roots on grid points count exactly
        assert exact == len(roots)


def test_refine_and_sign_at():
    p = UniPoly([-2, 0, 1])  # sqrt(2)
    root = isolate_largest_root(p, F(0), F(1, 100))
    tight = refine(root, F(1, 10**20))
    assert tight.hi - tight.lo <= F(1, 10**20)
    assert sign_at(tight, UniPoly([-2, 0, 1])) == 0
    assert sign_at(tight, UniPoly([-1, 1])) == 1  # sqrt(2) - 1 > 0
    assert sign_at(tight, UniPoly([3, -2])) == 1  # 3 - 2*sqrt(2) > 0
    assert sign_at(root, UniPoly([F(-3, 2), 1])) == -1  # sqrt(2) < 3/2, coarse interval



def test_sign_at_refuses_a_root_at_lo_at_once():
    # the bracket is (lo, hi]: x - 2 has no root in (2, 3], so no refinement
    # could ever separate x^2 - 4 from zero there; one root count refuses it
    alg = AlgebraicNumber(UniPoly([-2, 1]), F(2), F(3))
    start = perf_counter()
    with pytest.raises(ValueError, match="no single root"):
        sign_at(alg, UniPoly([-4, 0, 1]))
    assert perf_counter() - start < 1
    assert sign_at(alg, UniPoly([-1, 1])) == 1  # an enclosure that decides needs no check


def test_sign_at_with_another_defining_root_at_lo():
    # (0, 3] is a valid bracket of sqrt(2) for x^3 - 2x: its other root 0 lies
    # at lo, outside the half-open bracket, and must not be refused
    alg = isolate_largest_root(UniPoly([0, -2, 0, 1]), F(-3), precision=4)
    assert (alg.lo, alg.hi) == (0, 3)
    assert [sign_at(alg, UniPoly([-c, 0, 1])) for c in (1, 2, 3)] == [1, 0, -1]


@pytest.mark.parametrize(
    "config", [(3, 1, 7), (3, 1, 9), (3, 1, 12), (3, 0, 10), (4, 1, 9), (12, 5, 100)]
)
@pytest.mark.parametrize(
    "width", [F(1, 10**13), F(1, 10**18), F(1, 2**70), F(1, 10**30), F(1, 10**50)]
)
def test_one_bisection_equals_refining_the_default(config, width):
    # bisect_root halves one dyadic grid on (1, bound] and refine continues
    # those halvings, so both end in the same cell
    assert g_value(*config, width) == refine(g_value(*config), width)


def _value_in_quadratic_field(p, u, n, m):
    """Exact sign of p(u + sqrt(n)/m) for a non-square n, by Horner on
    pairs (a, b) meaning a + b*t with t = sqrt(n)/m > 0."""
    t2 = F(n, m * m)
    a = b = F(0)
    for c in reversed(p.coeffs):
        a, b = a * u + b * t2 + c, a + b * u
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        v = a + b
    else:  # opposite signs: the larger of a^2 and b^2 t^2 wins
        v = a if a * a > b * b * t2 else b
    return (v > 0) - (v < 0)


@st.composite
def signs_at_roots(draw):
    """(alg, p, expected sign): alg is a rational root r or a quadratic
    irrational u + sqrt(n)/m in a bracket (lo, hi] of random width (hi = r
    at times); p shares the root, has a root of its own on the bracket's
    dyadic grid (so the enclosure straddles zero and refining lands on it),
    or is random.  At times the defining polynomial also vanishes at lo,
    which lies outside the half-open bracket."""
    if draw(st.booleans()):
        r = draw(st.fractions(min_value=-3, max_value=3, max_denominator=9))
        factor, approx = UniPoly([-r, 1]), r
        expected = lambda p: p.sign(r)  # noqa: E731
    else:
        u = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        m = draw(st.integers(1, 3))
        n = draw(st.integers(2, 30).filter(lambda v: isqrt(v) ** 2 != v))
        factor = UniPoly([u * u - F(n, m * m), -2 * u, 1])
        approx = u + F(isqrt(n * 4**80), m * 2**80)  # within 2^-80 below the root
        expected = lambda p: _value_in_quadratic_field(p, u, n, m)  # noqa: E731
    defining = factor * UniPoly([draw(st.integers(4, 9)), 1])  # and a root below -3
    below = F(1, 2 ** draw(st.integers(3, 120)))
    above = F(1, 2 ** draw(st.integers(3, 120)))
    if factor.degree == 1 and draw(st.booleans()):
        above = F(0)  # the root is the bracket's right end
    lo, hi = approx - below, approx + (factor.degree - 1) * F(1, 2**80) + above
    if draw(st.booleans()):
        defining = defining * UniPoly([-lo, 1])  # a root at lo, outside (lo, hi]
    defining = defining.primitive()
    assume(count_roots_in(defining, lo, hi) == 1)
    alg = AlgebraicNumber(defining, lo, hi)
    kind = draw(st.sampled_from(["shared", "grid", "random"]))
    h = UniPoly(draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)))
    assume(not h.is_zero)
    if kind == "shared":
        p = factor * h
    elif kind == "grid":
        e = draw(st.integers(1, 12))
        c = lo + (hi - lo) * F(draw(st.integers(1, 2**e - 1)), 2**e)
        p = UniPoly([-c, 1]) * UniPoly([draw(st.sampled_from([-3, -1, 2]))])
    else:
        p = h
    return alg, p, expected(p)


@settings(max_examples=200)
@given(signs_at_roots())
def test_sign_at_matches_exact_reference(case):
    alg, p, expected = case
    assert sign_at(alg, p) == expected


def _four_product_eval(p, lo, hi):
    """The interval Horner enclosure from all four end products, as reference."""
    q = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
    alo = ahi = 0
    qk = 1
    for c in reversed(p.nums):
        prods = (alo * a, alo * b, ahi * a, ahi * b)
        alo, ahi = min(prods) + c * qk, max(prods) + c * qk
        qk *= q
    return alo, ahi


@settings(max_examples=300)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
    st.fractions(min_value=-3, max_value=8, max_denominator=10**4),
    st.fractions(min_value=0, max_value=5, max_denominator=10**4),
)
def test_interval_eval_takes_two_products_from_a_nonnegative_bracket(nums, lo, width):
    p = UniPoly(nums)
    assume(not p.is_zero)
    assert _interval_eval(p, lo, lo + width) == _four_product_eval(p, lo, lo + width)


def test_sign_at_off_zero_pays_no_gcd(monkeypatch):
    import fatflats.roots as roots

    calls, counts = [], []
    original, original_count = roots.poly_gcd, roots.count_roots_in

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(roots, "poly_gcd", counting)
    monkeypatch.setattr(roots, "count_roots_in", lambda *args: counts.append(args) or original_count(*args))
    g = g_value(3, 1, 6, F(1, 10**50))
    assert sign_at(g, lambda_poly(3, 1, 7)) == -1
    assert calls == [] and counts == []
    assert sign_at(g, lambda_poly(3, 1, 6) * UniPoly([1, 1])) == 0  # straddles: the gcd's root count decides
    # one count checks the bracket, one decides whether the gcd shares the root
    assert len(calls) == 1
    assert counts == [(g.defining, g.lo, g.hi), (lambda_poly(3, 1, 6).monic(), g.lo, g.hi)]


@st.composite
def rational_roots_in_brackets(draw):
    """(sf, lo, hi, rational): sf squarefree with one root in (lo, hi],
    either k/lc (rational) or an irrational root near it, in a bracket
    narrower than 1/lc^2 (hi = the root at times) or of random width."""
    lc = draw(st.integers(1, 60))
    k = draw(st.integers(-5 * lc, 5 * lc))
    root = F(k, lc)
    rational = draw(st.booleans())
    if rational:
        factor = UniPoly([-k, lc])
    else:  # an irrational root near k/lc: lc x^2 - 2k x + k^2/lc - 1/(j lc)
        j = draw(st.integers(2, 10**6).filter(lambda v: isqrt(v) ** 2 != v))
        factor = UniPoly([root * root - F(1, j * lc * lc), -2 * root, 1])
        root += F(isqrt(4**80 // j), lc * 2**80)  # just below the upper root
    sf = factor * UniPoly([draw(st.sampled_from([1, 5, 7])), 0, 1])  # no other real root
    if draw(st.booleans()):
        width = F(1, lc * lc * draw(st.integers(2, 10**9)))
    else:
        width = F(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    if draw(st.booleans()):
        lo, hi = root - width, root
    else:
        t = F(draw(st.integers(1, 99)), 100)
        lo, hi = root - width * t, root + width * (1 - t)
    assume(count_roots_in(sf, lo, hi) == 1 and sf.sign(lo) != 0)
    return sf, lo, hi, rational


@settings(max_examples=300)
@given(rational_roots_in_brackets())
def test_exact_if_rational_finds_every_rational_root(case):
    # a constructed rational root comes back as a point at every bracket
    # width, and an irrational one keeps the caller's bracket
    sf, lo, hi, rational = case
    got = exact_if_rational(sf, lo, hi)
    defining = sf.primitive()
    assert got.defining == defining
    if rational:
        assert got.is_exact and lo < got.value <= hi and sf(got.value) == 0
    else:
        assert (got.lo, got.hi) == (lo, hi)


def test_exact_if_rational_one_candidate_examples():
    # 1/2 is the simplest rational in [0.42, 0.51], but the root is 3/7; the
    # bracket is narrower than 1/7, so 3/7 is the one candidate
    got = exact_if_rational(UniPoly([-3, 7]), F(42, 100), F(51, 100))
    assert got.is_exact and got.value == F(3, 7)
    wide = exact_if_rational(UniPoly([-3, 7]), F(2, 10), F(51, 100))
    assert wide.is_exact and wide.value == F(3, 7)  # bisected below 1/14 first
    # x (x^2 - 10x + 1): the candidate k = 0 is the root at lo, outside (lo, hi]
    low = exact_if_rational(UniPoly([0, 1, -10, 1]), F(0), F(1, 5))
    assert not low.is_exact


def test_rational_root_far_below_the_bracket_width_is_exact():
    # a 1e-12 bracket holds about ten multiples of 1/10^13
    got = isolate_largest_root(UniPoly([-7, 10**13]), 0)
    assert got.is_exact and got.value == F(7, 10**13)
    p = UniPoly([-7, 10**13]) * UniPoly([1, 0, 1])
    assert isolate_largest_root(p, 0, F(1)).value == F(7, 10**13)
    irrational = isolate_largest_root(p * UniPoly([-2, 0, 1]), 0, F(1, 2))  # sqrt(2)
    assert not irrational.is_exact and irrational.hi - irrational.lo <= F(1, 2)


def test_sturm_chain_shape():
    chain = sturm_chain(UniPoly([12, -18, 0, 1]))
    assert chain[0] == UniPoly([12, -18, 0, 1])
    assert chain[1] == UniPoly([-18, 0, 3])
    assert len(chain) >= 3
    with pytest.raises(ValueError):
        sturm_chain(UniPoly())


def test_algebraic_number_json():
    root = isolate_largest_root(UniPoly([12, -18, 0, 1]), F(1))
    payload = root.to_json()
    assert payload["defining"] == [12, -18, 0, 1]
    assert payload["decimal"].startswith("3.8587837")


# g_value(n, r, s, 1e-50) byte for byte: any change in the midpoint
# bisection schedule of (1, up] moves these intervals
GOLDEN_G = {
    (3, 1, 6): {
        "defining": [12, -18, 0, 1],
        "interval": [
            "22558474918731536026032024755531964662551716491871/5846006549323611672814739330865132078623730171904",
            "2887484789597636611332099168708091476806619710959495/748288838313422294120286634350736906063837462003712",
        ],
        "decimal": "3.858783723",
    },
    (4, 1, 10): {
        "defining": [30, -40, 0, 0, 1],
        "interval": [
            "72970054306564512198694026362341826831539525105795/23384026197294446691258957323460528314494920687616",
            "1167520868905032195179104421797469229304632401692723/374144419156711147060143317175368453031918731001856",
        ],
        "decimal": "3.120508577",
    },
    (5, 2, 7): {
        "defining": [-42, 105, -70, 0, 0, 1],
        "interval": [
            "658163867766606956905927062808984096327694598011503/187072209578355573530071658587684226515959365500928",
            "2632655471066427827623708251235936385310778392046019/748288838313422294120286634350736906063837462003712",
        ],
        "decimal": "3.518234318",
    },
    (12, 5, 100): {
        "defining": [46200, -252000, 554400, -616000, 346500, -79200, 0, 0, 0, 0, 0, 0, 1],
        "interval": [
            "3185662814828751709468583138424806113579297191942043/748288838313422294120286634350736906063837462003712",
            "1592831407414375854734291569212403056789648595971025/374144419156711147060143317175368453031918731001856",
        ],
        "decimal": "4.257263575",
    },
    (1, 0, 5): {"defining": [-5, 1], "interval": [5, 5], "decimal": "5"},
    (4, 1, 9): {"defining": [27, -36, 0, 0, 1], "interval": [3, 3], "decimal": "3"},
}


@pytest.mark.parametrize("config", sorted(GOLDEN_G))
def test_g_value_golden_bytes(config):
    assert g_value(*config, F(1, 10**50)).to_json() == GOLDEN_G[config]


def test_refine_and_threshold_golden_bytes():
    from fatflats.waldschmidt import e_certify

    assert refine(g_value(3, 1, 7), F(1, 10**18)).to_json() == {
        "defining": [14, -21, 0, 1],
        "interval": ["9692620137833894319/2305843009213693952", "38770480551335577283/9223372036854775808"],
        "decimal": "4.203503924",
    }
    cert = e_certify(3, 1, 6, F(27, 7)).to_json()
    assert (cert["m_threshold"], cert["pairs_checked"]) == (48, 3243)
    assert "pieces" not in cert


def _count_chains(monkeypatch):
    """Record every Sturm chain built, through every fatflats module that
    holds the name."""
    import fatflats.roots as roots

    built = []
    original = roots.sturm_chain

    def counting(p):
        built.append(p)
        return original(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("fatflats") and getattr(module, "sturm_chain", None) is original:
            monkeypatch.setattr(module, "sturm_chain", counting)
    return built


@pytest.mark.parametrize("config", [(3, 1, 1), (4, 1, 1), (12, 5, 1)])
def test_g_value_builds_no_chain_at_s_one(monkeypatch, config):
    # s = 1: n! lambda(1 + y) has no sign variation, so Descartes counts no
    # root above 1 although lambda has a repeated root there
    built = _count_chains(monkeypatch)
    g = g_value(*config, F(1, 10**50))
    assert built == []
    assert g.is_exact and g.value == 1 and g.defining == squarefree_part(lambda_poly(*config)).primitive()


@pytest.mark.parametrize("config", [(3, 1, 6), (4, 1, 9), (12, 5, 100), (2, 0, 2)])
def test_g_value_builds_no_chain_for_s_at_least_two(monkeypatch, config):
    import fatflats.polynomials as polynomials
    import fatflats.roots as roots

    built = _count_chains(monkeypatch)
    calls = []
    for module, name in [(polynomials, "remainder_sequence"), (roots, "remainder_sequence"), (roots, "sign_variations")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=original, name=name: calls.append(name) or f(*args))
    g = g_value(*config, F(1, 10**50))
    assert built == [] and calls == []
    monkeypatch.undo()
    assert g == _plain_g(*config, F(1, 10**50))
    assert _same_root(g, isolate_largest_root(lambda_poly(*config), F(1), F(1, 10**50)))


def test_squarefree_chain_runs_one_remainder_sequence(monkeypatch):
    import fatflats.polynomials as polynomials
    import fatflats.roots as roots

    runs = []
    original = polynomials.remainder_sequence

    def counting(a, b):
        runs.append(a)
        return original(a, b)

    for module in (polynomials, roots):
        monkeypatch.setattr(module, "remainder_sequence", counting)
    g_value(3, 0, 1)  # s = 1 takes the squarefree part of (tau^3 - 1)/6, and builds no chain
    assert runs == [lambda_poly(3, 0, 1).nums]
    runs.clear()
    g_value(3, 1, 6)  # s >= 2 builds none
    assert runs == []
    # a repeated root: the gcd is divided out and the chain rerun once
    sf = UniPoly([-2, 1]) * UniPoly([3, 1])
    p = sf * UniPoly([-2, 1])
    runs.clear()
    chain = sturm_chain(p)
    assert runs == [p.nums, sf.nums]
    assert chain[0] == sf == squarefree_part(p)


def test_refine_and_sign_at_build_no_chain(monkeypatch):
    g = g_value(3, 1, 6)
    built = _count_chains(monkeypatch)
    tight = refine(g, F(1, 10**40))
    assert tight.hi - tight.lo <= F(1, 10**40)
    assert sign_at(g, lambda_poly(3, 1, 7)) == -1
    assert sign_at(g, lambda_poly(3, 1, 6) * UniPoly([1, 1])) == 0  # shares the root
    assert sign_at(g, UniPoly([-4, 1])) == -1
    assert built == []


# ---- the Newton jump of bisect_root against plain bisection -------------------


def _plain_bisect(sf, lo, hi, width, chain=None):
    """Reference: with a ``chain``, a counting phase narrows (lo, hi] to the
    largest root (None when there is none), as ``isolate_largest_root`` does;
    then one halving per step on ``Fraction`` values of sf, with no jump."""
    if chain is not None:
        v_lo, v_hi = sign_variations(chain, lo), sign_variations(chain, hi)
        if v_lo == v_hi:
            return None
        while v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = sign_variations(chain, mid)
            if v_mid == v_hi:
                hi, v_hi = mid, v_mid
            else:
                lo, v_lo = mid, v_mid

    def sign(x):
        v = sf(x)
        return (v > 0) - (v < 0)

    s_hi = sign(hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = sign(mid)
        if s_mid == 0:
            return mid, mid
        if s_hi == 0 or s_mid == -s_hi:
            lo = mid
        else:
            hi, s_hi = mid, s_mid
    return lo, hi


def _plain_g(n, r, s, width):
    """g_value's reference for s >= 2: plain bisection of (1, up], up from
    ``_root_bounds``, and a rational root reported exactly."""
    lam = lambda_poly(n, r, s)
    return exact_if_rational(lam, *_plain_bisect(lam, F(1), F(_root_bounds(n, r, s)), width))


def _same_root(g, other):
    """Two AlgebraicNumbers of one root: equal when either is exact, and
    otherwise half-open brackets that overlap."""
    if g.is_exact or other.is_exact:
        return g == other
    return g.lo < other.hi and other.lo < g.hi


def _halvings(lo, hi, width):
    k = 0
    while (hi - lo) / 2**k > width:
        k += 1
    return k


@st.composite
def isolated_roots(draw):
    """(sf, lo, hi, width): sf squarefree with integer coefficients and one
    root in (lo, hi], often on a point of the dyadic grid bisection visits or
    within one final cell of such a point."""
    lo = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
    hi = lo + draw(st.sampled_from([F(1), F(2), F(3), F(1, 3), F(7, 5)]))
    span = hi - lo
    k = draw(st.integers(2, 200))
    width = F(1, 2**k) if draw(st.booleans()) else F(1, 10**k)
    depth = _halvings(lo, hi, width)
    e = draw(st.integers(1, depth))
    theta = F(draw(st.integers(0, 2**e)), 2**e)  # a grid point, hi included
    offset = F(draw(st.integers(-3, 3)), 2 ** draw(st.integers(max(depth - 4, 0), depth + 60)))
    target = lo + span * min(max(theta + offset, F(1, 2**depth)), F(1))  # in (lo, hi]
    if draw(st.booleans()):
        factors = [UniPoly([-target, 1])]
    else:
        # x^2 - 2ux + u^2 - n/m^2 has the roots u +- sqrt(n)/m; u puts the upper
        # one near target (within 2^-p) and the lower one below lo
        m = draw(st.integers(1, 4))
        n = draw(st.integers(ceil(m * span) ** 2, (4 * m) ** 2).filter(lambda v: isqrt(v) ** 2 != v))
        p = draw(st.integers(8, depth + 60))
        u = target - F(isqrt(n * 4**p), m * 2**p)
        factors = [UniPoly([u * u - F(n, m * m), -2 * u, 1])]
    for root in draw(st.lists(st.sampled_from([lo, lo - 1, hi + F(1, 3), hi + 2]), unique=True, max_size=2)):
        factors.append(UniPoly([-root, 1]))
    if draw(st.booleans()):
        factors.append(UniPoly([3, 1, 1]))  # no real root
    sf = UniPoly([draw(st.sampled_from([-2, 1, 3]))])
    for factor in factors:
        sf = sf * factor
    sf = sf.primitive() * draw(st.sampled_from([-1, 1]))
    assume(count_roots_in(sf, lo, hi) == 1)
    return sf, lo, hi, width


# (target root, width) on (1, 2]: a root on a grid point the jump lands next
# to (so a cell end has sign 0), and roots a hair to either side of a final
# grid point (so Newton's cell can be one off and a move runs); each as a
# rational root beside the root 3, and as u + sqrt(2) just above it
NEAR_GRID = [
    (1 + F(5, 2**30), F(1, 2**60)),
    (1 + F(5, 2**30) + F(1, 2**100), F(1, 2**60)),
    (1 + F(5, 2**30) - F(1, 2**100), F(1, 2**60)),
    (1 + F(3, 2**60) + F(1, 2**90), F(1, 2**60)),
    (1 + F(3, 2**60) - F(1, 2**90), F(1, 2**60)),
    (F(3, 2) + F(1, 10**70), F(1, 10**20)),
    (F(3, 2) - F(1, 10**70), F(1, 10**20)),
]


def _largest_matches_plain(p, lower, width):
    """isolate_largest_root(p, lower, width) against the chain-counting
    reference on (lower, bound]; a rational root may come back as a point
    inside the reference's bracket."""
    chain = sturm_chain(p)
    sf = chain[0]
    found = isolate_largest_root(p, lower, width)
    want = _plain_bisect(sf, lower, max(cauchy_root_bound(sf), lower + 1), width, chain)
    if want is None and p(lower) == 0:
        assert found.is_exact and found.value == lower
    elif want is None:
        assert found is None
    elif found.is_exact and want[0] != want[1]:
        assert want[0] < found.value <= want[1] and sf(found.value) == 0
    else:
        assert (found.lo, found.hi) == want


@pytest.mark.parametrize("target, width", NEAR_GRID)
@pytest.mark.parametrize("largest", [False, True])
def test_bisect_root_on_and_near_grid_points(monkeypatch, target, width, largest):
    u = target - F(isqrt(2 * 4**200), 2**200)  # u + sqrt(2) is within 2^-200 above target
    lo, hi = F(1), F(2)
    for sf in (UniPoly([-target, 1]) * UniPoly([-3, 1]), UniPoly([u * u - 2, -2 * u, 1])):
        assert count_roots_in(sf, lo, hi) == 1
        if largest:  # the same roots through isolate_largest_root's counting halvings
            _largest_matches_plain(sf, lo, width)
            continue
        want = _plain_bisect(sf, lo, hi, width)
        calls = _count_signs(monkeypatch)
        assert bisect_root(sf, lo, hi, width) == want
        monkeypatch.undo()
        if target != NEAR_GRID[0][0]:  # off the grid: the jump, not 60-odd halvings
            assert calls[0] <= 10


@settings(max_examples=150)
@given(isolated_roots())
def test_bisect_root_matches_plain_bisection(case):
    sf, lo, hi, width = case
    assert bisect_root(sf, lo, hi, width) == _plain_bisect(sf, lo, hi, width)


@st.composite
def lambda_shaped_roots(draw):
    """(sf, lo, hi, width): sf squarefree and shaped like lambda, a positive
    leading coefficient over a run of zeros and a low block of coefficients
    up to 10^7, some of them zero (the constant term among them); (lo, hi]
    holds its largest real root, and widths go down to 2^-1200, where the
    Newton jump runs five stages."""
    degree = draw(st.integers(1, 12))
    low = draw(st.lists(st.one_of(st.just(0), st.integers(-(10**7), 10**7)), min_size=1, max_size=degree))
    sf = UniPoly(low + [0] * (degree - len(low)) + [draw(st.integers(1, 99))])
    assume(squarefree_part(sf).degree == degree)
    hi = cauchy_root_bound(sf)
    lo = -hi
    assume(count_roots_in(sf, lo, hi))
    while count_roots_in(sf, lo, hi) > 1:  # counting halvings toward the largest root
        mid = (lo + hi) / 2
        if count_roots_in(sf, mid, hi):
            lo = mid
        else:
            hi = mid
    e = draw(st.integers(1, 1200))
    width = F(1, 2**e) if draw(st.booleans()) else F(1, 10 ** (3 * e // 10 + 1))
    return sf, lo, hi, width


@settings(max_examples=60)
@given(lambda_shaped_roots())
def test_lambda_shaped_roots_match_plain_bisection(case):
    sf, lo, hi, width = case
    assert bisect_root(sf, lo, hi, width) == _plain_bisect(sf, lo, hi, width)


@st.composite
def g_configs(draw):
    """(n, r, s, width) with n <= 12, n >= 2r + 1, 2 <= s <= 100, and a width
    coarser than the bracket, a third, or a power of 2 or 10 below 1."""
    n = draw(st.integers(1, 12))
    r = draw(st.integers(0, (n - 1) // 2))
    s = draw(st.integers(2, 100))
    k = draw(st.integers(1, 60))
    width = draw(st.sampled_from([F(2), F(1), F(1, 3), F(1, 2**k), F(1, 10**k)]))
    return n, r, s, width


@settings(max_examples=150)
@given(g_configs())
def test_g_value_matches_plain_bisection_from_its_bound(config):
    assert g_value(*config) == _plain_g(*config)


@settings(max_examples=50)
@given(isolated_roots(), st.integers(0, 3), st.integers(0, 2))
def test_isolate_largest_root_matches_plain_bisection(case, below, power):
    sf, lo, _, width = case
    # more roots above lower, and a repeated factor, for the counting halvings to pass
    _largest_matches_plain(sf * UniPoly([-lo, 1]) ** power, lo - below, width)


class _Stop(Exception):
    pass


def _count_signs(monkeypatch, stop_after=None):
    """Count every UniPoly.sign call; raise _Stop after ``stop_after`` of them."""
    calls = [0]
    original = UniPoly.sign

    def counting(self, x, q=1):
        calls[0] += 1
        if stop_after is not None and calls[0] > stop_after:
            raise _Stop
        return original(self, x, q)

    monkeypatch.setattr(UniPoly, "sign", counting)
    return calls


@pytest.mark.parametrize("config", [(12, 5, 100), (3, 1, 6)])
def test_g_value_sign_budget(monkeypatch, config):
    # up = 8 for both, and plain bisection of (1, 8] to 1e-50 reads 170 signs
    calls = _count_signs(monkeypatch)
    g_value(*config, F(1, 10**50))
    assert calls[0] <= 9


# sha256 of the roots grid's g_value(n, r, s, 1e-50).to_json(), one compact
# JSON line per configuration in grid order, joined by newlines
ROOTS_GRID_G_SHA256 = "5473e1ba6def6b0c9596786d7eff5528b0cd358b4c5fe599c06403a532aa9e7b"


def test_newton_jump_never_declines_on_the_workloads(monkeypatch):
    # g_value over the roots grid at 1e-50 and over the bounds grid at the
    # default 1e-12: every jump, tried from a bracket 1/4 wide, lands; the
    # roots grid's bytes and both grids' sign totals are pinned, so a Newton
    # stop rule that costs one extra cell move shows
    import fatflats.roots as roots

    cells = []
    original = roots._newton_cell
    monkeypatch.setattr(roots, "_newton_cell", lambda *args: cells.append(original(*args)) or cells[-1])
    calls = _count_signs(monkeypatch)
    roots_grid = [(n, r, s, F(1, 10**50)) for n in range(2, 13) for r in range((n - 1) // 2 + 1) for s in range(2, 101)]
    bounds_grid = [(n, r, s, F(1, 10**12)) for n in range(2, 9) for r in range((n - 1) // 2 + 1) for s in range(2, 21)]
    assert (len(roots_grid), len(bounds_grid)) == (4059, 361)
    lines = []
    for i, config in enumerate(roots_grid + bounds_grid):
        if i == len(roots_grid):
            roots_signs = calls[0]
        tried = len(cells)
        g = g_value(*config)
        # a rational root can be a midpoint the halvings reach before any jump
        assert (len(cells) > tried or g.is_exact) and None not in cells[tried:], config
        if i < len(roots_grid):
            lines.append(json.dumps(g.to_json(), separators=(",", ":")))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ROOTS_GRID_G_SHA256
    assert (roots_signs, calls[0] - roots_signs) == (32094, 2743)


@pytest.mark.parametrize(
    "configs, width",
    [
        ([(3, 1, s) for s in range(7, 13)], F(1, 10**18)),
        ([(n, r, s) for n in range(2, 13) for r in range((n - 1) // 2 + 1) for s in range(2, 101, 13)], F(1, 10**300)),
    ],
    ids=["nosymetry-g-1e-18", "roots-sample-1e-300"],
)
def test_newton_jump_never_declines_at_other_widths(monkeypatch, configs, width):
    # the nosymetry verifier's g(3, 1, 7..12) runs Newton in one stage; at
    # 1e-300 it runs four, and a step budget of log2 K + 2 that ignored the
    # stages would decline on (9, 1, 2), (10, 1, 2), (10, 2, 15), (11, 1, 2)
    # and (11, 4, 2) of this sample
    import fatflats.roots as roots

    cells = []
    original = roots._newton_cell
    monkeypatch.setattr(roots, "_newton_cell", lambda *args: cells.append(original(*args)) or cells[-1])
    for config in configs:
        tried = len(cells)
        g = g_value(*config, width)
        assert (len(cells) > tried or g.is_exact) and None not in cells[tried:], config


@pytest.mark.parametrize("width", [0, -1, F(-1, 10**50)])
def test_nonpositive_width_never_jumps(monkeypatch, width):
    import fatflats.roots as roots

    def no_jump(*args):
        raise AssertionError("the Newton jump ran on a width <= 0")

    monkeypatch.setattr(roots, "_newton_cell", no_jump)
    _count_signs(monkeypatch, stop_after=400)  # the halvings never end on such a width
    with pytest.raises(_Stop):
        bisect_root(UniPoly([-2, 0, 1]), F(1), F(2), width)
