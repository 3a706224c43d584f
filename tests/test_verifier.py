import gc
import json
from functools import cache
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fatflats.asymptotic import g_value, lambda_poly
from fatflats.hilbert import conditions_count
from fatflats.polynomials import UniPoly, binom
from fatflats.roots import AlgebraicNumber, refine, sign_at
from fatflats.verifier import (
    Violation,
    _branch_poly,
    _cap,
    _high_ends,
    _midpoint,
    _scan_region,
    analytic_branch_holds,
    identities_report,
    nosymetry_bounds,
    nosymetry_enumerate,
    replay_appendix,
    replay_ids,
    two_line_overlap_factored,
    two_line_overlap_value,
)
from fatflats.waldschmidt import _negative_from


def test_two_line_overlap_examples():
    # direct evaluation is authoritative; the factored display carries an
    # extra factor 6 (it expands 6 times the binomial expression)
    assert two_line_overlap_value(2, 2, 1) == -4
    assert two_line_overlap_factored(2, 2, 1) == -24
    assert two_line_overlap_value(1, 1, 0) == 0
    for m in range(1, 7):
        assert two_line_overlap_value(m, m, 0) == 0


def test_two_line_overlap_domain():
    with pytest.raises(ValueError):
        two_line_overlap_value(2, 1, 0)
    with pytest.raises(ValueError):
        two_line_overlap_value(2, 2, 2)


def test_two_line_overlap_exhaustive_nonpositive():
    for m1 in range(1, 11):
        for m2 in range(m1, 11):
            for t in range(m1):
                value = two_line_overlap_value(m1, m2, t)
                assert value <= 0
                assert two_line_overlap_factored(m1, m2, t) == 6 * value


def test_bound_table_values():
    table = {
        7: (4.2035, 14.5043, 24.1538),
        8: (4.5236, 4.51017, 7.97625),
        9: (4.82374, 2.20558, 4.11512),
        10: (5.10725, 1.18148, 2.31334),
        11: (5.37664, 0.602377, 1.23239),
        12: (5.63383, 0.229665, 0.489184),
    }
    for s, (g_ref, d_ref, sum_ref) in table.items():
        g, d_bound, sum_bound = nosymetry_bounds(s)
        assert abs(float(g.midpoint) - g_ref) < 1e-3
        assert abs(float(d_bound) - d_ref) < 1e-3
        assert abs(float(sum_bound) - sum_ref) < 1e-3


def _bounds_reference(s):
    """nosymetry_bounds as first written: refine to 1e-18, then interval
    quotients in Fraction."""
    g = refine(g_value(3, 1, s), Fraction(1, 10**18))
    lo, hi = g.lo, g.hi
    num_lo, num_hi = 5 * s * lo - 11 * hi * hi, 5 * s * hi - 11 * lo * lo
    den_lo, den_hi = 6 * lo * lo - 3 * s * hi - 3 * s, 6 * hi * hi - 3 * s * lo - 3 * s
    assert den_hi < 0
    quots = [n / d for n in (num_lo, num_hi) for d in (den_lo, den_hi)]
    d_lo, d_hi = min(quots), max(quots)
    sums = [q * s / g_end for q in quots for g_end in (lo, hi)]
    sum_lo, sum_hi = min(sums), max(sums)
    assert d_hi - d_lo <= Fraction(1, 10**6) and sum_hi - sum_lo <= Fraction(1, 10**6)
    return g, (d_lo + d_hi) / 2, (sum_lo + sum_hi) / 2


@pytest.mark.parametrize("s", range(7, 13))
def test_bounds_match_the_fraction_reference(s):
    assert nosymetry_bounds(s) == _bounds_reference(s)


def test_bound_checks_still_fire(monkeypatch):
    import fatflats.verifier as verifier

    # den(g) = 6g^2 - 21g - 21 vanishes near 4.31, inside this bracket
    wide = AlgebraicNumber(UniPoly([-9, 2]), Fraction(4), Fraction(5))
    monkeypatch.setattr(verifier, "g_value", lambda *args: wide)
    with pytest.raises(ArithmeticError, match="denominator"):
        verifier.nosymetry_bounds(7)
    assert _midpoint([(0, 1), (1, 3 * 10**6), (1, 10**6)]) == Fraction(1, 2 * 10**6)
    with pytest.raises(ArithmeticError, match="converge"):
        _midpoint([(0, 1), (1, 10**6 - 1)])


def test_bounds_reject_out_of_range():
    with pytest.raises(ValueError):
        nosymetry_bounds(6)
    with pytest.raises(ValueError):
        nosymetry_bounds(13)


def test_enumeration_counts_match():
    rep9 = nosymetry_enumerate(9)
    assert dict(rep9.case_counts)[2] == 3
    assert not rep9.violations

    rep8 = nosymetry_enumerate(8)
    counts = dict(rep8.case_counts)
    assert counts[2] == 14 and counts[3] == 15
    assert counts.get(4, 0) == 0
    assert not rep8.violations


def test_enumeration_s7_sequences():
    rep = nosymetry_enumerate(7)
    assert rep.cases_checked == 4149
    assert rep.d_cap == 14 and rep.sum_cap == 24
    assert not rep.violations


def test_enumeration_immediate_cases():
    for s in (10, 11, 12):
        rep = nosymetry_enumerate(s)
        assert not rep.violations
        assert all(d < 2 for d, _ in rep.case_counts)


def test_enumeration_thread_determinism():
    solo = nosymetry_enumerate(8, threads=1)
    multi = nosymetry_enumerate(8, threads=3)
    assert solo.to_json() == multi.to_json()


def test_analytic_branch():
    # the proof for every s at once against a per-s sweep; both facts fail
    # one step below their least s, so neither start can be lowered
    assert analytic_branch_holds()
    for c, least in ((Fraction(1, 2), 11), (Fraction(5, 11), 13)):
        assert all(lambda_poly(3, 1, s)(c * s) > 0 for s in range(least, 401))
        assert lambda_poly(3, 1, least - 1)(c * (least - 1)) <= 0
        assert not _negative_from(-_branch_poly(c), Fraction(least - 1))
        assert all(_branch_poly(c)(s) * s == 6 * lambda_poly(3, 1, s)(c * s) for s in range(1, 50))


def test_replay_registry():
    assert "e-3-0-4" in replay_ids()
    for rid in replay_ids():
        report = replay_appendix(rid)
        assert report.passed, [a for a in report.assertions if not a.passed]
    with pytest.raises(KeyError):
        replay_appendix("nope")


def test_replay_expected_values():
    rep = replay_appendix("e-3-0-4")
    assert rep.assertions[0].expected == "3/2"
    rep = replay_appendix("e-3-1-6")
    assert rep.assertions[0].expected == "27/7"


@cache
def _ratio_below_g(bound_s, s, d, total):
    return lambda_poly(3, 1, bound_s)(Fraction(d * s, total)) < 0


@cache
def _line_conditions(m, d):
    return conditions_count(3, 1, m, d)


def _vectors_from(slots, low, rest):
    """The nondecreasing vectors of ``slots`` entries >= low summing to rest."""
    if slots == 1:
        return [(rest,)] if rest >= low else []
    return [
        (first, *tail)
        for first in range(low, rest // slots + 1)
        for tail in _vectors_from(slots - 1, first, rest - first)
    ]


def _naive_block(s, total, d_cap, bound_s):
    """Per-pair reference scan of one sum block: every pair gets its own
    ratio test against g(3, 1, bound_s) and condition counts (memoised as
    the pure functions they are), the d = 1 row checked after the others."""
    vectors = _vectors_from(s, 0, total)
    assert vectors == sorted(vectors)
    counts, pairs, violations = {}, 0, []
    for vec in vectors:
        degrees = list(range(max(2, vec[-1]), d_cap + 1)) + ([1] if vec[-1] <= 1 else [])
        for d in degrees:
            if not _ratio_below_g(bound_s, s, d, total):
                continue
            counts[d] = counts.get(d, 0) + 1
            pairs += 1
            value = binom(d + 3, 3) - sum(_line_conditions(m, d) for m in vec if m > 0)
            if value > 0:
                violations.append(Violation(d, vec, value))
    return len(vectors), counts, pairs, violations


def _naive_region(s, sum_cap, d_cap, bound_s=None):
    """The per-pair reference summed over the totals 1..sum_cap; the ratios
    are compared with g(3, 1, bound_s), by default g(3, 1, s)."""
    sequences, counts, pairs, violations = 0, {}, 0, []
    for total in range(1, sum_cap + 1):
        seq, block_counts, prs, found = _naive_block(s, total, d_cap, bound_s or s)
        sequences += seq
        pairs += prs
        violations += found
        for d, count in block_counts.items():
            counts[d] = counts.get(d, 0) + count
    return sequences, counts, pairs, violations


@cache
def _g(s):
    return g_value(3, 1, s)


def _fast_region(s, sum_cap, d_cap, bound_s=None):
    return _scan_region(_g(bound_s or s), s, sum_cap, d_cap)


def test_region_scan_matches_naive_scan_on_the_finite_branch():
    for s in range(7, 13):
        rep = nosymetry_enumerate(s)
        assert _fast_region(s, rep.sum_cap, rep.d_cap) == _naive_region(s, rep.sum_cap, rep.d_cap), s


def test_region_scan_matches_naive_scan_with_violations():
    # six lines lie outside the finite branch: (2,2,2,2,3,3) at d = 9 has
    # P = 4 > 0 at the ratio 9*6/14 = 27/7 < g(3,1,6)
    fast = _fast_region(6, 14, 9)
    assert fast == _naive_region(6, 14, 9)
    assert [v for v in fast[3] if sum(v.mults) == 14] == [Violation(9, (2, 2, 2, 2, 3, 3), 4)]
    fast = _fast_region(6, 42, 27)
    assert fast == _naive_region(6, 42, 27)
    assert [v for v in fast[3] if sum(v.mults) == 42] == [
        Violation(27, (6, 7, 7, 7, 7, 8), 14),
        Violation(27, (7,) * 6, 28),
    ]
    # five lines: fifteen violations spread over seven degrees
    fast = _fast_region(5, 24, 24)
    assert fast == _naive_region(5, 24, 24)
    assert len(fast[3]) == 15 and len({v.d for v in fast[3]}) == 7


def test_region_scan_matches_naive_scan_for_one_and_two_lines():
    # g(3, 1, 1) = 1 and g(3, 1, 2) = 2 leave one or two lines no violation
    # (see two_line_overlap_value), so these regions are compared with
    # g(3, 1, 7): a group holds one empty head at s = 1, one entry at s = 2;
    # d_cap = 1 leaves only the d = 1 row, settled by the high-end test at hi = 1
    for s, sum_cap, d_cap in ((1, 12, 30), (2, 16, 24), (1, 12, 1), (2, 16, 1)):
        fast = _fast_region(s, sum_cap, d_cap, bound_s=7)
        assert fast == _naive_region(s, sum_cap, d_cap, bound_s=7), (s, d_cap)
        rows = {True} if d_cap == 1 else {True, False}
        assert {v.d == 1 for v in fast[3]} == rows, (s, d_cap)


def test_region_scan_matches_naive_scan_without_degree_cap():
    # d_cap = 0 still scans the d = 1 row, e.g. counts {1: 6} at s = 7;
    # with g(3, 1, 7) and s <= 4 the region lists one d = 1 violation
    for s in range(1, 8):
        for bound_s in sorted({s, 7}):
            for sum_cap in (1, 5, 12):
                fast = _fast_region(s, sum_cap, 0, bound_s)
                assert fast == _naive_region(s, sum_cap, 0, bound_s), (s, bound_s, sum_cap)
                assert len(fast[3]) == (bound_s == 7 and s <= 4), (s, bound_s, sum_cap)


def test_group_bound_holds_on_every_head():
    # each head entry x <= low has 3*C(x+1, 3) = (x - 1)*C(x+1, 2), so a head
    # (the first s - 1 entries, low the last) has 3*B0 <= (low - 1)*A0
    for s, sum_cap in ((6, 14), (6, 42), (5, 24)):
        heads = {vec[:-1] for total in range(1, sum_cap + 1) for vec in _vectors_from(s, 0, total)}
        for head in heads:
            a0 = sum(binom(x + 1, 2) for x in head)
            b0 = sum(binom(x + 1, 3) for x in head)
            assert 3 * b0 <= (head[-1] - 1) * a0, head


def test_group_bound_leaves_few_vectors_to_check(monkeypatch):
    import fatflats.verifier as verifier

    checked = []
    original = verifier._check_vector

    def counting(violations, vec, *args):
        checked.append(vec)
        return original(violations, vec, *args)

    monkeypatch.setattr(verifier, "_check_vector", counting)
    for s in range(7, 13):
        checked.clear()
        verifier.nosymetry_enumerate(s)
        # a suspect is a group (head sum, last head entry) with a last entry m
        suspects = {(sum(vec[:-1]), vec[-2], vec[-1]) for vec in checked}
        assert (len(suspects), len(checked)) == ((3, 20) if s == 7 else (0, 0)), s


def test_enumeration_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for s in range(7, 13):
            nosymetry_enumerate(s)
            assert gc.collect() == 0, s
    finally:
        gc.enable()


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
)
def test_region_scan_matches_naive_scan_on_small_regions(s, sum_cap, d_cap):
    assert _fast_region(s, sum_cap, d_cap) == _naive_region(s, sum_cap, d_cap)


def test_enumeration_golden_bytes():
    # json.dumps of each report, captured before the scan was rewritten
    golden = (Path(__file__).parent / "nosymetry_golden.jsonl").read_text().splitlines()
    assert [json.dumps(nosymetry_enumerate(s).to_json()) for s in range(7, 13)] == golden


def test_enumeration_call_counts(monkeypatch):
    import fatflats.verifier as verifier

    calls = {"conditions_count": 0, "lambda_poly": 0, "sign": 0}
    for name in ("conditions_count", "lambda_poly"):
        original = getattr(verifier, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(verifier, name, counting)
    original_sign = UniPoly.sign

    def counting_sign(self, *args):
        calls["sign"] += 1
        return original_sign(self, *args)

    monkeypatch.setattr(UniPoly, "sign", counting_sign)
    for s in range(7, 13):
        calls["sign"] = 0
        g_value(3, 1, s, Fraction(1, 10**18))
        alone = calls["sign"]
        calls["sign"] = 0
        rep = verifier.nosymetry_enumerate(s)
        # every sign of a sweep is g's own isolation
        assert calls["sign"] == alone, s
        if s == 7:
            assert (rep.cases_checked, rep.pairs_checked) == (4149, 16969)
    assert calls["conditions_count"] == 0
    assert calls["lambda_poly"] == 0


def _cap_polys(s, k):
    """With den(g) = 6g^2 - 3sg - 3s < 0 on 7 <= s <= 12, the cap conditions

        k < -g(11g - 5s)/den   and   k <= -s(11g - 5s)/den

    read psi_k(g) > 0 and phi_k(g) >= 0 for the two polynomials returned."""
    den = UniPoly([-3 * s, -3 * s, 6])
    return k * den + UniPoly([0, -5 * s, 11]), k * den + UniPoly([-5 * s * s, 11 * s])


def test_caps_match_a_walk_from_zero():
    for s in range(7, 13):
        g = nosymetry_bounds(s)[0]
        d_walk = 0
        while sign_at(g, _cap_polys(s, d_walk + 1)[0]) > 0:
            d_walk += 1
        sum_walk = 0
        while sign_at(g, _cap_polys(s, sum_walk + 1)[1]) >= 0:
            sum_walk += 1
        rep = nosymetry_enumerate(s)
        assert (rep.d_cap, rep.sum_cap) == (d_walk, sum_walk), s


def test_cap_refuses_a_midpoint_near_an_integer():
    assert _cap(Fraction(7, 2)) == 3
    assert _cap(3 + Fraction(1, 2 * 10**6 - 1)) == 3
    assert _cap(4 - Fraction(1, 2 * 10**6 - 1)) == 3
    for bound in (Fraction(3), 3 + Fraction(1, 2 * 10**6), 4 - Fraction(1, 2 * 10**6)):
        with pytest.raises(ArithmeticError, match="5e-7"):
            _cap(bound)


def _high_reference(s, total):
    """The largest d with d*s/total < g, walked up from d = 0: a ratio below
    1 lies below g >= 1, and from 1 on the ratio lies below g exactly where
    lambda(3, 1, s) is negative."""
    lam = lambda_poly(3, 1, s)
    d = 0
    while Fraction((d + 1) * s, total) < 1 or lam(Fraction((d + 1) * s, total)) < 0:
        d += 1
    return d


@pytest.mark.parametrize("s", range(1, 13))
def test_high_ends_match_a_fraction_reference(s):
    assert _high_ends(_g(s), s, 40) == [0] + [_high_reference(s, t) for t in range(1, 41)]


def test_scan_refuses_a_bracket_too_wide():
    # g in [2, 5/2] at s = 1: d = 2 at total 1 sits on the bracket's low end,
    # so 2/1 < g is undecided
    wide = AlgebraicNumber(UniPoly([-9, 4]), Fraction(2), Fraction(5, 2))
    with pytest.raises(ArithmeticError, match="bracket"):
        _scan_region(wide, 1, 1, 3)
    # a bracket about g(3, 1, 7) ~ 4.2035 that holds 21/5 = 7*3/5
    wide = AlgebraicNumber(UniPoly([-21, 5]), Fraction(419, 100), Fraction(421, 100))
    with pytest.raises(ArithmeticError, match="bracket"):
        _scan_region(wide, 7, 5, 3)


def test_identities_report():
    assert identities_report(42) == {"seed": 42, "checks": "identities", "failures": [], "ok": True}
