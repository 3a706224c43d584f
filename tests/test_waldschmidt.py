import hashlib
import json
from fractions import Fraction as F
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflats.asymptotic import lambda_poly
from fatflats.hilbert import conditions_count, family
from fatflats.polynomials import UniPoly, binom
from fatflats.waldschmidt import (
    CertificationError,
    RatioWitness,
    _negative_from,
    _tail_bound,
    bounds_report,
    e_certify,
    e_empirical,
    gamma_known_lookup,
    gamma_points_closed,
)

from certificate_check import recheck


def test_e_empirical_examples():
    w = e_empirical(3, 0, 4, 10)
    assert (w.t, w.m, w.ratio) == (3, 2, F(3, 2))
    assert w.value == 4
    w = e_empirical(3, 1, 6, 50)
    assert (w.t, w.m, w.ratio) == (27, 7, F(27, 7))
    for n, r in [(3, 1), (5, 2), (4, 0)]:
        w = e_empirical(n, r, 1, 5)
        assert w.ratio == 1 and (w.t, w.m) == (1, 1)


def test_e_empirical_antitone_in_mmax():
    previous = None
    for m_max in (1, 2, 5, 10, 20, 40):
        ratio = e_empirical(3, 1, 6, m_max).ratio
        if previous is not None:
            assert ratio <= previous
        previous = ratio


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=8))
def test_e_empirical_returns_a_real_witness(n, s):
    w = e_empirical(n, 0, s, 25)
    assert w.t >= w.m >= 1 and w.value > 0
    assert w.value == binom(w.t + n, n) - s * conditions_count(n, 0, w.m, w.t)


def test_e_empirical_estimate_can_sit_above_g():
    # five general points in P^4: a shallow search only finds ratio 3/2,
    # which lies above the root bound 5^(1/4); the first better witness
    # appears at multiplicity 51 and drops below the bound
    shallow = e_empirical(4, 0, 5, 25)
    assert shallow.ratio == F(3, 2)
    assert lambda_poly(4, 0, 5)(shallow.ratio) > 0
    deep = e_empirical(4, 0, 5, 60)
    assert deep.ratio == F(76, 51)
    assert lambda_poly(4, 0, 5)(deep.ratio) < 0


def _naive_e_empirical(n, r, s, m_max):
    """Per-pair scan with a fresh count and a Fraction at every step."""
    best = None
    for m in range(1, m_max + 1):
        t = m
        while best is None or F(t, m) < best.ratio:
            value = binom(t + n, n) - s * conditions_count(n, r, m, t)
            if value > 0:
                best = RatioWitness(t, m, value)
                break
            t += 1
            assert best is not None or t <= 10 * m + binom(s + n, n)
    return best


@pytest.mark.parametrize(
    "n, r, s, m_max",
    [
        (4, 0, 5, 25),
        (4, 0, 5, 60),
        (3, 1, 6, 50),
        (3, 0, 4, 10),
        (2, 0, 7, 30),
        (5, 2, 7, 30),
        (6, 1, 11, 20),
        (8, 3, 4, 12),
        (3, 1, 1, 5),
        (2, 0, 3, 40),
        (4, 1, 3, 30),
        (5, 2, 2, 30),
        (7, 3, 2, 20),
        (5, 2, 7, 60),
        # long scans
        (3, 1, 6, 60),
        (3, 1, 6, 150),
        (2, 0, 20, 60),
        (2, 0, 20, 150),
        (2, 0, 10, 60),
        (4, 0, 23, 60),
    ],
)
def test_e_empirical_matches_naive_scan(n, r, s, m_max):
    assert e_empirical(n, r, s, m_max) == _naive_e_empirical(n, r, s, m_max)


@pytest.mark.parametrize("config", [(3, 1, 6, 60), (5, 2, 7, 60), (2, 0, 20, 60), (8, 3, 4, 12)])
def test_e_empirical_scans_bisect(monkeypatch, config):
    # P_m at the top of the range, then a bisection: at most
    # 1 + ceil(log2(stop - m)) Hilbert values per scan, none for an empty range
    import fatflats.hilbert as hilbert

    scan, comb = hilbert.Family.first_positive, hilbert.comb
    values = [0]
    budgets = []

    def counting_comb(a, b):
        values[0] += 1
        return comb(a, b)

    def counting(self, s, m, stop):
        before = values[0]
        t = scan(self, s, m, stop)
        budgets.append((values[0] - before, 1 + (stop - m - 1).bit_length() if stop > m else 0))
        return t

    monkeypatch.setattr(hilbert, "comb", counting_comb)
    monkeypatch.setattr(hilbert.Family, "first_positive", counting)
    assert e_empirical(*config) == _naive_e_empirical(*config)
    assert len(budgets) == config[-1] and any(used for used, _ in budgets)
    assert all(used <= budget for used, budget in budgets), budgets


def test_certify_points_case():
    cert = e_certify(3, 0, 4, F(3, 2))
    assert cert.pieces == ((1, F(3, 2)),)  # one piece covers [1, 3/2]
    assert cert.m_threshold == 6
    assert cert.pairs_checked > 0
    assert cert.witness.ratio == F(3, 2)
    recheck(cert)


def test_certify_lines_case():
    cert = e_certify(3, 1, 6, F(27, 7))
    assert cert.m_threshold == 48
    # the pieces shrink toward the candidate, where T's margin is thinnest
    assert len(cert.pieces) == 18
    assert cert.pieces[0] == (1, F(17, 7)) and cert.pieces[-1] == (F(884731, 229376), F(27, 7))
    # every pair 1 <= m < 48, m <= t < 27m/7 is scanned exactly once
    assert cert.pairs_checked == 3243
    assert cert.pairs_checked == sum(-(-27 * m // 7) - m for m in range(1, 48))
    recheck(cert)


def test_certify_degenerate_interval_is_vacuous():
    # candidate 1: the cover is the one point [1, 1] and the scan is empty
    cert = e_certify(3, 0, 2, F(1))
    assert cert.pieces == ((1, 1),)
    assert cert.pairs_checked == 0
    assert cert.to_json()["pieces"] == [[1, 1]]
    recheck(cert)


def test_certify_nonobvious_value():
    # five general points in P^4: the machinery certifies 76/51 exactly
    cert = e_certify(4, 0, 5, F(76, 51))
    assert cert.pairs_checked > 0
    assert lambda_poly(4, 0, 5)(F(76, 51)) < 0
    recheck(cert)


def _cs(*coeff_lists):
    return [UniPoly(c) for c in coeff_lists]


@pytest.mark.parametrize(
    "cs, threshold, excluded",
    [
        # T = 0: every bound is <= 0, yet T is not negative
        (_cs([2], [], []), 1, False),
        # T = 2m - m^2 vanishes at the threshold 2 and is negative above it
        (_cs([2], [2], [-1]), 2, False),
        (_cs([2], [2], [-1]), 3, True),
        # T = -m^3 + 7m^2 - 12m is -6 at 1 but has the roots 3 and 4
        (_cs([6], [-12], [7], [-1]), 1, False),
        (_cs([6], [-12], [7], [-1]), 5, True),
        # T = -m^3 + 6m^2 - 10m has a positive coefficient but no root above 0
        (_cs([6], [-10], [6], [-1]), 1, True),
        # a positive leading bound fails however negative the rest
        (_cs([2], [-100], [1]), 1, False),
        # every bound <= 0 with a negative leading one passes at once
        (_cs([2], [0], [-1]), 1, True),
        # U_n = 0: T's leading coefficient is the lower one, here T = -m
        (_cs([2], [-1], []), 1, True),
        # U_n = 0 and T = m^2 - 5m: negative at 1, yet it grows without bound
        (_cs([6], [-5], [1], []), 1, False),
    ],
)
def test_piece_exclusion(cs, threshold, excluded):
    assert _negative_from(_tail_bound(cs, F(1), F(1)), threshold) is excluded


def test_piece_exclusion_bounds_the_whole_piece():
    # c_1 = (x - 1)(2 - x) is positive on (1, 2) and 0 at both ends, so T is
    # negative at either end point but not on the piece [1, 2]
    cs = _cs([2], [-2, 3, -1], [-1])

    def excluded(lo, hi):
        return _negative_from(_tail_bound(cs, lo, hi), 1)

    assert excluded(F(1), F(1)) and excluded(F(2), F(2))
    assert not excluded(F(1), F(2))
    assert not excluded(F(1), F(3, 2))


def test_threshold_is_the_least_m_the_cover_test_accepts():
    try:
        import sympy
    except ImportError:  # only the check against the largest root needs sympy
        sympy = None
    certified = 0
    for n in range(2, 10):
        for r in range((n - 1) // 2 + 1):
            for s in range(2, 41):
                e = e_empirical(n, r, s).ratio
                try:
                    big_m = e_certify(n, r, s, e).m_threshold
                except CertificationError:
                    continue
                certified += 1
                cs = family(n, r).scaled_coeffs(s)
                tail = _tail_bound(cs, e, e)
                assert _negative_from(tail, big_m), (n, r, s)
                assert big_m == 1 or not _negative_from(tail, big_m - 1), (n, r, s)
                if sympy is not None:
                    m = sympy.Symbol("m")
                    exact = [sympy.Rational(*ci(e).as_integer_ratio()) for ci in cs[1:]]
                    rho = max(sympy.real_roots(sum(c * m ** (i + 1) for i, c in enumerate(exact))))
                    assert big_m == floor(rho) + 1, (n, r, s)
    assert certified > 100


def test_cover_stops_at_its_piece_cap(monkeypatch):
    import fatflats.waldschmidt as waldschmidt

    monkeypatch.setattr(waldschmidt, "_COVER_PIECES", 4)  # (3, 1, 6) needs 18
    with pytest.raises(CertificationError) as err:
        e_certify(3, 1, 6, F(27, 7))
    assert err.value.step == "cover"
    assert "is not excluded within 4 pieces" in err.value.detail


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (n - 1) // 2), st.integers(2, 14))
    )
)
def test_certified_e_has_no_smaller_ratio_in_a_direct_scan(config):
    n, r, s = config
    e = e_empirical(n, r, s).ratio
    try:
        cert = e_certify(n, r, s, e)
    except CertificationError:
        return
    # past the threshold as well, where the cover alone excludes the pairs
    for m in range(1, 2 * cert.m_threshold + 6):
        for t in range(m, ceil(m * e)):
            assert binom(t + n, n) - s * conditions_count(n, r, m, t) <= 0, (t, m)


def test_certify_trivial_single_flat():
    cert = e_certify(5, 2, 1, F(1))
    assert cert.m_threshold == 1
    assert cert.pairs_checked == 0


def test_certify_rejects_unrealized_candidate():
    with pytest.raises(ValueError):
        e_certify(3, 0, 4, F(7, 5))


def test_certify_fails_on_beatable_candidate():
    # ratio 2 is realized at (t, m) = (2, 1) but 3/2 beats it
    with pytest.raises(CertificationError) as err:
        e_certify(3, 0, 4, F(2))
    assert err.value.step == "threshold"  # 2 lies above g = 4^(1/3)


def test_certify_fails_on_a_realized_ratio_above_e():
    # 65/34 lies below g and is realized, but the scan finds 21/11 below it
    with pytest.raises(CertificationError) as err:
        e_certify(3, 0, 7, F(65, 34))
    assert err.value.step == "scan"
    assert err.value.detail == "P > 0 at (t=21, m=11) with ratio 21/11 < 65/34"


def test_gamma_points_closed_forms():
    assert gamma_points_closed(3, 4) == F(4, 3)
    assert gamma_points_closed(4, 7) == F(3, 2)
    assert gamma_points_closed(3, 6) == F(12, 7)
    assert gamma_points_closed(5, 3) == 1
    assert gamma_points_closed(2, 5) == 2  # n+3 with n even
    with pytest.raises(ValueError):
        gamma_points_closed(3, 7)


def test_gamma_lookup():
    assert gamma_known_lookup(3, 1, 5).value == F(10, 3)
    assert gamma_known_lookup(3, 1, 5).source == "table"
    bound = gamma_known_lookup(3, 1, 6)
    assert bound.value == F(42, 11) and not bound.exact
    assert gamma_known_lookup(4, 1, 9).value == 3
    assert gamma_known_lookup(3, 0, 4).value == F(4, 3)
    assert gamma_known_lookup(5, 1, 7) is None
    assert gamma_known_lookup(7, 3, 2) is None
    assert gamma_known_lookup(7, 3, 1).value == 1  # a single flat


def test_bounds_report_strict_gap_example():
    report = bounds_report(3, 0, 4)
    assert report.gamma.value == F(4, 3)
    assert report.e == F(3, 2)
    assert report.e_certified
    assert report.gamma.value < report.e
    assert lambda_poly(3, 0, 4)(report.e) < 0  # e strictly below g
    assert report.g.defining.to_json() == [-4, 0, 0, 1]


def test_bounds_report_six_lines():
    report = bounds_report(3, 1, 6)
    assert report.gamma.source == "bound-only"
    assert report.e == F(27, 7) and report.e_certified
    assert report.g.decimal.startswith("3.85878")


def test_bounds_report_single_flat_collapses():
    report = bounds_report(4, 1, 1)
    assert report.gamma.value == 1
    assert report.e == 1
    assert report.g.is_exact and report.g.value == 1


def test_points_grid_gamma_below_empirical():
    for n in range(1, 5):
        for s in range(1, n + 4):
            gamma = gamma_points_closed(n, s)
            found = e_empirical(n, 0, s, 20).ratio
            assert gamma <= found


def test_single_flat_grid_e_equals_g_equals_one():
    for n in range(1, 9):
        for r in range((n - 1) // 2 + 1):
            report = bounds_report(n, r, 1, m_max=4)
            assert report.e == 1
            assert report.g.is_exact and report.g.value == 1


# the grid 2 <= n <= 8, 0 <= r <= (n-1)/2, s = 2..20 (361 configurations)
GRID = [(n, r, s) for n in range(2, 9) for r in range((n - 1) // 2 + 1) for s in range(2, 21)]

# sha256 of the whole grid: per configuration the canonical bounds_report
# JSON line, then the outcome of certifying its e (certificate JSON, or
# failing step and detail), each line ending in a newline
GRID_SHA256 = "78019a4ed0c5da542d4f1551171ade5695028e449fc8ed455802c616e2432ada"


def _grid_lines():
    for n, r, s in GRID:
        report = bounds_report(n, r, s)
        yield json.dumps(report.to_json(), sort_keys=True)
        try:
            outcome = {"certificate": e_certify(n, r, s, report.e).to_json()}
        except CertificationError as exc:
            outcome = {"step": exc.step, "detail": exc.detail}
        yield json.dumps(outcome, sort_keys=True)


def test_whole_grid_bytes():
    lines = list(_grid_lines())
    assert len(lines) == 2 * 361
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_SHA256


def test_every_grid_certificate_rechecks():
    certified = 0
    for n, r, s in GRID:
        try:
            cert = e_certify(n, r, s, e_empirical(n, r, s).ratio)
        except CertificationError as exc:
            assert exc.step == "threshold", (n, r, s)
            continue
        recheck(cert)
        certified += 1
    assert certified == 95
