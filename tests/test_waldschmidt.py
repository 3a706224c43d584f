import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from math import ceil, factorial, floor, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflats.asymptotic import g_value, lambda_poly
from fatflats.hilbert import Family, _TABLED_M, conditions_count, family, hilbert_poly_symbolic
from fatflats.polynomials import UniPoly, binom
from fatflats.waldschmidt import (
    CertificationError,
    RatioWitness,
    _negative_from,
    _threshold_and_cover,
    bounds_report,
    e_certify,
    e_empirical,
    gamma_known_lookup,
    gamma_points_closed,
)

from certificate_check import along as symbolic_along
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


def _record_scans(monkeypatch):
    """Patch ``hilbert.comb`` and ``Family.descents`` to record every scan:
    returns (degrees, scans), the degree t of every Hilbert value in order,
    read off comb(t + n, n), and per scan opened its arguments and, for each
    stretch between resumptions, the degrees it valued and the pair it
    yielded (None when it ran out)."""
    import fatflats.hilbert as hilbert

    comb, descents = hilbert.comb, hilbert.Family.descents
    degrees, scans = [], []

    def counting_comb(a, b):
        degrees.append(a - b)
        return comb(a, b)

    def recording(self, s, p, q, start, end):
        runs = []
        scans.append(((p, q, start, end), runs))
        scan = descents(self, s, p, q, start, end)
        while True:
            before = len(degrees)
            pair = next(scan, None)
            runs.append((degrees[before:], pair))
            if pair is None:
                return
            yield pair

    monkeypatch.setattr(hilbert, "comb", counting_comb)
    monkeypatch.setattr(hilbert.Family, "descents", recording)
    return degrees, scans


def _probed(scans):
    """The m each recorded scan probed, in order, after checking that each m
    of a run was probed once at t = ceil(m * p/q) - 1 for the bound p/q of
    the moment, that an m with no pair cost that one value, and that the m
    of a pair t spent at most 2 * bit_length(stop - t) values, the walk's
    inside [m, stop - 1)."""
    probed = []
    for (p, q, start, end), runs in scans:
        for degrees, pair in runs:
            last = end if pair is None else pair[1] + 1
            k = 0
            for m in range(start, last):
                stop = -(-p * m // q)
                if stop > m:
                    assert degrees[k] == stop - 1, (m, degrees[k], stop)
                    probed.append(m)
                    k += 1
            walk = degrees[k:]
            if pair is None:
                assert not walk, walk
                continue
            (t, m), stop = pair, -(-p * pair[1] // q)
            assert 1 + len(walk) <= 2 * (stop - t).bit_length(), (pair, walk)
            assert all(m <= d < stop - 1 for d in walk), (pair, walk)
            p, q, start = t, m, m + 1
    return probed


@pytest.mark.parametrize("config", [(3, 1, 6, 60), (5, 2, 7, 60), (2, 0, 20, 60), (8, 3, 4, 12)])
def test_e_empirical_scans_walk_down(monkeypatch, config):
    # m = 1 is the expected initial degree: a doubling search and a bisection,
    # at most 2 * log2(t) + 3 Hilbert values.  Every later m is P_m at the top
    # of the range, then, where that is positive, a walk down by doubling
    # steps and a bisection: one Hilbert value when none is positive, at most
    # 2 * bit_length(stop - t) when t is the least positive, none for an
    # empty range
    import fatflats.waldschmidt as waldschmidt

    alpha = waldschmidt.alpha_expected
    starts = []
    degrees, scans = _record_scans(monkeypatch)

    def counting_alpha(*args):
        before = len(degrees)
        t = alpha(*args)
        starts.append((len(degrees) - before, t))
        return t

    monkeypatch.setattr(waldschmidt, "alpha_expected", counting_alpha)
    witness = e_empirical(*config)
    assert witness == _naive_e_empirical(*config)
    [(used, t)] = starts
    assert used <= 2 * log2(t) + 3, (used, t)
    assert _probed(scans) == list(range(2, config[-1] + 1))
    pairs = [pair for _, runs in scans for _, pair in runs if pair is not None]
    assert pairs[-1:] == ([(witness.t, witness.m)] if witness.m > 1 else [])
    # alpha's values, the scan's, and the final pair's one value: nothing else
    scanned = sum(len(run) for _, runs in scans for run, _ in runs)
    assert len(degrees) == used + scanned + 1 and degrees[-1] == witness.t


def test_e_empirical_spends_few_hilbert_values_on_the_grid(monkeypatch):
    # the least positive t usually sits a step or two below stop - 1, which a
    # walk down from stop finds in a few values, and only the final pair's
    # value is computed: 24,856 over the 361 configurations, against 48,209
    # for a bisection up from m - 1 and one value per improvement.  The 19
    # families are built first: their builds call comb too, and a build
    # counted here would make the budget depend on which tests ran before
    import fatflats.hilbert as hilbert

    for n, r, _ in GRID:
        family(n, r)
    comb, values = hilbert.comb, [0]

    def counting_comb(a, b):
        values[0] += 1
        return comb(a, b)

    monkeypatch.setattr(hilbert, "comb", counting_comb)
    assert len(GRID) == 361
    for config in GRID:
        e_empirical(*config)
    assert values[0] <= 25_000, values[0]


def test_certify_points_case():
    cert = e_certify(3, 0, 4, F(3, 2))
    assert cert.m_threshold == 6
    assert cert.pairs_checked > 0
    assert cert.witness.ratio == F(3, 2)
    recheck(cert)


def test_certify_lines_case():
    cert = e_certify(3, 1, 6, F(27, 7))
    assert cert.m_threshold == 48
    # every pair 1 <= m < 48, m <= t < 27m/7 is scanned exactly once
    assert cert.pairs_checked == 3243
    assert cert.pairs_checked == sum(-(-27 * m // 7) - m for m in range(1, 48))
    recheck(cert)


def test_certify_degenerate_interval_is_vacuous():
    # candidate 1: the one line t = m - 1 holds no pair, and the scan is empty
    cert = e_certify(3, 0, 2, F(1))
    assert cert.pairs_checked == 0
    assert "pieces" not in cert.to_json()
    recheck(cert)


def test_certify_nonobvious_value():
    # five general points in P^4: the machinery certifies 76/51 exactly
    cert = e_certify(4, 0, 5, F(76, 51))
    assert cert.pairs_checked > 0
    assert lambda_poly(4, 0, 5)(F(76, 51)) < 0
    recheck(cert)


@pytest.mark.parametrize(
    "cs, threshold, excluded",
    [
        # the zero polynomial is not negative
        ([0], 1, False),
        # 2m - m^2 vanishes at the threshold 2 and is negative above it
        ([0, 2, -1], 2, False),
        ([0, 2, -1], 3, True),
        # -m^3 + 7m^2 - 12m is -6 at 1 but has the roots 3 and 4
        ([0, -12, 7, -1], 1, False),
        ([0, -12, 7, -1], 5, True),
        # -m^3 + 6m^2 - 10m has a positive coefficient but no root above 0
        ([0, -10, 6, -1], 1, True),
        # a positive leading coefficient fails however negative the rest
        ([0, -100, 1], 1, False),
        # every coefficient <= 0 with a negative leading one passes at once
        ([0, 0, -1], 1, True),
        # a linear polynomial -m
        ([0, -1], 1, True),
        # m^2 - 5m: negative at 1, yet it grows without bound
        ([0, -5, 1], 1, False),
    ],
)
def test_piece_exclusion(cs, threshold, excluded):
    assert _negative_from(UniPoly(cs), threshold) is excluded


@pytest.mark.parametrize(
    "cs, point, excluded",
    [
        # 2k - k^2 has its root at 2: negative from 5/2 on, not from 3/2
        ([0, 2, -1], F(5, 2), True),
        ([0, 2, -1], F(3, 2), False),
        # no positive coefficient, but the value at 0 is 0
        ([0, -3, -1], 0, False),
        ([-1, -3, -1], 0, True),
        # 7k - 2k^2 - 3 has the roots 1/2 and 3; negative before 1/2 only
        ([-3, 7, -2], 0, False),
        ([-3, 7, -2], F(1, 3), False),
        ([-3, 7, -2], F(7, 2), True),
        # 1 + 2k - k^2: one sign variation, so one positive root (1 + sqrt 2);
        # negative at 3 decides it with no root count, positive at 2 fails
        ([1, 2, -1], 3, True),
        ([1, 2, -1], 2, False),
    ],
)
def test_negative_from_a_rational_point(cs, point, excluded):
    assert _negative_from(UniPoly(cs), point) is excluded


def test_grid_certificates_take_no_taylor_shift(monkeypatch):
    # every ray and line of the grid's e <= g candidates has at most one
    # sign variation, so _negative_from decides each by Descartes' rule on
    # its raw coefficients, with no Taylor shift to its point
    import fatflats.roots as roots

    candidates = [config for config in GRID if bounds_report(*config).e_below_g]
    assert len(candidates) == 101
    shift, shifted = roots._variations_above, []

    def counting(p, lo):
        shifted.append((p, lo))
        return shift(p, lo)

    monkeypatch.setattr(roots, "_variations_above", counting)
    certified = 0
    for n, r, s in candidates:
        try:
            e_certify(n, r, s, e_empirical(n, r, s).ratio)
            certified += 1
        except CertificationError as exc:
            assert exc.step == "threshold", (n, r, s)
    assert (certified, shifted) == (95, [])


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
                p, q = e.numerator, e.denominator
                ray = family(n, r).along(s, q, 0, p, 0)
                assert _negative_from(ray, F(big_m, q)), (n, r, s)
                assert big_m == 1 or not _negative_from(ray, F(big_m - 1, q)), (n, r, s)
                if sympy is not None:
                    k = sympy.Symbol("k")
                    rho = max(sympy.real_roots(sympy.Poly(list(reversed(ray.nums)), k)))
                    assert big_m == int(sympy.floor(q * rho)) + 1, (n, r, s)
    assert certified > 100


def test_cover_fails_on_a_line_that_is_not_excluded(monkeypatch):
    from fatflats.hilbert import Family

    along = Family.along

    def one_line_grows(self, s, q, j, p, c):
        return UniPoly([-1, 0, 1]) if (q, j) == (7, 5) else along(self, s, q, j, p, c)

    monkeypatch.setattr(Family, "along", one_line_grows)
    with pytest.raises(CertificationError) as err:
        e_certify(3, 1, 6, F(27, 7))
    assert err.value.step == "cover"
    # m = 7k + 5 >= 48 from k = 7 on, and 27k + 19 is the largest t below 27m/7
    assert err.value.detail == "line (t, m) = (27k + 19, 7k + 5) is not negative from k = 7"


def test_certificate_builds_no_chain(monkeypatch):
    import fatflats.roots as roots
    import fatflats.waldschmidt as waldschmidt

    built = []
    original = roots.sturm_chain

    def counting(p):
        built.append(p)
        return original(p)

    for module in (roots, waldschmidt):
        monkeypatch.setattr(module, "sturm_chain", counting, raising=False)
    e_certify(3, 1, 6, F(27, 7))
    assert built == []
    # every count of the grid's certificates, ray and lines, is decided by Descartes
    certified = 0
    for n in range(2, 9):
        for r in range((n - 1) // 2 + 1):
            for s in range(2, 21):
                try:
                    e_certify(n, r, s, e_empirical(n, r, s).ratio)
                except CertificationError:
                    continue
                certified += 1
    assert (certified, built) == (95, [])


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


def test_m_one_stop_is_positive():
    # P_1(t) = C(t + n, n) - s * C(t + r, r) > 0 at t = n * (s - 1) + 1
    for n in range(1, 13):
        for r in range(n):
            fam = family(n, r)
            for s in range(1, 301):
                assert fam.hilbert_value(s, 1, n * (s - 1) + 1) > 0, (n, r, s)


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


def test_certify_refutes_an_unrealized_candidate_at_its_first_failing_step():
    # the witness is read after the three steps, so a refuting step speaks first
    with pytest.raises(CertificationError) as err:
        e_certify(2, 0, 2, F(8, 7))
    assert err.value.step == "scan"
    assert err.value.detail == "P > 0 at (t=1, m=1) with ratio 1 < 8/7"
    with pytest.raises(CertificationError) as err:
        e_certify(7, 0, 17, F(3, 2))
    assert err.value.step == "threshold"


@pytest.mark.property
@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (n - 1) // 2), st.integers(2, 12))),
    st.integers(1, 6).flatmap(lambda q: st.tuples(st.integers(q, 3 * q), st.just(q))),
)
def test_certify_scan_matches_a_double_loop(config, fraction):
    """e_certify below its threshold against one Hilbert value per pair
    (t, m), m < M and m <= t < m * candidate, for candidates in [1, 3]."""
    n, r, s = config
    candidate = F(*fraction)
    p, q = candidate.numerator, candidate.denominator
    try:
        threshold = _threshold_and_cover(family(n, r), s, p, q)
    except CertificationError as refused:
        with pytest.raises(CertificationError) as err:
            e_certify(n, r, s, candidate)
        assert (err.value.step, err.value.detail) == (refused.step, refused.detail)
        return

    def positive(t, m):
        return binom(t + n, n) - s * conditions_count(n, r, m, t) > 0

    beating, pairs = None, 0
    for m in range(1, threshold):
        for t in range(m, ceil(m * candidate)):
            pairs += 1
            if positive(t, m):
                beating = t, m
                break
        if beating:
            break
    if beating:
        t, m = beating
        with pytest.raises(CertificationError) as err:
            e_certify(n, r, s, candidate)
        assert err.value.step == "scan"
        assert err.value.detail == f"P > 0 at (t={t}, m={m}) with ratio {F(t, m)} < {candidate}"
        return
    realized = [k for k in range(1, threshold) if q * k < threshold and positive(p * k, q * k)]
    if not realized:
        with pytest.raises(ValueError):
            e_certify(n, r, s, candidate)
        return
    cert = e_certify(n, r, s, candidate)
    k = realized[0]
    assert (cert.m_threshold, cert.pairs_checked) == (threshold, pairs)
    assert cert.witness == (p * k, q * k, binom(p * k + n, n) - s * conditions_count(n, r, q * k, p * k))


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
GRID_SHA256 = "95cc42ea133d100ac453de7105a793e353d5a389f548901b9b67543748a56a17"


def _grid_lines():
    for n, r, s in GRID:
        report = bounds_report(n, r, s)
        yield json.dumps(report.to_json(), sort_keys=True)
        try:
            outcome = {"certificate": e_certify(n, r, s, report.e).to_json()}
        except CertificationError as exc:
            outcome = {"step": exc.step, "detail": exc.detail}
        yield json.dumps(outcome, sort_keys=True)


def test_bounds_report_builds_lambda_once_inside_g(monkeypatch):
    import fatflats.asymptotic as asymptotic
    import fatflats.waldschmidt as waldschmidt

    build, g_of = asymptotic.lambda_poly, waldschmidt.g_value
    inside_g, calls = [False], []

    def counted_build(*args):
        calls.append(inside_g[0])
        return build(*args)

    def traced_g(*args):
        inside_g[0] = True
        try:
            return g_of(*args)
        finally:
            inside_g[0] = False

    monkeypatch.setattr(asymptotic, "lambda_poly", counted_build)
    monkeypatch.setattr(waldschmidt, "g_value", traced_g)
    for config in [(3, 0, 4), (3, 1, 6), (4, 1, 1), (8, 1, 5)]:  # (3, 0, 4) has an exact gamma
        calls.clear()
        bounds_report(*config)
        assert calls == [True], config


def test_bounds_report_past_the_table_certifies_e_below_g():
    # (8, 1, 5) attains e = 106/71 < g at m = 71, past the default m_max = 60;
    # with m_max = 80 both e_empirical's scan and the certificate's scan of
    # m < 86 read rows past the family's table
    import fatflats.hilbert as hilbert

    assert hilbert._TABLED_M < 71
    report = bounds_report(8, 1, 5, m_max=80)
    assert report.e == F(106, 71) and report.e_certified and report.e_below_g
    assert report.e_witness == RatioWitness(106, 71, 239344083)
    cert = e_certify(8, 1, 5, report.e)
    assert (cert.m_threshold, cert.pairs_checked) == (86, 1841)
    recheck(cert)


def test_certificate_lines_past_the_table_match_the_symbolic_path(monkeypatch):
    # (8, 1, 5)'s certificate at 106/71 builds the ray and 71 lines, and most
    # of their values lie past the family's table; each polynomial equals the
    # one interpolated from the BiPoly Hilbert polynomial
    along, built = Family.along, []

    def recording(self, *args):
        built.append((args, along(self, *args)))
        return built[-1][1]

    monkeypatch.setattr(Family, "along", recording)
    e_certify(8, 1, 5, F(106, 71))
    assert len(built) == 72 and {args[2] for args, _ in built[1:]} == set(range(71))
    assert sum(q * k + j > _TABLED_M for (_, q, j, _, _), _ in built for k in range(9)) == 582
    hilbert = hilbert_poly_symbolic(8, 1, 5)
    for (s, q, j, p, c), poly in built:
        assert (s, q, p) == (5, 71, 106)
        assert poly == symbolic_along(hilbert, 8, q, j, p, c), (j, c)


def test_a_float_candidate_is_refused_at_once():
    # 27/7 as a float has denominator 2^51, so the cover step would want 2^51
    # lines; run in a subprocess so that a hang fails the test instead of the suite
    probe = (
        "from fatflats.waldschmidt import e_certify\n"
        "try:\n"
        "    e_certify(3, 1, 6, 27 / 7)\n"
        "except TypeError as err:\n"
        "    print(err)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, timeout=30, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("the candidate must be exact"), proc.stdout


@pytest.mark.parametrize("scan", [e_empirical, bounds_report], ids=["e_empirical", "bounds_report"])
@pytest.mark.parametrize("m_max", [10.5, F(7), "7"], ids=["float", "Fraction", "str"])
def test_a_non_int_m_max_is_refused_before_any_work(monkeypatch, scan, m_max):
    # 10.5 once reached range() inside the scan, after the family was built
    import fatflats.waldschmidt as waldschmidt

    def no_work(*args):
        raise AssertionError("m_max was not checked first")

    monkeypatch.setattr(waldschmidt, "family", no_work)
    monkeypatch.setattr(waldschmidt, "g_value", no_work)
    with pytest.raises(TypeError, match="^m_max must be an int"):
        scan(3, 1, 6, m_max)


def test_bounds_report_e_below_g_is_lambdas_sign_on_the_grid():
    for n, r, s in GRID:
        report = bounds_report(n, r, s)
        assert report.e_below_g == (lambda_poly(n, r, s)(report.e) <= 0), (n, r, s)


def test_ray_top_coefficient_is_lambda_on_the_grid():
    # every p/q in [1, 4] with q <= 12: the ray's k^n coefficient, which
    # e_certify's threshold step refuses on, is q^n * n! * lambda(p/q), and
    # its sign is that of g's defining polynomial, which bounds_report reads
    ratios = {F(p, q) for q in range(1, 13) for p in range(q, 4 * q + 1)}
    for n, r, s in GRID:
        fam, lam, g = family(n, r), lambda_poly(n, r, s), g_value(n, r, s)
        for x in ratios:
            p, q = x.numerator, x.denominator
            ray = fam.along(s, q, 0, p, 0)
            top = ray.nums[n] if ray.degree == n else 0
            assert top == q**n * factorial(n) * lam(x), (n, r, s, x)
            assert (top > 0) == (g.defining.sign(x) > 0), (n, r, s, x)


@pytest.mark.parametrize(
    "config, candidate",
    [
        ((2, 0, 4), F(2)),  # the six rational e = g: lambda(e) = 0
        ((2, 0, 9), F(3)),
        ((3, 0, 8), F(2)),
        ((3, 1, 2), F(2)),
        ((5, 2, 2), F(2)),
        ((7, 3, 2), F(2)),
        ((3, 1, 6), F(4)),  # above g ~ 3.8588: lambda(4) > 0
    ],
)
def test_threshold_refusal_builds_exactly_one_ray(monkeypatch, config, candidate):
    from fatflats.hilbert import Family

    n, r, s = config
    assert g_value(n, r, s).defining.sign(candidate) >= 0
    along, built = Family.along, []

    def counting(self, *args):
        built.append(args)
        return along(self, *args)

    monkeypatch.setattr(Family, "along", counting)
    with pytest.raises(CertificationError) as err:
        e_certify(n, r, s, candidate)
    assert (err.value.step, err.value.detail) == (
        "threshold",
        "nonconstant part does not tend to -infinity at the candidate",
    )
    assert built == [(s, candidate.denominator, 0, candidate.numerator, 0)]


def _composed_bounds(n, r, s, m_max):
    # the reference composition: e_empirical's scan to m_max, then
    # e_certify on e when g's defining polynomial is <= 0 at e
    witness = e_empirical(n, r, s, m_max)
    below = g_value(n, r, s).defining.sign(witness.ratio) <= 0
    certified = False
    if below:
        try:
            e_certify(n, r, s, witness.ratio)
            certified = True
        except CertificationError:
            pass
    return witness.ratio, witness, certified, below


def _reported(report):
    return report.e, report.e_witness, report.e_certified, report.e_below_g


def test_bounds_report_equals_the_scan_and_its_certificate():
    families = sorted({(n, r) for n, r, _ in GRID})
    configs = GRID + [(n, r, 1) for n, r in families]
    assert len(configs) == 380
    for m_max in (1, 3, 10, 30, 60, 80):
        for config in configs:
            expected = _composed_bounds(*config, m_max)
            assert _reported(bounds_report(*config, m_max)) == expected, (config, m_max)


@pytest.mark.parametrize(
    "config, m_max, threshold",
    [
        ((3, 0, 4), 60, 6),  # the lines hold at e = 3/2 from m = 6: the scan stops at m = 5
        ((3, 1, 6), 30, 48),  # e = 27/7 holds from m = 48: the scan goes past m_max
        ((8, 1, 5), 80, 86),  # e = 106/71 holds from m = 86, past m_max and the table
    ],
)
def test_bounds_report_scans_to_the_threshold(monkeypatch, config, m_max, threshold):
    from fatflats.hilbert import Family

    hilbert_value, valued = Family.hilbert_value, []

    def counted(self, s, m, t):
        valued.append(m)
        return hilbert_value(self, s, m, t)

    _, scans = _record_scans(monkeypatch)
    report = bounds_report(*config, m_max)
    assert report.e_certified and report.e_below_g
    assert _probed(scans) == list(range(2, threshold))
    # the certificate's scan takes each m < M once, and its witness at most one value per k < M/q
    scans.clear()
    monkeypatch.setattr(Family, "hilbert_value", counted)
    certificate = e_certify(*config, report.e)
    assert certificate.m_threshold == threshold
    assert [args for args, _ in scans] == [(report.e.numerator, report.e.denominator, 1, threshold)]
    assert _probed(scans) == list(range(1, threshold))
    assert len(valued) <= ceil(F(threshold, report.e.denominator)) - 1
    monkeypatch.undo()
    assert _reported(report) == _composed_bounds(*config, m_max)


def test_a_pair_past_m_max_that_beats_e_leaves_it_uncertified(monkeypatch):
    # no grid configuration reaches this with m_max <= 80, so a pair is made
    # up: at m = 40 > m_max = 30, below (3, 1, 6)'s threshold 48, the largest
    # t below 40 * 27/7 is made positive
    from fatflats.hilbert import Family

    descents = Family.descents

    def beaten_at_40(self, s, p, q, start, end):
        if start <= 40 < end:
            for pair in descents(self, s, p, q, start, 40):
                p, q = pair
                yield pair
            p, q, start = -(-40 * p // q) - 1, 40, 41
            yield p, q
        yield from descents(self, s, p, q, start, end)

    monkeypatch.setattr(Family, "descents", beaten_at_40)
    report = bounds_report(3, 1, 6, m_max=30)
    assert (report.e, report.e_certified, report.e_below_g) == (F(27, 7), False, True)
    assert report.e_witness == e_empirical(3, 1, 6, 30)
    assert _reported(report) == _composed_bounds(3, 1, 6, 30)
    with pytest.raises(CertificationError) as err:
        e_certify(3, 1, 6, F(27, 7))
    assert err.value.step == "scan"
    assert err.value.detail == "P > 0 at (t=154, m=40) with ratio 77/20 < 27/7"


def test_bounds_report_runs_the_lines_only_below_g_on_the_grid(monkeypatch):
    import fatflats.waldschmidt as waldschmidt

    lines, candidates = waldschmidt._threshold_and_cover, []

    def recording(fam, s, p, q):
        candidates.append((fam.n, fam.r, s, F(p, q)))
        return lines(fam, s, p, q)

    monkeypatch.setattr(waldschmidt, "_threshold_and_cover", recording)
    reports = {config: bounds_report(*config) for config in GRID}
    for n, r, s, x in candidates:
        assert g_value(n, r, s).defining.sign(x) <= 0, (n, r, s, x)
    below = {config for config, report in reports.items() if report.e_below_g}
    assert len(below) == 101 and {c[:3] for c in candidates} == below
    monkeypatch.undo()
    certified = {config for config, report in reports.items() if report.e_certified}
    by_certificate = set()
    for n, r, s in GRID:
        try:
            e_certify(n, r, s, e_empirical(n, r, s).ratio)
            by_certificate.add((n, r, s))
        except CertificationError:
            pass
    assert len(certified) == 95 and certified == by_certificate


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


def test_grid_witnesses_lie_below_the_threshold():
    # the threshold step puts every witness on the ray below m_threshold,
    # so the scan meets the least one, the same as the empirical scan's
    certified = 0
    for n, r, s in GRID:
        witness = e_empirical(n, r, s)
        try:
            cert = e_certify(n, r, s, witness.ratio)
        except CertificationError:
            continue
        assert cert.witness.m < cert.m_threshold, (n, r, s)
        assert cert.witness == witness, (n, r, s)
        certified += 1
    assert certified == 95
