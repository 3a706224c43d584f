"""Finite enumeration engine behind the no-better-reducible-example bound,
plus replay drivers for the worked examples.

For s >= 7 general lines in P^3, no integer vector v = (m_1,...,m_s) with
d >= max(m_j) can have a positive Hilbert polynomial value at d while the
averaged ratio d*s/sum(m_j) stays below the root bound g(3, 1, s).  The
claim reduces to a finite region for 7 <= s <= 12:

    d <= -g(11g - 5s)/(6g^2 - 3sg - 3s),
    d*s/g < sum(m_j) <= -s(11g - 5s)/(6g^2 - 3sg - 3s),

which this module enumerates exhaustively, multiplicity vectors as
nondecreasing sequences.  No pair (v, d) is skipped, but few are evaluated:
d*s/sum(m_j) grows with d, so for each multiplicity sum the admissible
degrees are those up to one high end, and along a vector's row
d >= max m_j, where P(d) > 0 forces P(d + 1) > P(d), P <= 0 at the row's
high end proves P <= 0 on all of it.
Every comparison against the algebraic bound g is one integer comparison
with g's certified bracket [a/q, b/q] of width 1e-18: the caps come from
bound midpoints certified to within 5e-7, and a ratio test d*s/total < g
holds when d*s*q < total*a and fails when d*s*q >= total*b.  A comparison
the bracket cannot decide raises rather than guesses.  For s >= 13 the
analytic branch rests on two polynomial positivity facts, each proved for
every s at once by one exact root count of a polynomial in s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .asymptotic import g_value, lambda_poly, lambda_poly_via_leading, tower_check
from .blowup import alt_sum_one, alt_sum_zero, identity_check
from .cremona import LinearSystem, cremona_transform
from .hilbert import (
    alpha_expected,
    conditions_count,
    conditions_poly,
    hilbert_poly_mixed,
    hilbert_poly_symbolic,
    hilbert_poly_uniform,
    identity_sum_binom,
    identity_sum_i_binom,
)
from .polynomials import UniPoly, binom, decimal_str
from .roots import AlgebraicNumber, _bracket
from .waldschmidt import (
    CertificationError,
    _negative_from,
    bounds_report,
    e_certify,
    e_empirical,
    gamma_known_lookup,
)


def two_line_overlap_value(m1: int, m2: int, t: int) -> int:
    """Hilbert polynomial bound for two lines whose multiplicities overflow the degree.

    With d = m1 + m2 - t - 1 (so 0 <= t <= m1 - 1 keeps d >= max(m1, m2)),
    evaluates C(d+3, 3) - c(3,1,m1,d) - c(3,1,m2,d).  The value is always
    <= 0; the equivalent factored expression (see
    :func:`two_line_overlap_factored`) computes exactly six times it.
    """
    if not 1 <= m1 <= m2:
        raise ValueError("need 1 <= m1 <= m2")
    if not 0 <= t <= m1 - 1:
        raise ValueError("need 0 <= t <= m1 - 1")
    d = m1 + m2 - t - 1
    value = binom(d + 3, 3) - conditions_count(3, 1, m1, d) - conditions_count(3, 1, m2, d)
    factored = two_line_overlap_factored(m1, m2, t)
    if factored != 6 * value:
        raise ArithmeticError(
            f"erratum candidate: factored form {factored} != 6 * direct value {value} "
            f"at (m1={m1}, m2={m2}, t={t})"
        )
    return value


def two_line_overlap_factored(m1: int, m2: int, t: int) -> int:
    """The factored companion expression; equals six times the direct value."""
    return (
        -3 * t * (2 * m1 * m2 - (m1 + m2) * t)
        - 3 * m2 * t
        - 3 * m1 * t
        - t * (t - 1) * (t - 2)
    )


class Violation(NamedTuple):
    d: int
    mults: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class NosymetryReport:
    """Outcome of the finite enumeration for one s in 7..12."""

    s: int
    g: AlgebraicNumber
    d_bound: Fraction
    sum_bound: Fraction
    d_cap: int
    sum_cap: int
    cases_checked: int  # nondecreasing multiplicity sequences scanned
    case_counts: tuple[tuple[int, int], ...]  # (d, admissible vectors at d)
    pairs_checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "g": self.g.to_json(),
            "d_bound": decimal_str(self.d_bound, 6),
            "sum_bound": decimal_str(self.sum_bound, 6),
            "d_cap": self.d_cap,
            "sum_cap": self.sum_cap,
            "cases": self.cases_checked,
            "case_counts": {str(d): c for d, c in self.case_counts},
            "pairs_checked": self.pairs_checked,
            "violations": [
                {"d": v.d, "mults": list(v.mults), "value": v.value} for v in self.violations
            ],
        }


def nosymetry_bounds(s: int) -> tuple[AlgebraicNumber, Fraction, Fraction]:
    """The root bound g(3,1,s), bracketed to width 1e-18, and the midpoints
    of the degree and multiplicity-sum bounds.

    Each bound's interval, taken through its rational expression in g, is
    certified at most 1e-6 wide (:func:`_midpoint`), so the true bound lies
    within 5e-7 of the reported midpoint; :func:`_cap` reads the integer
    caps from that.
    """
    if not 7 <= s <= 12:
        raise ValueError("the finite branch covers 7 <= s <= 12")
    g = g_value(3, 1, s, Fraction(1, 10**18))
    # interval arithmetic through the two rational expressions, in integers
    # over lo = a/q and hi = b/q; every quotient is a pair (num, den > 0)
    a, b, q = _bracket(g.lo, g.hi)
    nums = 5 * s * a * q - 11 * b * b, 5 * s * b * q - 11 * a * a  # -g(11g-5s) q^2
    dens = 6 * a * a - 3 * s * b * q - 3 * s * q * q, 6 * b * b - 3 * s * a * q - 3 * s * q * q
    if dens[1] >= 0:
        raise ArithmeticError("denominator interval must be negative for 7 <= s <= 12")
    quots = [(-n, -d) for n in nums for d in dens]
    # -g(...)/den versus -s(...)/den differ by the factor s/g
    sums = [(n * s * q, d * g_num) for n, d in quots for g_num in (a, b)]
    return g, _midpoint(quots), _midpoint(sums)


def _midpoint(quots: list[tuple[int, int]]) -> Fraction:
    """The midpoint of the least and greatest of the quotients n/d (d > 0),
    which must lie at most 1e-6 apart."""
    n0, d0 = n1, d1 = quots[0]
    for n, d in quots[1:]:
        if n * d0 < n0 * d:
            n0, d0 = n, d
        if n * d1 > n1 * d:
            n1, d1 = n, d
    if (n1 * d0 - n0 * d1) * 10**6 > d0 * d1:
        raise ArithmeticError("bound intervals did not converge")
    return Fraction(n0 * d1 + n1 * d0, 2 * d0 * d1)


def _cap(bound: Fraction) -> int:
    """The largest integer k below the true bound, read from its midpoint.

    The true bound lies within 5e-7 of ``bound`` (:func:`nosymetry_bounds`).
    When ``bound`` is more than 5e-7 from every integer, the true bound is
    no integer and has the same floor, so floor(bound) is both the largest
    k < bound (the degree cap) and the largest k <= bound (the sum cap).
    Otherwise this raises.
    """
    k, rest = divmod(bound.numerator, bound.denominator)
    if 2 * 10**6 * min(rest, bound.denominator - rest) <= bound.denominator:
        raise ArithmeticError(f"bound {decimal_str(bound, 9)} lies within 5e-7 of an integer")
    return k


def _high_ends(g: AlgebraicNumber, s: int, sum_cap: int) -> list[int]:
    """For each total 0..sum_cap, the largest d with d*s/total < g (0 at total 0).

    With g in [a/q, b/q], high = ceil(total*b/(s*q)) - 1 is the largest d
    with d*s*q < total*b, so high + 1 is at or above g.  When also
    high*s*q < total*a, high lies below g, and so does every smaller d;
    otherwise the bracket is too wide to decide and this raises.
    """
    a, b, q = _bracket(g.lo, g.hi)
    sq = s * q
    highs = [0] * (sum_cap + 1)
    for total in range(1, sum_cap + 1):
        high = (total * b - 1) // sq
        if high * sq >= total * a:
            raise ArithmeticError(f"g's bracket does not decide d*{s}/{total} < g at d = {high}")
        highs[total] = high
    return highs


def _check_vector(
    violations: list[Violation],
    vec: tuple[int, ...],
    a: int,
    b2: int,
    lo: int,
    hi: int,
    cubes: list[int],
) -> None:
    """The exact check of one vector: P(d) = C(d+3, 3) - (d+1)*a + b2 with
    a = sum C(m+1, 2) and b2 = 2*sum C(m+1, 3), at each d of the row lo..hi
    when P is positive at its high end hi."""
    if cubes[hi] - (hi + 1) * a + b2 > 0:
        for d in range(lo, hi + 1):
            value = cubes[d] - (d + 1) * a + b2
            if value > 0:
                violations.append(Violation(d, vec, value))


def _scan_region(
    g: AlgebraicNumber, s: int, sum_cap: int, d_cap: int
) -> tuple[int, dict[int, int], int, list[Violation]]:
    """Scan every nondecreasing s-vector with multiplicity sum 1..sum_cap;
    returns (sequences, counts by degree, pairs, violations).

    One pass over all sums, once per head group.  A head is the first s - 1
    entries; they are built level by level with their sum ``used`` and
    their partial sums A0 = sum C(m+1, 2) and B0 = sum C(m+1, 3), and
    grouped by (used, low), low being the head's last (largest) entry.
    The last entry m then runs upward from low, and every count below
    depends on (used, low, m) only, so each group adds its multiplicity k
    at once.

    One high end per total.  The degrees with d*s/total < g are 1..high
    (:func:`_high_ends`).  A vector with largest entry m >= 1 covers the
    row m..min(high, top), top = max(d_cap, 1), so d = 1 is scanned
    whatever d_cap is.
    ``counts`` comes from a difference array over the rows, and ``pairs``
    from their lengths.

    One end per row.  For d >= m, c(3,1,m,d) = (d+1)*C(m+1,2) - 2*C(m+1,3)
    (``conditions_count_lines``), so P(d) = C(d+3,3) - (d+1)*A + 2*B.  Each
    entry's count obeys (d + 1) * c(d + 1) <= (d + 4) * c(d) at d >= its
    multiplicity (``hilbert.Family.first_positive``), with equality for
    C(d+3, 3), so on a row, where d >= max m, P(d) > 0 forces
    P(d + 1) > P(d), and P <= 0 at the high end proves P <= 0 on the whole
    row.

    One bound per group and last entry.  Each head entry x <= low has
    3*C(x+1, 3) = (x - 1)*C(x+1, 2) <= (low - 1)*C(x+1, 2), so
    3*B0 <= (low - 1)*A0.  At the high end hi >= m >= low, with
    F = C(hi+3, 3) - (hi+1)*C(m+1, 2) + 2*C(m+1, 3), this gives
    3*P(hi) <= 3*F - A0*(3*hi - 2*low + 5), and the factor is positive, so
    3*F <= A_min*(3*hi - 2*low + 5), A_min the group's least A0, proves
    P(hi) <= 0 for every head of the group.  Only a (group, m) that fails
    the test is a suspect: each of its heads runs the exact check of
    :func:`_check_vector`, which evaluates a row with a positive high end
    d by d, so every violation is still listed.
    Violations are sorted by sum, then lexicographically by vector, then by
    d with d = 1 last.
    """
    top = max(d_cap, 1)
    highs = _high_ends(g, s, sum_cap)
    ends = [min(high, top) for high in highs]
    pair_counts = [binom(m + 1, 2) for m in range(sum_cap + 1)]
    triple_counts = [binom(m + 1, 3) for m in range(sum_cap + 1)]
    cubes = [binom(d + 3, 3) for d in range(top + 1)]
    diff = [0] * (top + 2)
    violations: list[Violation] = []
    sequences = pairs = 0

    # heads as (low, used, A0, B0, entries), one level per slot, in
    # lexicographic order; the entry m and the left - 1 after it are all
    # >= m, so m * left <= sum_cap - used
    heads = [(0, 0, 0, 0, ())]
    for left in range(s, 1, -1):
        heads = [
            (m, used + m, a + pair_counts[m], b + triple_counts[m], entries + (m,))
            for low, used, a, b, entries in heads
            for m in range(low, (sum_cap - used) // left + 1)
        ]
    groups: dict[tuple[int, int], list[tuple]] = {}
    for head in heads:
        groups.setdefault(head[:2], []).append(head)

    for (low, used), members in groups.items():
        k = len(members)
        a_min = min(members)[2]  # the members share low and used
        first = low if used else 1  # the zero vector has sum 0
        sequences += k * (sum_cap - used - first + 1)
        # from m = top + 1 on, the row starts above top
        for m in range(first, min(sum_cap - used, top) + 1):
            lo, hi = m, ends[used + m]
            if lo <= hi:
                diff[lo] += k
                diff[hi + 1] -= k
                pairs += k * (hi - lo + 1)
                f = cubes[hi] - (hi + 1) * pair_counts[m] + 2 * triple_counts[m]
                if 3 * f > a_min * (3 * hi - 2 * low + 5):
                    a1, b1 = pair_counts[m], triple_counts[m]
                    for _, _, a0, b0, entries in members:
                        _check_vector(
                            violations, entries + (m,), a0 + a1, 2 * (b0 + b1), lo, hi, cubes
                        )

    counts, running = {}, 0
    for d in range(1, top + 1):
        running += diff[d]
        if running:
            counts[d] = running
    violations.sort(key=lambda v: (sum(v.mults), v.mults, v.d == 1, v.d))
    return sequences, counts, pairs, violations


def nosymetry_enumerate(s: int, threads: int = 1) -> NosymetryReport:
    """Exhaustive scan of the finite region; zero violations expected.

    Multiplicity vectors run over nondecreasing sequences to quotient out
    the permutation symmetry, each covered at every degree of its row (see
    :func:`_scan_region`): whole groups of vectors sharing their sum and
    their two largest entries are settled by one integer bound, and only
    the vectors of a group that bound leaves open are evaluated one by one
    (20 at s = 7, none for s = 8..12).  Violations are listed by
    multiplicity sum, then lexicographically by vector, then by degree with
    d = 1 last, so the report is deterministic.  ``threads`` is accepted for compatibility and
    ignored: the scan is serial.
    """
    g, d_bound, sum_bound = nosymetry_bounds(s)
    d_cap, sum_cap = _cap(d_bound), _cap(sum_bound)
    sequences, counts, pairs, violations = _scan_region(g, s, sum_cap, d_cap)
    return NosymetryReport(
        s, g, d_bound, sum_bound, d_cap, sum_cap,
        sequences, tuple(sorted(counts.items())), pairs, tuple(violations),
    )


def _branch_poly(c: Fraction) -> UniPoly:
    """6 * lambda(3, 1, s)(c * s) / s as a polynomial in s.  lambda is affine in s:
    6 * lambda_s = A - s * B with B = 6 * (lambda_1 - lambda_2), A = 6 * lambda_1 + B."""
    lam1, lam2 = lambda_poly(3, 1, 1), lambda_poly(3, 1, 2)
    b = 6 * (lam1 - lam2)
    a_at, b_at = ([x * c**k for k, x in enumerate(poly.coeffs)] for poly in (6 * lam1 + b, b))
    return UniPoly(a_at[1:]) - UniPoly(b_at)  # A = tau^3 has no constant term


def analytic_branch_holds() -> bool:
    """lambda(3, 1, s) > 0 at s/2 for every s >= 11 (so g < s/2) and at 5s/11 for
    every s >= 13 (so 11g < 5s), the facts behind the s >= 13 branch: each by one
    sign of ``_branch_poly`` at its least s and one root count above it."""
    least_s = {Fraction(1, 2): 11, Fraction(5, 11): 13}
    return all(_negative_from(-_branch_poly(c), Fraction(least)) for c, least in least_s.items())


def identities_report(seed: int) -> dict:
    """Identity sweeps, seeded spot checks (Hilbert expansion, Cremona
    involution) and the analytic branch for every s >= 13; each failure is named."""
    import random  # only this report draws, so other commands skip the import

    rng = random.Random(seed)
    failures: list[str] = []

    for t in range(13):
        for j in range(1, 13):
            if alt_sum_zero(t, j) != 0:
                failures.append(f"alt_sum_zero({t},{j})")
        for j in range(13):
            if t >= 1 and alt_sum_one(t, j) != 1:
                failures.append(f"alt_sum_one({t},{j})")
    for n in range(2, 13):
        for r in range(n):
            total = sum(
                (-1) ** (r - j) * binom(n, j) * binom(n - j - 1, r - j) for j in range(r + 1)
            )
            if total != 1:
                failures.append(f"unit-sum(n={n},r={r})")
    for n in range(1, 7):
        for r in range((n - 1) // 2 + 1):
            for s in (1, 2, 5):
                if lambda_poly(n, r, s) != lambda_poly_via_leading(n, r, s):
                    failures.append(f"leading(n={n},r={r},s={s})")
                if r >= 1 and not tower_check(n, r, s):
                    failures.append(f"tower(n={n},r={r},s={s})")
                if not identity_check(n, r, s):
                    failures.append(f"intersection(n={n},r={r},s={s})")
    for a in range(7):
        for m in range(1, 9):
            for name, identity in (("sum-binom", identity_sum_binom), ("sum-i-binom", identity_sum_i_binom)):
                lhs, rhs = identity(a, m)
                if lhs != rhs:
                    failures.append(f"{name}(a={a},m={m})")
    # seeded spot checks
    for _ in range(20):
        n = rng.randint(1, 5)
        r = rng.randint(0, (n - 1) // 2)
        s = rng.randint(1, 20)
        m = rng.randint(1, 9)
        t = rng.randint(m, 4 * m)
        direct = binom(t + n, n) - s * conditions_poly(n, r, m)(t)
        if hilbert_poly_symbolic(n, r, s)(t, m) != direct:
            failures.append(f"expansion(n={n},r={r},s={s},m={m},t={t})")
    for _ in range(20):
        n = rng.randint(2, 5)
        size = rng.randint(n + 1, n + 4)
        system = LinearSystem(n, rng.randint(0, 12), tuple(rng.randint(-3, 9) for _ in range(size)))
        idx = tuple(rng.sample(range(size), n + 1))
        once, c1 = cremona_transform(system, idx)
        twice, c2 = cremona_transform(once, idx)
        if twice != system or c2 != -c1:
            failures.append(f"involution({system.format()})")
    if not analytic_branch_holds():
        failures.append("analytic-branch")

    return {"seed": seed, "checks": "identities", "failures": failures, "ok": not failures}


class ReplayAssertion(NamedTuple):
    name: str
    expected: str
    got: str
    passed: bool


class ReplayReport(NamedTuple):
    example_id: str
    assertions: tuple[ReplayAssertion, ...]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_json(self) -> dict:
        return {
            "id": self.example_id,
            "passed": self.passed,
            "assertions": [
                {"name": a.name, "expected": a.expected, "got": a.got, "passed": a.passed}
                for a in self.assertions
            ],
        }


def _assert_eq(name: str, expected, got) -> ReplayAssertion:
    return ReplayAssertion(name, str(expected), str(got), expected == got)


def _assert_close(name: str, expected: str, value: Fraction, tol: Fraction) -> ReplayAssertion:
    target = Fraction(expected)
    return ReplayAssertion(name, expected, decimal_str(value, 8), abs(value - target) <= tol)


def _replay_e(n: int, r: int, s: int, expected: Fraction, m_max: int) -> ReplayReport:
    witness = e_empirical(n, r, s, m_max)
    rows = [_assert_eq("empirical ratio", expected, witness.ratio)]
    try:
        cert = e_certify(n, r, s, witness.ratio)
        rows.append(_assert_eq("certified", True, True))
        rows.append(
            ReplayAssertion(
                "m_threshold", "finite", str(cert.m_threshold), cert.m_threshold >= 1
            )
        )
    except CertificationError as err:
        rows.append(ReplayAssertion("certified", "True", f"failed at {err.step}", False))
    return ReplayReport(f"e-{n}-{r}-{s}", tuple(rows))


def _replay_g_table() -> ReplayReport:
    expected = {1: "1", 2: "2", 3: "2.584", 4: "3.064", 5: "3.482"}
    tol = Fraction(1, 1000)
    rows = []
    for s, text in expected.items():
        g = g_value(3, 1, s)
        rows.append(_assert_close(f"g(3,1,{s})", text, g.midpoint, tol))
    return ReplayReport("g-table-3-1", tuple(rows))


def _replay_points_3_0_4() -> ReplayReport:
    report = bounds_report(3, 0, 4)
    rows = [
        _assert_eq("gamma", Fraction(4, 3), report.gamma.value if report.gamma else None),
        _assert_eq("e", Fraction(3, 2), report.e),
        _assert_eq("e certified", True, report.e_certified),
        _assert_close("g", "1.5874010520", report.g.midpoint, Fraction(1, 10**6)),
        _assert_eq(
            "strict chain",
            True,
            report.gamma.value < report.e and lambda_poly(3, 0, 4)(report.e) < 0,
        ),
    ]
    return ReplayReport("points-3-0-4", tuple(rows))


def _replay_six_lines() -> ReplayReport:
    rows = [
        _assert_eq("P(3,1,6,7)(27)", 28, hilbert_poly_uniform(3, 1, 6, 7)(27)),
        _assert_eq(
            "P(3,1,(4,3,3,3,3,3))(12)", -5, hilbert_poly_mixed(3, 1, (4, 3, 3, 3, 3, 3))(12)
        ),
        _assert_eq(
            "upper bound 42/11 below e", True, Fraction(42, 11) < Fraction(27, 7)
        ),
        _assert_close("g(3,1,6)", "3.8587837", g_value(3, 1, 6).midpoint, Fraction(1, 10**6)),
    ]
    return ReplayReport("six-lines", tuple(rows))


def _replay_five_lines() -> ReplayReport:
    expected = {1: Fraction(1), 2: Fraction(2), 3: Fraction(2), 4: Fraction(8, 3), 5: Fraction(10, 3)}
    rows = []
    for s, value in expected.items():
        known = gamma_known_lookup(3, 1, s)
        rows.append(_assert_eq(f"gamma(3,1,{s})", value, known.value if known else None))
    rows.append(_assert_eq("alpha of 3 lines", 2, alpha_expected(3, 1, 3, 1)))
    rows.append(
        _assert_eq("P(3,1,(1,1,1,0,0))(2) > 0", True, hilbert_poly_mixed(3, 1, (1, 1, 1, 0, 0))(2) > 0)
    )
    return ReplayReport("five-lines", tuple(rows))


_REPLAYS = {
    "e-3-0-4": lambda: _replay_e(3, 0, 4, Fraction(3, 2), 12),
    "e-3-1-6": lambda: _replay_e(3, 1, 6, Fraction(27, 7), 50),
    "g-table-3-1": _replay_g_table,
    "points-3-0-4": _replay_points_3_0_4,
    "six-lines": _replay_six_lines,
    "five-lines": _replay_five_lines,
}


def replay_ids() -> list[str]:
    return sorted(_REPLAYS)


def replay_appendix(example_id: str) -> ReplayReport:
    """Re-run one registered worked example end to end and diff the values."""
    if example_id not in _REPLAYS:
        raise KeyError(f"unknown example id {example_id!r}; known: {', '.join(replay_ids())}")
    return _REPLAYS[example_id]()
