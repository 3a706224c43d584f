"""Expected Waldschmidt constants with self-contained certificates.

The expected Waldschmidt constant of s fat r-flats in P^n is

    e = inf { t/m : t >= m >= 1, P(t) > 0 }

where P is the Hilbert polynomial at multiplicity m.  At a fixed m the
positive t >= m form a half-line, so only the largest t below m*p/q
matters for a candidate p/q, and along a lattice line of (t, m) the
polynomial n! * (P - 1) is one integer polynomial in the line's parameter
(``Family.along``).  A candidate is proved the infimum in three steps:

  1. m_threshold is the least M such that n! * (P - 1) < 0 along the ray
     t = m*p/q at every real m >= M.  The ray's top coefficient is
     q^n * n! * lambda(p/q), so a candidate above g is refused here;
  2. for m >= M, the largest t below m*p/q lies on one of q lattice lines,
     one per residue of m mod q, and each line is < 0 from M on;
  3. the finitely many remaining (t, m) pairs are settled by one Hilbert
     value per m, at the largest t of the m's range.

Steps 1 and 2 are ``_threshold_and_cover``.  The one (t, m) scan is
``Family.descents``: one Hilbert value per m, at the largest t below the
bound, and where that is positive the least positive t, a new best that
becomes the bound.  ``e_empirical`` drains it up to m_max, ``bounds_report``
resumes it after each new best and certifies inside it, ending it at
m_threshold - 1 once a candidate's lines hold, and ``e_certify``'s step 3
is its first pair over m < m_threshold.

Everything here reads the one cached integer object of the family,
``hilbert.family(n, r)``: the ray and the lines come from it without any
symbolic expansion, and so do single Hilbert values, at O(n * r) each
whatever m is.  Ratio bounds are turned into integer ranges of t by
cross-multiplication, never by building a Fraction per pair.

Since P takes integer values at integer t >= m, "P < 1" is "P <= 0", which
is why the certificate's polynomials are n! * (P - 1), with the constant
term carried along exactly rather than dropped.  Known Waldschmidt
constants (closed forms for few general points, table values for few
general lines) are exposed with source tags, and ``bounds_report``
assembles the certified chain gamma <= e <= g, reading each side of g off
g's own defining polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .asymptotic import g_value
from .hilbert import Family, _least_holding, alpha_expected, check_flat_domain, family
from .polynomials import Scalar, UniPoly, fraction_to_json
from .roots import AlgebraicNumber, _variations, count_roots_in


class RatioWitness(NamedTuple):
    """A pair t >= m >= 1 with positive Hilbert polynomial value."""

    t: int
    m: int
    value: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.t, self.m)


def _check_m_max(m_max: int) -> None:
    """m_max must be an int >= 1; like ``check_flat_domain``, a bool passes."""
    if not isinstance(m_max, int):
        raise TypeError(f"m_max must be an int, got {m_max!r}")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")


def e_empirical(n: int, r: int, s: int, m_max: int = 60) -> RatioWitness:
    """Minimal realized ratio t/m over 1 <= m <= m_max, ties to the smallest m.

    m = 1 is the expected initial degree (``alpha_expected``), and
    ``Family.descents`` scans every later m from it; its last new best is
    the minimum.  Only the final pair's Hilbert value is computed.
    """
    check_flat_domain(n, r, s)
    _check_m_max(m_max)
    fam = family(n, r)
    t, m = alpha_expected(n, r, s, 1), 1
    for t, m in fam.descents(s, t, m, 2, m_max + 1):
        pass
    return RatioWitness(t, m, fam.hilbert_value(s, m, t))


class ECertificate(NamedTuple):
    """Machine-checkable proof that the empirical ratio is the exact infimum.

    P <= 0 at every t/m below the ratio with m >= m_threshold (see
    ``e_certify``), and the scan settles every pair with m < m_threshold.
    """

    n: int
    r: int
    s: int
    ratio: Fraction
    witness: RatioWitness
    m_threshold: int
    finite_scan_range: str
    pairs_checked: int

    def to_json(self) -> dict:
        return {
            "ratio": fraction_to_json(self.ratio),
            "witness": {"t": self.witness.t, "m": self.witness.m, "value": self.witness.value},
            "m_threshold": self.m_threshold,
            "finite_scan_range": self.finite_scan_range,
            "pairs_checked": self.pairs_checked,
        }


class CertificationError(Exception):
    """A certification step failed; ``step`` names which one: "threshold"
    (the nonconstant part at the candidate does not tend to -infinity),
    "cover" (a lattice line below the candidate is not negative from the
    threshold on) or "scan" (a pair below the threshold beats the
    candidate)."""

    def __init__(self, step: str, detail: str):
        self.step = step
        self.detail = detail
        super().__init__(f"{step}: {detail}")


def _negative_from(poly: UniPoly, x: Scalar) -> bool:
    """Whether poly < 0 at every real point >= x, for a rational x >= 0.

    A zero poly, a leading coefficient >= 0 or poly(x) >= 0 fails; the
    leading sign is read off the numerators, whose denominator is positive.
    Then poly < 0 at x and at infinity, so it has an even number of roots
    above x, counted with multiplicity.  Since x >= 0 they are positive
    roots, at most as many as the sign variations of the raw coefficients
    (Descartes' rule), so at most one variation passes with no Taylor shift.
    Otherwise ``count_roots_in`` must find no root in (x, infinity).  Once
    true at x it stays true above x.
    """
    if poly.is_zero or poly.nums[-1] >= 0 or poly.sign(x) >= 0:
        return False
    return _variations(poly.nums) <= 1 or count_roots_in(poly, x) == 0


def _threshold_and_cover(fam: Family, s: int, p: int, q: int) -> int:
    """``e_certify``'s threshold and cover steps for the candidate p/q in
    lowest terms, s >= 2: the threshold m_threshold, from which on no
    t < m * p/q has P > 0.  A failing step raises its CertificationError.
    """
    # threshold: the least m >= 1 from which the ray stays negative
    ray = fam.along(s, q, 0, p, 0)
    if ray.is_zero or ray.nums[-1] >= 0:  # checked first: the search below would never stop
        raise CertificationError("threshold", "nonconstant part does not tend to -infinity at the candidate")
    m_threshold = _least_holding(lambda m: _negative_from(ray, Fraction(m, q)), 0)

    # cover: the largest t below m * candidate, one lattice line per residue j of m mod q
    for j in range(q):
        c = -(-j * p // q) - 1
        k_j = max(0, -(-(m_threshold - j) // q))
        if not _negative_from(fam.along(s, q, j, p, c), k_j):
            raise CertificationError(
                "cover", f"line (t, m) = ({p}k + {c}, {q}k + {j}) is not negative from k = {k_j}"
            )
    return m_threshold


def e_certify(n: int, r: int, s: int, candidate: Fraction) -> ECertificate:
    """Certify that the expected Waldschmidt constant equals ``candidate``.

    P is an integer at every integer t >= m - r - 1, so "n! * (P - 1) < 0"
    is "P <= 0".  With candidate = p/q, the proof has three steps, each
    named by the :class:`CertificationError` it raises:

      threshold: along the ray (t, m) = (p*k, q*k), n! * (P - 1) is
        ``ray = Family.along(s, q, 0, p, 0)``, q^n * ray(m/q) the nonconstant
        part of n! * P(m * candidate) at scale q^n.  It must tend to
        -infinity, which refuses every candidate above g, where its k^n
        coefficient q^n * n! * lambda(p/q) is positive.  Then m_threshold
        is the least m >= 1 with ray < 0 at every real k >= m/q, one more
        than the floor of q times the ray's largest root;
      cover: for m = q*k + j >= m_threshold, the largest t below m * p/q is
        p*k + ceil(j*p/q) - 1; along each of the q lines j = 0..q-1,
        n! * (P - 1) must be < 0 at every real k >= k_j, the least k with
        q*k + j >= m_threshold.  P <= 0 there settles every t in
        [m, m * candidate), since the positive t >= m form a half-line.
        A witness lies on the ray with P > 0, so m_threshold > q: every
        k_j >= 1, and the q lines cost less than the scan;
      scan: the finitely many pairs with m < m_threshold and
        m <= t < m * candidate are settled per m by ``Family.descents``:
        P_m <= 0 at the largest t of the range covers the whole range, and
        its first pair names the first m with a positive value and the
        least t there that beats the candidate.

    The witness is read off the ray: one Hilbert value at (p*k, q*k) for
    k = 1, 2, ... with q*k < m_threshold, until one is positive.  A witness
    (p*k, q*k) has n! * (P - 1) >= 0 on the ray at k, where the threshold
    step proved it negative for q*k >= m_threshold, so the walk reaches the
    least one.  An unrealized candidate raises the CertificationError of the
    first step that refutes it, and a ValueError only when all three steps
    pass.  A float candidate raises TypeError: its binary expansion would
    make q a large power of two (2^51 for 27/7), one cover line each.
    """
    if isinstance(candidate, float):
        raise TypeError(f"the candidate must be exact (an int or a Fraction), got the float {candidate!r}")
    check_flat_domain(n, r, s)
    candidate = Fraction(candidate)
    if candidate < 1:
        raise ValueError("ratios are >= 1 since t >= m")
    fam = family(n, r)

    if s == 1:
        # t >= m forces every ratio >= 1, and (t, m) = (1, 1) realizes 1
        if candidate != 1:
            raise CertificationError("scan", "a single flat realizes ratio 1, beating the candidate")
        witness = RatioWitness(1, 1, fam.hilbert_value(1, 1, 1))
        return ECertificate(n, r, s, candidate, witness, 1, "empty: t >= m forces every ratio >= 1", 0)

    p, q = candidate.numerator, candidate.denominator
    m_threshold = _threshold_and_cover(fam, s, p, q)

    # scan: every remaining pair with ratio < candidate, one value per m when none beats it
    pair = next(fam.descents(s, p, q, 1, m_threshold), None)
    if pair is not None:
        t, m = pair
        raise CertificationError("scan", f"P > 0 at (t={t}, m={m}) with ratio {Fraction(t, m)} < {candidate}")
    pairs = sum(-(-m * p // q) - m for m in range(1, m_threshold))  # each term >= 0 since candidate >= 1

    # the witness is the first point of the ray (t, m) = (p*k, q*k) below m_threshold with P > 0
    for k in range(1, -(-m_threshold // q)):
        value = fam.hilbert_value(s, q * k, p * k)
        if value > 0:
            break
    else:
        raise ValueError(f"candidate {candidate} is not realized below m_threshold {m_threshold}")

    scan_desc = f"all integer pairs with 1 <= m < {m_threshold} and m <= t < m*{candidate}"
    return ECertificate(n, r, s, candidate, RatioWitness(p * k, q * k, value), m_threshold, scan_desc, pairs)


class GammaKnown(NamedTuple):
    """A known Waldschmidt constant (or upper bound) with its provenance tag."""

    value: Fraction
    source: str  # "closed-form", "table", or "bound-only"

    @property
    def exact(self) -> bool:
        return self.source != "bound-only"


def gamma_points_closed(n: int, s: int) -> Fraction:
    """Waldschmidt constant of s <= n + 3 general points in P^n (closed form)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 1 <= s <= n + 3:
        raise ValueError(f"closed form only covers 1 <= s <= n + 3, got s={s}")
    if s <= n:
        return Fraction(1)
    if s == n + 1:
        return 1 + Fraction(1, n)
    if s == n + 2 or n % 2 == 0:
        return 1 + Fraction(2, n)
    return 1 + Fraction(2, n) + Fraction(2, n**3 + 2 * n**2 - n)


_GAMMA_LINES_P3 = {
    1: Fraction(1),
    2: Fraction(2),
    3: Fraction(2),
    4: Fraction(8, 3),
    5: Fraction(10, 3),
}


def gamma_known_lookup(n: int, r: int, s: int) -> Optional[GammaKnown]:
    """Known exact Waldschmidt constants, or tagged upper bounds, if any."""
    check_flat_domain(n, r, s)
    if r == 0 and s <= n + 3:
        return GammaKnown(gamma_points_closed(n, s), "closed-form")
    if (n, r) == (3, 1) and s in _GAMMA_LINES_P3:
        return GammaKnown(_GAMMA_LINES_P3[s], "table")
    if r == 1 and n >= 3 and s == (n - 1) ** (n - 2):
        return GammaKnown(Fraction(n - 1), "table")
    if (n, r, s) == (3, 1, 6):
        return GammaKnown(Fraction(42, 11), "bound-only")
    if s == 1:
        return GammaKnown(Fraction(1), "closed-form")
    return None


@dataclass(frozen=True)
class BoundsReport:
    """The chain gamma <= e <= g for one configuration.

    When ``e_certified`` is false, ``e`` is only the least ratio realized in
    the finite search, an upper estimate of the true infimum; it may then
    legitimately sit above g (the infimum need not be attained), so
    ``e <= g`` is guaranteed for certified values only.
    """

    n: int
    r: int
    s: int
    gamma: Optional[GammaKnown]
    e: Fraction
    e_certified: bool
    e_witness: RatioWitness
    g: AlgebraicNumber
    e_below_g: bool

    def to_json(self) -> dict:
        gamma = None
        if self.gamma is not None:
            gamma = {
                "value": fraction_to_json(self.gamma.value),
                "source": self.gamma.source,
                "exact": self.gamma.exact,
            }
        return {
            "n": self.n,
            "r": self.r,
            "s": self.s,
            "gamma": gamma,
            "e": fraction_to_json(self.e),
            "e_certified": self.e_certified,
            "e_witness": {"t": self.e_witness.t, "m": self.e_witness.m},
            "e_below_g": self.e_below_g,
            "g": self.g.to_json(),
        }


def bounds_report(n: int, r: int, s: int, m_max: int = 60) -> BoundsReport:
    """Assemble gamma (when known), e (certified when possible), and g.

    The assertable parts of the ordering gamma <= e <= g are checked with
    exact arithmetic; a violation would be a genuine contradiction and
    raises.  A rational x >= 1 lies above g exactly when g's defining
    polynomial is positive at x: for s >= 2 it is n! * lambda, and for s = 1
    the squarefree part of lambda, whose dropped factors are positive above
    1.  A ratio t/m above g's upper end hi is above g by t * den > hi * m
    alone, with no polynomial read; every other ratio reads the sign.

    e is ``e_empirical``'s, certified inside the same scan, resumed after
    each new best: each new best not above g goes through the threshold and
    cover steps (s = 1 keeps ``e_certify``'s special case), and when they
    hold with threshold M, no pair from M on beats it and the scan ends at
    m = M - 1, past m_max if need be (a new best that moves the end opens a
    new scan); a pair found past m_max leaves e uncertified.  When they fail
    the scan runs to m_max.  An uncertified e records whether e <= g held.
    """
    gamma = gamma_known_lookup(n, r, s)
    _check_m_max(m_max)
    g = g_value(n, r, s)
    hi, den = g.hi.numerator, g.hi.denominator
    fam = family(n, r)
    t, m = alpha_expected(n, r, s, 1), 1
    end = scan = None
    while True:
        e_below_g = t * den <= hi * m and g.defining.sign(t, m) <= 0
        threshold = None
        if e_below_g:
            d = gcd(t, m)
            try:  # a single flat realizes the least ratio 1 at (1, 1)
                threshold = 1 if s == 1 else _threshold_and_cover(fam, s, t // d, m // d)
            except CertificationError:
                pass
        if end != (stop := m_max + 1 if threshold is None else threshold):
            end, scan = stop, fam.descents(s, t, m, m + 1, stop)
        pair = next(scan, None)
        if pair is None:
            break
        if pair[1] > m_max:  # a pair past m_max beats e: e stands, uncertified
            threshold = None
            break
        t, m = pair
    e = Fraction(t, m)

    if gamma is not None and gamma.exact:
        if gamma.value > e:
            raise ArithmeticError(
                f"chain violation: gamma {gamma.value} > e {e} at (n={n}, r={r}, s={s})"
            )
        if g.defining.sign(gamma.value) > 0:
            raise ArithmeticError(
                f"chain violation: gamma {gamma.value} > g at (n={n}, r={r}, s={s})"
            )
    witness = RatioWitness(t, m, fam.hilbert_value(s, m, t))
    return BoundsReport(n, r, s, gamma, e, threshold is not None, witness, g, e_below_g)
