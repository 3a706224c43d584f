"""Expected Waldschmidt constants with self-contained certificates.

The expected Waldschmidt constant of s fat r-flats in P^n is

    e = inf { t/m : t >= m >= 1, P(t) > 0 }

where P is the Hilbert polynomial at multiplicity m.  ``e_empirical`` scans
(t, m) pairs for the minimum realized ratio; ``e_certify`` upgrades a
candidate value to a proof that no smaller ratio exists, on the regrouped
polynomial n! * P(m*x) = n! + sum c_i(x) m^i:

  1. on a piece [a, b], the interval-Horner upper bounds U_i of the c_i
     give one polynomial T(m) = sum U_i m^i, and T < 0 at every real
     m >= M gives P(m*x) < 1 at every x in the piece and m >= M;
     m_threshold is the least M that test accepts on [candidate, candidate];
  2. the same test accepts M = m_threshold on every piece of a cover of
     [1, candidate], split at midpoints;
  3. the finitely many remaining (t, m) pairs are settled by one Hilbert
     value per m, at the largest t of the m's range.

Everything here reads the one cached integer object of the family,
``hilbert.family(n, r)``: the coefficients c_i = A_i - s * B_i come from it
without any symbolic expansion, and so do single Hilbert values, at
O(n * r) each whatever m is.  Both (t, m) scans ask the family, one m at a
time, for the least t in [m, stop) with P_m(t) > 0
(``Family.first_positive``).  At a fixed m the positive t >= m form a
half-line, so that is one Hilbert value at stop - 1, plus a bisection only
when it is positive: the certificate's scan of m < m_threshold costs one
value per m.  Ratio bounds are turned into integer ranges of t by
cross-multiplication, never by building a Fraction per pair.

Since P takes integer values at integer t >= m, "P < 1" is "P <= 0", which
is why the constant term n! can be carried along exactly rather than
dropped.  Known Waldschmidt constants (closed forms for few general points,
table values for few general lines) are exposed with source tags, and
``bounds_report`` assembles the certified chain gamma <= e <= g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, lcm
from typing import Optional

from .asymptotic import g_value, lambda_poly
from .hilbert import Family, _least_holding, check_flat_domain, family
from .polynomials import UniPoly, binom, fraction_to_json
from .roots import AlgebraicNumber, _interval_eval, cauchy_root_bound, count_roots_in


@dataclass(frozen=True)
class RatioWitness:
    """A pair t >= m >= 1 with positive Hilbert polynomial value."""

    t: int
    m: int
    value: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.t, self.m)


def e_empirical(n: int, r: int, s: int, m_max: int = 60) -> RatioWitness:
    """Minimal realized ratio t/m over 1 <= m <= m_max, ties to the smallest m.

    At m = 1, t ranges from 1 up to the safety band 11 + C(s + n, n).
    Every later m takes t only while t/m stays below the best ratio so far
    (t * best.m < best.t * m); larger t cannot improve the infimum
    estimate, and equal ratios keep the earlier, smaller m.  Each m is one
    ``Family.first_positive`` call on [m, stop), empty when stop <= m.
    """
    check_flat_domain(n, r, s)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    fam = family(n, r)
    t = fam.first_positive(s, 1, 11 + binom(s + n, n))
    if t is None:
        raise ArithmeticError("no witness found in the safety band")
    best = RatioWitness(t, 1, fam.hilbert_value(s, 1, t))
    for m in range(2, m_max + 1):
        stop = -(-best.t * m // best.m)  # least t with t * best.m >= best.t * m
        t = fam.first_positive(s, m, stop)
        if t is not None:
            best = RatioWitness(t, m, fam.hilbert_value(s, m, t))
    return best


@dataclass(frozen=True)
class ECertificate:
    """Machine-checkable proof that the empirical ratio is the exact infimum.

    ``pieces`` tile [1, ratio] left to right; on each, P <= 0 at every
    t/m with m >= m_threshold (see ``e_certify``).  A single flat needs no
    cover and has none.
    """

    n: int
    r: int
    s: int
    ratio: Fraction
    witness: RatioWitness
    m_threshold: int
    pieces: tuple[tuple[Fraction, Fraction], ...]
    finite_scan_range: str
    pairs_checked: int

    def to_json(self) -> dict:
        return {
            "ratio": fraction_to_json(self.ratio),
            "witness": {"t": self.witness.t, "m": self.witness.m, "value": self.witness.value},
            "m_threshold": self.m_threshold,
            "pieces": [[fraction_to_json(a), fraction_to_json(b)] for a, b in self.pieces],
            "finite_scan_range": self.finite_scan_range,
            "pairs_checked": self.pairs_checked,
        }


class CertificationError(Exception):
    """A certification step failed; ``step`` names which one: "threshold"
    (the nonconstant part at the candidate does not tend to -infinity),
    "cover" (some piece of [1, candidate] is not excluded within
    ``_COVER_PIECES`` pieces) or "scan" (a pair below the threshold beats
    the candidate)."""

    def __init__(self, step: str, detail: str):
        self.step = step
        self.detail = detail
        super().__init__(f"{step}: {detail}")


_WITNESS_TRIES = 128  # multiples k * (p, q) of the candidate p/q scanned for a witness
_COVER_PIECES = 256  # the most pieces a cover of [1, candidate] may hold


def _find_witness_for(fam: Family, s: int, candidate: Fraction) -> RatioWitness:
    q = candidate.denominator
    p = candidate.numerator
    for k in range(1, _WITNESS_TRIES + 1):
        m, t = k * q, k * p
        if t >= m >= 1:
            value = fam.hilbert_value(s, m, t)
            if value > 0:
                return RatioWitness(t, m, value)
    raise ValueError(f"candidate {candidate} is not realized by any scanned witness")


def _tail_bound(cs: list[UniPoly], lo: Fraction, hi: Fraction) -> UniPoly:
    """T(m) = sum_{i>=1} U_i m^i, the U_i the interval-Horner upper bounds of
    the integer c_i on [lo, hi] at the one positive scale q^n: at m >= 0, T(m)
    bounds q^n times the nonconstant part from above on the whole piece.  At
    lo = hi = x the bounds are exact: T is q^n times the nonconstant part at x.
    """
    q = lcm(lo.denominator, hi.denominator)
    n = len(cs) - 1
    return UniPoly([0] + [_interval_eval(ci, lo, hi)[1] * q ** (n - ci.degree) for ci in cs[1:]])


def _negative_from(tail: UniPoly, m: int) -> bool:
    """Whether tail < 0 at every real point >= m, for an integer m >= 1.

    A zero tail or a leading coefficient >= 0 fails (the tail does not tend
    to -infinity), and no positive coefficient passes at once.  Otherwise
    tail(m) < 0 is needed, and a Sturm count must find no root above m.
    Once true at m it stays true above m.
    """
    if tail.is_zero or tail.leading >= 0:
        return False
    if max(tail.nums) <= 0:
        return True
    if tail.sign(m) >= 0:
        return False
    top = max(cauchy_root_bound(tail), Fraction(m + 1))
    return count_roots_in(tail, m, top) == 0


def e_certify(n: int, r: int, s: int, candidate: Fraction) -> ECertificate:
    """Certify that the expected Waldschmidt constant equals ``candidate``.

    With n! * P(m*x) = n! + sum_{i>=1} c_i(x) m^i, and P an integer at every
    integer t >= m, "P < 1" is "P <= 0".  The proof has three steps, each
    named by the :class:`CertificationError` it raises:

      threshold: m_threshold is the least m >= 1 that the cover's test
        accepts on the point piece [candidate, candidate], one more than the
        floor of the largest root of the nonconstant part at the candidate;
      cover: [1, candidate] splits at midpoints into pieces, each accepted by
        that test, ``_negative_from`` on the piece's ``_tail_bound``, at m_threshold;
      scan: the finitely many pairs with m < m_threshold and
        m <= t < m * candidate are settled per m by ``Family.first_positive``:
        P_m <= 0 at the largest t of the range covers the whole range,
        since the positive t >= m form a half-line, and a positive value
        is bisected down to the least t that beats the candidate.

    A ValueError means the candidate is not realized by any witness at all.
    """
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
        return ECertificate(
            n, r, s, candidate, witness, 1, (), "empty: t >= m forces every ratio >= 1", 0
        )

    witness = _find_witness_for(fam, s, candidate)

    cs = fam.scaled_coeffs(s)
    if cs[0] != UniPoly([factorial(n)]):
        raise AssertionError("constant term of the regrouped polynomial must be n!")

    # threshold: the least m >= 1 that the cover's own test accepts at the candidate
    tail = _tail_bound(cs, candidate, candidate)
    if tail.is_zero or tail.leading >= 0:  # checked first: the search below would never stop
        raise CertificationError("threshold", "nonconstant part does not tend to -infinity at the candidate")
    m_threshold = _least_holding(lambda m: _negative_from(tail, m), 0)

    # cover: leftmost piece on top of the stack, so the pieces come out in order
    pieces: list[tuple[Fraction, Fraction]] = []
    todo = [(Fraction(1), candidate)]
    while todo:
        lo, hi = todo.pop()
        if _negative_from(_tail_bound(cs, lo, hi), m_threshold):
            pieces.append((lo, hi))
        elif len(pieces) + len(todo) + 2 > _COVER_PIECES:
            raise CertificationError(
                "cover", f"piece [{lo}, {hi}] is not excluded within {_COVER_PIECES} pieces"
            )
        else:
            mid = (lo + hi) / 2
            todo += [(mid, hi), (lo, mid)]

    # scan: every remaining pair with ratio < candidate, one value per m when none beats it
    pairs = 0
    for m in range(1, m_threshold):
        stop = ceil(m * candidate)
        t = fam.first_positive(s, m, stop)
        if t is not None:
            raise CertificationError(
                "scan", f"P > 0 at (t={t}, m={m}) with ratio {Fraction(t, m)} < {candidate}"
            )
        pairs += stop - m  # >= 0 since candidate >= 1

    scan_desc = f"all integer pairs with 1 <= m < {m_threshold} and m <= t < m*{candidate}"
    return ECertificate(
        n, r, s, candidate, witness, m_threshold, tuple(pieces), scan_desc, pairs
    )


@dataclass(frozen=True)
class GammaKnown:
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
    legitimately sit above g (the infimum need not be attained), so the
    exact ``e <= g`` assertion applies to certified values only.
    """

    n: int
    r: int
    s: int
    gamma: Optional[GammaKnown]
    e: Fraction
    e_certified: bool
    e_witness: RatioWitness
    g: AlgebraicNumber
    e_below_g: bool = True

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
    exact arithmetic (the sign of the scaling-limit polynomial decides
    position relative to g); a violation would be a genuine contradiction
    and raises.  For an uncertified e only gamma <= e and gamma <= g are
    hard facts; the report records whether e <= g held.
    """
    gamma = gamma_known_lookup(n, r, s)
    witness = e_empirical(n, r, s, m_max)
    e = witness.ratio
    try:
        e_certify(n, r, s, e)
        certified = True
    except CertificationError:
        certified = False
    g = g_value(n, r, s)
    lam = lambda_poly(n, r, s)

    if gamma is not None and gamma.exact:
        if gamma.value > e:
            raise ArithmeticError(
                f"chain violation: gamma {gamma.value} > e {e} at (n={n}, r={r}, s={s})"
            )
        if lam(gamma.value) > 0:
            raise ArithmeticError(
                f"chain violation: gamma {gamma.value} > g at (n={n}, r={r}, s={s})"
            )
    e_below_g = lam(e) <= 0
    if certified and not e_below_g:
        raise ArithmeticError(f"chain violation: certified e {e} > g at (n={n}, r={r}, s={s})")
    return BoundsReport(n, r, s, gamma, e, certified, witness, g, e_below_g)
