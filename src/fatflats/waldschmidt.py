"""Expected Waldschmidt constants with self-contained certificates.

The expected Waldschmidt constant of s fat r-flats in P^n is

    e = inf { t/m : t >= m >= 1, P(t) > 0 }

where P is the Hilbert polynomial at multiplicity m.  ``e_empirical`` scans
(t, m) pairs for the minimum realized ratio; ``e_certify`` upgrades a
candidate value to a proof that no smaller ratio exists, by a four-part
argument on the regrouped polynomial n! * P(m*x) = n! + sum c_i(x) m^i:

  1. below a threshold x_lo every nonconstant coefficient c_i is <= 0 and
     the leading one is < 0, so P < 1 there;
  2. on [x_lo, candidate] every c_i is nondecreasing (derivative sign via
     exact root counting), so P(m*x) <= P(m*candidate);
  3. for m at or above an explicit m_threshold the nonconstant part at
     x = candidate is negative, so P(m*candidate) < 1;
  4. the finitely many remaining (t, m) pairs are checked one by one.

Everything here reads the one cached integer object of the family,
``hilbert.family(n, r)``: the coefficients c_i = A_i - s * B_i come from it
without any symbolic expansion, and so do single Hilbert values, at
O(n * r) each whatever m is.  Both (t, m) scans ask the family, one m at a
time, for the least t in a range with P_m(t) > 0
(``Family.first_positive``), which walks t upward exactly.  The
certificate's scan starts every m at t = m; ``e_empirical`` starts it just
above m*x, where x is a band of ratios that the family excludes once for
all m by Descartes' rule of signs (``Family.sign_band``).  Ratio bounds
are turned into integer ranges of t by cross-multiplication, never by
building a Fraction per pair.

Since P takes integer values at integer t >= m, "P < 1" is "P <= 0", which
is why the constant term n! can be carried along exactly rather than
dropped.  Known Waldschmidt constants (closed forms for few general points,
table values for few general lines) are exposed with source tags, and
``bounds_report`` assembles the certified chain gamma <= e <= g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial
from typing import Optional

from .asymptotic import g_value, lambda_poly
from .hilbert import Family, check_flat_domain, family
from .polynomials import UniPoly, binom, fraction_to_json
from .roots import (
    DEFAULT_PRECISION,
    AlgebraicNumber,
    bisect_root,
    count_roots_in,
    isolate_largest_root,
    sturm_chain,
)


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

    At m = 1, t runs upward from 1 up to the safety band 11 + C(s + n, n).
    Every later m runs t only while t/m stays below the best ratio so far
    (t * best.m < best.t * m); larger t cannot improve the infimum
    estimate, and equal ratios keep the earlier, smaller m.  It starts just
    above m*x, where x is the family's sign band below the m = 1 ratio
    (``Family.sign_band``), since no t/m <= x has a positive value; without
    a band it starts at m.  Each m is one ``Family.first_positive`` scan,
    and an m whose range is empty is skipped.
    """
    check_flat_domain(n, r, s)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    fam = family(n, r)
    t = fam.first_positive(s, 1, 1, 11 + binom(s + n, n))
    if t is None:
        raise ArithmeticError("no witness found in the safety band")
    best = RatioWitness(t, 1, fam.hilbert_value(s, 1, t))
    band = fam.sign_band(s, best.ratio)
    for m in range(2, m_max + 1):
        start = m if band is None else m * band.numerator // band.denominator + 1  # floor(m*x) + 1
        stop = -(-best.t * m // best.m)  # least t with t * best.m >= best.t * m
        if start < stop:
            t = fam.first_positive(s, m, start, stop)
            if t is not None:
                best = RatioWitness(t, m, fam.hilbert_value(s, m, t))
    return best


@dataclass(frozen=True)
class MonotonicityCheck:
    """Verdict for one coefficient polynomial on the certification interval."""

    index: int
    interval: tuple[Fraction, Fraction]
    verdict: str  # "increasing", "constant", or "vacuous" (one-point interval, nothing checked)


@dataclass(frozen=True)
class ECertificate:
    """Machine-checkable proof that the empirical ratio is the exact infimum."""

    n: int
    r: int
    s: int
    ratio: Fraction
    witness: RatioWitness
    x_lo: Fraction
    m_threshold: int
    coefficient_monotonicity: tuple[MonotonicityCheck, ...]
    finite_scan_range: str
    pairs_checked: int

    def to_json(self) -> dict:
        return {
            "ratio": fraction_to_json(self.ratio),
            "witness": {"t": self.witness.t, "m": self.witness.m, "value": self.witness.value},
            "x_lo": fraction_to_json(self.x_lo),
            "m_threshold": self.m_threshold,
            "monotonicity": [
                {
                    "index": c.index,
                    "interval": [fraction_to_json(c.interval[0]), fraction_to_json(c.interval[1])],
                    "verdict": c.verdict,
                }
                for c in self.coefficient_monotonicity
            ],
            "finite_scan_range": self.finite_scan_range,
            "pairs_checked": self.pairs_checked,
        }


class CertificationError(Exception):
    """A certification step failed; ``step`` names which one."""

    def __init__(self, step: str, detail: str):
        self.step = step
        self.detail = detail
        super().__init__(f"{step}: {detail}")


_WITNESS_TRIES = 128  # multiples k * (p, q) of the candidate p/q scanned for a witness


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


def e_certify(n: int, r: int, s: int, candidate: Fraction) -> ECertificate:
    """Certify that the expected Waldschmidt constant equals ``candidate``.

    Raises :class:`CertificationError` naming the failing step when the
    argument cannot be completed, and ValueError when the candidate is not
    realized by any witness at all.
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
            n, r, s, candidate, witness, Fraction(1), 1, (),
            "empty: t >= m forces every ratio >= 1", 0,
        )

    witness = _find_witness_for(fam, s, candidate)

    cs = fam.scaled_coeffs(s)
    if cs[0] != UniPoly([factorial(n)]):
        raise AssertionError("constant term of the regrouped polynomial must be n!")

    # step (ii): largest x_lo <= candidate with all nonconstant c_i <= 0 on [1, x_lo]
    x_lo = candidate
    for ci in cs[1:]:
        if ci.is_zero:
            continue
        x_lo = min(x_lo, _coefficient_sign_limit(ci, candidate))
        if x_lo == 1:
            break
    # soundness of the band [1, x_lo]: the leading coefficient n! * lambda
    # must stay negative there (its first root >= 1 is the g bound)
    if x_lo > 1:
        lead = cs[n]
        inside = count_roots_in(lead, Fraction(1), x_lo)
        if lead.sign(1) >= 0 or inside > 1 or (inside == 1 and lead.sign(x_lo) != 0):
            raise CertificationError("sign", "leading coefficient is not negative below x_lo")

    # step (iii): every nonconstant c_i nondecreasing on [x_lo, candidate]
    checks = []
    for i in range(1, n + 1):
        der = cs[i].derivative()
        if der.is_zero:
            checks.append(MonotonicityCheck(i, (x_lo, candidate), "constant"))
            continue
        if x_lo == candidate:
            checks.append(MonotonicityCheck(i, (x_lo, candidate), "vacuous"))
            continue
        if count_roots_in(der, x_lo, candidate) != 0 or der(candidate) <= 0:
            raise CertificationError(
                "monotonicity", f"coefficient of m^{i} is not increasing on the interval"
            )
        checks.append(MonotonicityCheck(i, (x_lo, candidate), "increasing"))

    # step (iv): threshold with the nonconstant part negative at x = candidate
    tail = UniPoly([0] + [ci(candidate) for ci in cs[1:]])
    if tail.is_zero or tail.leading >= 0:
        raise CertificationError("threshold", "nonconstant part does not tend to -infinity at the candidate")
    top = isolate_largest_root(tail, Fraction(0), Fraction(1, 10**6))
    if top is None:
        m_threshold = 1
    else:
        m_threshold = int(top.hi) + 1
    if tail(m_threshold) >= 0:
        raise CertificationError("threshold", "threshold sanity evaluation failed")

    # step (v): exhaustive scan of every remaining pair with ratio < candidate
    pairs = 0
    for m in range(1, m_threshold):
        stop = ceil(m * candidate)
        t = fam.first_positive(s, m, m, stop)
        if t is not None:
            raise CertificationError(
                "scan", f"P > 0 at (t={t}, m={m}) with ratio {Fraction(t, m)} < {candidate}"
            )
        pairs += stop - m  # >= 0 since candidate >= 1

    scan_desc = (
        f"all integer pairs with 1 <= m < {m_threshold} and m <= t < m*{candidate}"
        f" (band below x_lo={x_lo} already excluded by sign)"
    )
    return ECertificate(
        n, r, s, candidate, witness, x_lo, m_threshold, tuple(checks), scan_desc, pairs
    )


def _coefficient_sign_limit(ci: UniPoly, candidate: Fraction) -> Fraction:
    """Largest x in [1, candidate] with a certificate that ci <= 0 on [1, x].

    The certificate is: ci(1) <= 0, no roots of ci in (1, x], and ci(x) < 0,
    which pins the sign of ci on the whole of (1, x].  Returns 1 when no
    nontrivial band can be certified.
    """
    one = Fraction(1)
    if ci.sign(one) > 0:
        return one
    chain = sturm_chain(ci)
    # the lower end of a 1e-6 bracket of the smallest root in (1, candidate]:
    # ci has no root in (1, limit], so its sign there is that of ci(limit)
    found = bisect_root(chain[0], one, candidate, Fraction(1, 10**6), chain, smallest=True)
    if found is None:
        # no root in the interval, so ci(candidate) != 0 and the sign there
        # rules the whole of (1, candidate]
        return candidate if ci.sign(candidate) < 0 else one
    limit = found[0]
    if limit > one and ci.sign(limit) < 0:
        return limit
    return one


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


def bounds_report(
    n: int,
    r: int,
    s: int,
    m_max: int = 60,
    precision: Fraction = DEFAULT_PRECISION,
) -> BoundsReport:
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
    g = g_value(n, r, s, precision)
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
