"""Certified real-root counting and isolation for rational polynomials.

``count_roots_in`` is the one place a root count is decided: Descartes' rule
of signs first (Collins and Akritas), and only two or more sign variations
build a sign-variation chain (Sturm's method) on ``squarefree_part``, so
repeated roots cannot confuse the count; the chains, like the gcds, are
built by primitive pseudo-remainders in integers.  ``sign_at`` asks it too,
whether its bracket holds one root and a gcd shares it.  The shift to lo is
``taylor_shift``, in integers, and at lo = 0 there is none.  Isolation is
one midpoint bisection of an interval that holds one root: the sign of the
squarefree part alone refines it.  Its core, ``bisect_bracket``, runs on an
integer bracket (a, b, q) that stands for (a/q, b/q]; ``_newton_cell``,
``exact_if_rational``, ``isolate_largest_root``, ``refine`` and ``sign_at``
all go through it, and ``bisect_root`` is its wrapper with ``Fraction``
ends.  Once the bracket is at most 1/4 wide, Newton in fixed point, at
precisions that halve down from the final one, predicts the dyadic cell
the halvings would end in, and opposite nonzero signs at its two ends
confirm it (the idea of Abbott's quadratic interval refinement); anything
unconfirmed goes back to halving, so the intervals are those of plain
bisection.  A one-candidate test reports rational roots exactly (a
degenerate one-point interval) instead of as a narrow interval.  Signs are
computed in integers (``UniPoly.sign``), so the hot path builds no
``Fraction``: a root's two ends are built once, for its ``AlgebraicNumber``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .polynomials import (
    Scalar,
    UniPoly,
    decimal_str,
    fraction_to_json,
    poly_gcd,
    remainder_sequence,
    squarefree_part,
)

DEFAULT_PRECISION = Fraction(1, 10**12)


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number certified by a defining polynomial and interval.

    ``defining`` is squarefree with integer-primitive coefficients and positive
    leading coefficient; when lo < hi it has exactly one real root in the
    half-open (lo, hi], as ``count_roots_in``, ``bisect_root`` and
    ``refine`` read the bracket.  When the number is rational the interval
    may degenerate to the point lo = hi.
    """

    defining: UniPoly
    lo: Fraction
    hi: Fraction

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("not an exact rational; use the interval")
        return self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def decimal(self) -> str:
        """The interval midpoint rendered in decimal; its error is bounded by
        half the interval width plus one unit in the last rendered digit."""
        return decimal_str(self.midpoint)

    def to_json(self) -> dict:
        return {
            "defining": self.defining.to_json(),
            "interval": [fraction_to_json(self.lo), fraction_to_json(self.hi)],
            "decimal": self.decimal,
        }


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sign-variation chain of the squarefree part of p.

    ``chain[0]`` is ``squarefree_part(p)`` and ``chain[1]`` its derivative;
    the rest are the negated primitive pseudo-remainders of their numerators.
    Each is a positive multiple of the negated rational remainder, so every
    sign-variation count is the same as for the classical chain.  The gcd
    that ``squarefree_part`` divides out and the chain are two remainder
    sequences, even when p is squarefree.  A zero p raises ValueError.
    """
    p = squarefree_part(p)
    seq = remainder_sequence(p.nums, p.derivative().nums)  # just [p.nums] when p is constant
    return [p, p.derivative()][: len(seq)] + [UniPoly(r) for r in seq[2:]]


def sign_variations(chain: list[UniPoly], x: Scalar) -> int:
    signs = [v for v in (f.sign(x) for f in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations(coeffs: list[int]) -> int:
    """Sign variations of a coefficient sequence, zeros skipped; by
    Descartes' rule they bound its polynomial's positive roots, counted with
    multiplicity, and have their parity."""
    signs = [v > 0 for v in coeffs if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def taylor_shift(nums: list[int], a: int, q: int) -> list[int]:
    """The coefficients in y of q^d p((a + y)/q), lowest degree first, from
    p's integer coefficients ``nums`` (d = len(nums) - 1, q > 0): synthetic
    division in integers, O(d^2) multiplications by a."""
    c = [v * q**k for k, v in enumerate(reversed(nums))][::-1]
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _variations_above(p: UniPoly, lo: Scalar) -> int:
    """Sign variations of q^deg(p) den p((a + y)/q), lo = a/q, by a synthetic
    Taylor shift; by Descartes' rule they bound the roots of p above lo,
    counted with multiplicity, and have their parity.  At lo = 0 the shift
    is the identity, so the raw numerators' variations are returned."""
    a, q = lo.numerator, lo.denominator
    return _variations(taylor_shift(p.nums, a, q) if a else p.nums)


def count_roots_in(p: UniPoly, lo: Scalar, hi: Optional[Scalar] = None) -> int:
    """Exact number of distinct real roots of p in the half-open interval
    (lo, hi], or in (lo, infinity) when hi is omitted; lo and hi are rational.

    0 or 1 Descartes variations above lo decide: one means one simple root
    above lo, in (lo, hi] iff p(hi) is 0 or has the leading sign, and no
    sign is read when there is no hi.  Only two or more build the Sturm
    chain and read it at lo and hi, or at max(Cauchy bound, lo + 1), above
    every root, when there is no hi.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if hi is not None and not lo < hi:
        raise ValueError("count_roots_in requires lo < hi")
    v = _variations_above(p, lo)
    if v < 2:
        return v if hi is None else v and int(p.sign(hi) * p.nums[-1] >= 0)
    if hi is None:
        hi = max(cauchy_root_bound(p), lo + 1)
    chain = sturm_chain(p)
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def cauchy_root_bound(p: UniPoly) -> Fraction:
    """All real roots of p lie in (-B, B) for this B."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    nums = p.nums  # the common denominator cancels in |c| / |lead|
    return 1 + Fraction(max(map(abs, nums[:-1])), abs(nums[-1]))


def _bracket(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(lo, hi) as integers (a, b, q) with lo = a/q and hi = b/q."""
    q = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator), q


_JUMP_FROM_BITS = 2  # try the Newton jump once the bracket is at most 1/4 wide
_NEWTON_GUARD_BITS = 16
_NEWTON_BASE_BITS = 128  # Newton's first, coarsest stage runs at most this precise


def _newton_cell(
    sf: UniPoly, a: int, b: int, q: int, s_hi: int, width: Fraction
) -> Optional[tuple[int, int, int]]:
    """The cell that bisection of (a/q, b/q] to ``width`` ends in, as
    integers (a', b', q') like the bracket's, or None.

    (a/q, b/q] holds exactly one root of sf, and s_hi != 0 is the sign of
    sf(b/q).  Bisection to ``width`` takes k halvings, the least k with
    (b - a) / (q 2^k) <= width.  When no point of that depth-k dyadic grid is
    the root, it ends in cell j = floor((root q - a) 2^k / (b - a)).  Newton
    predicts j in fixed point.  At precision p an integer x stands for the
    point x / 2^p; one Horner pass, each term (f * x >> p) + c 2^p, gives
    2^p den sf(x / 2^p) and 2^p times its derivative as f and f', up to the
    rounding of each term; the step is (f << p) // f', and x is clamped to
    the bracket.  The final precision K is 16 bits finer than a cell.  The
    stages run at K, ceil(K/2), ... down to the first of at most 128 bits: x
    starts from the bracket's midpoint at the smallest and is carried up to
    each next stage by one shift, so the operands stay near p bits instead
    of deg K.  Once Newton is close, each step about squares the error, so a
    step of fewer than p/2 bits leaves a correction below one unit of its
    stage and ends the stage; log2(K) + 1 + (the number of stages) steps are
    allowed in all, and from a bracket at most 1/4 wide that sufficed for g
    on every workload.  The cell is returned only when sf has opposite
    nonzero signs at its two ends, which puts the root strictly inside it;
    those two signs are the whole certificate, so the stages, the truncation
    and the stop rule change only the cost, never the cell.  Equal signs
    move j one cell toward the root, at most twice.  None sends the caller
    back to halving: a sign 0 (a grid point is the root), a move off the
    grid, a zero derivative or no stop within those steps.
    """
    span = b - a
    num, den = span * width.denominator, width.numerator * q
    k = max(num.bit_length() - den.bit_length(), 0)
    if num > den << k:
        k += 1
    prec = k + q.bit_length() - span.bit_length() + _NEWTON_GUARD_BITS
    stages = [prec]  # prec, ceil(prec / 2), ... down to the first of at most 128 bits
    while stages[-1] > _NEWTON_BASE_BITS:
        stages.append((stages[-1] + 1) // 2)
    steps = prec.bit_length() + 1 + len(stages)
    p = stages[-1]
    x = ((a + b) << p) // (2 * q)  # the midpoint
    for stage in reversed(stages):
        x, p = x << stage - p, stage
        lead, *rest = [c << p for c in reversed(sf.nums)]
        x_lo, x_hi = -((-a << p) // q), (b << p) // q  # the bracket, rounded inward
        for steps in range(steps - 1, -1, -1):  # the steps left after this one
            f, df = lead, 0
            for c in rest:  # truncated Horner for f and its derivative together
                df = (df * x >> p) + f
                f = (f * x >> p) + c
            if not df:
                return None
            step = (f << p) // df
            x -= step
            if x < x_lo:
                x = x_lo
            elif x > x_hi:
                x = x_hi
            if 2 * step.bit_length() < p:
                break
        else:
            return None
    cells = 1 << k
    j = min(max(((x * q - (a << prec)) << k) // (span << prec), 0), cells - 1)
    q <<= k
    for _ in range(3):
        if not 0 <= j < cells:
            return None
        x0 = (a << k) + j * span
        s0, s1 = sf.sign(x0, q), sf.sign(x0 + span, q)
        if not (s0 and s1):
            return None
        if s0 != s1:
            return x0, x0 + span, q
        j += -1 if s1 == s_hi else 1
    return None


def bisect_bracket(sf: UniPoly, a: int, b: int, q: int, width: Fraction) -> tuple[int, int, int]:
    """Midpoint bisection to the one root of the squarefree sf in (a/q, b/q],
    all in integers: q > 0, and the result (a', b', q') is read the same way.

    (a/q, b/q] must already hold exactly one root.  It is in (mid, hi] iff
    sf(hi) = 0 or sf(mid) and sf(hi) differ in sign, so each halving reads
    one sign of sf.  Returns a bracket of width at most ``width`` holding
    the root; when a midpoint is the root it returns (mid, mid, q').  Once
    the bracket is at most 1/4 wide, ``_newton_cell`` is tried once and may
    jump straight to the final cell of the halvings, certified by two signs;
    whenever it declines, the halvings go on from where they stand, so the
    result is the same either way.  The width is read into integers once,
    so the halvings touch no ``Fraction``.  Only the rational values of the
    ends matter: the same bracket at any common denominator gives the same
    ends.
    """
    width = Fraction(width)
    w_num, w_den = width.numerator, width.denominator
    s_hi = sf.sign(b, q)
    jump = w_num > 0  # a width <= 0 never ends the loop, and its k would be unbounded
    while (b - a) * w_den > w_num * q:
        if jump and s_hi and (b - a) << _JUMP_FROM_BITS <= q:
            jump = False
            cell = _newton_cell(sf, a, b, q, s_hi, width)
            if cell is not None:
                return cell
        a, b, q, mid = 2 * a, 2 * b, 2 * q, a + b
        s_mid = sf.sign(mid, q)
        if s_mid == 0:
            return mid, mid, q
        if s_hi == 0 or s_mid == -s_hi:
            a = mid
        else:
            b, s_hi = mid, s_mid
    return a, b, q


def bisect_root(sf: UniPoly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """``bisect_bracket`` on (lo, hi], rationals in and out: (lo, hi) of width
    at most ``width`` holding the one root of the squarefree sf, or
    (mid, mid) when a midpoint is the root."""
    a, b, q = bisect_bracket(sf, *_bracket(lo, hi), width)
    return Fraction(a, q), Fraction(b, q)


def isolate_largest_root(
    p: UniPoly, lower: Fraction, precision: Fraction = DEFAULT_PRECISION
) -> Optional[AlgebraicNumber]:
    """Largest real root of p that is >= lower, or None if there is none.

    Halving narrows (lower, bound] to the largest root of the squarefree
    part sf, keeping (mid, hi] whenever ``count_roots_in`` finds a root
    there, and ``bisect_root`` then refines it; the returned interval has
    width at most ``precision``.  A rational root is detected by candidate
    testing and reported exactly.  A width ``precision`` <= 0 raises.
    """
    if precision <= 0:
        raise ValueError("the isolation width must be positive")
    if p.is_zero:
        raise ValueError("zero polynomial")
    lo = Fraction(lower)
    sf = squarefree_part(p)
    hi = max(cauchy_root_bound(sf), lo + 1)
    above = count_roots_in(sf, lo, hi)
    if not above:
        return AlgebraicNumber(sf.primitive(), lo, lo) if p.sign(lo) == 0 else None
    while above > 1:
        mid = (lo + hi) / 2
        upper = count_roots_in(sf, mid, hi)
        if upper:
            lo, above = mid, upper
        else:
            hi = mid
    return exact_if_rational(sf, *bisect_bracket(sf, *_bracket(lo, hi), precision))


def exact_if_rational(sf: UniPoly, a: int, b: int, q: int) -> AlgebraicNumber:
    """The one root of the squarefree sf in (a/q, b/q] (a ``bisect_bracket``
    result), as a point when it is rational.

    A rational root of the primitive part has a denominator dividing its
    leading coefficient lc.  Once a bracket (bottom, top] of the root is
    narrower than 1/lc, at most one k / lc lies in it, the one with
    k = floor(top * lc), so one sign decides; a wider (a/q, b/q] is first
    bisected below 1/(2 lc).  An irrational root keeps (a/q, b/q).  The
    number's two ``Fraction`` ends are the only ones built.
    """
    defining = sf.primitive()
    lc = defining.nums[-1]
    top, top_q = (b, q) if (b - a) * lc < q else bisect_bracket(sf, a, b, q, Fraction(1, 2 * lc))[1:]
    k = top * lc // top_q
    if a * lc < k * q and defining.sign(k, lc) == 0:
        # the interval holds exactly one root of sf, so k / lc is that root
        root = Fraction(k, lc)
        return AlgebraicNumber(defining, root, root)
    return AlgebraicNumber(defining, Fraction(a, q), Fraction(b, q))


def refine(alg: AlgebraicNumber, precision: Fraction) -> AlgebraicNumber:
    """Shrink the isolating interval to the requested width, which must be positive."""
    if precision <= 0:
        raise ValueError("the isolation width must be positive")
    if alg.is_exact or alg.hi - alg.lo <= precision:
        return alg
    return AlgebraicNumber(alg.defining, *bisect_root(alg.defining, alg.lo, alg.hi, precision))


def _interval_eval(p: UniPoly, a: int, b: int, q: int) -> tuple[int, int]:
    """Interval Horner evaluation in integers.

    With lo = a/q and hi = b/q over a common denominator q > 0, and p =
    nums/den, the result is the interval Horner enclosure of {p(x) : x in
    [lo, hi]} times the positive den * q^deg(p), so it has the same signs.
    For lo >= 0 two products, chosen by the signs of alo and ahi, are the
    ends.
    """
    alo = ahi = 0
    qk = 1
    for c in reversed(p.nums):
        if a >= 0:
            low, high = alo * (a if alo >= 0 else b), ahi * (b if ahi >= 0 else a)
        else:
            prods = (alo * a, alo * b, ahi * a, ahi * b)
            low, high = min(prods), max(prods)
        alo, ahi = low + c * qk, high + c * qk
        qk *= q
    return alo, ahi


def sign_at(alg: AlgebraicNumber, p: UniPoly) -> int:
    """Exact sign of p at the algebraic number (-1, 0, +1).

    The interval enclosure of p on the bracket decides first: when it
    excludes zero, p has that sign on the whole bracket.  Only a straddling
    enclosure counts the defining roots in (lo, hi] (anything but one is a
    ValueError) and computes the gcd of p and the defining polynomial: p
    vanishes at the root iff ``count_roots_in`` finds a root of the gcd in
    (lo, hi].  Otherwise p is nonzero at the root, so bisecting the bracket
    ends with an enclosure that excludes zero.
    """
    if p.is_zero:
        return 0
    if alg.is_exact:
        return p.sign(alg.value)
    lo, hi = alg.lo, alg.hi
    a, b, q = _bracket(lo, hi)
    vlo, vhi = _interval_eval(p, a, b, q)
    if vlo <= 0 <= vhi:
        if count_roots_in(alg.defining, lo, hi) != 1:
            raise ValueError(f"the defining polynomial has no single root in ({lo}, {hi}]")
        g = poly_gcd(p, alg.defining)  # its one possible root in (lo, hi] is the defining root
        if g.degree > 0 and count_roots_in(g, lo, hi):
            return 0
        while vlo <= 0 <= vhi:
            a, b, q = bisect_bracket(alg.defining, a, b, q, Fraction(b - a, 4 * q))
            vlo, vhi = _interval_eval(p, a, b, q)
    return 1 if vlo > 0 else -1
