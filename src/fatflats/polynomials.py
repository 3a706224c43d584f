"""Exact polynomial arithmetic over the rationals.

Everything here is built on ``fractions.Fraction`` and Python integers, so
no rounding ever happens.  The module provides

* :func:`binom`, the binomial coefficient with the out-of-range convention
  C(a, b) = 0 for b < 0 or b > a,
* :class:`UniPoly`, a dense univariate polynomial with rational coefficients,
* :class:`BiPoly`, a sparse polynomial in two formal variables, used for the
  degree/multiplicity bookkeeping where both the evaluation point and the
  multiplicity stay symbolic,
* :class:`BiExpansion` and :func:`expand_scaled`, the regrouping of a
  polynomial p(t) under the substitution t = m*x by powers of m.

All values are immutable after construction; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def binom(a: int, b: int) -> int:
    """C(a, b) with C(a, b) = 0 whenever b < 0 or b > a.

    The upper argument must be nonnegative; a negative ``a`` is a domain
    error rather than a silently extended convention.
    """
    if a < 0:
        raise ValueError(f"binom: upper argument must be nonnegative, got {a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def fraction_to_str(q: Scalar) -> str:
    """Serialize a rational: "num/den" in lowest terms, plain "n" for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fraction_from_str(text: str) -> Fraction:
    return Fraction(text)


def fraction_to_json(q: Scalar):
    """JSON form of a rational: a plain int when integral, else the "num/den" string."""
    q = Fraction(q)
    if q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q: Scalar, sig: int = 10) -> str:
    """Correctly rounded decimal rendering of a rational to ``sig`` significant digits.

    Exact (no floating point); trailing zeros after the decimal point are
    stripped, so exact values render minimally ("3", "1.5").
    """
    q = Fraction(q)
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    num, den = abs(q.numerator), q.denominator
    # e = floor(log10(num/den)) by integer comparisons
    e = len(str(num)) - len(str(den))
    if num * 10 ** max(0, -e) < den * 10 ** max(0, e):
        e -= 1
    # round num/den * 10^(sig-1-e) to the nearest integer, half away from zero
    shift = sig - 1 - e
    if shift >= 0:
        scaled_num, scaled_den = num * 10**shift, den
    else:
        scaled_num, scaled_den = num, den * 10 ** (-shift)
    digits = (2 * scaled_num + scaled_den) // (2 * scaled_den)
    ds = str(digits)
    if len(ds) > sig:  # rounding bumped into the next decade
        e += 1
        ds = ds[:sig]
    if 0 <= e < sig:
        intpart, fracpart = ds[: e + 1], ds[e + 1 :].rstrip("0")
        return sign + intpart + ("." + fracpart if fracpart else "")
    if -4 <= e < 0:
        fracpart = ("0" * (-e - 1) + ds).rstrip("0")
        return sign + "0." + fracpart
    mant = ds[0] + ("." + ds[1:].rstrip("0") if ds[1:].rstrip("0") else "")
    return f"{sign}{mant}e{e:+d}"


class UniPoly:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x**i.  The zero polynomial has an
    empty coefficient tuple and degree -1; otherwise the leading coefficient
    is nonzero.  Instances are immutable.  Evaluation runs on a cached
    integer form: the coefficient numerators over one common denominator.
    """

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._ints = None

    def _integer_form(self) -> tuple[list[int], int]:
        """(nums, den) with coeffs[i] == nums[i] / den and den > 0, cached.

        Built from lists: a tuple grown from a generator is not taken from
        CPython's tuple free lists but is returned to them, so they fill up.
        """
        if self._ints is None:
            den = lcm(*[c.denominator for c in self.coeffs])
            self._ints = ([c.numerator * (den // c.denominator) for c in self.coeffs], den)
        return self._ints

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = fraction_to_str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                term = var if mag == 1 else f"{fraction_to_str(mag)}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __radd__(self, other):
        if other == 0:  # allows sum() over polynomials
            return self
        return NotImplemented

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _homogeneous(self, p: int, q: int) -> int:
        """sum nums[i] p^i q^(d-i), which is self(p/q) * den * q^d, by integer Horner."""
        acc, qk = 0, 1
        for c in reversed(self._integer_form()[0]):
            acc = acc * p + c * qk
            qk *= q
        return acc

    def __call__(self, x: Scalar) -> Fraction:
        p, q = x.numerator, x.denominator
        return Fraction(self._homogeneous(p, q), self._integer_form()[1] * q ** max(self.degree, 0))

    def sign(self, x: Scalar, q: int = 1) -> int:
        """Sign of self(x / q) for an integer q > 0, without building a Fraction."""
        v = self._homogeneous(x.numerator, x.denominator * q)
        return (v > 0) - (v < 0)

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lead = self.leading
        return UniPoly([c / lead for c in self.coeffs])

    def primitive(self) -> "UniPoly":
        """Integer-primitive scalar multiple with positive leading coefficient."""
        if self.is_zero:
            return self
        nums, _ = self._integer_form()
        g = gcd(*nums)
        nums = [v // g for v in nums]
        if nums[-1] < 0:
            nums = [-v for v in nums]
        return UniPoly(nums)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list:
        """Coefficient array, lowest degree first; rationals per fraction_to_json."""
        return [fraction_to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence) -> "UniPoly":
        return cls([Fraction(c) for c in data])


X = UniPoly([0, 1])


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quot = [Fraction(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    blead = b.leading
    bdeg = b.degree
    while len(rem) - 1 >= bdeg and rem:
        k = len(rem) - 1 - bdeg
        f = rem[-1] / blead
        quot[k] = f
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= f * c
        while rem and rem[-1] == 0:
            rem.pop()
    return UniPoly(quot), UniPoly(rem)


def _primitive_ints(a: list[int]) -> list[int]:
    """a divided by its content (the positive gcd of its coefficients)."""
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|^k * a mod b for some k >= 0, on integer lists (lowest degree first).

    The multiplier is a power of |lc(b)|, so the result is a positive multiple
    of the rational remainder and keeps its signs.  ``b`` must be nonzero.
    """
    r = list(a)
    lead = b[-1]
    scale, db = abs(lead), len(b) - 1
    while len(r) > db:
        k = len(r) - 1 - db
        f = r.pop() if lead > 0 else -r.pop()
        if scale != 1:
            r = [scale * c for c in r]
        for i in range(db):
            r[k + i] -= f * b[i]
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor over the rationals, by primitive
    pseudo-remainders of the integer forms."""
    a, b = _primitive_ints(a._integer_form()[0]), _primitive_ints(b._integer_form()[0])
    while b:
        a, b = b, _primitive_ints(_pseudo_remainder(a, b))
    return UniPoly(a).monic()


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): same roots, all simple."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree part")
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = poly_divmod(p, g)
    assert r.is_zero
    return q


def binom_poly(shift: Scalar, r: int) -> UniPoly:
    """C(x + shift, r) as a polynomial in x: prod_{j=1..r} (x + shift - r + j) / r!.

    For r = 0 this is the constant 1.
    """
    if r < 0:
        raise ValueError("binom_poly: r must be nonnegative")
    out = UniPoly([1])
    for j in range(1, r + 1):
        out = out * UniPoly([Fraction(shift) - r + j, 1])
    return out * Fraction(1, factorial(r))


def lagrange_interpolate(points: Sequence[tuple[Scalar, Scalar]]) -> UniPoly:
    """The unique polynomial of degree < len(points) through the given points."""
    result = UniPoly()
    for i, (xi, yi) in enumerate(points):
        term = UniPoly([Fraction(yi)])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * UniPoly([-Fraction(xj), 1]) * Fraction(1, Fraction(xi) - Fraction(xj))
        result = result + term
    return result


@lru_cache(maxsize=None)
def power_sum_poly(j: int) -> UniPoly:
    """sum_{i=0}^{m-1} i**j as a polynomial in m (degree j + 1), with 0**0 = 1."""
    if j < 0:
        raise ValueError("power_sum_poly: j must be nonnegative")
    points = []
    running = 0
    for m in range(j + 3):
        points.append((m, running))
        running += 1 if (m == 0 and j == 0) else m**j
    return lagrange_interpolate(points)


class BiPoly:
    """Sparse polynomial in two formal variables u and v over the rationals.

    Stored as a mapping (deg_u, deg_v) -> coefficient.  Which quantities u
    and v denote (degree t, multiplicity m, summation index i) is up to the
    call site.  Instances are immutable by convention: the term dict is
    never touched after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for key, val in (terms or {}).items():
            f = Fraction(val)
            if f != 0:
                clean[key] = f
        self.terms = clean

    @classmethod
    def from_uni_u(cls, p: UniPoly) -> "BiPoly":
        return cls({(i, 0): c for i, c in enumerate(p.coeffs)})

    @classmethod
    def from_uni_v(cls, p: UniPoly) -> "BiPoly":
        return cls({(0, i): c for i, c in enumerate(p.coeffs)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"BiPoly({self.terms!r})"

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + val
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            out: dict[tuple[int, int], Fraction] = {}
            for (a, b), x in self.terms.items():
                for (c, d), y in other.terms.items():
                    key = (a + c, b + d)
                    out[key] = out.get(key, Fraction(0)) + x * y
            return BiPoly(out)
        if isinstance(other, (int, Fraction)):
            return BiPoly({k: v * other for k, v in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, u: Scalar, v: Scalar) -> Fraction:
        total = Fraction(0)
        for (a, b), coef in self.terms.items():
            total += coef * Fraction(u) ** a * Fraction(v) ** b
        return total

    def degree_v(self) -> int:
        return max((b for (_, b) in self.terms), default=-1)

    def coeff_of_v(self, power: int) -> UniPoly:
        """Coefficient of v**power as a polynomial in u."""
        out: list[Fraction] = []
        for (a, b), coef in self.terms.items():
            if b != power:
                continue
            if len(out) <= a:
                out.extend([Fraction(0)] * (a + 1 - len(out)))
            out[a] += coef
        return UniPoly(out)

    def sum_v_range(self) -> "BiPoly":
        """Replace v by the summation index i and sum i = 0 .. w-1.

        The result is a polynomial in (u, w) occupying the same two slots.
        """
        out = BiPoly()
        for j in range(self.degree_v() + 1):
            cj = self.coeff_of_v(j)
            if cj.is_zero:
                continue
            out = out + BiPoly.from_uni_u(cj) * BiPoly.from_uni_v(power_sum_poly(j))
        return out


@dataclass(frozen=True)
class BiExpansion:
    """Regrouping of p(t) under t = m*x: p = sum_i coeffs_in_m[i](x) * m**i."""

    coeffs_in_m: tuple[UniPoly, ...]

    def __call__(self, t: Scalar, m: Scalar) -> Fraction:
        """Reassemble at x = t/m; equals the source polynomial at t."""
        x = Fraction(t) / Fraction(m)
        return sum(
            (c(x) * Fraction(m) ** i for i, c in enumerate(self.coeffs_in_m)),
            Fraction(0),
        )


def expand_scaled(p: UniPoly | BiPoly) -> BiExpansion:
    """Collect p(m*x) by powers of m.

    ``p`` is a polynomial in t, optionally with coefficients that are
    themselves polynomials in m (a :class:`BiPoly` with u = t, v = m).
    A term t**a m**b becomes x**a m**(a+b), so the coefficient of m**i is
    an exact polynomial c_i(x); substituting x = t/m reassembles p.
    """
    if isinstance(p, UniPoly):
        p = BiPoly.from_uni_u(p)
    buckets: dict[int, dict[int, Fraction]] = {}
    for (a, b), coef in p.terms.items():
        bucket = buckets.setdefault(a + b, {})
        bucket[a] = bucket.get(a, Fraction(0)) + coef
    top = max(buckets, default=-1)
    coeffs = []
    for i in range(top + 1):
        bucket = buckets.get(i, {})
        size = max(bucket, default=-1) + 1
        cs = [Fraction(0)] * size
        for a, coef in bucket.items():
            cs[a] = coef
        coeffs.append(UniPoly(cs))
    return BiExpansion(tuple(coeffs))
