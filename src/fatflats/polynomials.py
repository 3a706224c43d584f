"""Exact polynomial arithmetic over the rationals.

Everything here is built on Python integers, so no rounding happens
outside the decimal rendering: a :class:`UniPoly` is integer numerators
over one denominator, and ``Fraction`` appears only at the edges and in
:class:`BiPoly`.  It provides

* :func:`binom`, the binomial coefficient with the out-of-range convention
  C(a, b) = 0 for b < 0 or b > a,
* :class:`UniPoly`, a dense univariate polynomial with rational coefficients,
* :func:`remainder_sequence`, the primitive pseudo-remainder sequence
  (Collins) behind both :func:`poly_gcd` and the Sturm chains,
* :class:`BiPoly`, a sparse polynomial in two formal variables, used for the
  degree/multiplicity bookkeeping where both the evaluation point and the
  multiplicity stay symbolic.
* :func:`decimal_str`, a rational rendered to ``sig`` significant digits by
  one correctly rounded ``decimal`` division (General Decimal Arithmetic).

All values are immutable after construction; every function is pure.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
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


def fraction_to_json(q: Scalar):
    """JSON form of a rational: a plain int when integral, else the "num/den" string."""
    q = Fraction(q)
    if q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q: Scalar, sig: int = 10) -> str:
    """Correctly rounded decimal rendering of a rational to ``sig`` significant digits.

    One ``decimal`` division, rounded half away from zero (exact, no floating
    point, for any number of digits); trailing zeros are stripped, so exact
    values render minimally ("3", "1.5").  Exponent form ("1e-6") is used when
    the rounded exponent lies outside -4..sig-1.
    """
    q = Fraction(q)
    ctx = Context(sig, ROUND_HALF_UP, MIN_EMIN, MAX_EMAX)
    d = ctx.normalize(ctx.divide(Decimal(q.numerator), q.denominator))
    return f"{d:f}" if -4 <= d.adjusted() < sig else f"{d:e}"


class UniPoly:
    """Dense univariate polynomial with exact rational coefficients.

    The coefficient of x**i is ``nums[i] / den``: integer numerators with no
    trailing zero over one denominator ``den > 0``, with gcd(den, *nums) = 1,
    so equal polynomials have equal state.  The zero polynomial has no
    numerators, den 1 and degree -1.  ``UniPoly(coeffs, den)`` takes ints,
    ``Fraction``s or anything ``Fraction()`` accepts, all divided by ``den``.
    Instances are immutable.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Scalar] = (), den: int = 1):
        if den < 1:
            raise ValueError(f"UniPoly: den must be a positive integer, got {den}")
        nums = list(coeffs)
        if not all(type(c) is int for c in nums):
            fracs = [Fraction(c) for c in nums]
            scale = lcm(*[c.denominator for c in fracs])
            nums = [c.numerator * (scale // c.denominator) for c in fracs]
            den *= scale
        while nums and nums[-1] == 0:
            nums.pop()
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        self.nums: list[int] = nums
        self.den: int = den

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[i]`` is the coefficient of x**i, as a ``Fraction``."""
        return tuple([Fraction(c, self.den) for c in self.nums])

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, *self.nums))

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return UniPoly(a, den)

    def __radd__(self, other):
        if other == 0:  # allows sum() over polynomials
            return self
        return NotImplemented

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.nums], self.den)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            out = [0] * (len(self.nums) + len(other.nums) - 1)
            for i, a in enumerate(self.nums):
                if a:
                    for j, b in enumerate(other.nums):
                        out[i + j] += a * b
            return UniPoly(out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return UniPoly([c * f.numerator for c in self.nums], self.den * f.denominator)
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
        for c in reversed(self.nums):
            acc = acc * p + c * qk
            qk *= q
        return acc

    def __call__(self, x: Scalar) -> Fraction:
        p, q = x.numerator, x.denominator
        return Fraction(self._homogeneous(p, q), self.den * q ** max(self.degree, 0))

    def sign(self, x: Scalar, q: int = 1) -> int:
        """Sign of self(x / q) for an integer q > 0, without building a Fraction."""
        v = self._homogeneous(x.numerator, x.denominator * q)
        return (v > 0) - (v < 0)

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lead = self.nums[-1]
        return UniPoly(self.nums if lead > 0 else [-c for c in self.nums], abs(lead))

    def primitive(self) -> "UniPoly":
        """Integer-primitive scalar multiple with positive leading coefficient."""
        if self.is_zero:
            return self
        g = gcd(*self.nums) if self.nums[-1] > 0 else -gcd(*self.nums)
        return UniPoly([c // g for c in self.nums])

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list:
        """Coefficient array, lowest degree first; rationals per fraction_to_json."""
        return [fraction_to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence) -> "UniPoly":
        return cls(data)


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


def remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """[a, b, r_2, ..., r_k] on integer lists, lowest degree first.

    r_{i+1} is minus the primitive part of |lc(r_i)|^e * r_{i-1} mod r_i for
    some e >= 0.  The multiplier is positive, so each r_i is a positive
    multiple of the negated rational remainder (Sturm's sign convention).
    r_k is the last nonzero term, a scalar multiple of gcd(a, b).
    """
    seq = [a, b]
    while b:
        r, lead, scale, db = list(a), b[-1], abs(b[-1]), len(b) - 1
        while len(r) > db:  # pseudo-division by b, one leading term at a time
            k = len(r) - 1 - db
            f = r.pop() if lead > 0 else -r.pop()
            if scale != 1:
                r = [scale * c for c in r]
            for i in range(db):
                r[k + i] -= f * b[i]
            while r and r[-1] == 0:
                r.pop()
        g = gcd(*r)
        a, b = b, [-c // g for c in r]
        seq.append(b)
    seq.pop()
    return seq


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor over the rationals, by primitive
    pseudo-remainders of the integer numerators."""
    return UniPoly(remainder_sequence(a.nums, b.nums)[-1]).monic()


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): same roots, all simple; p itself when the
    gcd is constant."""
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
