"""Linear systems with assigned point multiplicities and their Cremona reduction.

A system L_n(d; m_1,...,m_s) is the space of degree-d forms on P^n vanishing
to order m_i at s general points.  The standard Cremona involution sends it
to an isomorphic system: with c = (n-1)d - (m_1 + ... + m_{n+1}) over any
n+1 chosen points, the degree and the chosen multiplicities all shift by c.
Degrees and multiplicities may go negative along a reduction chain; a
negative multiplicity imposes no condition.

Emptiness and nonemptiness certificates:

* empty: d < 0, or some multiplicity exceeds d (order of vanishing beyond
  the degree kills the form);
* nonempty by count: positive virtual dimension forces a section when the
  degree dominates every multiplicity;
* nonempty by witness: a product of hyperplanes through subsets of at most
  n of the general points.  Such a product realizing degree d and coverage
  m_i exists if and only if max(m_i) <= d and sum(m_i) <= n*d (clamping
  negatives to zero), and a round-robin assignment constructs one.

``reduce_system`` greedily transforms on the n+1 largest multiplicities
while that lowers the degree, stopping as soon as a certificate fires.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .polynomials import binom, fraction_to_json
from .waldschmidt import gamma_points_closed


class _LinearSystemFields(NamedTuple):
    n: int
    d: int
    mults: tuple[int, ...]


class LinearSystem(_LinearSystemFields):
    """Degree-d forms on P^n with assigned multiplicities at general points."""

    __slots__ = ()

    def __new__(cls, n: int, d: int, mults: Iterable[int]):
        # a NamedTuple body may not define __new__, hence the fields base
        if n < 2:
            raise ValueError("Cremona systems live in P^n with n >= 2")
        return super().__new__(cls, n, d, tuple(int(m) for m in mults))

    @classmethod
    def parse(cls, n: int, text: str) -> "LinearSystem":
        """Parse the "d;m1,m2,..." notation."""
        head, _, tail = text.partition(";")
        mults = tuple(int(p) for p in tail.split(",") if p.strip()) if tail else ()
        return cls(n, int(head), mults)

    def format(self) -> str:
        return f"{self.d};{','.join(str(m) for m in self.mults)}"

    def padded(self, size: int) -> "LinearSystem":
        if len(self.mults) >= size:
            return self
        return LinearSystem(self.n, self.d, self.mults + (0,) * (size - len(self.mults)))

    def clamped(self) -> "LinearSystem":
        return LinearSystem(self.n, self.d, tuple(max(m, 0) for m in self.mults))


def cremona_transform(sys: LinearSystem, idx: Iterable[int]) -> tuple[LinearSystem, int]:
    """Apply the standard involution over the n+1 points selected by ``idx``.

    Returns the transformed system and the shift c; the multiplicity list is
    padded with zeros up to the largest chosen index plus one, so the chosen
    indices 0, 1, 2, 9 make a 10-point system.
    """
    chosen = sorted(set(idx))
    if len(chosen) != sys.n + 1:
        raise ValueError(f"need exactly n+1 = {sys.n + 1} distinct indices, got {chosen}")
    sys = sys.padded(max(chosen) + 1)
    if chosen[0] < 0:
        raise IndexError(f"index out of range in {chosen}")
    c = (sys.n - 1) * sys.d - sum(sys.mults[j] for j in chosen)
    mults = list(sys.mults)
    for j in chosen:
        mults[j] += c
    return LinearSystem(sys.n, sys.d + c, tuple(mults)), c


def empty_certificate(sys: LinearSystem) -> bool:
    """True when the system is certainly empty: negative degree, or a point
    whose required order of vanishing exceeds the degree."""
    if sys.d < 0:
        return True
    return any(m > sys.d for m in sys.mults)


def virtual_dimension(sys: LinearSystem) -> int:
    """Form count minus conditions, negatives clamped: C(d+n, n) - sum C(m_i+n-1, n)."""
    return binom(sys.d + sys.n, sys.n) - sum(
        binom(max(m, 0) + sys.n - 1, sys.n) for m in sys.mults
    )


class Witness(NamedTuple):
    """A product of hyperplanes: (point subset, weight) factors summing to d."""

    factors: tuple[tuple[tuple[int, ...], int], ...]

    def verify(self, sys: LinearSystem) -> bool:
        total = sum(w for _, w in self.factors)
        if total != sys.d:
            return False
        coverage = [0] * len(sys.mults)
        for subset, w in self.factors:
            if w < 0 or len(subset) > sys.n:
                return False
            for i in subset:
                coverage[i] += w
        return all(cov >= m for cov, m in zip(coverage, sys.mults))

    def to_json(self) -> list:
        return [{"points": list(subset), "weight": w} for subset, w in self.factors]


def hyperplane_product_witness(sys: LinearSystem) -> Optional[Witness]:
    """Explicit nonemptiness witness by hyperplanes through <= n points each.

    Assigning each degree unit a hyperplane through at most n of the general
    points, the required coverages are achievable exactly when every clamped
    multiplicity is <= d and their sum is <= n*d; a round-robin placement
    then distributes each point's m_i units over m_i distinct degree units.
    Point i takes the cursors from m_1 + ... + m_{i-1} to the next point's
    start, and cursor c fills unit c mod d, so the units between two
    consecutive run ends mod d hold the same points: unit j holds those
    whose runs contain the cursors j, j + d, ..., found by bisection on
    the starts.  The work grows with the number of points, not with d.
    Returns None when no such product exists (which proves nothing about
    emptiness).
    """
    d = sys.d
    if d < 0:
        return None
    needs = [max(m, 0) for m in sys.mults]
    if any(m > d for m in needs) or sum(needs) > sys.n * d:
        return None
    if d == 0:  # every need is 0 and there is no unit to fill
        return Witness(())
    starts, points, cursor = [], [], 0  # each point with a need, and its first cursor
    for point, need in enumerate(needs):
        if need:
            starts.append(cursor)
            points.append(point)
            cursor += need
    cuts = sorted({0, d, cursor % d}.union(c % d for c in starts))
    grouped: dict[tuple[int, ...], int] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        key = tuple(points[bisect_right(starts, c) - 1] for c in range(lo, cursor, d))
        grouped[key] = grouped.get(key, 0) + hi - lo
    witness = Witness(tuple(sorted(grouped.items())))
    assert witness.verify(sys.clamped()), "round-robin construction must verify"
    return witness


class ReductionStep(NamedTuple):
    chosen: tuple[int, ...]
    c: int
    result: LinearSystem


class ReductionTrace(NamedTuple):
    start: LinearSystem
    steps: tuple[ReductionStep, ...]
    verdict: str  # "empty" | "nonempty" | "undecided"
    certificate: str
    witness: Optional[Witness] = None

    @property
    def final(self) -> LinearSystem:
        return self.steps[-1].result if self.steps else self.start

    def to_json(self) -> dict:
        return {
            "start": self.start.format(),
            "steps": [
                {"idx": list(st.chosen), "c": st.c, "system": st.result.format()}
                for st in self.steps
            ],
            "verdict": self.verdict,
            "certificate": self.certificate,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _greedy_indices(sys: LinearSystem) -> tuple[int, ...]:
    """Indices of the n+1 largest multiplicities, ties broken by lowest index."""
    order = sorted(range(len(sys.mults)), key=lambda i: (-sys.mults[i], i))
    return tuple(sorted(order[: sys.n + 1]))


def _certificate_verdict(sys: LinearSystem) -> Optional[tuple[str, str, Optional[Witness]]]:
    if empty_certificate(sys):
        reason = "negative degree" if sys.d < 0 else "a multiplicity exceeds the degree"
        return "empty", f"{reason} in {sys.format()}", None
    witness = hyperplane_product_witness(sys)
    if witness is not None:
        return "nonempty", f"hyperplane product witness on {sys.clamped().format()}", witness
    vdim = virtual_dimension(sys)  # not empty, so d >= 0 and no m exceeds d
    if vdim > 0:
        return "nonempty", f"virtual dimension {vdim} > 0", None
    return None


def reduce_system(sys: LinearSystem, max_steps: int = 64) -> ReductionTrace:
    """Greedy Cremona reduction until a certificate fires or progress stops.

    Repeatedly transforms on the n+1 largest multiplicities while the shift
    c is negative; checks the certificates before every step.  A step with
    c >= 0 is refused (it cannot help) and the trace ends undecided.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    start = sys.padded(sys.n + 1)
    current = start
    steps: list[ReductionStep] = []
    for _ in range(max_steps + 1):
        hit = _certificate_verdict(current)
        if hit is not None:
            verdict, certificate, witness = hit
            return ReductionTrace(start, tuple(steps), verdict, certificate, witness)
        if len(steps) >= max_steps:
            break
        idx = _greedy_indices(current)
        transformed, c = cremona_transform(current, idx)
        if c >= 0:
            return ReductionTrace(start, tuple(steps), "undecided", "no degree-lowering step available")
        current = transformed
        steps.append(ReductionStep(idx, c, current))
    return ReductionTrace(start, tuple(steps), "undecided", "step limit reached")


class GammaCaseRow(NamedTuple):
    """One h-instance of the alpha bookkeeping for s general points."""

    h: int
    upper_system: LinearSystem
    upper_nonempty: bool
    lower_system: Optional[LinearSystem]
    lower_empty: Optional[bool]
    alpha: int
    multiplicity: int
    ratio: Fraction
    consistent: bool

    @property
    def ok(self) -> bool:
        return self.upper_nonempty and self.lower_empty is not False and self.consistent


class GammaCaseReport(NamedTuple):
    n: int
    s: int
    gamma: Fraction
    rows: tuple[GammaCaseRow, ...]
    endpoint_note: str

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "gamma": fraction_to_json(self.gamma),
            "rows": [
                {
                    "h": row.h,
                    "upper": row.upper_system.format(),
                    "upper_nonempty": row.upper_nonempty,
                    "lower": row.lower_system.format() if row.lower_system else None,
                    "lower_empty": row.lower_empty,
                    "alpha": row.alpha,
                    "multiplicity": row.multiplicity,
                    "ratio": fraction_to_json(row.ratio),
                    "consistent": row.consistent,
                }
                for row in self.rows
            ],
            "endpoint": self.endpoint_note,
            "ok": self.ok,
        }


def _case_systems(n: int, s: int, h: int) -> tuple[LinearSystem, Optional[LinearSystem], int, int]:
    """Witness system, emptiness system (or None), degree and multiplicity."""
    if s in (n + 1, n + 2):
        d, m = h * s, h * n
        return LinearSystem(n, d, (m,) * s), LinearSystem(n, d - 1, (m,) * s), d, m
    if s == n + 3:
        if n % 2 == 0:
            half = n // 2
            d, m = h * (half + 1), h * half
            return LinearSystem(n, d, (m,) * s), None, d, m
        half = (n - 1) // 2
        d, m = h * (half + 1) * (n + 3), h * (half * (n + 3) + 1)
        lower = LinearSystem(
            n,
            h * (n + 1) * (n + 3) - 1,
            (h * ((n - 1) * (n + 3) + 2),) * s,
        )
        return LinearSystem(n, d, (m,) * s), lower, d, m
    raise ValueError(f"alpha bookkeeping covers n+1 <= s <= n+3, got s={s}, n={n}")


def verify_gamma_points_case(n: int, s: int, h_max: int = 3) -> GammaCaseReport:
    """Replay the alpha bookkeeping for s in {n+1, n+2, n+3} general points.

    For each h = 1..h_max: the witness system must reduce to nonempty, the
    system one degree lower (where an emptiness chain is available) must
    reduce to empty, and the realized ratio degree/multiplicity must match
    the closed form for the Waldschmidt constant.  h_max < 1 is rejected:
    it would pass with nothing checked.
    """
    if h_max < 1:
        raise ValueError(f"need h_max >= 1, got {h_max}")
    gamma = gamma_points_closed(n, s)
    rows = []
    endpoint_note = ""
    for h in range(1, h_max + 1):
        upper, lower, d, m = _case_systems(n, s, h)
        up_trace = reduce_system(upper)
        upper_ok = up_trace.verdict == "nonempty"
        lower_ok: Optional[bool] = None
        if lower is not None:
            lower_ok = reduce_system(lower).verdict == "empty"
        ratio = Fraction(d, m)
        consistent = ratio == gamma
        rows.append(GammaCaseRow(h, upper, upper_ok, lower, lower_ok, d, m, ratio, consistent))
        if s == n + 3 and h == 1:
            final = up_trace.final
            if n % 2:
                expected, degree = (n,) * (n + 1) + (-1, -1), n + 1
            else:
                expected, degree = (1,) * n + (0, 0, 0), 1
            if not up_trace.steps:  # certified at the start: there is no reduced endpoint
                endpoint_note = f"no Cremona step: {final.format()} is certified ({up_trace.certificate})"
            elif sorted(final.mults) == sorted(expected) and final.d == degree:
                endpoint_note = "endpoint multiset matches the expected reduced system"
            else:
                endpoint_note = f"endpoint {final.format()} differs from the expected reduced system"
    return GammaCaseReport(n, s, gamma, tuple(rows), endpoint_note)
