"""Reference values for the benchmark's correctness checks.

Nothing here imports fatflats: every formula is written out again with
``math.comb`` and ``fractions.Fraction`` from the definitions in the paper,
so a defect in the library cannot also hide in its own check.

* ``nlambda``: n! times the scaling-limit polynomial,
  tau^n - s * sum_{j<=r} C(n, j) (tau - 1)^j.
* ``hilbert_value``: the integer Hilbert polynomial value
  C(t+n, n) - s * sum_{i<m} C(t-i+r, r) C(i+n-r-1, n-r-1) at t >= m.
* ``e_scan``: the least ratio t/m with a positive value over 1 <= m <= 60,
  ties to the smallest m (the library's default search range).
* ``nosymetry_row``: the caps and the case and pair counts of the finite
  lines-in-P^3 enumeration, counted by partitions instead of enumeration.

``reference.json`` holds the tables the checks read.  Regenerate it with
``python3 perfbench/reference.py --write`` (about a minute); the list of
configurations certified at the baseline is carried over unchanged, since
it records what the library certified rather than a mathematical fact.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

TABLE_PATH = Path(__file__).resolve().parent / "reference.json"
M_MAX = 60

GRID_FAMILIES = [(n, r) for n in range(2, 9) for r in range((n - 1) // 2 + 1)]
GRID_S = range(2, 21)
NOSYMETRY_S = range(7, 13)


def nlambda(n: int, r: int, s: int, x) -> Fraction:
    """n! * lambda(n, r, s) at x."""
    x = Fraction(x)
    return x**n - s * sum(comb(n, j) * (x - 1) ** j for j in range(r + 1))


def nlambda_coeffs(n: int, r: int, s: int) -> list[int]:
    """Integer coefficients of n! * lambda, constant term first."""
    coeffs = [0] * (n + 1)
    coeffs[n] += 1
    for j in range(r + 1):
        for k in range(j + 1):  # (tau - 1)^j = sum_k C(j, k) tau^k (-1)^(j-k)
            coeffs[k] -= s * comb(n, j) * comb(j, k) * (-1) ** (j - k)
    return coeffs


def condition_count(n: int, r: int, m: int, t: int) -> int:
    return sum(comb(t - i + r, r) * comb(i + n - r - 1, n - r - 1) for i in range(m))


def hilbert_value(n: int, r: int, s: int, m: int, t: int) -> int:
    return comb(t + n, n) - s * condition_count(n, r, m, t)


def e_scan(n: int, r: int, s: int, m_max: int = M_MAX) -> tuple[int, int]:
    """(t, m) of the least ratio t/m with a positive value, m <= m_max."""
    best = None
    for m in range(1, m_max + 1):
        t = m
        while best is None or t * best[1] < best[0] * m:
            if hilbert_value(n, r, s, m, t) > 0:
                best = (t, m)
                break
            t += 1
    return best


def root_bracket(n: int, r: int, s: int, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisection bracket (lo, hi] of the single root >= 1 of n! * lambda, s >= 2."""
    lo, hi = Fraction(1), Fraction(s + 1)
    if not (nlambda(n, r, s, lo) < 0 < nlambda(n, r, s, hi)):
        raise ArithmeticError(f"no sign change on [1, {s + 1}] for {(n, r, s)}")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if nlambda(n, r, s, mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


@lru_cache(maxsize=None)
def _partitions(total: int, parts: int, largest: int) -> int:
    """Partitions of ``total`` into at most ``parts`` parts, each <= ``largest``."""
    if total == 0:
        return 1
    if parts == 0 or largest == 0:
        return 0
    return sum(_partitions(total - j, parts - 1, j) for j in range(1, min(largest, total) + 1))


def nosymetry_row(s: int) -> dict:
    """Caps and counts of the enumeration for s lines in P^3, 7 <= s <= 12.

    A multiplicity vector is a partition of its sum into at most s parts; a
    pair is (vector, d) with max(2, top) <= d <= d_cap, or d = 1 when the top
    part is 1, kept when n! * lambda(3, 1, s) is negative at d*s/sum.
    """
    lo, hi = root_bracket(3, 1, s, Fraction(1, 10**40))

    def d_bound(g):  # d is admissible iff d < d_bound(g)
        return -g * (11 * g - 5 * s) / (6 * g * g - 3 * s * g - 3 * s)

    def sum_bound(g):  # a sum k is admissible iff k <= sum_bound(g)
        return -s * (11 * g - 5 * s) / (6 * g * g - 3 * s * g - 3 * s)

    caps = []
    for bound in (d_bound, sum_bound):
        a, b = sorted((bound(lo), bound(hi)))
        if int(a) != int(b) or a == int(a) or b == int(b):
            raise ArithmeticError(f"bracket too wide to decide a cap at s={s}")
        caps.append(int(a))
    d_cap, sum_cap = caps

    below = {}  # (d, total) -> d*s/total < g, by the sign of n! * lambda

    def below_g(d, total):
        if (d, total) not in below:
            below[(d, total)] = nlambda(3, 1, s, Fraction(d * s, total)) < 0
        return below[(d, total)]

    cases = pairs = 0
    for total in range(1, sum_cap + 1):
        for top in range(1, total + 1):
            vectors = _partitions(total - top, s - 1, top)
            if not vectors:
                continue
            cases += vectors
            ds = [d for d in range(max(2, top), d_cap + 1) if below_g(d, total)]
            if top <= 1 and below_g(1, total):
                ds.append(1)
            pairs += vectors * len(ds)
    return {"d_cap": d_cap, "sum_cap": sum_cap, "cases_checked": cases, "pairs_checked": pairs}


def load() -> dict:
    """The committed tables, with tuple keys for the grid."""
    raw = json.loads(TABLE_PATH.read_text())
    return {
        "grid_e": {tuple(k): (t, m) for k, t, m in raw["grid_e"]},
        "grid_certified": {tuple(k) for k in raw["grid_certified"]},
        "nosymetry": {int(s): row for s, row in raw["nosymetry"].items()},
    }


def build(certified: list) -> dict:
    grid_e = [
        [[n, r, s], *e_scan(n, r, s)] for n, r in GRID_FAMILIES for s in GRID_S
    ]
    return {
        "grid_e": grid_e,
        "grid_certified": certified,
        "nosymetry": {str(s): nosymetry_row(s) for s in NOSYMETRY_S},
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 perfbench/reference.py --write")
    old = json.loads(TABLE_PATH.read_text())
    TABLE_PATH.write_text(json.dumps(build(old["grid_certified"]), separators=(",", ":")) + "\n")
