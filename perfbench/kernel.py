"""The calibration kernel of ``refclock``: fixed work of the library's kinds.

``Fraction`` Horner steps and sums of ``math.comb`` products, the two
things the library spends its time on, without calling the library.  Run
as a script, it starts a fresh interpreter and runs the kernel ten times:
the kernel for intervals that start a process.  It imports only what the
kernel needs, so that start-up stays fixed.
"""

import time
from fractions import Fraction
from math import comb

_COEFFS = [Fraction(3 * i + 1, 7 * i + 2) for i in range(12)]
_POINTS = [Fraction(1000 + k, 997) for k in range(80)]


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    began = time.perf_counter()
    for x in _POINTS:
        acc = Fraction(0)
        for c in _COEFFS:
            acc = acc * x + c
    total = 0
    for t in range(40, 400):
        total += sum(comb(t - i + 2, 2) * comb(i + 3, 3) for i in range(8))
    if total <= 0 or acc <= 0:
        raise AssertionError("calibration kernel computed nonsense")
    return time.perf_counter() - began


if __name__ == "__main__":
    for _ in range(10):
        kernel_seconds()
