"""An independent re-check of the certificates ``e_certify`` returns.

The ray and the lattice lines are interpolated from values of the symbolic
Hilbert polynomial (the BiPoly cross-check path), not taken from the cached
integer family, and every test is computed in Fractions.  Imported by the
test modules and, through the acceptance suite, by
scripts/reproduction_matrix.py.
"""

from fractions import Fraction as F
from math import ceil, factorial

from fatflats.hilbert import hilbert_poly_symbolic
from fatflats.polynomials import lagrange_interpolate
from fatflats.roots import cauchy_root_bound, count_roots_in


def along(hilbert, n, q, j, p, c):
    """n! * (P - 1) along m = q*k + j, t = p*k + c, through its values at k = 0..n."""
    return lagrange_interpolate(
        [(k, factorial(n) * (hilbert(p * k + c, q * k + j) - 1)) for k in range(n + 1)]
    )


def negative_from(poly, x):
    """Whether poly < 0 at every real point >= x."""
    if poly.is_zero or poly.leading >= 0 or poly(x) >= 0:
        return False
    return count_roots_in(poly, x, max(cauchy_root_bound(poly), x + 1)) == 0


def recheck(cert):
    """Raise AssertionError unless ``cert`` proves that its ratio is e.

    Checks the witness; that the ray t = ratio * m is negative from
    m_threshold on and, when m_threshold > 1, not from m_threshold - 1; that
    each of the q lines m = q*k + j, t = p*k + c (p*k + c the largest t
    below m * ratio) is negative from the least k with m >= m_threshold;
    and every pair below the threshold: P(t) <= 0 at each m < m_threshold
    and m <= t < m * ratio, one value at a time, and the count of those
    pairs.
    """
    n, r, s, ratio, threshold = cert.n, cert.r, cert.s, cert.ratio, cert.m_threshold
    p, q = ratio.numerator, ratio.denominator
    w = cert.witness
    assert F(w.t, w.m) == ratio
    hilbert = hilbert_poly_symbolic(n, r, s)
    assert w.value == hilbert(w.t, w.m) > 0
    ray = along(hilbert, n, q, 0, p, 0)
    assert negative_from(ray, F(threshold, q))
    assert threshold == 1 or not negative_from(ray, F(threshold - 1, q))
    for j in range(q):
        c = ceil(F(j * p, q)) - 1
        assert c < F(j * p, q) <= c + 1
        k_j = max(0, ceil(F(threshold - j, q)))
        assert negative_from(along(hilbert, n, q, j, p, c), k_j), (j, k_j)
    pairs = 0
    for m in range(1, threshold):
        for t in range(m, ceil(m * ratio)):
            assert hilbert(t, m) <= 0, (t, m)
            pairs += 1
    assert cert.pairs_checked == pairs
