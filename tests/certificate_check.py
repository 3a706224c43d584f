"""An independent re-check of the certificates ``e_certify`` returns.

The coefficients c_i of n! * P(m*x) = sum_i c_i(x) m^i are rebuilt from the
symbolic Hilbert polynomial (the BiPoly cross-check path), not from the
cached integer family, and every bound is computed in Fractions.  Imported
by the test modules and, through the acceptance suite, by
scripts/reproduction_matrix.py.
"""

from fractions import Fraction as F
from math import ceil, factorial

from fatflats.hilbert import hilbert_poly_symbolic
from fatflats.polynomials import UniPoly, expand_scaled
from fatflats.roots import cauchy_root_bound, count_roots_in


def horner_upper(p, lo, hi):
    """The upper end of the interval-Horner enclosure of p on [lo, hi]."""
    low = high = F(0)
    for c in reversed(p.coeffs):
        prods = (low * lo, low * hi, high * lo, high * hi)
        low, high = min(prods) + c, max(prods) + c
    return high


def recheck(cert):
    """Raise AssertionError unless ``cert`` proves that its ratio is e.

    Checks the witness, that the pieces tile [1, ratio], that on each piece
    T(m) = sum_{i>=1} U_i m^i (U_i the interval-Horner upper bound of c_i)
    is negative for every real m >= m_threshold, and every pair below the
    threshold: P(t) <= 0 at each m < m_threshold and m <= t < m * ratio,
    one value at a time, and the count of those pairs.
    """
    n, r, s, ratio, threshold = cert.n, cert.r, cert.s, cert.ratio, cert.m_threshold
    w = cert.witness
    assert F(w.t, w.m) == ratio
    hilbert = hilbert_poly_symbolic(n, r, s)
    assert w.value == hilbert(w.t, w.m) > 0
    cs = expand_scaled(factorial(n) * hilbert).coeffs_in_m
    assert cs[0] == UniPoly([factorial(n)])
    pieces = cert.pieces
    assert pieces and pieces[0][0] == 1 and pieces[-1][1] == ratio
    assert all(b == c for (_, b), (c, _) in zip(pieces, pieces[1:]))
    for a, b in pieces:
        assert a <= b
        tail = UniPoly([0] + [horner_upper(ci, a, b) for ci in cs[1:]])
        assert tail.sign(threshold) < 0, (a, b)
        top = max(cauchy_root_bound(tail), F(threshold + 1))
        assert count_roots_in(tail, threshold, top) == 0, (a, b)
    pairs = 0
    for m in range(1, threshold):
        for t in range(m, ceil(m * ratio)):
            assert hilbert(t, m) <= 0, (t, m)
            pairs += 1
    assert cert.pairs_checked == pairs

