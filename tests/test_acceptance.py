"""Acceptance suite: one test per criterion, each printing a PASS line.

The CRITERIA registry is also consumed by scripts/reproduction_matrix.py to
emit the reproduction matrix as CSV.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from fatflats.asymptotic import (
    g_specials,
    g_value,
    lambda_poly,
    lambda_poly_via_leading,
    tower_check,
)
from fatflats.blowup import alt_sum_one, alt_sum_zero, identity_check
from fatflats.cremona import (
    LinearSystem,
    hyperplane_product_witness,
    reduce_system,
    verify_gamma_points_case,
)
from fatflats.hilbert import (
    conditions_count,
    conditions_count_oracle,
    hilbert_function_flat,
    hilbert_poly_mixed,
    hilbert_poly_uniform,
)
from fatflats.polynomials import UniPoly
from fatflats.verifier import nosymetry_bounds, nosymetry_enumerate
from fatflats.waldschmidt import bounds_report, e_certify, e_empirical

from certificate_check import recheck

SRC = str(Path(__file__).resolve().parent.parent / "src")


def criterion_1_conditions_oracle():
    """conditions_count == monomial oracle, exhaustively, n <= 5."""
    start = time.time()
    checked = 0
    for n in range(1, 6):
        for r in range(n):
            for m in range(1, 6):
                for t in range(m, m + 7):
                    assert conditions_count(n, r, m, t) == conditions_count_oracle(n, r, m, t)
                    checked += 1
    elapsed = time.time() - start
    assert elapsed < 5, f"oracle sweep took {elapsed:.1f}s"
    return f"{checked} cases exact in {elapsed:.2f}s"


def criterion_2_hilbert_sequences():
    """The three Hilbert-function sequences, exactly."""
    assert hilbert_function_flat(2, 0, 4, 6) == [1, 3, 6, 10, 10, 10]
    assert hilbert_function_flat(3, 1, 4, 6) == [1, 4, 10, 20, 30, 40]
    assert hilbert_function_flat(4, 2, 4, 6) == [1, 5, 15, 35, 65, 105]
    return "three sequences exact"


def criterion_3_hilbert_values():
    """P(3,1,6,7)(27) = 28 and the mixed value at 12 is -5 < 0."""
    assert hilbert_poly_uniform(3, 1, 6, 7)(27) == 28
    value = hilbert_poly_mixed(3, 1, (4, 3, 3, 3, 3, 3))(12)
    assert value == -5 and value < 0
    return "values 28 and -5 exact"


def criterion_4_lambda_identities():
    """Closed form == leading extraction, tower, and value at 1, on the grid."""
    start = time.time()
    checked = 0
    for n in range(1, 9):
        for r in range((n - 1) // 2 + 1):
            for s in (1, 2, 5, 10, 100):
                lam = lambda_poly(n, r, s)
                assert lam == lambda_poly_via_leading(n, r, s)
                from math import factorial

                assert lam(1) == F(1 - s, factorial(n))
                if r >= 1:
                    assert tower_check(n, r, s)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 5, f"lambda suite took {elapsed:.1f}s"
    return f"{checked} grid points exact in {elapsed:.2f}s"


def criterion_5_g_values():
    """Root values: table approximations and the exact rational families."""
    table = {2: 2.0, 3: 2.584, 4: 3.064, 5: 3.482}
    for s, ref in table.items():
        assert abs(float(g_value(3, 1, s).midpoint) - ref) < 1e-3
    assert abs(float(g_value(3, 1, 6).midpoint) - 3.8587) < 1e-3
    for n in range(2, 7):
        for s in (2, 3, 4, 9, 27, 100):
            g = g_value(n, 0, s)
            assert g.defining == UniPoly([-s] + [0] * (n - 1) + [1])
            if g.is_exact:
                assert g.value**n == s
    assert g_value(2, 0, 9).value == 3
    assert g_value(3, 0, 27).value == 3
    for r in range(1, 11):
        g = g_value(2 * r + 1, r, 2)
        assert g.is_exact and g.value == 2
    for row in g_specials():
        assert row.ok
    g729 = g_value(11, 2, 729)
    assert g729.is_exact and g729.value == 3
    return "table to 1e-3; rational families exact"


def criterion_6_e_certificates():
    """Both worked expected-Waldschmidt values, with full certificates."""
    start = time.time()
    w_points = e_empirical(3, 0, 4, 60)
    assert w_points.ratio == F(3, 2)
    cert_points = e_certify(3, 0, 4, F(3, 2))
    assert cert_points.m_threshold >= 1 and cert_points.pairs_checked >= 1

    w_lines = e_empirical(3, 1, 6, 60)
    assert w_lines.ratio == F(27, 7)
    cert_lines = e_certify(3, 1, 6, F(27, 7))
    assert cert_lines.m_threshold >= 1 and cert_lines.pairs_checked >= 1
    # both re-checked from the symbolic expansion, independently of the family
    recheck(cert_points)
    recheck(cert_lines)
    elapsed = time.time() - start
    assert elapsed < 30, f"certification took {elapsed:.1f}s"
    return (
        f"3/2 (threshold {cert_points.m_threshold}, {len(cert_points.pieces)} piece) and 27/7 "
        f"(threshold {cert_lines.m_threshold}, {len(cert_lines.pieces)} pieces) certified"
        f" and re-checked in {elapsed:.2f}s"
    )


def criterion_7_cremona():
    """Reduction emptiness families, witness chains, and the bounds grid."""
    for n in range(2, 6):
        for h in range(1, 5):
            sys_ = LinearSystem(n, h * (n + 1) - 1, (h * n,) * (n + 1))
            assert reduce_system(sys_).verdict == "empty"
    for n in range(2, 5):
        for h in range(1, 4):
            sys_ = LinearSystem(n, h * (n + 2) - 1, (h * n,) * (n + 2))
            assert reduce_system(sys_).verdict == "empty"
    for n in range(2, 6):
        for h in range(1, 4):
            up1 = LinearSystem(n, h * (n + 1), (h * n,) * (n + 1))
            assert hyperplane_product_witness(up1) is not None
            up2 = LinearSystem(n, h * (n + 2), (h * n,) * (n + 2))
            assert hyperplane_product_witness(up2) is not None
        for s in (n + 1, n + 2, n + 3):
            assert verify_gamma_points_case(n, s, range(1, 3)).ok

    strict = bounds_report(3, 0, 4)
    assert strict.gamma.value == F(4, 3) and strict.e == F(3, 2)
    assert strict.gamma.value < strict.e
    assert lambda_poly(3, 0, 4)(strict.e) < 0  # e strictly below g
    assert strict.e_certified

    for n in range(1, 6):
        for s in range(1, n + 4):
            rep = bounds_report(n, 0, s)
            if rep.gamma is not None and rep.gamma.exact:
                assert rep.gamma.value <= rep.e
                assert lambda_poly(n, 0, s)(rep.gamma.value) <= 0  # gamma <= g
            if rep.e_certified:
                assert rep.e_below_g
    for s in range(1, 6):
        rep = bounds_report(3, 1, s)
        assert rep.gamma.value <= rep.e
        assert lambda_poly(3, 1, s)(rep.gamma.value) <= 0
        if rep.e_certified:
            assert rep.e_below_g
    return "families empty, witnesses verify, chain holds with strict gap at (3,0,4)"


def criterion_8_intersection_identities():
    """Blow-up expansion identity and the alternating binomial sums."""
    for n in range(1, 11):
        for r in range((n - 1) // 2 + 1):
            for s in (1, 2, 3, 10, 100):
                assert identity_check(n, r, s)
    for t in range(13):
        for j in range(1, 13):
            assert alt_sum_zero(t, j) == 0
    for t in range(1, 13):
        for j in range(13):
            assert alt_sum_one(t, j) == 1
    return "identity grid and alternating sums exact"


def criterion_9_nosymetry():
    """Finite enumeration: counts, bound table, zero violations."""
    start = time.time()
    reports = {s: nosymetry_enumerate(s, threads=2) for s in range(7, 13)}
    for s, rep in reports.items():
        assert not rep.violations, f"violations at s={s}"
    assert dict(reports[9].case_counts)[2] == 3
    counts8 = dict(reports[8].case_counts)
    assert counts8[2] == 14 and counts8[3] == 15
    assert reports[7].cases_checked == 4149
    table = {
        7: (14.5043, 24.1538),
        8: (4.51017, 7.97625),
        9: (2.20558, 4.11512),
        10: (1.18148, 2.31334),
        11: (0.602377, 1.23239),
        12: (0.229665, 0.489184),
    }
    for s, (d_ref, sum_ref) in table.items():
        _, d_bound, sum_bound = nosymetry_bounds(s)
        assert abs(float(d_bound) - d_ref) < 1e-3
        assert abs(float(sum_bound) - sum_ref) < 1e-3
    elapsed = time.time() - start
    assert elapsed < 30, f"enumeration took {elapsed:.1f}s"
    return f"zero violations, counts 3/14/15/4149, table to 1e-3, {elapsed:.2f}s"


def criterion_10_determinism():
    """Byte-identical outputs across repetition and thread counts."""
    lib_once = json.dumps(nosymetry_enumerate(8, threads=1).to_json())
    lib_again = json.dumps(nosymetry_enumerate(8, threads=1).to_json())
    lib_threaded = json.dumps(nosymetry_enumerate(8, threads=4).to_json())
    assert lib_once == lib_again == lib_threaded

    env = dict(os.environ, PYTHONPATH=SRC)
    outs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "fatflats", "bounds", "3", "1", "6", "--json"],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    return "library and CLI outputs byte-identical"


CRITERIA = [
    (1, "conditions-oracle-equivalence", criterion_1_conditions_oracle),
    (2, "hilbert-sequences", criterion_2_hilbert_sequences),
    (3, "hilbert-polynomial-values", criterion_3_hilbert_values),
    (4, "lambda-identity-suite", criterion_4_lambda_identities),
    (5, "g-values", criterion_5_g_values),
    (6, "waldschmidt-certificates", criterion_6_e_certificates),
    (7, "cremona-verification", criterion_7_cremona),
    (8, "intersection-identities", criterion_8_intersection_identities),
    (9, "nosymetry-enumeration", criterion_9_nosymetry),
    (10, "determinism", criterion_10_determinism),
]


@pytest.mark.parametrize("number,name,runner", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance(number, name, runner):
    detail = runner()
    print(f"ACCEPTANCE {number} {name}: PASS ({detail})")
