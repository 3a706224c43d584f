"""Exact-arithmetic invariants of unions of disjoint fat linear subspaces.

The public surface re-exports the main operations of every submodule:
exact polynomials and certified root isolation, condition counts and
Hilbert polynomials of fat flats, the scaling-limit polynomial tower and
its largest roots, expected Waldschmidt constants with certificates,
Cremona reduction of point systems, blow-up intersection numbers, and the
finite enumeration verifiers.
"""

__version__ = "0.1.0"

from .polynomials import (
    BiPoly,
    UniPoly,
    binom,
    decimal_str,
    squarefree_part,
)
from .roots import (
    AlgebraicNumber,
    count_roots_in,
    isolate_largest_root,
    refine,
    sign_at,
)
from .hilbert import (
    alpha_expected,
    conditions_count,
    conditions_count_lines,
    conditions_count_oracle,
    hilbert_function_flat,
    hilbert_poly_mixed,
    hilbert_poly_symbolic,
    hilbert_poly_uniform,
    identity_sum_binom,
    identity_sum_i_binom,
)
from .asymptotic import (
    g_specials,
    g_value,
    lambda_poly,
    lambda_poly_via_leading,
    tower_check,
)
from .waldschmidt import (
    BoundsReport,
    CertificationError,
    ECertificate,
    GammaKnown,
    RatioWitness,
    bounds_report,
    e_certify,
    e_empirical,
    gamma_known_lookup,
    gamma_points_closed,
)
from .cremona import (
    LinearSystem,
    ReductionTrace,
    Witness,
    cremona_transform,
    empty_certificate,
    hyperplane_product_witness,
    reduce_system,
    verify_gamma_points_case,
    virtual_dimension,
)
from .blowup import (
    alt_sum_one,
    alt_sum_zero,
    expand_self_intersection,
    identity_check,
    intersection_number,
)
from .verifier import (
    NosymetryReport,
    analytic_branch_holds,
    identities_report,
    nosymetry_bounds,
    nosymetry_enumerate,
    replay_appendix,
    replay_ids,
    two_line_overlap_factored,
    two_line_overlap_value,
)
