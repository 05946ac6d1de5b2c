"""Symmetric-cone arithmetic, cone distributions, and identity verification.

The package is organized in five layers:

* :mod:`symcone.algebra` -- Euclidean Jordan algebra element arithmetic,
  operators, and spectral calculus for the real-symmetric, complex-Hermitian,
  and Lorentz cone families;
* :mod:`symcone.my_transform` -- the involutive cone map, Hua's identity,
  and its change-of-variables Jacobian;
* :mod:`symcone.distributions` -- Wishart and generalized-inverse-Gaussian
  densities, Laplace transforms, and samplers;
* :mod:`symcone.verification` -- seeded residual checks and statistical
  property tests that produce machine-readable reports;
* :mod:`symcone.cli` -- the ``symcone`` batch command-line front end.
"""

from .algebra import (
    AlgebraDescriptor,
    AlgebraMismatchError,
    Element,
    Kind,
    LinearOperator,
    NotInConeError,
    SingularElementError,
    SpectralDecomposition,
    canonical_basis,
    coordinate_names,
    det,
    eigenvalues,
    from_matrix,
    herm_complex,
    identity,
    in_cone,
    inner,
    inverse,
    jordan_product,
    lmap,
    lorentz,
    norm,
    quad_apply,
    quad_rep,
    random_cone_point,
    random_cone_point_banded,
    random_element,
    spectral_decomposition,
    sqrt,
    sym_real,
    to_matrix,
    trace,
    zero,
)
from .distributions import (
    GigParams,
    SampleBatch,
    ShapeOutOfRangeError,
    WishartParams,
    gamma_cone,
    gig_cdf_rank1,
    gig_log_density_unnorm,
    gig_norm_constant_rank1,
    log_gamma_cone,
    sample_gig,
    sample_wishart,
    wishart_laplace,
    wishart_log_density,
)
from .my_transform import (
    ConePair,
    hua_rhs,
    jacobian_det_formula,
    jacobian_det_numeric,
    jacobian_fd_matrix,
    my_map,
)
from .verification import (
    CheckReport,
    Fe1dConstants,
    FeSolutionConstants,
    IndependenceReport,
    check_cauchy_additive,
    check_det_operator_power,
    check_det_product_rule,
    check_fe_cone,
    check_fe_univariate_abcd,
    check_fe_univariate_g_alpha,
    check_hua,
    check_involution,
    check_jacobian,
    check_jordan_axioms,
    check_perturbed_fe_rejects,
    check_pexider_log,
    density_factorization_check,
    my_property_test,
    random_fe1d_constants,
    random_fe_constants,
)

__version__ = "0.1.0"
