"""Nonparametric regression by reconstruction: estimate a function's
values at a knot set by (regularized) least squares and rebuild the
whole function with an interpolator."""

__version__ = "0.1.0"

from .baselines import (
    VarianceParams,
    estimate_variances,
    fit_empirical_bayes,
    fit_gpr,
    fit_nystrom,
    fit_spgp,
)
from .designs import (
    ReplicationDesign,
    chebyshev_knots,
    equispaced_knots,
    knot_criterion,
    next_knot,
    replication_design,
    select_knots,
)
from .errors import ReconstructError
from .estimators import (
    FdpFit,
    FittedModel,
    estimate_kernel_params,
    fit_fdp,
    fit_gprr,
    fit_krr,
    fit_replication,
    gcv,
    model_from_json,
    model_to_json,
    predict,
    ridge_reconstruct,
    select_lambda,
)
from .interpolators import (
    GPBasis,
    KnotSet,
    SplineCoefficients,
    design_matrix,
    fit_cubic_spline,
    fit_natural_spline,
    gp_basis_build,
    gp_basis_eval,
    interpolation_error,
    kernel_interp_eval,
    lagrange_eval,
    spline_eval,
)
from .kernels import (
    KernelSpec,
    default_gaussian,
    gaussian_kernel,
    kernel_matrix,
    kernel_matvec,
    kernel_value,
    matern_kernel,
)
from .numerics import (
    BandedSpdMatrix,
    SpdFactorization,
    banded_spd_solve,
    fdp_hat_trace,
    hat_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
