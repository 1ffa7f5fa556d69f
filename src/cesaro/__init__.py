"""Generalized Cesaro averaging operators on truncated Taylor series.

A library plus CLI for the one-parameter family of averaging operators
C_t (0 <= t <= 1) acting on coefficient vectors of analytic functions on
the unit disc: coefficient-level application, integral-form quadrature
cross-checks, the exact inverse, weighted sup-norm estimation with
operator-norm bounds, eigenpairs, resolvents, finite-section spectra,
infinite-product growth envelopes, power-boundedness certificates,
ergodic-mean traces and range preimages.
"""

import types

from .series import (
    DEFAULT_TRUNCATION,
    TaylorSeries,
    cauchy_product,
    constant_one,
    evaluate,
    evaluate_many,
    from_pairs,
    geometric_series,
    log_power_series,
    max_coeff_diff,
    random_series,
    to_pairs,
)
from .operators import (
    CesaroOperator,
    InverseOperator,
    apply,
    apply_integral,
    apply_inverse,
    cesaro_coefficients,
    operator_matrix,
)
from .weights import (
    NormEstimate,
    Weight,
    circle_max,
    frechet_norm,
    log_norm_bound,
    norm_upper_bound,
    operator_norm_witness,
    radial_grid,
    weighted_sup_norm,
)
from .spectral import (
    LAMBDA_TOL,
    EigenPair,
    ProductBoundReport,
    ResolventQuery,
    eigenpair,
    eigenvalues,
    product_bound_scan,
    resolvent_apply,
    spectrum_distance,
)
from .dynamics import (
    ErgodicTrace,
    PowerBoundReport,
    cesaro_mean,
    ergodic_limit_projection,
    ergodic_trace,
    power_apply,
    power_bound_certificate,
    range_preimage,
)

__version__ = "0.1.0"

#: The public names: everything imported above, except the submodules.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
