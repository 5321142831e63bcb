"""Concentration bounds for quadratic forms of independent standard Gaussians.

The object of study is T = z'Az + b'z with z ~ N(0, I).  An orthogonal
change of variables turns T into a diagonal form sum_k (a_k z_k^2 + b_k z_k),
whose tails obey two-sided sub-gamma bounds driven by three scalars: the
mean, a variance proxy, and the extreme eigenvalue on each side.  This
package computes those bounds, inverts them, checks the underlying log-MGF
envelope on grids, and validates everything against independent
distributional oracles (closed forms, characteristic-function inversion,
Monte Carlo).
"""

from .bounds import (
    DIRECTIONS,
    DiagonalForm,
    FormStats,
    TailBound,
    envelope_threshold,
    form_stats,
    lower_threshold,
    tail_exponent,
    union_threshold,
    upper_threshold,
)
from .errors import (
    DegenerateFormError,
    DomainError,
    InputError,
    NumericalError,
    ValidationError,
)
from .mgf import (
    EnvelopeCheck,
    MgfEnvelope,
    ScalarGridCheck,
    check_scalar_ineq,
    envelope_grid_check,
    envelope_y_grid,
    log_mgf_centered,
    log_mgf_term,
    scalar_ineq_grid,
)
from .oracle import (
    TailEstimate,
    cdf_cf,
    cdf_p1,
    empirical_tail,
    sample,
    sample_quadratic,
)
from .spectral import QuadraticForm, SpectralReduction, eigen_sym, reduce, symmetrize

__version__ = "0.1.0"

__all__ = [
    "DIRECTIONS",
    "DiagonalForm",
    "FormStats",
    "TailBound",
    "form_stats",
    "upper_threshold",
    "lower_threshold",
    "tail_exponent",
    "envelope_threshold",
    "union_threshold",
    "QuadraticForm",
    "SpectralReduction",
    "symmetrize",
    "eigen_sym",
    "reduce",
    "MgfEnvelope",
    "EnvelopeCheck",
    "ScalarGridCheck",
    "log_mgf_term",
    "log_mgf_centered",
    "check_scalar_ineq",
    "envelope_y_grid",
    "envelope_grid_check",
    "scalar_ineq_grid",
    "TailEstimate",
    "sample",
    "sample_quadratic",
    "empirical_tail",
    "cdf_p1",
    "cdf_cf",
    "ValidationError",
    "DomainError",
    "DegenerateFormError",
    "InputError",
    "NumericalError",
    "__version__",
]
