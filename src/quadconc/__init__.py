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
    envelope_grid_check,
    envelope_y_grid,
    log_mgf_centered,
    log_mgf_term,
)
from .oracle import (
    TailEstimate,
    cdf_cf,
    cdf_p1,
    empirical_tail,
    sample,
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
    "log_mgf_term",
    "log_mgf_centered",
    "envelope_y_grid",
    "envelope_grid_check",
    "TailEstimate",
    "sample",
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
