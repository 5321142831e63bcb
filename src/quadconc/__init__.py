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

import importlib

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

# the numpy-backed modules load on first access to one of their names (PEP 562),
# so `import quadconc` and the bounds above cost no numpy import
_DEFERRED = {
    "mgf": ("EnvelopeCheck", "MgfEnvelope", "envelope_grid_check", "envelope_y_grid",
            "log_mgf_centered", "log_mgf_term"),
    "oracle": ("TailEstimate", "cdf_cf", "cdf_p1", "empirical_tail", "sample"),
    "spectral": ("QuadraticForm", "SpectralReduction", "eigen_sym", "reduce", "symmetrize"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    return globals()[name]


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
