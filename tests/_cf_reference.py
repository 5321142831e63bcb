"""Textbook G(u) and psi(u): referees for cdf_cf's phase kernel.

cdf_cf inverts the characteristic function exp(-G(u) + i (psi(u) + omega u)).
Before its fused phase kernel (oracle._phase_sums, which both of its paths
evaluate on a vector of nodes) it evaluated G and psi as the two closures
below, each a direct transcription of the formulas in the cdf_cf
docstring.  They live here, unchanged, so that the tests can hold the
kernel to them bit for bit.
"""

import numpy as np


def g_decay(lam, delta_sq, sigma_sq, u):
    """G(u) = sum_k [ log1p(4 l^2)/4 + 2 l^2 d^2/(1 + 4 l^2) ] + sigma^2 u^2/2, l = a_k u."""
    l2 = (lam * u) ** 2
    return float(
        np.sum(0.25 * np.log1p(4.0 * l2) + 2.0 * l2 * delta_sq / (1.0 + 4.0 * l2))
        + 0.5 * sigma_sq * u * u
    )


def psi(lam, delta_sq, u):
    """psi(u) = sum_k [ arctan(2 l)/2 + a_k d^2 u/(1 + 4 l^2) ], l = a_k u."""
    lu = lam * u
    return float(np.sum(0.5 * np.arctan(2.0 * lu) + lam * delta_sq * u / (1.0 + 4.0 * lu * lu)))
