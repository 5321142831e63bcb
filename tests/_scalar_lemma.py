"""The scalar inequality that proves the log-MGF envelope, checked pointwise and on a grid.

For one coordinate with curvature r and the extreme curvature a,

    -log(1 - 2 r y)/2 - r y <= r^2 y^2 / (1 - 2 a y)

on 0 < y < 1/(2a), in both the 0 < r <= a and the r <= 0 < a cases.  It is
one step of the proof of the envelope the library's bounds rest on.  A check
of the proof is not part of what the package promises, so it lives with the
tests; test_mgf.py and acceptance criterion 5 run it.
"""

from dataclasses import dataclass

import numpy as np

from quadconc.bounds import _is_integer
from quadconc.errors import DomainError, ValidationError
from quadconc.mgf import POLE_FRACTION

SCALAR_SLACK = 1e-12


def _scalar_sides(r, a, y):
    """Both sides of -log(1-2ry)/2 - ry <= r^2 y^2 / (1-2ay), elementwise."""
    return -0.5 * np.log1p(-2.0 * r * y) - r * y, r * r * y * y / (1.0 - 2.0 * a * y)


def check_scalar_ineq(r: float, a: float, y: float):
    """Evaluate -log(1-2ry)/2 - ry <= r^2 y^2 / (1-2ay) at one point.

    Returns (lhs, rhs, holds).  Valid for y in (0, 1/(2a)) when a > 0 (any
    y > 0 otherwise) and 1 - 2ry > 0; covers both the 0 < r <= a and the
    r <= 0 < a cases used to prove the envelope.
    """
    if not y > 0:
        raise DomainError("y must be positive, got %r" % (y,))
    if a > 0 and not 1.0 - 2.0 * a * y > 0.0:
        raise DomainError("y = %r at or past 1/(2a)" % (y,))
    if not 1.0 - 2.0 * r * y > 0.0:
        raise DomainError("1 - 2ry = %r <= 0" % (1.0 - 2.0 * r * y,))
    lhs, rhs = (float(side) for side in _scalar_sides(r, a, y))
    return lhs, rhs, lhs <= rhs + SCALAR_SLACK * (1.0 + abs(rhs))


@dataclass(frozen=True)
class ScalarGridCheck:
    points: int
    violations: int
    max_excess: float

    @property
    def ok(self):
        return self.violations == 0


def scalar_ineq_grid(n: int = 64, r_min: float = -5.0, a_max: float = 5.0) -> ScalarGridCheck:
    """Check the scalar inequality on the full n^3 lattice.

    a ranges over (0, a_max], r over [r_min, a] for each a, and y over
    (0, POLE_FRACTION/(2a)) for each a.  Everything is broadcast so the
    64^3 default stays fast.
    """
    if not (_is_integer(n) and n >= 2):
        raise ValidationError("grid size must be an integer >= 2, got %r" % (n,))
    n = int(n)
    a = (a_max * np.arange(1, n + 1) / n)[:, None, None]
    frac_r = (np.arange(n) / (n - 1))[None, :, None]
    r = r_min + (a - r_min) * frac_r
    y = (POLE_FRACTION / (2.0 * a)) * (np.arange(1, n + 1) / (n + 1))[None, None, :]
    lhs, rhs = _scalar_sides(r, a, y)
    excess = lhs - rhs - SCALAR_SLACK * (1.0 + np.abs(rhs))
    return ScalarGridCheck(
        points=int(excess.size),
        violations=int(np.count_nonzero(excess > 0)),
        max_excess=float(np.max(excess)),
    )
