"""Closed-form log-MGFs and the envelope inequality behind the tail bounds.

For a single term a*z^2 + b*z with z ~ N(0,1) and 1 - 2ay > 0,

    E exp(y(a z^2 + b z)) = exp((b^2/2) y^2 / (1-2ay)) / sqrt(1-2ay),

so the centered log-MGF of T - mean is a sum of explicit terms.  The whole
bound machinery rests on the envelope

    log E exp(y (T - mean)) <= u_sq * y^2 / (1 - 2*a_plus*y),

valid on 0 < y < 1/(2*a_plus), plus two scalar inequalities that prove it.
This module evaluates all of these and checks them on grids, which is what
`quadconc mgf-check` runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DiagonalForm, FormStats, _check_real, _is_integer, form_stats
from .errors import DomainError, ValidationError

LINEAR_ONLY_Y_MAX = 10.0  # grid reach when a_plus = 0 and there is no pole
POLE_FRACTION = 0.999  # grids stop at this fraction of the MGF pole
ENVELOPE_SLACK = 1e-10
SCALAR_SLACK = 1e-12


@dataclass(frozen=True)
class MgfEnvelope:
    """Envelope parameters: centered log-MGF <= (u*y)^2 / (1 - v*y) on 0 < y < 1/v."""

    u: float
    v: float

    def __post_init__(self):
        for name in ("u", "v"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name, allow_zero=True))

    @classmethod
    def from_stats(cls, stats: FormStats, direction: str = "upper"):
        extreme = stats.a_plus if direction == "upper" else stats.a_minus
        return cls(u=math.sqrt(stats.u_sq), v=2.0 * extreme)

    def rhs(self, y: float) -> float:
        if not (y > 0 and (self.v == 0.0 or y < 1.0 / self.v)):
            raise DomainError("y = %r outside (0, 1/v)" % (y,))
        return (self.u * y) ** 2 / (1.0 - self.v * y)


def _log_mgf_terms(a, b, ys):
    """log E exp(y (a_k z^2 + b_k z)) and q = -2 a_k y, one row per coefficient k, one column per y.

    The first plus q/2 (which is -a_k y exactly) are the centered terms.  The
    operations and their order are those of the envelope grid check, which
    mgf-check prints.
    """
    q = -2.0 * np.outer(a, ys)
    if not np.all(1.0 + q > 0.0):
        k, j = np.unravel_index(np.argmin(1.0 + q > 0.0), q.shape)
        raise DomainError(
            "MGF diverges at term k=%d: 1 - 2ay = %r <= 0 (a=%r, y=%r)"
            % (k, float(1.0 + q[k, j]), float(np.ravel(a)[k]), float(np.ravel(ys)[j]))
        )
    # log1p keeps the small-y regime accurate where log(1 - 2ay) cancels against a*y
    return 0.5 * np.outer(np.square(b), np.square(ys)) / (1.0 + q) - 0.5 * np.log1p(q), q


def log_mgf_term(a: float, b: float, y: float) -> float:
    """log E exp(y (a z^2 + b z)) for scalar a, b, y with 1 - 2ay > 0."""
    terms, _ = _log_mgf_terms(a, b, y)
    return float(terms[0, 0])


def log_mgf_centered(form: DiagonalForm, y: float) -> float:
    """log E exp(y (T - mean)) = sum_k [log_mgf_term(a_k, b_k, y) - a_k y]."""
    terms, q = _log_mgf_terms(form.a, form.b, y)
    return float(np.sum(terms + 0.5 * q))


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


def envelope_y_grid(a_plus: float, n: int) -> np.ndarray:
    """n evaluation points spread over (0, y_max], y_max just inside the pole."""
    if not (_is_integer(n) and n >= 1):
        raise ValidationError("grid size must be a positive integer, got %r" % (n,))
    n = int(n)  # n + 1 would wrap for a numpy integer at its dtype's maximum
    if a_plus < 0:
        raise ValidationError("a_plus must be nonnegative")
    y_max = LINEAR_ONLY_Y_MAX if a_plus == 0.0 else POLE_FRACTION / (2.0 * a_plus)
    return y_max * np.arange(1, n + 1) / n


@dataclass(frozen=True)
class EnvelopeCheck:
    """Grid verdict for the envelope inequality on one form."""

    grid_size: int
    y_max: float
    max_slack: float
    worst_y: float
    violations: int

    @property
    def ok(self):
        return self.violations == 0


def envelope_grid_check(form: DiagonalForm, n: int) -> EnvelopeCheck:
    """Compare centered log-MGF against the envelope on an n-point y-grid.

    A point counts as a violation when lhs exceeds rhs by more than
    ENVELOPE_SLACK * (1 + |rhs|).
    """
    stats = form_stats(form)
    ys = envelope_y_grid(stats.a_plus, n)
    terms, q = _log_mgf_terms(form.a, form.b, ys)
    lhs = np.sum(terms + 0.5 * q, axis=0)
    rhs = stats.u_sq * ys**2 / (1.0 - 2.0 * stats.a_plus * ys)
    slack = lhs - rhs
    worst = int(np.argmax(slack))
    violations = int(np.count_nonzero(slack > ENVELOPE_SLACK * (1.0 + np.abs(rhs))))
    return EnvelopeCheck(
        grid_size=ys.size,
        y_max=float(ys[-1]),
        max_slack=float(slack[worst]),
        worst_y=float(ys[worst]),
        violations=violations,
    )


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
