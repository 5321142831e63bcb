"""Closed-form log-MGFs and the envelope inequality behind the tail bounds.

For a single term a*z^2 + b*z with z ~ N(0,1) and 1 - 2ay > 0,

    E exp(y(a z^2 + b z)) = exp((b^2/2) y^2 / (1-2ay)) / sqrt(1-2ay),

so the centered log-MGF of T - mean is a sum of explicit terms.  The whole
bound machinery rests on the envelope

    log E exp(y (T - mean)) <= (u*y)^2 / (1 - v*y),

with u = sqrt(sum_k (a_k^2 + b_k^2/2)) and v = 2*a_plus, valid on
0 < y < 1/v.  MgfEnvelope.rhs is the one place the envelope is formed.
This module evaluates both sides and checks the inequality on grids, which
is what `quadconc mgf-check` runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DiagonalForm, FormStats, _binade, _check_count, _check_real, form_stats
from .errors import DomainError, ValidationError

LINEAR_ONLY_Y_MAX = 10.0  # grid reach when a_plus = 0 and there is no pole
POLE_FRACTION = 0.999  # grids stop at this fraction of the MGF pole
ENVELOPE_SLACK = 1e-10


@dataclass(frozen=True)
class MgfEnvelope:
    """Envelope parameters: centered log-MGF <= (u*y)^2 / (1 - v*y) on 0 < y < 1/v."""

    u: float
    v: float

    def __post_init__(self):
        for name in ("u", "v"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name, "nonnegative"))

    @classmethod
    def from_stats(cls, stats: FormStats, direction: str = "upper"):
        return cls(*stats.envelope(direction))

    def rhs(self, y):
        """(u*y)^2 / (1 - v*y) at a point y, or at every point of an array of them."""
        ys = np.asarray(y, dtype=float)
        if not np.all((ys > 0.0) & (self.v * ys < 1.0)):
            raise DomainError("y = %r outside (0, 1/v)" % (y,))
        uy = self.u * ys
        return (uy * uy / (1.0 - self.v * ys))[()]


def _log_mgf_terms(a, b, ys):
    """log E exp(y (a_k z^2 + b_k z)) and q = -2 a_k y, one row per coefficient k, one column per y.

    The first plus q/2 (which is -a_k y exactly) are the centered terms.
    Every term depends on y only through a_k y and b_k y, so they are formed
    from (a, b) * 2^-e and y * 2^e, e = _binade(a, b): the squares b_k^2 and
    y^2 then leave the float range only where a_k y or b_k y is extreme
    itself, and the terms keep the bits of the unscaled formula wherever
    nothing is subnormal.  A DomainError reports the caller's a and y.
    """
    a, b = np.ravel(a), np.ravel(b)  # a form's tuples or scalars, as arrays once
    e = _binade(a, b)
    a_s, b_s, y_s = np.ldexp(a, -e), np.ldexp(b, -e), np.ldexp(ys, e)
    q = -2.0 * np.outer(a_s, y_s)
    if not np.all(1.0 + q > 0.0):
        k, j = np.unravel_index(np.argmin(1.0 + q > 0.0), q.shape)
        raise DomainError(
            "MGF diverges at term k=%d: 1 - 2ay = %r <= 0 (a=%r, y=%r)"
            % (k, float(1.0 + q[k, j]), float(a[k]), float(np.ravel(ys)[j]))
        )
    # log1p keeps the small-y regime accurate where log(1 - 2ay) cancels against a*y
    return 0.5 * np.outer(np.square(b_s), np.square(y_s)) / (1.0 + q) - 0.5 * np.log1p(q), q


def log_mgf_term(a: float, b: float, y: float) -> float:
    """log E exp(y (a z^2 + b z)) for scalar a, b, y with 1 - 2ay > 0."""
    terms, _ = _log_mgf_terms(a, b, y)
    return float(terms[0, 0])


def log_mgf_centered(form: DiagonalForm, y: float) -> float:
    """log E exp(y (T - mean)) = sum_k [log_mgf_term(a_k, b_k, y) - a_k y]."""
    terms, q = _log_mgf_terms(form.a, form.b, y)
    return float(np.sum(terms + 0.5 * q))


def envelope_y_grid(a_plus: float, n: int) -> np.ndarray:
    """n evaluation points spread over (0, y_max], y_max just inside the pole.

    They are spread for a_plus * 2^-e, e = _binade(a_plus), and scaled back,
    so y_max * n cannot overflow on the way; a pole past the float range
    (a subnormal a_plus) gives infinite points.
    """
    n = _check_count(n, "grid size")
    a_plus = _check_real(a_plus, "a_plus", "nonnegative")
    e = _binade(a_plus)
    y_max = LINEAR_ONLY_Y_MAX if a_plus == 0.0 else POLE_FRACTION / (2.0 * math.ldexp(a_plus, -e))
    with np.errstate(over="ignore"):
        return np.ldexp(y_max * np.arange(1, n + 1) / n, -e)


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

    The grid is in the form's own units; _log_mgf_terms rescales by the
    form's _binade, so a form and its 2^k multiples get the same slack bits
    wherever nothing is subnormal.  Every grid point lies inside the pole,
    so a grid whose values still leave the float range, whether in the
    rescaled products or in the slack, raises ValidationError.
    """
    stats = form_stats(form)
    ys = envelope_y_grid(stats.a_plus, n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        try:
            terms, q = _log_mgf_terms(form.a, form.b, ys)
            rhs = MgfEnvelope.from_stats(stats).rhs(ys)
            slack = np.sum(terms + 0.5 * q, axis=0) - rhs
        except DomainError:  # every y is inside the pole: a product left the float range
            slack = np.array([math.nan])
    if not np.isfinite(slack).all():
        raise ValidationError("the log-MGF grid leaves the float range for this form")
    worst = int(np.argmax(slack))
    violations = int(np.count_nonzero(slack > ENVELOPE_SLACK * (1.0 + np.abs(rhs))))
    return EnvelopeCheck(
        grid_size=ys.size,
        y_max=float(ys[-1]),
        max_slack=float(slack[worst]),
        worst_y=float(ys[worst]),
        violations=violations,
    )
