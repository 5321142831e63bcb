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

from .bounds import DiagonalForm, FormStats, _check_real, _is_integer, form_stats
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
            object.__setattr__(self, name, _check_real(getattr(self, name), name, allow_zero=True))

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

    Both sides depend on y only through y a_k, y b_k, y u and y v, so when
    a_plus > 0 the grid runs on (a, b, u, v) * 2^-e, 2^(e-1) <= max(|a|, |b|)
    < 2^e, with y * 2^e, and y_max and worst_y are scaled back: the same
    bits wherever nothing is subnormal, at any coefficient scale.  Without
    a pole (a_plus = 0) the grid reaches LINEAR_ONLY_Y_MAX in the form's own
    units.  A grid whose values still leave the float range raises
    ValidationError.
    """
    stats = form_stats(form)
    a, b, a_plus, u = form.a, form.b, stats.a_plus, stats.u
    e = 0
    if a_plus > 0.0:
        e = math.frexp(max(float(np.max(np.abs(a))), float(np.max(np.abs(b)))))[1]
        a, b = np.ldexp(a, -e), np.ldexp(b, -e)
        a_plus, u = math.ldexp(a_plus, -e), math.ldexp(u, -e)
    ys = envelope_y_grid(a_plus, n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        y_max = float(np.ldexp(ys[-1], -e))
        # past the float range (a subnormal a_plus) the grid would read as a diverging MGF
        if math.isfinite(y_max):
            terms, q = _log_mgf_terms(a, b, ys)
            rhs = MgfEnvelope(u, 2.0 * a_plus).rhs(ys)
            slack = np.sum(terms + 0.5 * q, axis=0) - rhs
    if not (math.isfinite(y_max) and np.isfinite(slack).all()):
        raise ValidationError("the log-MGF grid leaves the float range for this form")
    worst = int(np.argmax(slack))
    violations = int(np.count_nonzero(slack > ENVELOPE_SLACK * (1.0 + np.abs(rhs))))
    return EnvelopeCheck(
        grid_size=ys.size,
        y_max=y_max,
        max_slack=float(slack[worst]),
        worst_y=float(np.ldexp(ys[worst], -e)),
        violations=violations,
    )
