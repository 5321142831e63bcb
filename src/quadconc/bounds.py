"""Bernstein-style tail thresholds for quadratic forms of independent Gaussians.

The random variable of interest is T = sum_k a_k z_k^2 + b_k z_k with
z_1..z_p i.i.d. N(0,1).  Its mean is sum_k a_k, and the deviation scale is
governed by two numbers: the variance proxy u_sq = sum_k (a_k^2 + b_k^2/2)
and the extreme coefficient a_plus = max(max_k a_k, 0) (a_minus for the
lower tail).  For every x > 0,

    P(T >= mean + 2*sqrt(u_sq)*sqrt(x) + 2*a_plus*x)  <= exp(-x)
    P(T <= mean - 2*sqrt(u_sq)*sqrt(x) - 2*a_minus*x) <= exp(-x)

The sqrt(x) term dominates moderate deviations (sub-Gaussian regime), the
linear term large ones (sub-exponential regime), the usual shape of bounds
obtained from a (u*y)^2/(1-v*y) log-MGF envelope in the style of
Birge & Massart (1998).  This module evaluates the thresholds, inverts them
(deviation -> exponent), and inflates exponents for finite union bounds.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFormError, ValidationError

DIRECTIONS = ("upper", "lower")


def _check_direction(direction):
    if direction not in DIRECTIONS:
        raise ValidationError("direction must be 'upper' or 'lower', got %r" % (direction,))


def _is_real(value):
    """Python and numpy real scalars; bool and np.bool_ do not count as reals."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _is_integer(value):
    """Python and numpy integers; bool does not count as an integer."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_real(value, name, allow_zero=False):
    """`value` as a float if it is a finite real > 0 (>= 0 with allow_zero)."""
    if not (
        _is_real(value)
        and math.isfinite(value)
        and (value >= 0 if allow_zero else value > 0)
    ):
        kind = "nonnegative" if allow_zero else "positive"
        raise ValidationError("%s must be a %s finite real, got %r" % (name, kind, value))
    return float(value)


def _check_exponent(x):
    return _check_real(x, "exponent x")


@dataclass(frozen=True)
class DiagonalForm:
    """Coefficients of T = sum_k a_k z_k^2 + b_k z_k."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.ndim != 1 or b.ndim != 1:
            raise ValidationError("a and b must be one-dimensional")
        if a.size != b.size or a.size < 1:
            raise ValidationError(
                "a and b must have equal positive length, got %d and %d" % (a.size, b.size)
            )
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValidationError("form coefficients must be finite")
        a = a.copy()
        b = b.copy()
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def p(self):
        return self.a.size


@dataclass(frozen=True)
class FormStats:
    """Scalars that determine both tails of a DiagonalForm.

    mean    = sum_k a_k
    u_sq    = sum_k (a_k^2 + b_k^2 / 2)
    a_plus  = max(max_k a_k, 0)
    a_minus = max(max_k -a_k, 0)
    """

    mean: float
    u_sq: float
    a_plus: float
    a_minus: float

    def __post_init__(self):
        vals = (self.mean, self.u_sq, self.a_plus, self.a_minus)
        if not all(_is_real(v) and math.isfinite(v) for v in vals):
            raise ValidationError("stats fields must be finite reals, got %r" % (vals,))
        for name, v in zip(("mean", "u_sq", "a_plus", "a_minus"), vals):
            object.__setattr__(self, name, float(v))
        if self.u_sq < 0 or self.a_plus < 0 or self.a_minus < 0:
            raise ValidationError("u_sq, a_plus, a_minus must be nonnegative")


@dataclass(frozen=True)
class TailBound:
    """One evaluated tail guarantee: P(T beyond threshold) <= prob_bound = exp(-x)."""

    direction: str
    x: float
    threshold: float
    prob_bound: float = field(init=False)

    def __post_init__(self):
        _check_direction(self.direction)
        _check_exponent(self.x)
        if not math.isfinite(self.threshold):
            raise ValidationError("threshold must be finite")
        object.__setattr__(self, "prob_bound", math.exp(-self.x))


def form_stats(form: DiagonalForm) -> FormStats:
    """Reduce a DiagonalForm to the four scalars driving its tails."""
    a, b = form.a, form.b
    return FormStats(
        mean=float(np.sum(a)),
        u_sq=float(np.sum(a * a + 0.5 * b * b)),
        a_plus=max(float(np.max(a)), 0.0),
        a_minus=max(float(np.max(-a)), 0.0),
    )


def upper_threshold(stats: FormStats, x: float) -> TailBound:
    """Threshold t with P(T >= t) <= exp(-x)."""
    x = _check_exponent(x)
    gauss = 2.0 * math.sqrt(stats.u_sq) * math.sqrt(x)
    linear = 2.0 * stats.a_plus * x
    return TailBound("upper", x, stats.mean + gauss + linear)


def lower_threshold(stats: FormStats, x: float) -> TailBound:
    """Threshold t with P(T <= t) <= exp(-x).

    Mirror of upper_threshold under (a, b) -> (-a, -b); the expressions are
    kept in the exact mirrored order so the duality holds bitwise.
    """
    x = _check_exponent(x)
    gauss = 2.0 * math.sqrt(stats.u_sq) * math.sqrt(x)
    linear = 2.0 * stats.a_minus * x
    return TailBound("lower", x, stats.mean - gauss - linear)


def tail_exponent(stats: FormStats, deviation: float, direction: str) -> TailBound:
    """Invert the threshold map: find x with 2*u*sqrt(x) + v*x = deviation.

    u = sqrt(u_sq) and v = 2*a_plus (upper) or 2*a_minus (lower).  The
    returned bound has threshold = mean +/- deviation and prob_bound = exp(-x).
    """
    _check_direction(direction)
    deviation = _check_real(deviation, "deviation")
    u = math.sqrt(stats.u_sq)
    v = 2.0 * (stats.a_plus if direction == "upper" else stats.a_minus)
    if u == 0.0 and v == 0.0:
        raise DegenerateFormError("form is deterministic; no exponent reproduces a deviation")
    if v > 0.0:
        # conjugate form of (sqrt(u^2 + v*d) - u)/v: no cancellation when v*d << u^2
        sqrt_x = deviation / (math.sqrt(u * u + v * deviation) + u)
        x = sqrt_x * sqrt_x
    else:
        x = (deviation / (2.0 * u)) ** 2
    if direction == "upper":
        threshold = stats.mean + deviation
    else:
        threshold = stats.mean - deviation
    return TailBound(direction, x, threshold)


def envelope_threshold(u: float, v: float, x: float) -> float:
    """Deviation 2*u*sqrt(x) + v*x carrying tail mass <= exp(-x).

    Applies to any centered variable whose log-MGF is bounded by
    (u*y)^2 / (1 - v*y) on 0 < y < 1/v.
    """
    u = _check_real(u, "u", allow_zero=True)
    v = _check_real(v, "v", allow_zero=True)
    if u == 0.0 and v == 0.0:
        raise ValidationError("u and v cannot both be zero")
    x = _check_exponent(x)
    return 2.0 * u * math.sqrt(x) + v * x


def union_threshold(stats_list, x: float, direction: str):
    """Per-form thresholds valid simultaneously for M forms at level exp(-x).

    Each member is evaluated at the inflated exponent x + ln M, so the union
    of the M violation events has probability at most M*exp(-x-ln M) = exp(-x).
    """
    _check_direction(direction)
    x = _check_exponent(x)
    stats_list = list(stats_list)
    if not stats_list:
        raise ValidationError("union bound needs at least one form")
    x_adj = x + math.log(len(stats_list))
    one = upper_threshold if direction == "upper" else lower_threshold
    return [one(stats, x_adj) for stats in stats_list]
