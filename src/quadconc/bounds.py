"""Bernstein-style tail thresholds for quadratic forms of independent Gaussians.

The random variable of interest is T = sum_k a_k z_k^2 + b_k z_k with
z_1..z_p i.i.d. N(0,1).  Its mean is sum_k a_k, and the deviation scale is
governed by two numbers: u = sqrt(sum_k (a_k^2 + b_k^2/2)) and
v = 2*a_plus, a_plus = max(max_k a_k, 0) (v = 2*a_minus for the lower
tail).  For every x > 0,

    P(T >= mean + 2*u*sqrt(x) + 2*a_plus*x)  <= exp(-x)
    P(T <= mean - 2*u*sqrt(x) - 2*a_minus*x) <= exp(-x)

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
_SIGN = {"upper": 1.0, "lower": -1.0}


def _check_direction(direction):
    if direction not in DIRECTIONS:
        raise ValidationError("direction must be 'upper' or 'lower', got %r" % (direction,))


def _is_real(value):
    """Python and numpy real scalars; bool and np.bool_ do not count as reals."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _is_integer(value):
    """Python and numpy integers; bool does not count as an integer."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _finite_real(value):
    """`value` as a float if it is a finite real, else None.

    An integer past the float range is not finite here, rather than an
    OverflowError.
    """
    if not _is_real(value):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _check_real(value, name, allow_zero=False):
    """`value` as a float if it is a finite real > 0 (>= 0 with allow_zero)."""
    x = _finite_real(value)
    if x is None or not (x >= 0 if allow_zero else x > 0):
        kind = "nonnegative" if allow_zero else "positive"
        raise ValidationError("%s must be a %s finite real, got %r" % (name, kind, value))
    return x


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
    u       = sqrt(sum_k (a_k^2 + b_k^2 / 2))
    a_plus  = max(max_k a_k, 0)
    a_minus = max(max_k -a_k, 0)
    """

    mean: float
    u: float
    a_plus: float
    a_minus: float

    def __post_init__(self):
        vals = (self.mean, self.u, self.a_plus, self.a_minus)
        reals = [_finite_real(v) for v in vals]
        if None in reals:
            raise ValidationError("stats fields must be finite reals, got %r" % (vals,))
        for name, v in zip(("mean", "u", "a_plus", "a_minus"), reals):
            object.__setattr__(self, name, v)
        if self.u < 0 or self.a_plus < 0 or self.a_minus < 0:
            raise ValidationError("u, a_plus, a_minus must be nonnegative")

    def envelope(self, direction):
        """(u, v) of one tail, v = 2*a_plus (upper) or 2*a_minus (lower)."""
        _check_direction(direction)
        return self.u, 2.0 * (self.a_plus if direction == "upper" else self.a_minus)


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
    """Reduce a DiagonalForm to the four scalars driving its tails.

    As in eigen_sym, the sums run on (a, b) * 2^-e, 2^(e-1) <= max(|a|, |b|) < 2^e,
    and scale back by 2^e, which rounds nothing while the results stay normal:
    u is exact at any magnitude, and scaling the form by 2^k scales mean and u
    by exactly 2^k.
    """
    a, b = form.a, form.b
    e = math.frexp(max(float(np.max(np.abs(a))), float(np.max(np.abs(b)))))[1]
    a_s, b_s = np.ldexp(a, -e), np.ldexp(b, -e)
    u_s = math.sqrt(float(np.sum(a_s * a_s + 0.5 * b_s * b_s)))
    with np.errstate(over="ignore"):  # FormStats refuses what overflows
        mean, u = np.ldexp([np.sum(a_s), u_s], e).tolist()
    stats = FormStats(
        mean=mean,
        u=u,
        a_plus=max(float(np.max(a)), 0.0),
        a_minus=max(float(np.max(-a)), 0.0),
    )
    if math.ldexp(u, -e) != u_s:  # rounded into the subnormal range: digits lost
        raise ValidationError("u = %r is below the normal floating-point range" % u)
    return stats


def _deviation(u, v, x):
    """(2*u*sqrt(x), v*x): the two terms of the deviation that carries mass exp(-x).

    Every threshold and envelope deviation is formed here.  One that
    underflows to zero would put the threshold at the mean and raises
    instead; a subnormal one is off by at most 2^-1075 and is kept.
    """
    gauss = 2.0 * u * math.sqrt(x)
    linear = v * x
    if (u > 0.0 or v > 0.0) and gauss + linear == 0.0:
        raise ValidationError("deviation 2*u*sqrt(x) + v*x underflows to zero at x = %r" % x)
    return gauss, linear


def _threshold(stats, x, direction):
    x = _check_exponent(x)
    gauss, linear = _deviation(*stats.envelope(direction), x)
    # (mean + gauss) + linear with signed terms: lower is the exact mirror of upper
    sign = _SIGN[direction]
    return TailBound(direction, x, stats.mean + sign * gauss + sign * linear)


def upper_threshold(stats: FormStats, x: float) -> TailBound:
    """Threshold t with P(T >= t) <= exp(-x)."""
    return _threshold(stats, x, "upper")


def lower_threshold(stats: FormStats, x: float) -> TailBound:
    """Threshold t with P(T <= t) <= exp(-x).

    Mirror of upper_threshold under (a, b) -> (-a, -b), bit for bit.
    """
    return _threshold(stats, x, "lower")


def tail_exponent(stats: FormStats, deviation: float, direction: str) -> TailBound:
    """Invert the threshold map: find x with 2*u*sqrt(x) + v*x = deviation.

    (u, v) is stats.envelope(direction).  x depends only on u : v : deviation,
    so it is solved on the three scaled by 2^-e, 2^(e-1) <= max < 2^e, where
    sqrt(u^2 + v*d) cannot overflow.  The returned bound has threshold
    mean +/- deviation and prob_bound = exp(-x).
    """
    u, v = stats.envelope(direction)
    deviation = _check_real(deviation, "deviation")
    if u == 0.0 and v == 0.0:
        raise DegenerateFormError("form is deterministic; no exponent reproduces a deviation")
    e = math.frexp(max(u, v, deviation))[1]
    u, v, d = (math.ldexp(w, -e) for w in (u, v, deviation))
    # conjugate form of (sqrt(u^2 + v*d) - u)/v: no cancellation when v*d << u^2;
    # an x past the float range comes out inf, which TailBound refuses
    root = math.sqrt(u * u + v * d) + u
    sqrt_x = d / root if root > 0.0 else math.inf
    return TailBound(direction, sqrt_x * sqrt_x, stats.mean + _SIGN[direction] * deviation)


def envelope_threshold(u: float, v: float, x: float) -> float:
    """Deviation 2*u*sqrt(x) + v*x carrying tail mass <= exp(-x).

    Applies to any centered variable whose log-MGF is bounded by
    (u*y)^2 / (1 - v*y) on 0 < y < 1/v.
    """
    u = _check_real(u, "u", allow_zero=True)
    v = _check_real(v, "v", allow_zero=True)
    if u == 0.0 and v == 0.0:
        raise ValidationError("u and v cannot both be zero")
    gauss, linear = _deviation(u, v, _check_exponent(x))
    return gauss + linear


def union_threshold(stats_list, x: float, direction: str):
    """Per-form thresholds valid simultaneously for M forms at level exp(-x).

    Each member is evaluated at the inflated exponent x + ln M, so the union
    of the M violation events has probability at most M*exp(-x-ln M) = exp(-x).
    """
    x = _check_exponent(x)
    stats_list = list(stats_list)
    if not stats_list:
        raise ValidationError("union bound needs at least one form")
    x_adj = x + math.log(len(stats_list))
    return [_threshold(stats, x_adj, direction) for stats in stats_list]
