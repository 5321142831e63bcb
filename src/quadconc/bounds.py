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
It imports no dataclasses, and numpy only inside _real_values, the gate
for arrays of reals, so a CLI call that needs nothing else loads neither.
"""

import math
import numbers

from .errors import DegenerateFormError, ValidationError

DIRECTIONS = ("upper", "lower")
_SIGN = {"upper": 1.0, "lower": -1.0}


def _check_direction(direction):
    if not (isinstance(direction, str) and direction in DIRECTIONS):
        raise ValidationError("direction must be 'upper' or 'lower', got %r" % (direction,))


def _is_real_type(kind):
    """Python and numpy real types; bool does not count as a real."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _is_integer(value):
    """Python and numpy integers; bool does not count as an integer."""
    # type(value) is int spares an int the slower ABC check
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_real(value, name, sign):
    """`value` as a float if it is a finite real of the given sign, else ValidationError.

    sign is "any", "nonnegative" or "positive".  A 0-d array counts as the
    scalar it holds.  An integer past the float range is not finite here,
    rather than an OverflowError.
    """
    if type(value) is float:  # the common case, without the ABC check below
        x = value
    else:
        if getattr(value, "ndim", None) == 0 and hasattr(value, "__getitem__"):
            value = value[()]
        try:
            x = float(value) if _is_real_type(type(value)) else math.nan
        except OverflowError:
            x = math.nan
    signed = sign == "any" or x > 0.0 or (x == 0.0 and sign == "nonnegative")
    if not (signed and math.isfinite(x)):
        kind = "" if sign == "any" else sign + " "
        raise ValidationError("%s must be a %sfinite real, got %r" % (name, kind, value))
    return x


def _check_count(value, name):
    """`value` as an int in [1, 2^53], where doubles are exact, else ValidationError."""
    if not (_is_integer(value) and value >= 1):
        raise ValidationError("%s must be a positive integer, got %r" % (name, value))
    if value > 2**53:
        raise ValidationError("%s must be at most 2**53, got %r" % (name, value))
    return int(value)  # value + 1 would wrap for a numpy integer at its dtype's maximum


def _check_instance(value, cls, name):
    """ValidationError unless value is a cls: a record's checked fields cannot change."""
    if not isinstance(value, cls):
        kind = type(value).__name__
        raise ValidationError("%s must be a %s, got %s" % (name, cls.__name__, kind))


def _real_values(values, name):
    """`values` as a float array if _is_real_type admits every entry, NaN and infinities too.

    An ndarray is checked by its dtype, and a float64 one comes back as itself.
    """
    import numpy as np

    try:
        array = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    except ValueError:  # arrays of shapes that no object array can nest
        raise ValidationError("%s must be real numbers, got arrays of unequal shapes" % name)
    kinds = set(map(type, array.flat)) if array.dtype == object else {array.dtype.type}
    refused = sorted(kind.__name__ for kind in kinds if not _is_real_type(kind))
    if not refused:
        try:
            return array.astype(float, copy=False)
        except OverflowError:
            refused = ["an integer past the float range"]
    raise ValidationError("%s must be real numbers, got %s" % (name, ", ".join(refused)))


class _Record:
    """A frozen value object: its fields are what its __init__ puts in __dict__.

    Each subclass's __init__ checks its arguments and then sets every field
    once, in a fixed order, through self.__dict__; after that, assignment
    and deletion raise AttributeError.  Two records are equal when they are
    of the same class and their fields are equal, compared as tuples are;
    against anything else == is NotImplemented.  The hash is that of the
    field tuple, so a record that holds an array has none.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join("%s=%r" % item for item in self.__dict__.items())
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def _binade(*values):
    """The e with 2^(e-1) <= max|v| < 2^e over every entry of `values`.

    Each value is a real or a flat sequence of reals.  Scaled by 2^-e the
    largest magnitude lies in [0.5, 1), so nothing squared leaves the float
    range, and a power-of-two scaling rounds nothing above the subnormal
    range.  e is 0 when every entry is 0, but also when the largest lies in
    [0.5, 1): test the values, not e, for zero.
    """
    largest = max(abs(v) if _is_real_type(type(v)) else max(map(abs, v)) for v in values)
    return math.frexp(largest)[1]


class DiagonalForm(_Record):
    """Coefficients of T = sum_k a_k z_k^2 + b_k z_k, each a tuple of floats.

    Every coefficient must be a finite real: bools, strings, None, nestings
    and integers past the float range raise ValidationError.  An ndarray is
    read through tolist(), and a scalar counts as a one-entry vector.
    """

    def __init__(self, a, b):
        fields = self.__dict__
        for name, values in (("a", a), ("b", b)):
            values = values.tolist() if hasattr(values, "tolist") else values
            values = values if isinstance(values, (list, tuple)) else [values]
            # one check per distinct entry type: a million floats make one check
            if not all(map(_is_real_type, set(map(type, values)))):
                raise ValidationError("%s entries must be real numbers" % name)
            try:
                values = tuple(map(float, values))
            except OverflowError:  # an integer past the float range
                values = (math.inf,)
            if not all(map(math.isfinite, values)):
                raise ValidationError("%s entries must be finite" % name)
            fields[name] = values
        if len(self.a) != len(self.b) or not self.a:
            raise ValidationError(
                "a and b must have equal positive length, got %d and %d"
                % (len(self.a), len(self.b))
            )

    @property
    def p(self):
        return len(self.a)


class FormStats(_Record):
    """Scalars that determine both tails of a DiagonalForm.

    mean    = sum_k a_k
    u       = sqrt(sum_k (a_k^2 + b_k^2 / 2))
    a_plus  = max(max_k a_k, 0)
    a_minus = max(max_k -a_k, 0)
    """

    def __init__(self, mean, u, a_plus, a_minus):
        self.__dict__.update(
            mean=_check_real(mean, "mean", "any"),
            u=_check_real(u, "u", "nonnegative"),
            a_plus=_check_real(a_plus, "a_plus", "nonnegative"),
            a_minus=_check_real(a_minus, "a_minus", "nonnegative"),
        )

    def envelope(self, direction):
        """(u, v) of one tail, v = 2*a_plus (upper) or 2*a_minus (lower)."""
        _check_direction(direction)
        return self.u, 2.0 * (self.a_plus if direction == "upper" else self.a_minus)


class TailBound(_Record):
    """One evaluated tail guarantee: P(T beyond threshold) <= prob_bound = exp(-x)."""

    def __init__(self, direction, x, threshold):
        _check_direction(direction)
        x = _check_real(x, "exponent x", "positive")
        threshold = _check_real(threshold, "threshold", "any")
        self.__dict__.update(
            direction=direction, x=x, threshold=threshold, prob_bound=math.exp(-x)
        )


def form_stats(form: DiagonalForm) -> FormStats:
    """Reduce a DiagonalForm to the four scalars driving its tails.

    As in eigen_sym, the sums run on (a, b) * 2^-e, e = _binade(a, b), and
    scale back by 2^e, which rounds nothing while the results stay normal:
    u is exact at any magnitude, and scaling the form by 2^k scales mean and u
    by exactly 2^k.  The sums are math.fsum's, correctly rounded, so they do
    not depend on the order of the coordinates: permuting them moves no bit.
    """
    _check_instance(form, DiagonalForm, "form")
    a, b = form.a, form.b
    e = _binade(a, b)
    a_s, b_s = [math.ldexp(x, -e) for x in a], [math.ldexp(y, -e) for y in b]
    u_s = math.sqrt(math.fsum(x * x + 0.5 * y * y for x, y in zip(a_s, b_s)))
    # FormStats refuses what overflows
    mean, u = (_ldexp_or_inf(s, e) for s in (math.fsum(a_s), u_s))
    # max(0.0, z) is +0.0 for either zero, whichever coordinate holds it
    stats = FormStats(mean=mean, u=u, a_plus=max(0.0, max(a)), a_minus=max(0.0, -min(a)))
    if math.ldexp(u, -e) != u_s:  # rounded into the subnormal range: digits lost
        raise ValidationError("u = %r is below the normal floating-point range" % u)
    return stats


def _ldexp_or_inf(x, e):
    """x * 2^e, or an infinity of x's sign where that leaves the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


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
    _check_instance(stats, FormStats, "stats")
    x = _check_real(x, "exponent x", "positive")
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
    so it is solved on the three scaled by 2^-e, e = _binade(u, v, deviation),
    where sqrt(u^2 + v*d) cannot overflow.  The returned bound has threshold
    mean +/- deviation and prob_bound = exp(-x).
    """
    _check_instance(stats, FormStats, "stats")
    u, v = stats.envelope(direction)
    deviation = _check_real(deviation, "deviation", "positive")
    if u == 0.0 and v == 0.0:
        raise DegenerateFormError("form is deterministic; no exponent reproduces a deviation")
    e = _binade(u, v, deviation)
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
    u = _check_real(u, "u", "nonnegative")
    v = _check_real(v, "v", "nonnegative")
    if u == 0.0 and v == 0.0:
        raise ValidationError("u and v cannot both be zero")
    gauss, linear = _deviation(u, v, _check_real(x, "exponent x", "positive"))
    return gauss + linear


def union_threshold(stats_list, x: float, direction: str):
    """Per-form thresholds valid simultaneously for M forms at level exp(-x).

    Each member is evaluated at the inflated exponent x + ln M, so the union
    of the M violation events has probability at most M*exp(-x-ln M) = exp(-x).
    """
    x = _check_real(x, "exponent x", "positive")
    try:
        members = iter(stats_list)
    except TypeError:
        raise ValidationError("stats_list must be iterable, got %s" % type(stats_list).__name__)
    stats_list = list(members)
    if not stats_list:
        raise ValidationError("union bound needs at least one form")
    x_adj = x + math.log(len(stats_list))
    return [_threshold(stats, x_adj, direction) for stats in stats_list]
