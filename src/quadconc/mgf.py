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

_log_mgf_terms is the one place the log-MGF terms are formed, and it
returns their sums over the coefficients at every point of a grid.  A grid
of n points is evaluated in strips of _STRIP y-columns, each strip in tiles
of whole coefficient rows, in buffers of about _BLOCK_CELLS (coefficient, y)
cells, so a grid check holds O(n + block) memory rather than O(p n), and
every broadcast product runs along rows of a whole strip.  A carry row
sums each column over the coefficients in order, as numpy sums the whole
(p, n) grid.  The cells are formed in doubled units and each column sum is
halved once; where nothing is subnormal, that rounds as the half-unit
formula summed over the whole grid does, so every slack keeps its bits, and
a strip whose doubled sums leave the float range is formed again in half
units.
"""

import math

import numpy as np

from .bounds import (
    DiagonalForm,
    FormStats,
    _binade,
    _check_count,
    _check_instance,
    _check_real,
    _is_integer,
    _real_values,
    _Record,
    form_stats,
)
from .errors import DomainError, ValidationError

LINEAR_ONLY_Y_MAX = 10.0  # grid reach when a_plus = 0 and there is no pole
POLE_FRACTION = 0.999  # grids stop at this fraction of the MGF pole
ENVELOPE_SLACK = 1e-10
_BLOCK_CELLS = 2**15  # (coefficient, y) cells per tile of the log-MGF grid, carry row included
_STRIP = 4096  # y-columns per strip: numpy's broadcast products are slow along shorter rows


class MgfEnvelope(_Record):
    """Envelope parameters: centered log-MGF <= (u*y)^2 / (1 - v*y) on 0 < y < 1/v."""

    def __init__(self, u, v):
        self.__dict__.update(
            u=_check_real(u, "u", "nonnegative"), v=_check_real(v, "v", "nonnegative")
        )

    @classmethod
    def from_stats(cls, stats: FormStats, direction: str = "upper"):
        _check_instance(stats, FormStats, "stats")
        return cls(*stats.envelope(direction))

    def rhs(self, y):
        """(u*y)^2 / (1 - v*y) at a point y, or at every point of an array of them."""
        ys = _real_values(y, "y")
        if not np.all((ys > 0.0) & (self.v * ys < 1.0)):
            raise DomainError("y = %r outside (0, 1/v)" % (y,))
        uy = self.u * ys
        return (uy * uy / (1.0 - self.v * ys))[()]


def _log_mgf_terms(a, b, ys, centered):
    """sum_k t_k(y) at every y of ys, less sum_k a_k y when centered.

    t_k(y) = log E exp(y (a_k z^2 + b_k z)) = b_k^2 y^2 / (2 (1 + q)) - log1p(q) / 2,
    q = -2 a_k y.  Every term depends on y only through a_k y and b_k y, so
    they are formed from (a, b) * 2^-e and y * 2^e, e = _binade(a, b): the
    squares b_k^2 and y^2 then leave the float range only where a_k y or
    b_k y is extreme itself, and the terms keep the bits of the unscaled
    formula wherever nothing is subnormal.

    The grid is cut into strips of _STRIP columns; a lone last column joins
    the strip before it, since numpy sums a single column pairwise but
    several columns row by row.  Each strip is formed in tiles of whole
    coefficient rows, as many as fit _BLOCK_CELLS cells beside the carry
    row, in three buffers that belong to the call and are rewritten for
    each tile.  The carry row is row 0 of the terms buffer: it holds each
    column's sum over the tiles before, and each tile is summed together
    with it, so every column is summed over k in order, row after row, as
    numpy sums the whole (p, n) grid.  A one-column grid is one tile of all
    p rows, which numpy sums pairwise, as it sums the whole grid's column.

    A cell is formed in doubled units, 2 t_k(y) (+ q when centered), as
    b_k^2 y^2 / (1 + q) - log1p(q) (+ q) with q = (-2 a_k) y, and each
    column sum is halved once.  Scaling by 2 rounds nothing unless a value
    is subnormal or leaves the float range, so where neither happens each
    sum has the bits of the half-unit formula, t_k (+ q / 2) with
    q = -2 (a_k y), summed over the whole grid.  Any cell or partial sum
    that leaves the float range makes its column sum inf or NaN, and a
    strip with such a sum is formed again in half units, so that every
    value comes back as the half-unit formula gives it, finite or not.
    The half units are also where b_k^2 y^2 may overflow although a large
    1 - 2 a_k y brings the term back into range: there it is formed as
    (b_k y) (b_k y / (1 - 2 a_k y)) / 2, dividing before multiplying.

    Rounding is monotone, so each row's 1 - 2 a_k y is least at the
    smallest or the largest y, and the pole is checked at those two once;
    the DomainError it raises reports the caller's a and y at the first
    cell, row by row, that reaches the pole.
    """
    a, b, ys = np.ravel(a), np.ravel(b), np.ravel(ys)  # a form's tuples or scalars, as arrays once
    e = _binade(a, b)
    a_s, b_s = np.ldexp(a, -e), np.ldexp(b, -e)
    with np.errstate(over="ignore"):  # an infinite y * 2^e is the rounded value
        y_s = np.ldexp(ys, e)
    a2 = -2.0 * a_s  # q = (-2 a) y in doubled units
    ends = 1.0 + np.multiply.outer(a2, y_s[[np.argmin(y_s), np.argmax(y_s)]])
    if not np.all(ends > 0.0):
        k = int(np.argmin(np.all(ends > 0.0, axis=1)))
        row = 1.0 + -2.0 * (a_s[k] * y_s)
        j = int(np.argmin(row > 0.0))
        raise DomainError(
            "MGF diverges at term k=%d: 1 - 2ay = %r <= 0 (a=%r, y=%r)"
            % (k, float(row[j]), float(a[k]), float(ys[j]))
        )
    with np.errstate(over="ignore"):  # an overflowing square takes the fallback below
        b_sq, y_sq = np.square(b_s), np.square(y_s)
    # with every b_k zero and every y^2 finite, b^2 y^2 / (1 - 2ay) is +0 in
    # every cell; it is not formed, and the log part is subtracted from +0,
    # or from q when centered
    central = not b_sq.any() and bool(np.isfinite(y_sq).all())
    p, n = a.size, ys.size
    size = p + 1 if n == 1 else min(_BLOCK_CELLS, (p + 1) * min(n, _STRIP + 1))
    q_buf, den_buf, terms_buf = (np.empty(size) for _ in range(3))

    def fill(lo, out, doubled):
        """out[:] = the column sums of y-columns lo, lo + 1, ..., in doubled or half units."""
        w = out.size
        y, y2 = y_s[lo : lo + w], y_sq[lo : lo + w]
        rows = p if w == 1 else min(p, _BLOCK_CELLS // w - 1)
        for k in range(0, p, rows):
            ks = slice(k, min(p, k + rows))
            r = ks.stop - k
            q, den = q_buf[: r * w].reshape(r, w), den_buf[: r * w].reshape(r, w)
            tile = terms_buf[: (r + 1) * w].reshape(r + 1, w)
            terms = tile[1:]  # below the carry row
            if doubled:
                np.multiply.outer(a2[ks], y, out=q)
            else:
                np.multiply.outer(a_s[ks], y, out=q)
                q *= -2.0
            if not central:
                # b^2 y^2 / (1 - 2ay), halved in half units, in place
                np.add(q, 1.0, out=den)
                with np.errstate(over="ignore", invalid="ignore"):  # formed again below, or in half units
                    np.multiply.outer(b_sq[ks], y2, out=terms)
                    if not doubled:
                        terms *= 0.5
                    terms /= den
                if not (doubled or math.isfinite(terms.max())):  # the terms are >= 0 or NaN
                    lost = ~np.isfinite(terms)
                    by = np.multiply.outer(b_s[ks], y)[lost]
                    with np.errstate(over="ignore"):  # an infinite term is the rounded value
                        terms[lost] = 0.5 * by * (by / den[lost])
            # log1p keeps the small-y regime accurate where log(1 - 2ay) cancels against a*y
            logs = terms if central else den
            np.log1p(q, out=logs)
            if not doubled:
                logs *= 0.5
                q *= 0.5
            if central:
                np.subtract(q if centered else 0.0, logs, out=terms)
            else:
                terms -= logs
                if centered:
                    terms += q
            # the first tile's sum starts the carry row, later ones add to it
            np.sum(terms if k == 0 else tile, axis=0, out=out)
            tile[0] = out

    sums = np.empty(n)
    lo = 0
    while lo < n:
        hi = n if lo + _STRIP >= n - 1 else lo + _STRIP
        out = sums[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):  # a strip that leaves the range is formed again
            fill(lo, out, doubled=True)
        if np.isfinite(out).all():
            out *= 0.5
        else:
            fill(lo, out, doubled=False)
        lo = hi
    return sums


def log_mgf_term(a: float, b: float, y: float) -> float:
    """log E exp(y (a z^2 + b z)) for finite real scalars a, b, y with 1 - 2ay > 0."""
    a, b, y = (_check_real(val, name, "any") for name, val in (("a", a), ("b", b), ("y", y)))
    return float(_log_mgf_terms(a, b, y, centered=False)[0])


def log_mgf_centered(form: DiagonalForm, y: float) -> float:
    """log E exp(y (T - mean)) = sum_k [log_mgf_term(a_k, b_k, y) - a_k y] at a real scalar y."""
    _check_instance(form, DiagonalForm, "form")
    return float(_log_mgf_terms(form.a, form.b, _check_real(y, "y", "any"), centered=True)[0])


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


class EnvelopeCheck(_Record):
    """Grid verdict for the envelope inequality on one form."""

    def __init__(self, grid_size, y_max, max_slack, worst_y, violations):
        grid_size = _check_count(grid_size, "grid_size")
        if not (_is_integer(violations) and 0 <= violations <= grid_size):
            raise ValidationError("violations must be an integer in [0, %d], got %r"
                                  % (grid_size, violations))
        self.__dict__.update(
            grid_size=grid_size,
            y_max=_check_real(y_max, "y_max", "positive"),
            max_slack=_check_real(max_slack, "max_slack", "any"),
            worst_y=_check_real(worst_y, "worst_y", "positive"),
            violations=int(violations),
        )

    @property
    def ok(self):
        return self.violations == 0


def envelope_grid_check(form: DiagonalForm, n: int) -> EnvelopeCheck:
    """Compare centered log-MGF against the envelope on an n-point y-grid.

    A point counts as a violation when lhs exceeds rhs by more than
    ENVELOPE_SLACK * (1 + |rhs|).

    The grid is in the form's own units; _log_mgf_terms rescales by the
    form's _binade, so a form and its 2^k multiples get the same slack bits
    wherever nothing is subnormal.  The lhs is summed one block of grid
    points at a time, with the bits of a sum over the whole (p, n) grid,
    so the check holds O(n) memory besides one block.  Every grid point
    lies inside the pole, so a grid whose values still leave the float
    range, whether in the rescaled products or in the slack, raises
    ValidationError.
    """
    stats = form_stats(form)  # which refuses what is not a DiagonalForm
    ys = envelope_y_grid(stats.a_plus, n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        try:
            rhs = MgfEnvelope.from_stats(stats).rhs(ys)
            slack = _log_mgf_terms(form.a, form.b, ys, centered=True) - rhs
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
