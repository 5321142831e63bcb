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

_log_mgf_terms is the one place the log-MGF terms are formed.  A grid of n
points is evaluated one block of y-columns at a time, about _BLOCK_CELLS
(coefficient, y) cells a block, in buffers that fit in a core's L2 cache,
so a grid check holds O(n + block) memory rather than O(p n).  Each cell
gets the same operations in the same order as on the whole grid, and the
column sums run over the coefficients in order as they do there, so every
slack keeps the bits of the whole-grid evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DiagonalForm, FormStats, _binade, _check_count, _check_real, form_stats
from .errors import DomainError, ValidationError

LINEAR_ONLY_Y_MAX = 10.0  # grid reach when a_plus = 0 and there is no pole
POLE_FRACTION = 0.999  # grids stop at this fraction of the MGF pole
ENVELOPE_SLACK = 1e-10
_BLOCK_CELLS = 2**15  # (coefficient, y) cells per block of the log-MGF grid


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
    """Yield (cols, terms, q), one block of y-columns cols at a time.

    terms holds log E exp(y (a_k z^2 + b_k z)) and q = -2 a_k y, one row per
    coefficient k, one column per y of cols; the first plus q/2 (which is
    -a_k y exactly) are the centered terms.

    Every term depends on y only through a_k y and b_k y, so they are formed
    from (a, b) * 2^-e and y * 2^e, e = _binade(a, b): the squares b_k^2 and
    y^2 then leave the float range only where a_k y or b_k y is extreme
    itself, and the terms keep the bits of the unscaled formula wherever
    nothing is subnormal.  Where b_k^2 y^2 still overflows, a large
    1 - 2 a_k y can bring the term back into range, so there it is formed as
    (b_k y) (b_k y / (1 - 2 a_k y)) / 2, dividing before multiplying.

    A block holds about _BLOCK_CELLS (k, y) cells in three buffers that
    belong to the call and are rewritten for each block, so the caller reads
    (and may overwrite) one block before asking for the next.  Each cell
    gets the operations of the whole-grid formula in the same order, so
    its bits do not depend on the block it falls in.  Rounding is monotone,
    so each row's 1 - 2 a_k y is least at the smallest or the largest y,
    and the pole is checked at those two once; the DomainError it raises
    reports the caller's a and y at the first cell, row by row, that
    reaches the pole.
    """
    a, b, ys = np.ravel(a), np.ravel(b), np.ravel(ys)  # a form's tuples or scalars, as arrays once
    e = _binade(a, b)
    a_s, b_s, y_s = np.ldexp(a, -e), np.ldexp(b, -e), np.ldexp(ys, e)
    ends = 1.0 + -2.0 * np.multiply.outer(a_s, y_s[[np.argmin(y_s), np.argmax(y_s)]])
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
    # with every b_k zero and every y^2 finite, 0.5 b^2 y^2 / (1 - 2ay) is +0
    # in every cell; it is not formed, and the log part is subtracted from +0
    central = not b_sq.any() and bool(np.isfinite(y_sq).all())
    p, n = a.size, ys.size
    # numpy sums a block's one column pairwise, but several columns row by
    # row, as it sums the whole grid: a lone last column joins the block
    # before it, so every block of a grid of two or more columns has two or more
    width = max(2, _BLOCK_CELLS // p)
    buffers = [np.empty(p * min(n, width + 1)) for _ in range(3)]
    lo = 0
    while lo < n:
        hi = n if lo + width >= n - 1 else lo + width
        q, den, terms = (buf[: p * (hi - lo)].reshape(p, hi - lo) for buf in buffers)
        np.multiply.outer(a_s, y_s[lo:hi], out=q)
        q *= -2.0
        if not central:
            # 0.5 b^2 y^2 / (1 - 2ay) in place
            np.add(q, 1.0, out=den)
            with np.errstate(over="ignore", invalid="ignore"):  # formed again just below
                np.multiply.outer(b_sq, y_sq[lo:hi], out=terms)
                terms *= 0.5
                terms /= den
            if not math.isfinite(terms.max()):  # the terms are >= 0 or NaN
                lost = ~np.isfinite(terms)
                by = np.multiply.outer(b_s, y_s[lo:hi])[lost]
                terms[lost] = 0.5 * by * (by / den[lost])
        # log1p keeps the small-y regime accurate where log(1 - 2ay) cancels against a*y
        np.log1p(q, out=den)
        den *= 0.5
        if central:
            np.subtract(0.0, den, out=terms)
        else:
            terms -= den
        yield slice(lo, hi), terms, q
        lo = hi


def _centered_sums(a, b, ys):
    """sum_k [log E exp(y (a_k z^2 + b_k z)) - a_k y] at every y of ys."""
    sums = np.empty(np.size(ys))
    for cols, terms, q in _log_mgf_terms(a, b, ys):
        q *= 0.5
        terms += q
        np.sum(terms, axis=0, out=sums[cols])
    return sums


def log_mgf_term(a: float, b: float, y: float) -> float:
    """log E exp(y (a z^2 + b z)) for scalar a, b, y with 1 - 2ay > 0."""
    _, terms, _ = next(_log_mgf_terms(a, b, y))
    return float(terms[0, 0])


def log_mgf_centered(form: DiagonalForm, y: float) -> float:
    """log E exp(y (T - mean)) = sum_k [log_mgf_term(a_k, b_k, y) - a_k y]."""
    return float(_centered_sums(form.a, form.b, y)[0])


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
    wherever nothing is subnormal.  The lhs is summed one block of grid
    points at a time, with the bits of a sum over the whole (p, n) grid,
    so the check holds O(n) memory besides one block.  Every grid point
    lies inside the pole, so a grid whose values still leave the float
    range, whether in the rescaled products or in the slack, raises
    ValidationError.
    """
    stats = form_stats(form)
    ys = envelope_y_grid(stats.a_plus, n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        try:
            rhs = MgfEnvelope.from_stats(stats).rhs(ys)
            slack = _centered_sums(form.a, form.b, ys) - rhs
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
