"""Independent ground truth for the law of T = sum_k a_k z_k^2 + b_k z_k.

Three routes, none sharing code with the bounds machinery they validate:

* a bit-reproducible Monte Carlo sampler with exact binomial confidence
  intervals (the court of last resort),
* a closed-form CDF for p = 1 built on the error function,
* a characteristic-function inversion (Gil-Pelaez / Imhof style) for
  general p, cross-validated against the other two.

Sampling uses counter-based Philox streams: chunk c of DEFAULT_CHUNK draws
is generated from counter c * 2^128, so runs of different total size agree
bit for bit on the shared prefix.  The chunk size is part of what defines a
stream, so it is a module constant, not a parameter.  Normals come from an
explicit Box-Muller transform rather than a library-version-dependent
method: radius sqrt(-2 log u1) times (cos, sin)(2 pi u2), where the cosine
and sine come from u2 itself, a table of _TURN_KNOTS + 1 knots and two short
polynomials (see _polar), in + - * and rint, which IEEE 754 rounds the same
on every host.  The chunks run one after the other on the calling thread,
each one block of about _BLOCK normals at a time in buffers of about
4.5 _BLOCK doubles.  sample writes them into its n-vector, so its peak
memory is the output plus that much; verify takes them as a stream of
chunks in one reused buffer, which empirical_tail counts as they come, so
its memory does not grow with n.

scipy is imported only where it is used, by the binomial interval.
Importing this module, and both of cdf_cf's paths, load numpy only.  The
form's coefficient tuples become arrays once per sample call and once per
form that cdf_cf sees.
"""

import math
from collections.abc import Iterator

import numpy as np

from .bounds import (
    DiagonalForm,
    _binade,
    _check_count,
    _check_direction,
    _check_form,
    _check_real,
    _is_integer,
    _is_real_type,
    _ldexp_or_inf,
    _Record,
)
from .errors import DegenerateFormError, NumericalError, ValidationError

DEFAULT_CHUNK = 65536
# sample makes about this many normals at a time, and cdf_cf's phase kernel
# this many (node, coordinate) terms, so that a block's buffers stay in a
# core's L2 cache; unlike DEFAULT_CHUNK, it is not part of what defines the
# stream
_BLOCK = 2**15
# Box-Muller's angle 2 pi u is the knot 2 pi j / _TURN_KNOTS nearest to it
# plus a turn of at most pi / _TURN_KNOTS
_TURN_KNOTS = 256
DEFAULT_CONFIDENCE = 0.99

# characteristic-function inversion: both paths drop a tail of the integral
# that is provably below this; the damping of the slow-decay path ends where
# the noncentral and Gaussian part of G reaches _G_STOP
ENVELOPE_CUTOFF = 1e-12
_G_STOP = -math.log(ENVELOPE_CUTOFF)
ACCURACY_TARGET = 1e-6
_EPS = float(np.finfo(float).eps)
# trapezoid path: each tail beyond its Chernoff radius holds at most
# exp(-_TAIL_LOG); a form needing more than _NODE_BUDGET nodes takes the
# slow-decay path
_TAIL_LOG = 30.0
_NODE_BUDGET = 2**14
_RADIUS_STEPS = 100  # a cap on _chernoff_radius's steps; every step gives a valid radius
# slow-decay path: the M of the ladder in turn until two sums agree within
# _DE_AGREE, or 2^-10 of the phase rounding if more, on tau in _DE_TAU less
# the head (0, u_min) of at most _DE_HEAD
_DE_LADDER = (64, 256, 1024, 4096)
_DE_TAU = (-12.0, 5.5)
_DE_HEAD = 1e-17
_DE_AGREE = 1e-10
# (form, plan) for the last form cdf_cf saw; the plan is _plan(form)
_slot = (None, None)


class TailEstimate(_Record):
    """Monte Carlo tail probability with an exact binomial confidence interval."""

    def __init__(self, p_hat, ci_low, ci_high, n):
        if not 0.0 <= ci_low <= p_hat <= ci_high <= 1.0:
            raise ValidationError("interval must satisfy 0 <= ci_low <= p_hat <= ci_high <= 1")
        if n < 1:
            raise ValidationError("n must be positive")
        self.__dict__.update(p_hat=p_hat, ci_low=ci_low, ci_high=ci_high, n=n)


def _turn_table(n):
    """(cos, sin)(2 pi j / n) for j = 0..n, n a multiple of 8, correctly rounded.

    Worked out in 128-bit fixed point on Python ints: pi by Machin's
    formula, each angle of the first octant by its Taylor series, the rest
    by the octant's and the quadrants' symmetries, exact on ints, and each
    value rounded once by int / int.  So every host builds the same bits,
    and the knots at the axes are exact zeros and ones.
    """
    one = 1 << 128

    def arccot(x):  # one * arctan(1 / x)
        total = term = one // x
        k, sign = 3, -1
        while term:
            term //= x * x
            total += sign * (term // k)
            k, sign = k + 2, -sign
        return total

    def cos_sin(x):  # one * (cos, sin)(x / one)
        sums, term, k = [0, 0], one, 0
        while term:
            sums[k % 2] += -term if k % 4 >= 2 else term
            k += 1
            term = term * x // (one * k)
        return sums

    step = 8 * (4 * arccot(5) - arccot(239)) // n  # one * 2 pi / n
    octant = [cos_sin(k * step) for k in range(n // 8 + 1)]
    cos, sin = [], []
    for j in range(n + 1):
        quarters, r = divmod(j, n // 4)
        c, s = octant[min(r, n // 4 - r)]
        if r > n // 8:  # past the octant, the angle is pi/2 less a knot of it
            c, s = s, c
        for _ in range(quarters):
            c, s = -s, c
        cos.append(c / one)
        sin.append(s / one)
    return np.array(cos), np.array(sin)


_TURN_COS, _TURN_SIN = _turn_table(_TURN_KNOTS)


def _polar(u, radius, x, y, work):
    """x = radius * cos(2 pi u) and y = radius * sin(2 pi u), for u in [0, 1].

    With v = N u, N = _TURN_KNOTS, j = rint(v) and the turn
    t = (v - j) 2 pi / N, each step exact but the last, so |t| <= pi / N:

        cos 2 pi u = C_j + (C_j (cos t - 1) - S_j sin t)
        sin 2 pi u = S_j + (S_j (cos t - 1) + C_j sin t)

    with C_j, S_j the table knots, sin t = t + t z (-1/6 + z/120) and
    cos t - 1 = z (-1/2 + z (1/24 - z/720)), z = t^2.  Only + - *, rint
    and a table lookup, in this order, so the bits are the same on every
    host; each cosine and sine is within 2^-52 of its value at the exact
    angle.  `work` is six scratch rows of u.size doubles; y may be u.
    """
    v, j, c, s, sin_t, cos_t = work
    knot = sin_t.view(np.int64)  # the knots' indices, until sin t is formed
    np.multiply(u, _TURN_KNOTS, out=v)
    np.rint(v, out=j)
    v -= j
    v *= 2.0 * math.pi / _TURN_KNOTS
    np.copyto(knot, j, casting="unsafe")
    # every index is in 0..N: clip only spares take its bounds check
    np.take(_TURN_COS, knot, out=c, mode="clip")
    np.take(_TURN_SIN, knot, out=s, mode="clip")
    z = np.multiply(v, v, out=j)
    np.multiply(z, 1.0 / 120.0, out=sin_t)
    sin_t -= 1.0 / 6.0
    sin_t *= z
    sin_t *= v
    sin_t += v
    np.multiply(z, -1.0 / 720.0, out=cos_t)
    cos_t += 1.0 / 24.0
    cos_t *= z
    cos_t -= 0.5
    cos_t *= z
    np.multiply(c, cos_t, out=v)
    v -= np.multiply(s, sin_t, out=z)
    v += c
    np.multiply(v, radius, out=x)
    cos_t *= s
    sin_t *= c
    cos_t += sin_t
    cos_t += s
    np.multiply(cos_t, radius, out=y)


def _check_seed(seed):
    if not (_is_integer(seed) and 0 <= int(seed) < 2**64):
        raise ValidationError("seed must be an unsigned 64-bit integer, got %r" % (seed,))
    return int(seed)


def _chunks(form, n, seed, whole=False):
    """(out, chunks) for sample(form, n, seed), the request checked at once.

    `chunks` is an iterator that yields the draws one chunk at a time, each
    written into `out`: into its slice of the n-vector if `whole`, else into
    one buffer of DEFAULT_CHUNK draws that the next chunk overwrites, so a
    caller that is done with each chunk before asking for the next holds
    O(chunk) memory whatever n is.
    """
    _check_form(form)
    n, seed = _check_count(n, "n"), _check_seed(seed)
    out = np.empty(n if whole else min(n, DEFAULT_CHUNK))
    # the form is sampled at 2^-e times its scale, where no product or sum
    # can overflow, and each chunk scaled back; a power of two commutes with
    # every rounding, so the bits are those of the form itself wherever
    # nothing leaves the float range
    e = _binade(form.a, form.b)
    a, b = np.ldexp(form.a, -e), np.ldexp(form.b, -e)
    return out, _fill_chunks(a, b, e, n, seed, out)


def _fill_chunks(a, b, e, n, seed, out):
    """The generator behind _chunks: fill out with each chunk in turn, then yield it.

    The draws are those of the form (a, b), scaled by 2^e.
    """
    p, size = a.size, DEFAULT_CHUNK
    # a multiple of 64 rows, so that every block but a chunk's last starts
    # BLAS's row kernels where the whole chunk's product would
    rows = min(size, max(64, _BLOCK // p // 64 * 64))
    pairs = (rows * p + 1) // 2
    normals = np.empty(2 * pairs)
    radius, *work = np.empty((7, pairs))
    linear = np.empty(rows)
    for chunk, start in enumerate(range(0, n, size)):
        uniform = np.random.Generator(np.random.Philox(key=seed, counter=chunk << 128)).random
        # the chunk's slice of the n-vector, or the head of the one-chunk buffer
        draws = out[start : start + size] if out.size == n else out[: min(size, n - start)]
        for lo in range(0, draws.size, rows):
            m = min(rows, draws.size - lo)
            k = (m * p + 1) // 2
            z, r = normals[: 2 * k], radius[:k]
            # (bits >> 11) * 2^-53 in stream order; u1 = that + 2^-53 is in
            # (0, 1], so log never sees 0
            uniform(out=z)
            np.add(z[0::2], 2.0**-53, out=r)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            _polar(z[1::2], r, z[0::2], z[1::2], [w[:k] for w in work])
            # (z * z) @ a + z @ b, squaring z in place once z @ b is taken
            z = z[: m * p].reshape(m, p)
            np.matmul(z, b, out=linear[:m])
            np.multiply(z, z, out=z)
            np.matmul(z, a, out=draws[lo : lo + m])
            draws[lo : lo + m] += linear[:m]
        if e:
            with np.errstate(over="ignore"):  # an infinity here is the rounded value
                np.ldexp(draws, e, out=draws)
        yield draws


def sample(form: DiagonalForm, n: int, seed: int) -> np.ndarray:
    """n realizations of the diagonal form, reproducible for a fixed seed.

    Chunk c of DEFAULT_CHUNK rows draws from one Philox generator at counter
    c * 2^128.  The chunk is processed one block of about _BLOCK normals
    at a time: uniforms, the Box-Muller transform and both matrix-vector
    products run in buffers that every block reuses.  The
    transform's cosine and sine of 2 pi u2 are formed from u2 by a table of
    knots and two short polynomials in exact IEEE operations (_polar), with
    the same bits on every host; its log and the two products are numpy's
    and BLAS's.  The form is sampled at 2^-e times its scale,
    e = _binade(a, b), and each chunk is scaled back by 2^e, so a draw
    overflows only where its value does.  A counter-based stream continues
    bit for bit across calls, and every step is elementwise or a row
    product, so at one BLAS thread the bits are those of the whole chunk's
    normals followed by (z * z) @ a + z @ b.
    """
    out, chunks = _chunks(form, n, seed, whole=True)
    for _ in chunks:
        pass
    return out


def _clopper_pearson(k, n, confidence):
    # quantiles of Beta(k, n-k+1) and Beta(k+1, n-k); betaincinv is what
    # scipy.stats.beta.ppf evaluates, without its per-call distribution overhead
    from scipy.special import betaincinv

    alpha = 1.0 - confidence
    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return low, high


def _real_values(values, name):
    """`values` as a float array if _check_real's type rules admit every entry, infinities too."""
    array = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    kinds = set(map(type, array.flat)) if array.dtype == object else {array.dtype.type}
    refused = sorted(kind.__name__ for kind in kinds if not _is_real_type(kind))
    if not refused:
        try:
            return array.astype(float, copy=False)
        except OverflowError:
            refused = ["an integer past the float range"]
    raise ValidationError("%s must be a real number or a vector of real numbers, got %s"
                          % (name, ", ".join(refused)))


def empirical_tail(samples, t, direction: str):
    """Exact-binomial estimates of P(T >= t) (upper) or P(T <= t) (lower).

    `t` is one threshold, giving one TailEstimate, or a 1-D array of them,
    giving a list with one estimate per threshold.  `samples` is a vector,
    counted in DEFAULT_CHUNK blocks of which each is sorted as a copy, or an
    iterator over nonempty, writeable float64 arrays of one dimension, such
    as the chunks of verify's sampler, each of which is sorted in place: a
    stream that refills one buffer is counted with no copy and O(block)
    memory, whatever its length.
    Every threshold is located in each sorted block by binary search, so one
    pass over the samples counts them all exactly, and the intervals are
    computed once, from the totals.  A sample or threshold that is not a
    real number (a bool, a string, None, a complex value) or is NaN, and a
    block of any other kind, is refused rather than counted; an infinite
    threshold counts every sample or none.  The intervals are two-sided at
    DEFAULT_CONFIDENCE.
    """
    _check_direction(direction)
    if not isinstance(samples, Iterator):
        x = _real_values(samples, "samples")
        if x.ndim != 1:
            raise ValidationError("samples must be a nonempty vector")
        samples = (x[lo : lo + DEFAULT_CHUNK].copy() for lo in range(0, x.size, DEFAULT_CHUNK))
    thresholds = _real_values(t, "t")
    if thresholds.ndim > 1:
        raise ValidationError("t must be a scalar or a vector")
    flat = thresholds.reshape(-1)
    if np.isnan(flat).any():
        raise ValidationError("t must not be NaN")
    # upper counts x >= t as the x not below t; lower counts x <= t directly
    side = "left" if direction == "upper" else "right"
    located = np.zeros(flat.size, dtype=np.int64)
    n = 0
    for block in samples:
        if not (isinstance(block, np.ndarray) and block.dtype == np.float64 and block.ndim == 1
                and block.size and block.flags.writeable):
            raise ValidationError("each block of samples must be a nonempty, writeable float64 vector")
        block.sort()
        if np.isnan(block[-1]):  # a sort puts NaNs last
            raise ValidationError("samples must not be NaN")
        located += np.searchsorted(block, flat, side=side)
        n += block.size
    if n == 0:
        raise ValidationError("samples must be a nonempty vector")
    counts = n - located if direction == "upper" else located
    estimates = []
    for k in counts.tolist():
        low, high = _clopper_pearson(k, n, DEFAULT_CONFIDENCE)
        estimates.append(TailEstimate(p_hat=k / n, ci_low=low, ci_high=high, n=n))
    return estimates if thresholds.ndim else estimates[0]


def _phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def cdf_p1(a: float, b: float, t: float) -> float:
    """Exact P(a z^2 + b z <= t) for one Gaussian coordinate.

    a != 0 reduces to which z solve the quadratic a z^2 + b z - t <= 0: an
    interval between the roots when a > 0, the complement when a < 0, and
    empty or everything when the discriminant b^2 + 4at is negative.
    a, b and t must be finite reals; bools are refused.

    The answer depends on (a, b, t) only up to a common scale, so it is
    evaluated on (a, b, t) * 2^-e, e = _binade(a, b): b^2 can neither
    overflow nor underflow, a t that leaves the float range gives the
    limiting 0 or 1, and scaling all three by 2^k moves no bit.
    """
    a, b, t = (_check_real(val, name, "any") for name, val in (("a", a), ("b", b), ("t", t)))
    e = _binade(a, b)  # a t that overflows here lands in the 0/1 answers below
    a, b, t = (_ldexp_or_inf(v, -e) for v in (a, b, t))
    if a == 0.0:
        if b == 0.0:
            return 1.0 if t >= 0.0 else 0.0
        return _phi(t / abs(b))
    disc = b * b + 4.0 * a * t
    if disc < 0.0:
        return 0.0 if a > 0.0 else 1.0
    root = math.sqrt(disc)
    lo, hi = sorted(((-b + root) / (2.0 * a), (-b - root) / (2.0 * a)))
    return _phi(hi) - _phi(lo) if a > 0.0 else _phi(lo) + 1.0 - _phi(hi)


def _phase_sums(lam, delta_sq, half_sigma_sq, u):
    """G and psi at every node of the vector u, for cdf_cf.

    With l_k = a_k u over the coordinates with a_k != 0,

        G(u)   = sum_k [ log1p(4 l_k^2)/4 + 2 l_k^2 d_k^2 / (1 + 4 l_k^2) ] + sigma^2 u^2 / 2
        psi(u) = sum_k [ arctan(2 l_k)/2 + a_k d_k^2 u / (1 + 4 l_k^2) ]

    come from one pass over l = a u, a block of _BLOCK (node, coordinate)
    terms at a time, one node per row, in buffers that every block reuses:
    the u-independent factors 2 d^2 and a d^2 are computed once, the
    shared denominator 1 + 4 l^2 once per term.  Each rewrite of
    the textbook expressions (tests/_cf_reference.py) hoists a left factor
    or regroups a power-of-two scaling, and numpy sums a row pairwise as it
    sums a vector, so G and psi are bitwise equal to the textbook wherever
    no intermediate overflows or is subnormal.
    """
    two_delta_sq = 2.0 * delta_sq
    lam_delta_sq = lam * delta_sq
    g, psi = np.empty(u.size), np.empty(u.size)
    step = max(1, min(u.size, _BLOCK // lam.size))
    buffers = np.empty((5, step, lam.size))
    for start in range(0, u.size, step):
        col = u[start : start + step, None]
        lu, l2, q, den, terms = buffers[:, : col.shape[0]]
        # G terms: 0.25 log1p(4 l^2) + (2 d^2) l^2 / (1 + 4 l^2)
        np.multiply(lam, col, lu)
        np.multiply(lu, lu, l2)
        np.multiply(l2, 4.0, q)
        np.add(q, 1.0, den)
        np.log1p(q, terms)
        np.multiply(terms, 0.25, terms)
        np.multiply(l2, two_delta_sq, q)
        np.divide(q, den, q)
        np.add(terms, q, terms)
        terms.sum(axis=1, out=g[start : start + step])
        # psi terms: 0.5 arctan(2 l) + (a d^2) u / (1 + 4 l^2)
        np.multiply(lu, 2.0, lu)
        np.arctan(lu, lu)
        np.multiply(lu, 0.5, lu)
        np.multiply(lam_delta_sq, col, q)
        np.divide(q, den, q)
        np.add(lu, q, lu)
        lu.sum(axis=1, out=psi[start : start + step])
    g += half_sigma_sq * u * u
    return g, psi


def _chernoff_radius(lam, half_b_sq, half_sigma_sq, sd):
    """An r with P(T >= r) <= exp(-_TAIL_LOG), T having quadratic coefficients lam.

    The exact cumulant generating function of T,

        K(s) = sum_k [ -log(1 - 2 a_k s)/2 + b_k^2 s^2 / (2 (1 - 2 a_k s)) ] + sigma^2 s^2 / 2,

    gives P(T >= r) <= exp(K(s) - s r) at every s in its domain, so every s
    gives a valid r = (K(s) + _TAIL_LOG)/s.  The s is taken up to
    s_max = (1 - 2^-39.75) min(pole, 2^20/sd), where the pole 1/(2 a_max) is
    infinite unless a_max > 0; every 1 - 2 a_k s then stays at least about
    2^-40, so nothing overflows on a 2^-e-normalized form.  r(s) is least
    where h(s) = s K'(s) - K(s) reaches _TAIL_LOG, and h increases, since
    h'(s) = s K''(s) > 0.  With g_k = 1/(1 - 2 a_k s),

        K'(s)  = sum_k [ a_k g_k + b_k^2 s (g_k + g_k^2) / 2 ] + sigma^2 s,
        K''(s) = sum_k [ 2 a_k^2 g_k^2 + b_k^2 g_k^3 ] + sigma^2.

    Newton steps on log h find the root in tau = log(s/(pole - s)), or
    log(s) without a pole: log h is close to linear in tau at both ends, as
    h grows like s^2 near 0 and like 1/(pole - s) near a pole.  They start
    from the Gaussian guess sqrt(2 _TAIL_LOG)/sd and keep a bracket
    [lo, hi] with h(lo) < _TAIL_LOG <= h(hi); a step that would leave it
    bisects it instead, and s_max is taken if h is still below _TAIL_LOG
    there.  The steps stop once tau would move by at most 2^-26; r(s) is
    flat at the root, so it is then off its least value by about the square
    of that.  On the matrix forms of the benchmark this takes five or six
    evaluations of K.
    """
    top = float(np.max(lam))
    pole = 0.5 / top if top > 0.0 else math.inf
    s_max = min(pole, 2.0**20 / sd) * (1.0 - 2.0**-39.75)
    two_lam, lam_sq = 2.0 * lam, lam * lam
    rows = np.empty((6, lam.size))

    def radius_and_steps(s):
        # r(s), h(s) and h'(s), from one sum over the rows below
        d = 1.0 - s * two_lam
        g = np.divide(1.0, d, out=rows[5])
        np.log(d, out=rows[0])
        np.multiply(half_b_sq, g, out=rows[1])
        np.multiply(lam, g, out=rows[2])
        np.multiply(rows[1], g, out=rows[3])
        np.multiply(rows[3], g, out=rows[4])
        np.multiply(g, g, out=g)
        g *= lam_sq
        log_d, b_g, a_g, b_g2, b_g3, a2_g2 = rows.sum(axis=1).tolist()
        k = s * s * (b_g + half_sigma_sq) - 0.5 * log_d
        k1 = a_g + s * (b_g + b_g2 + 2.0 * half_sigma_sq)
        k2 = 2.0 * (a2_g2 + b_g3 + half_sigma_sq)
        return (k + _TAIL_LOG) / s, s * k1 - k, s * k2

    # hi = s_max is a bracket end only once h has been seen to reach _TAIL_LOG there
    lo, hi, hi_seen = 0.0, s_max, False
    s = min(math.sqrt(2.0 * _TAIL_LOG) / sd, 0.5 * s_max)
    for _ in range(_RADIUS_STEPS):
        r, h, slope = radius_and_steps(s)
        if h >= _TAIL_LOG:
            hi, hi_seen = s, True
        elif s == s_max:
            break
        else:
            lo = s
        # d log h / d tau = h'(s) (ds/dtau) / h, with ds/dtau = s (1 - s/pole)
        near = s / pole
        move = math.log(h / _TAIL_LOG) * h / (slope * s * (1.0 - near)) if h > 0.0 else -math.inf
        if abs(move) <= 2.0**-26:
            break
        step = s / (near + math.exp(move) * (1.0 - near)) if abs(move) < 700.0 else math.nan
        if step >= hi and not hi_seen:
            step = s_max
        elif not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        s = step
    return r


def _certified(total, achieved):
    """F = 1/2 - total/pi clamped to [0, 1], or NumericalError if achieved > ACCURACY_TARGET/2."""
    if achieved > 0.5 * ACCURACY_TARGET:
        raise NumericalError(
            "characteristic-function sum achieved only %.2e absolute" % achieved,
            accuracy=achieved,
        )
    return min(1.0, max(0.0, 0.5 - total / math.pi))


def _node_grid(lam, delta_sq, half_sigma_sq, s_terms, omega0, lo, hi):
    """t -> F(t) on [lo, hi] of a 2^-e-normalized form, or None past _NODE_BUDGET nodes.

    F(t) = 1/2 - (1/pi) sum_k w_k sin(psi_k + omega u_k) over the nodes
    u_k = (k + 1/2) delta, w_k = exp(-G(u_k))/(k + 1/2) and omega = omega0 - t.

    With P(T <= lo) and P(T >= hi) below exp(-_TAIL_LOG) (_chernoff_radius),
    delta = 2 pi/(hi - lo) puts every alias of a t in [lo, hi] beyond one
    of them, so aliasing moves F(t) by at most 2 exp(-_TAIL_LOG) (Davies
    1973).  exp(-G)/u decreases, so the nodes past K drop at most the
    integral of exp(-G)/u from U = (K - 1/2) delta on, and
    exp(-G(u)) <= prod_k (2 |a_k| u)^(-1/2) bounds that by
    prod_k (2 |a_k| U)^(-1/2) 2/p; K is the least count that puts this at
    ENVELOPE_CUTOFF.

    Rounding the K terms and their sum costs at most
    eps sum_k w_k (K + 4 + (p + 8) G(u_k)).  Rounding the phase costs at
    most twice _split_rounding over (0, K delta): w_k <= delta/u_k, and the
    nodes sample the decreasing bound of its integrand at midpoints.  That
    bound is the one at omega = 0, where _split_rounding raises if it alone
    spends the budget, plus (p + 16) eps K delta |omega|.
    """
    p = lam.size
    delta = 2.0 * math.pi / (hi - lo)
    log_scales = float(np.sum(np.log(2.0 * np.abs(lam))))
    log_u = -(2.0 * math.log(0.5 * p * ENVELOPE_CUTOFF) + log_scales) / p
    # U/delta + 1/2, capped where exp cannot overflow, far past any budget
    nodes = math.exp(min(log_u - math.log(delta), 64.0)) + 0.5
    if nodes > _NODE_BUDGET:
        return None
    count = math.ceil(nodes)
    reach = count * delta
    phase_rounding = 2.0 * _split_rounding(lam, s_terms, 0.0, reach)
    half_k = np.arange(count) + 0.5
    u = half_k * delta
    g, psi = _phase_sums(lam, delta_sq, half_sigma_sq, u)
    w = np.exp(-g) / half_k
    rounding = _EPS * float(np.sum(w * (count + 4.0 + (p + 8.0) * g))) + phase_rounding
    error = 2.0 * math.exp(-_TAIL_LOG) + (ENVELOPE_CUTOFF + rounding) / math.pi
    omega_error = 2.0 * (p + 16) * _EPS * reach / math.pi

    def cdf(t):
        omega = omega0 - t
        # a pairwise sum, not BLAS: no thread pool wakes, and the bits do not
        # depend on which BLAS kernel the host runs
        terms = np.sin(psi + omega * u)
        terms *= w
        return _certified(float(terms.sum()), error + omega_error * abs(omega))

    return cdf


def _damping_end(lam, delta_sq, sigma_sq):
    """The u where N(u) = sum_k (d_k^2/2) q_k/(1 + q_k) + sigma^2 u^2/2 reaches _G_STOP.

    Here q_k = 4 a_k^2 u^2.  N, the noncentral and Gaussian part of G,
    increases towards sum_k d_k^2/2, or without bound if sigma > 0; a limit
    at most _G_STOP, or a point past the float range, gives inf.  Doubling
    brackets the point and bisection narrows the bracket to a relative
    2^-20; its upper end is returned, so exp(-G) <= ENVELOPE_CUTOFF there on.
    """
    half_d_sq, two_lam, half_sigma_sq = 0.5 * delta_sq, 2.0 * lam, 0.5 * sigma_sq

    def part(u):
        with np.errstate(over="ignore", divide="ignore"):
            # q/(1 + q) as 1/(1 + 1/q): 1 where q overflows, 0 where it underflows
            inv_q = 1.0 / np.square(two_lam * u)
            return float(np.sum(half_d_sq / (1.0 + inv_q))) + half_sigma_sq * u * u

    with np.errstate(over="ignore"):
        limit = float(np.sum(half_d_sq)) if sigma_sq == 0.0 else math.inf
    if limit <= _G_STOP:
        return math.inf
    lo, up = 0.0, 1.0
    while part(up) < _G_STOP:
        lo, up = up, 2.0 * up
    while up - lo > 2.0**-20 * up:  # false at once for up = inf
        mid = 0.5 * (lo + up)
        if part(mid) >= _G_STOP:
            up = mid
        else:
            lo = mid
    return up


def _de_sum(lam, delta_sq, half_sigma_sq, m, s, w, r, u_min):
    """J = Int_0^inf exp(-G) sin(theta + s w u)/u du, theta = psi + r u, by the rule for M.

    J = s Int f_s sin(w u) du + Int f_c cos(w u) du, with f_s and f_c
    exp(-G) cos(theta)/u and exp(-G) sin(theta)/u.  The rule of Ooura &
    Mori (1999) substitutes u = M phi(tau)/w, with

        phi = tau/(1 - exp(-E)),  E = 2 tau + alpha (1 - e^-tau) + beta (e^tau - 1),

    beta = 1/4 and alpha = beta/sqrt(1 + M log(1 + M)/(4 pi)), and takes
    the trapezoid rule of step h = pi/M on tau = n h for the sine part and
    tau = (n - 1/2) h for the cosine part, where M phi nears a zero of the
    sine or cosine double exponentially as tau grows.  The nodes are thus
    tau_j = j h/2, even j for the sine part, and (pi/w) phi'/u = h phi'/phi:

        J ~ h sum_j (phi'/phi)(tau_j) k_j exp(-G(u_j)) (s cos, sin)(theta_j),

    with k_j the sine or cosine of M phi.  Past tau = 0, k_j is formed as
    (-1)^n sin(M delta), delta = phi - tau = tau/expm1(E), which keeps its
    digits; phi'/phi = (1 - E' delta)/tau, and at tau = 0 phi and phi'/phi
    take their limits 1/c and (c^2 - E''(0))/(2c), c = E'(0).  Past
    _DE_TAU[0] exp(E) underflows for every M of _DE_LADDER; nodes with
    u <= u_min are dropped.
    """
    h = math.pi / m
    beta = 0.25
    alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    j = np.arange(math.floor(2.0 * _DE_TAU[0] / h), math.floor(2.0 * _DE_TAU[1] / h) + 1)
    tau = j * (0.5 * h)
    e = 2.0 * tau - alpha * np.expm1(-tau) + beta * np.expm1(tau)
    e_slope = 2.0 + alpha * np.exp(-tau) + beta * np.exp(tau)
    with np.errstate(divide="ignore", invalid="ignore"):  # at tau = 0, set just below
        delta = tau / np.expm1(e)
        phi = delta * np.exp(e)
        ratio = (1.0 - e_slope * delta) / tau
    c = 2.0 + alpha + beta
    zero = -int(j[0])
    phi[zero] = 1.0 / c
    ratio[zero] = (c * c - (beta - alpha)) / (2.0 * c)
    u = m * phi / w
    keep = slice(int(np.searchsorted(u, u_min, side="right")), None)
    j, tau, delta, phi, ratio, u = (v[keep] for v in (j, tau, delta, phi, ratio, u))
    g, psi = _phase_sums(lam, delta_sq, half_sigma_sq, u)
    theta = psi + r * u
    even = j % 2 == 0
    sign = 1.0 - 2.0 * ((j + 1) // 2 % 2)
    kernel = np.where(
        tau > 0.0, sign * np.sin(m * delta), np.where(even, np.sin(m * phi), np.cos(m * phi))
    )
    terms = ratio * kernel * np.exp(-g) * np.where(even, s * np.cos(theta), np.sin(theta))
    return h * float(terms.sum())


def _split_rounding(lam, s_terms, omega, u_end):
    """Bound on what rounding H = psi(u) + omega u moves Int_0^u_end exp(-G) sin(H)/u du by.

    psi(u) sums, per coordinate, arctan(2 a_k u)/2, at most min(|a_k| u, pi/4)
    in size, and a_k d_k^2 u/(1 + 4 a_k^2 u^2) = S_k u/(1 + 4 a_k^2 u^2) with
    S_k = b_k^2/(4|a_k|); the slope omega (omega0 - t, or r on the slow-decay
    path) cancels the S_k u it carries while |a_k| u is small.  Computing psi
    and adding omega u takes at most p + 16 roundings relative to these
    sizes, and exp(-G) <= 1, so the integrand is off by at most (p + 16) eps times
    sum_k [min(|a_k|, pi/(4u)) + S_k/(1 + 4 a_k^2 u^2)] + |omega|, whose
    integral over (0, u_end) is the closed form below.  omega's own rounding
    moves the point t at which F is evaluated, by at most (p + 2) eps
    (sum_k S_k + |t|), like a rounding of t; it is not counted here.

    Raises NumericalError when the bound alone spends the accuracy budget,
    so callers can refuse before integrating.
    """
    cap = math.pi / 4.0
    with np.errstate(over="ignore"):
        x = np.abs(lam) * u_end
        arc = np.minimum(x, cap) + cap * np.log(np.maximum(x, cap) / cap)
        rat = s_terms * np.arctan(2.0 * x) / (2.0 * np.abs(lam))
    bound = (lam.size + 16) * _EPS * (float(np.sum(arc + rat)) + abs(omega) * u_end)
    if bound / math.pi > 0.5 * ACCURACY_TARGET:
        raise NumericalError(
            "phase rounding leaves only %.2e absolute accuracy" % (bound / math.pi),
            accuracy=bound / math.pi,
        )
    return bound


def _plan(form):
    """(e, lo, hi, at): all that cdf_cf computes for a form without t.

    e = _binade(a, b); lo and hi are the Chernoff radii of the form scaled
    by 2^-e; at(t) is F at a scaled t in [lo, hi] by either path, or raises
    the refusal of a form whose phase scales overflow or whose grid's phase
    rounding spends the budget.
    """
    if not (any(form.a) or any(form.b)):
        raise DegenerateFormError("form is deterministic; its CDF is a step function")
    e = _binade(form.a, form.b)
    a, b = np.ldexp(form.a, -e), np.ldexp(form.b, -e)
    quad_mask = a != 0.0
    lam, lb = a[quad_mask], b[quad_mask]
    sigma_sq = float(np.sum(b[~quad_mask] ** 2))
    if lam.size == 0:
        sigma = math.sqrt(sigma_sq)
        return e, -math.inf, math.inf, lambda t: _phi(t / sigma)
    sd = math.sqrt(float(np.sum(2.0 * a * a + b * b)))
    half_b_sq, half_sigma_sq = 0.5 * lb * lb, 0.5 * sigma_sq
    lo = -_chernoff_radius(-lam, half_b_sq, half_sigma_sq, sd)
    hi = _chernoff_radius(lam, half_b_sq, half_sigma_sq, sd)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        delta_sq = (lb / (2.0 * lam)) ** 2
        # a_k d_k^2, the linear phase slope each coordinate leaves once arctan
        # and its noncentral term saturate
        slopes = lb * lb / (4.0 * lam)
        s_terms = np.abs(slopes)
        phase_scales = (float(np.max(delta_sq)), float(np.sum(s_terms)))
    try:
        if not all(map(math.isfinite, phase_scales)):
            raise NumericalError(
                "coefficient scales overflow the characteristic-function phase",
                accuracy=float("inf"),
            )
        at = _node_grid(lam, delta_sq, half_sigma_sq, s_terms, float(-np.sum(slopes)), lo, hi)
    except NumericalError as exc:
        def at(t, message=str(exc), accuracy=exc.accuracy):
            raise NumericalError(message, accuracy=accuracy)
    if at is not None:
        return e, lo, hi, at

    # the slope a_k d_k^2 of a coordinate whose noncentral term saturates
    # before the damping ends joins the sum's frequency; the others stay in
    # theta, where they cancel the linear part of psi
    u_stop = _damping_end(lam, delta_sq, sigma_sq)
    pulled = np.abs(lam) * u_stop > 0.5
    pulled_slope, kept_slope = float(np.sum(slopes[pulled])), float(np.sum(slopes[~pulled]))
    # exp(-G) <= (2 a_max u)^(-1/2) leaves at most ENVELOPE_CUTOFF of J past u_envelope
    u_envelope = 2.0 / (float(np.max(np.abs(lam))) * ENVELOPE_CUTOFF**2)
    w_floor = math.pi / min(u_stop, u_envelope)
    # |sin(psi + omega u)|/u <= w + |r| + sum_k |a_k| (1 + d_k^2) bounds the head
    head = float(np.sum(np.abs(lam) * (1.0 + delta_sq)))

    def at(t):
        omega = -pulled_slope - t
        w = max(abs(omega), w_floor)
        s = 1.0 if omega >= 0.0 else -1.0
        r = -kept_slope + (omega - s * w)
        # refuse a hopeless split before any phase; the last rung reaches furthest
        err = _split_rounding(lam, s_terms, r, min(u_stop, _DE_LADDER[-1] * _DE_TAU[1] / w))
        u_min = _DE_HEAD / (w + abs(r) + head)
        # a difference below 2^-10 of the rounding already booked is that
        # rounding's noise; another rung would move the account by under 0.1%
        agree = max(_DE_AGREE, err * 2.0**-10)
        total = None
        for m in _DE_LADDER:
            previous, total = total, _de_sum(lam, delta_sq, half_sigma_sq, m, s, w, r, u_min)
            if previous is not None and abs(total - previous) <= agree:
                break
        err += abs(total - previous) + _DE_HEAD + ENVELOPE_CUTOFF
        return _certified(total, err / math.pi)

    return e, lo, hi, at


def cdf_cf(form: DiagonalForm, t: float) -> float:
    """P(T <= t) by numerical inversion of the characteristic function.

    Completing the square per coordinate makes T a linear combination of
    noncentral chi-squares plus an independent Gaussian, with
    characteristic function exp(-G(u) + i H(u)) where

        G(u) = sum_k [ log(1+4 a_k^2 u^2)/4 + 2 a_k^2 d_k^2 u^2/(1+4 a_k^2 u^2) ]
               + sigma^2 u^2 / 2
        H(u) = sum_k [ arctan(2 a_k u)/2 + a_k d_k^2 u / (1+4 a_k^2 u^2) - a_k d_k^2 u ]
               - t u

    (d_k = b_k/(2 a_k); zero-a_k terms collapse into the sigma^2 piece).
    Gil-Pelaez then gives F(t) = 1/2 - (1/pi) Int_0^inf exp(-G) sin(H)/u du,
    with H(u) = psi(u) + omega u split into its nonlinear part psi and the
    linear slope omega = -sum_k b_k^2/(4 a_k) - t that remains once arctan
    and the noncentral terms saturate.  One kernel, _phase_sums, computes
    G and psi together on a vector of nodes.

    All that does not depend on t is one plan per form (_plan), kept in a
    one-slot module cache with its form; a later call on a form equal to
    that one, which as a DiagonalForm cannot have changed, goes straight
    to the plan.  A call scales t by 2^-e once, and a t outside the
    Chernoff radii [lo, hi] returns 0 or 1, off by at most exp(-_TAIL_LOG),
    on either path: the one place where cdf_cf finds a t out of its reach.
    The plan is never written after it is made, so calls from several
    threads give the values of serial calls.

    The trapezoid path (Davies 1973) serves every form whose grid needs at
    most _NODE_BUDGET nodes: F(t) = 1/2 - (1/pi) sum_k w_k sin(psi_k +
    omega u_k) over the nodes u_k = (k + 1/2) delta of _node_grid, which
    picks delta from lo and hi and the node count K from the central part
    of G.  A threshold then costs one sine and one sum over the nodes.
    The error account adds three parts: the alias term
    2 exp(-_TAIL_LOG), the truncation bound ENVELOPE_CUTOFF/pi, and the
    rounding of the terms and their sum (_node_grid) plus that of the phase,
    at most twice _split_rounding over (0, K delta), since the nodes sample
    the decreasing bound of _split_rounding's integrand at midpoints.

    Forms past the budget, whose characteristic function decays slowly
    (few coordinates, or a few that dominate), take the slow-decay path,
    the double-exponential rule of Ooura & Mori (1999) for Fourier-type
    integrals (_de_sum).  Its frequency w carries the slope a_k d_k^2 of
    each coordinate whose noncentral term saturates, at u ~ 1/(2|a_k|),
    before the damping ends at u_stop (_damping_end); the other slopes
    stay in theta = psi + r u, where they cancel psi's linear part.  w is
    at least pi/u_end, u_end the lesser of u_stop and the point past which
    exp(-G) <= (2 a_max u)^(-1/2) leaves at most ENVELOPE_CUTOFF, so theta
    turns slowly where the integrand lives.  The sum is taken for each M
    of _DE_LADDER until two agree within _DE_AGREE, or within 2^-10 of the
    phase rounding already booked for t if that is more; the account adds
    their difference, an estimate rather than a bound, the head _DE_HEAD, the
    tail ENVELOPE_CUTOFF and _split_rounding of theta up to min(u_stop,
    the furthest node).

    Absolute accuracy target 1e-6; both paths raise NumericalError with the
    achieved estimate when the error accounting cannot certify half of
    that.  The accounting includes the rounding of the phase split
    (_split_rounding): a tiny nonzero a_k with a nonzero b_k makes psi and
    r u cancel in size b_k^2 u/(4|a_k|), where theta keeps few correct
    digits.  Such forms raise before any phase is computed.  The radii come
    first: a refusal of the form alone, kept in its plan, and one at a given
    t are raised only for a t in [lo, hi].

    F depends on (a, b, t) only up to a common scale, so it is evaluated on
    (a, b, t) * 2^-e, e = _binade(a, b): nothing squared then leaves the
    float range, and scaling the form and t by 2^k moves no bit.
    """
    global _slot
    _check_form(form)
    t = _check_real(t, "t", "any")
    cached, plan = _slot
    if cached != form:
        plan = _plan(form)
        _slot = (form, plan)
    e, lo, hi, at = plan
    t = _ldexp_or_inf(t, -e)  # an infinite t lands in the clamp
    if not lo <= t <= hi:
        return 0.0 if t < lo else 1.0
    return at(t)
