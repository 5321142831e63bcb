"""Independent ground truth for the law of T = sum_k a_k z_k^2 + b_k z_k.

Three routes, none sharing code with the bounds machinery they validate:

* a bit-reproducible Monte Carlo sampler with exact binomial confidence
  intervals (the court of last resort),
* a closed-form CDF for p = 1 built on the error function,
* a characteristic-function inversion (Gil-Pelaez / Imhof style) for
  general p, cross-validated against the other two.

Sampling uses counter-based Philox streams: block c of DEFAULT_CHUNK draws
is generated from counter c * 2^128, so runs of different total size agree
bit for bit on the shared prefix.  The block size is part of what defines a
stream, so it is a module constant, not a parameter.  Normals come from an
explicit Box-Muller transform rather than a library-version-dependent
method.  The blocks run one after the other on the calling thread.  A block
of m draws of a p-coordinate form holds about 2.5 m p doubles while its
normals are made, so peak memory is the output plus that much.

scipy is imported only where it is used: by the binomial interval and by
cdf_cf's adaptive path, which forms with a slowly decaying characteristic
function take.  Importing this module, and cdf_cf's trapezoid path, load
numpy only.  The form's coefficient tuples become arrays once per call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DiagonalForm, _binade, _check_count, _check_direction, _check_real, _is_integer
from .errors import DegenerateFormError, NumericalError, ValidationError

DEFAULT_CHUNK = 65536
DEFAULT_CONFIDENCE = 0.99

# characteristic-function inversion: the adaptive path stops once the
# integrand envelope exp(-G) falls below this, and the trapezoid path once
# the tail it drops is provably below it
ENVELOPE_CUTOFF = 1e-12
_G_STOP = -math.log(ENVELOPE_CUTOFF)
ACCURACY_TARGET = 1e-6
_EPS = float(np.finfo(float).eps)
# trapezoid path: each tail beyond its Chernoff radius holds at most
# exp(-_TAIL_LOG); a form needing more than _NODE_BUDGET nodes takes the
# adaptive path; the grid is built _GRID_BLOCK (node, coordinate) terms at a time
_TAIL_LOG = 30.0
_NODE_BUDGET = 2**14
_GRID_BLOCK = 2**16
_RADIUS_STEPS = 100  # a cap on _chernoff_radius's steps; every step gives a valid radius
# ((key, a, b, e), grid) for the last form: key holds the bytes of its
# normalized a and b, a and b are the form's own tuples and e its _binade;
# grid is None on the adaptive path
_grid_slot = (None, None)


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo tail probability with an exact binomial confidence interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValidationError("interval must satisfy 0 <= ci_low <= p_hat <= ci_high <= 1")
        if self.n < 1:
            raise ValidationError("n must be positive")


def _check_seed(seed):
    if not (_is_integer(seed) and 0 <= int(seed) < 2**64):
        raise ValidationError("seed must be an unsigned 64-bit integer, got %r" % (seed,))
    return int(seed)


def _chunk_normals(seed, chunk_index, count):
    """`count` standard normals from chunk `chunk_index` of the stream for `seed`.

    The uniforms are split into two contiguous halves and every step after
    that writes into them or into one scratch half, so a chunk holds about
    2.5 `count` doubles at its peak.  Each operation is the one the
    textbook form radius * (cos, sin)(angle) performs, on arrays of the
    same layout, so the bits are those of the plain expression.
    """
    pairs = (count + 1) // 2
    bitgen = np.random.Philox(key=seed, counter=chunk_index << 128)
    raw = bitgen.random_raw(2 * pairs)
    # top 53 bits -> uniforms; u1 in (0, 1] so log never sees 0
    raw >>= np.uint64(11)
    raw[0::2] += np.uint64(1)
    u1 = raw[0::2].astype(float)
    u2 = raw[1::2].astype(float)
    u1 *= 2.0**-53
    u2 *= 2.0**-53
    # radius into u1, angle into u2, then radius * cos and radius * sin
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    scratch = np.cos(u2)
    scratch *= u1
    np.sin(u2, out=u2)
    u2 *= u1
    # the raw bits are spent; their buffer takes the interleaved normals
    out = raw.view(np.float64)
    out[0::2] = scratch
    out[1::2] = u2
    return out[:count]


def sample(form: DiagonalForm, n: int, seed: int) -> np.ndarray:
    """n realizations of the diagonal form, reproducible for a fixed seed."""
    n, seed = _check_count(n, "n"), _check_seed(seed)
    p, size = form.p, DEFAULT_CHUNK
    a, b = np.array(form.a), np.array(form.b)
    out = np.empty(n)
    for chunk, lo in enumerate(range(0, n, size)):
        m = min(size, n - lo)
        z = _chunk_normals(seed, chunk, m * p).reshape(m, p)
        # (z * z) @ a + z @ b, squaring z in place once z @ b is taken
        linear = z @ b
        np.multiply(z, z, out=z)
        out[lo : lo + m] = z @ a + linear
    return out


def _clopper_pearson(k, n, confidence):
    # quantiles of Beta(k, n-k+1) and Beta(k+1, n-k); betaincinv is what
    # scipy.stats.beta.ppf evaluates, without its per-call distribution overhead
    from scipy.special import betaincinv

    alpha = 1.0 - confidence
    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return low, high


def empirical_tail(samples, t, direction: str):
    """Exact-binomial estimates of P(T >= t) (upper) or P(T <= t) (lower).

    `t` is one threshold, giving one TailEstimate, or a 1-D array of them,
    giving a list with one estimate per threshold.  The samples are counted
    in DEFAULT_CHUNK blocks: a sorted copy of each block locates every
    threshold by binary search, so one pass over the samples, with O(block)
    extra memory, counts them all exactly.  NaN samples are refused rather
    than counted as misses.  The intervals are two-sided at
    DEFAULT_CONFIDENCE.
    """
    _check_direction(direction)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("samples must be a nonempty vector")
    thresholds = np.asarray(t, dtype=float)
    if thresholds.ndim > 1:
        raise ValidationError("thresholds must be a scalar or a vector")
    flat = thresholds.reshape(-1)
    if np.isnan(flat).any():
        raise ValidationError("threshold must not be NaN")
    # upper counts x >= t as the x not below t; lower counts x <= t directly
    side = "left" if direction == "upper" else "right"
    located = np.zeros(flat.size, dtype=np.int64)
    for lo in range(0, x.size, DEFAULT_CHUNK):
        block = np.sort(x[lo : lo + DEFAULT_CHUNK])
        if np.isnan(block[-1]):  # a sort puts NaNs last
            raise ValidationError("samples must not be NaN")
        located += np.searchsorted(block, flat, side=side)
    n = x.size
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
    with np.errstate(over="ignore"):  # a t that overflows here lands in the 0/1 answers below
        a, b, t = np.ldexp([a, b, t], -_binade(a, b)).tolist()
    if a == 0.0:
        if b == 0.0:
            return 1.0 if t >= 0.0 else 0.0
        return _phi(t / b) if b > 0.0 else _phi(-t / b)
    disc = b * b + 4.0 * a * t
    if a > 0.0:
        if disc < 0.0:
            return 0.0
        root = math.sqrt(disc)
        return _phi((-b + root) / (2.0 * a)) - _phi((-b - root) / (2.0 * a))
    if disc < 0.0:
        return 1.0
    root = math.sqrt(disc)
    r1 = (-b + root) / (2.0 * a)
    r2 = (-b - root) / (2.0 * a)
    lo, hi = min(r1, r2), max(r1, r2)
    return _phi(lo) + 1.0 - _phi(hi)


def _phase_terms(lam, delta_sq, nodes):
    """terms(u) -> (g, psi): the per-coordinate terms of G and psi at u, for cdf_cf.

    With l_k = a_k u over the coordinates with a_k != 0, the sums in

        G(u)   = sum_k [ log1p(4 l_k^2)/4 + 2 l_k^2 d_k^2 / (1 + 4 l_k^2) ] + sigma^2 u^2 / 2
        psi(u) = sum_k [ arctan(2 l_k)/2 + a_k d_k^2 u / (1 + 4 l_k^2) ]

    (the caller adds the sigma^2 piece) come from one pass over l = a u:
    the u-independent factors 2 d^2 and a d^2 are computed once, the shared
    denominator 1 + 4 l^2 once per u, and every step writes into buffers of
    shape nodes + lam.shape, which the returned arrays are.  With nodes = () u is one node; with
    nodes = (n,) it is a column of n nodes, one per row.  Each rewrite of
    the textbook expressions (tests/_cf_reference.py) hoists a left factor
    or regroups a power-of-two scaling, and numpy sums a row pairwise as it
    sums a vector, so the sums of the terms are bitwise equal to the
    textbook wherever no intermediate overflows or is subnormal.
    """
    two_delta_sq = 2.0 * delta_sq
    lam_delta_sq = lam * delta_sq
    lu, l2, q, den, g = (np.empty(nodes + lam.shape) for _ in range(5))

    def terms(u):
        # G terms into g: 0.25 log1p(4 l^2) + (2 d^2) l^2 / (1 + 4 l^2)
        np.multiply(lam, u, lu)
        np.multiply(lu, lu, l2)
        np.multiply(l2, 4.0, q)
        np.add(q, 1.0, den)
        np.log1p(q, g)
        np.multiply(g, 0.25, g)
        np.multiply(l2, two_delta_sq, q)
        np.divide(q, den, q)
        np.add(g, q, g)
        # psi terms into lu: 0.5 arctan(2 l) + (a d^2) u / (1 + 4 l^2)
        np.multiply(lu, 2.0, lu)
        np.arctan(lu, lu)
        np.multiply(lu, 0.5, lu)
        np.multiply(lam_delta_sq, u, q)
        np.divide(q, den, q)
        np.add(lu, q, lu)
        return g, lu

    return terms


def _phase_kernel(lam, delta_sq, sigma_sq):
    """phase(u) -> (G(u), psi(u)) at one node for cdf_cf's adaptive path, memoized on u.

    The memo belongs to the kernel, so it lives for one cdf_cf call: the
    sine and cosine tail passes share the nodes they both visit.
    """
    terms = _phase_terms(lam, delta_sq, ())
    half_sigma_sq = 0.5 * sigma_sq
    memo = {}

    def phase(u):
        hit = memo.get(u)
        if hit is None:
            g, ps = terms(u)
            hit = memo[u] = (float(g.sum()) + half_sigma_sq * u * u, float(ps.sum()))
        return hit

    return phase


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
    evaluations of K, against the 318 of a grid search.
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


@dataclass(frozen=True)
class _NodeGrid:
    """cdf_cf's trapezoid nodes u_k = (k + 1/2) delta for one normalized form.

    The grid serves the thresholds in [lo, hi]; w_k = exp(-G(u_k))/(k + 1/2)
    and psi_k = psi(u_k); the phase slope at t is omega0 - t.  The error
    account at t is error + omega_error |omega|, in probability units.
    """

    lo: float
    hi: float
    omega0: float
    u: np.ndarray
    w: np.ndarray
    psi: np.ndarray
    error: float
    omega_error: float

    def cdf(self, t):
        """F(t) at a normalized t: the clamp outside [lo, hi], else one sum over the nodes."""
        if not self.lo <= t <= self.hi:
            return 0.0 if t < self.lo else 1.0
        omega = self.omega0 - t
        # a pairwise sum, not BLAS: no thread pool wakes, and the bits do not
        # depend on which BLAS kernel the host runs
        terms = np.sin(self.psi + omega * self.u)
        terms *= self.w
        total = float(terms.sum())
        achieved = self.error + self.omega_error * abs(omega)
        if achieved > 0.5 * ACCURACY_TARGET:
            raise NumericalError(
                "characteristic-function sum achieved only %.2e absolute" % achieved,
                accuracy=achieved,
            )
        return min(1.0, max(0.0, 0.5 - total / math.pi))


def _node_grid(lam, lb, delta_sq, sigma_sq, sd, s_terms, omega0):
    """The trapezoid grid of a 2^-e-normalized form, or None past _NODE_BUDGET nodes.

    With P(T <= lo) and P(T >= hi) below exp(-_TAIL_LOG) (_chernoff_radius),
    delta = 2 pi/(hi - lo) puts every alias of a t in [lo, hi] beyond one
    of them, so aliasing moves F(t) by at most 2 exp(-_TAIL_LOG) (Davies
    1973).  exp(-G)/u decreases, so the nodes past K drop at most the
    integral of exp(-G)/u from U = (K - 1/2) delta on, and
    exp(-G(u)) <= prod_k (2 |a_k| u)^(-1/2) bounds that by
    prod_k (2 |a_k| U)^(-1/2) 2/p; K is the least count that puts this at
    ENVELOPE_CUTOFF.  G and psi are evaluated _GRID_BLOCK terms at a time.

    Rounding the K terms and their sum costs at most
    eps sum_k w_k (K + 4 + (p + 8) G(u_k)).  Rounding the phase costs at
    most twice _split_rounding over (0, K delta): w_k <= delta/u_k, and the
    nodes sample the decreasing bound of its integrand at midpoints.  That
    bound is the one at omega = 0 plus (p + 16) eps K delta |omega|.
    """
    p = lam.size
    half_b_sq = 0.5 * lb * lb
    half_sigma_sq = 0.5 * sigma_sq
    lo = -_chernoff_radius(-lam, half_b_sq, half_sigma_sq, sd)
    hi = _chernoff_radius(lam, half_b_sq, half_sigma_sq, sd)
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
    g, psi = np.empty(count), np.empty(count)
    step = max(1, _GRID_BLOCK // p)
    for start in range(0, count, step):
        col = u[start : start + step, None]
        g_terms, psi_terms = _phase_terms(lam, delta_sq, col.shape[:1])(col)
        g[start : start + step] = g_terms.sum(axis=1)
        psi[start : start + step] = psi_terms.sum(axis=1)
    g += half_sigma_sq * u * u
    w = np.exp(-g) / half_k
    rounding = _EPS * float(np.sum(w * (count + 4.0 + (p + 8.0) * g))) + phase_rounding
    error = 2.0 * math.exp(-_TAIL_LOG) + (ENVELOPE_CUTOFF + rounding) / math.pi
    omega_error = 2.0 * (p + 16) * _EPS * reach / math.pi
    return _NodeGrid(lo, hi, omega0, u, w, psi, error, omega_error)


def _death_point(g_decay, lo, up):
    """The point of (lo, up] where an increasing G reaches _G_STOP, by bisection.

    Requires G(lo) < _G_STOP <= G(up), where lo = 0 counts as below the stop,
    and keeps it.  Once lo and up are adjacent floats the midpoint rounds
    onto one of them and a further step changes nothing, so the search
    returns up there.
    """
    while True:
        mid = 0.5 * (lo + up)
        if not lo < mid < up:
            return up
        if g_decay(mid) >= _G_STOP:
            up = mid
        else:
            lo = mid


def _death_floor(lam, half_b_sq, u_lo, u_hi):
    """A point of [u_lo, u_hi] below which G stays under _G_STOP.

    Each noncentral term of G is at most 2 l_k^2 d_k^2 = b_k^2 u^2 / 2, so

        G(u) <= sum_k log1p(4 a_k^2 u^2) / 4 + u^2 |b|^2 / 2,

    which holds at u_lo = sqrt(2 _G_STOP) / sd by log1p(x) <= x.  It is
    evaluated on at most 64 geometric rungs from u_lo to u_hi, where a term
    that overflows is past the stop; the bound is increasing, and the last
    rung that keeps it under _G_STOP is returned.  No phase kernel runs, so
    coefficient scales that would overflow the kernel are refused by
    _split_rounding at this point first.
    """
    if not 0.0 < u_lo < u_hi:
        return min(u_lo, u_hi)
    rungs = min(64, max(2, math.ceil(math.log2(u_hi) - math.log2(u_lo)) + 1))
    u = np.geomspace(u_lo, u_hi, rungs)
    with np.errstate(over="ignore"):
        two_au = np.multiply.outer(2.0 * np.abs(lam), u)
        g_up = 0.25 * np.log1p(two_au * two_au).sum(axis=0) + half_b_sq * u * u
    below = int(np.count_nonzero(g_up <= _G_STOP))
    return u_lo if below == 0 else max(u_lo, min(u_hi, float(u[below - 1])))


def _split_rounding(lam, s_terms, omega, u_end):
    """Bound on what rounding H = psi(u) + omega u moves Int_0^u_end exp(-G) sin(H)/u du by.

    psi(u) sums, per coordinate, arctan(2 a_k u)/2, at most min(|a_k| u, pi/4)
    in size, and a_k d_k^2 u/(1 + 4 a_k^2 u^2) = S_k u/(1 + 4 a_k^2 u^2) with
    S_k = b_k^2/(4|a_k|); omega = -sum_k b_k^2/(4 a_k) - t cancels the S_k u
    while |a_k| u is small.  Computing psi and adding omega u takes at most
    p + 16 roundings relative to these sizes, and exp(-G) <= 1, so the
    integrand is off by at most (p + 16) eps times
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


def _normalized_t(t, e):
    """t * 2^-e, infinite where that overflows: such a t lands in cdf_cf's clamps."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(t, -e))


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
    and the noncentral terms saturate.  One kernel, _phase_terms, computes
    G and psi together, at one node or at a column of them.  There are two
    paths.

    The trapezoid path (Davies 1973) serves every form whose grid needs at
    most _NODE_BUDGET nodes: F(t) = 1/2 - (1/pi) sum_k w_k sin(psi_k +
    omega u_k) over the nodes u_k = (k + 1/2) delta of _node_grid, which
    picks delta from the Chernoff radii lo and hi of the form and the node
    count K from the central part of G.  The grid does not depend on t, so
    it is built once per normalized form and kept in a one-slot module
    cache keyed on the form's bytes (a form and its 2^k multiples normalize
    alike).  The slot also holds the coefficient tuples of the last form
    that used it and its _binade; a call on that very form, whose immutable
    tuples cannot have changed, skips normalizing the form.  A threshold
    inside [lo, hi] then costs one sine and one sum over the nodes, and one
    outside it returns the clamp 0 or 1, off by at most exp(-_TAIL_LOG).
    The error account adds three parts: the alias term
    2 exp(-_TAIL_LOG), the truncation bound ENVELOPE_CUTOFF/pi, and the
    rounding of the terms and their sum (_node_grid) plus that of the phase,
    at most twice _split_rounding over (0, K delta), since the nodes sample
    the decreasing bound of _split_rounding's integrand at midpoints.  The
    cached grid is never written after it is built, so calls from several
    threads give the values of serial calls.

    Forms past the budget, whose characteristic function decays slowly
    (few coordinates, or a few that dominate), take the adaptive path.  One
    walk finds where the unweighted integral ends.  It steps along
    points doubling from min(256/a_max, u_settle), landing once on u_settle,
    where the nonlinear phase has settled, and stops where the amplitude
    exp(-G) has died or, past u_settle, where w u >= 3 and a weighted
    QUADPACK tail takes the residual oscillation exp(-G) sin(psi_inf + w u)/u
    from there.  A stop on the amplitude at or before u_settle moves back to
    the death point, found by a bisection (_death_point) on the last step
    that stops once its bracket cannot shrink.  One quad call integrates up
    to the end, split at the walked points, so that no adaptive pass
    overlooks the mass near 0 or mass stranded deep inside a long interval.
    _phase_kernel memoizes G and psi for the call, so the sine and cosine
    tail passes share the nodes they both visit.

    Absolute accuracy target 1e-6; both paths raise NumericalError with the
    achieved estimate when the error accounting cannot certify half of
    that.  The accounting includes the rounding of the phase split
    (_split_rounding): a tiny nonzero a_k with a nonzero b_k makes psi and
    omega u cancel in size b_k^2 u/(4|a_k|), and a tiny a_k alone stretches
    the adaptive walk to u_settle ~ 5/|a_k|, where omega u keeps few correct
    digits.  Such forms raise before the integral that cannot be certified
    is computed.

    F depends on (a, b, t) only up to a common scale, so it is evaluated on
    (a, b, t) * 2^-e, e = _binade(a, b): nothing squared then leaves the
    float range, and scaling the form and t by 2^k moves no bit.
    """
    global _grid_slot
    t = _check_real(t, "t", "any")
    slot_key, grid = _grid_slot
    if grid is not None and slot_key[1] is form.a and slot_key[2] is form.b:
        return grid.cdf(_normalized_t(t, slot_key[3]))
    if not (any(form.a) or any(form.b)):
        raise DegenerateFormError("form is deterministic; its CDF is a step function")
    e = _binade(form.a, form.b)
    a, b = np.ldexp(form.a, -e), np.ldexp(form.b, -e)
    t = _normalized_t(t, e)
    key = (a.tobytes(), b.tobytes())
    if slot_key is not None and slot_key[0] == key:
        _grid_slot = ((key, form.a, form.b, e), grid)
        if grid is not None:
            return grid.cdf(t)
    quad_mask = a != 0.0
    lam = a[quad_mask]
    lb = b[quad_mask]
    sigma_sq = float(np.sum(b[~quad_mask] ** 2))
    if lam.size == 0:
        return _phi(t / math.sqrt(sigma_sq))

    mean = float(np.sum(a))
    sd = math.sqrt(float(np.sum(2.0 * a * a + b * b)))
    # Chebyshev clamp: beyond 1e6 standard deviations the answer is 0/1 to 1e-12
    if t - mean > 1e6 * sd:
        return 1.0
    if mean - t > 1e6 * sd:
        return 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        delta_sq = (lb / (2.0 * lam)) ** 2
        # linear phase slope left once arctan and the noncentral terms saturate
        omega0 = float(-np.sum(lb * lb / (4.0 * lam)))
        omega = omega0 - t
        # residual phase beyond u_settle is below ~0.05 rad, so the integrand
        # out there is exp(-G) sin(psi_inf + omega u)/u with slowly varying parts
        u_settle = 5.0 * float(np.sum((1.0 + delta_sq) / np.abs(lam)))
        s_terms = lb * lb / (4.0 * np.abs(lam))
    phase_scales = (float(np.max(delta_sq)), float(np.sum(s_terms)), omega, u_settle)
    if not all(map(math.isfinite, phase_scales)):
        raise NumericalError(
            "coefficient scales overflow the characteristic-function phase",
            accuracy=float("inf"),
        )
    if slot_key is None or slot_key[0] != key:
        grid = _node_grid(lam, lb, delta_sq, sigma_sq, sd, s_terms, omega0)
        _grid_slot = ((key, form.a, form.b, e), grid)
    if grid is not None:
        return grid.cdf(t)

    from scipy.integrate import quad

    # G(u) >= log1p(4 a_max^2 u^2)/4 > log(2 a_max u)/2 passes _G_STOP by
    # exp(2 _G_STOP)/a_max, so the unweighted integral reaches u_settle or
    # the death point before that, and so at least the floor: refuse a
    # hopeless split before any phase
    a_max = float(np.max(np.abs(lam)))
    reach = min(u_settle, math.exp(2.0 * _G_STOP) / a_max)
    half_b_sq = 0.5 * float(np.sum(b * b))
    floor = _death_floor(lam, half_b_sq, math.sqrt(2.0 * _G_STOP) / sd, reach)
    _split_rounding(lam, s_terms, omega, floor)
    phase = _phase_kernel(lam, delta_sq, sigma_sq)

    def g_decay(u):
        return phase(u)[0]

    def integrand(u):
        g, ps = phase(u)
        return math.exp(-g) * math.sin(ps + omega * u) / u

    # quad's first rule samples [0, end] no nearer 0 than 0.002 end, so one
    # rule reaching far past the scale 1/a_max of the mass near 0 could miss
    # it; the walked points split the integral there.  G is increasing, so
    # bisection brackets the death point cleanly, and past it the provably
    # negligible rest, at most 2 exp(-G(end)), is dropped
    w = abs(omega)
    points = []
    end = min(256.0 / a_max, u_settle)
    while g_decay(end) < _G_STOP and (end < u_settle or w * end < 3.0):
        points.append(end)
        end = u_settle if end < u_settle <= 2.0 * end else 2.0 * end
    if end <= u_settle and g_decay(end) >= _G_STOP:
        end = _death_point(g_decay, points[-1] if points else 0.0, end)
    err = _split_rounding(lam, s_terms, omega, end)
    total, quad_err, *_ = quad(
        integrand, 0.0, end, points=points or None, epsabs=1e-11, epsrel=1e-10, limit=2000,
        full_output=1,
    )
    err += quad_err
    if g_decay(end) >= _G_STOP:
        err += 2.0 * math.exp(-g_decay(end))
    else:
        sign = 1.0 if omega > 0 else -1.0

        def part(x, trig):  # exp(-G) trig(psi)/x, weighted by sin or cos of w x
            g, ps = phase(x)
            return math.exp(-g) * trig(ps) / x

        (v1, e1, *_), (v2, e2, *_) = (
            quad(part, end, np.inf, args=(trig,), weight=weight, wvar=w, epsabs=1e-11,
                 limlst=300, full_output=1)
            for trig, weight in ((math.cos, "sin"), (math.sin, "cos"))
        )
        total += sign * v1 + v2
        err += e1 + e2

    achieved = err / math.pi
    if achieved > 0.5 * ACCURACY_TARGET:
        raise NumericalError(
            "characteristic-function quadrature achieved only %.2e absolute" % achieved,
            accuracy=achieved,
        )
    return min(1.0, max(0.0, 0.5 - total / math.pi))
