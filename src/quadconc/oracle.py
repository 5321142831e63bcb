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

scipy is imported inside the two routines that use it, the binomial
interval and cdf_cf, so importing this module loads numpy only.  The form's
coefficient tuples become arrays once per call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DiagonalForm, _binade, _check_count, _check_direction, _check_real, _is_integer
from .errors import DegenerateFormError, NumericalError, ValidationError

DEFAULT_CHUNK = 65536
DEFAULT_CONFIDENCE = 0.99

# characteristic-function integration: stop once the integrand envelope
# exp(-G) falls below this; the dropped tail is provably < 2x the cutoff
ENVELOPE_CUTOFF = 1e-12
_G_STOP = -math.log(ENVELOPE_CUTOFF)
ACCURACY_TARGET = 1e-6
_EPS = float(np.finfo(float).eps)
_MAX_BLOCKS = 200
# _phase_kernel's cache: (key, {u: (G, psi)}) for the last normalized form,
# emptied at 2^14 nodes (about 3 MB)
_PHASE_MEMO_CAP = 2**14
_phase_memo = (None, {})


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


def _phase_kernel(lam, delta_sq, sigma_sq):
    """phase(u) -> (G(u), psi(u)) for cdf_cf, memoized on u.

    With l_k = a_k u over the coordinates with a_k != 0,

        G(u)   = sum_k [ log1p(4 l_k^2)/4 + 2 l_k^2 d_k^2 / (1 + 4 l_k^2) ] + sigma^2 u^2 / 2
        psi(u) = sum_k [ arctan(2 l_k)/2 + a_k d_k^2 u / (1 + 4 l_k^2) ]

    come from one pass over l = a u: the u-independent factors 2 d^2,
    a d^2 and sigma^2/2 are computed once, the shared denominator 1 + 4 l^2
    once per u, and every step writes into preallocated buffers.  Each
    rewrite of the textbook expressions (tests/_cf_reference.py) hoists a
    left factor or regroups a power-of-two scaling, so the results are
    bitwise equal to them wherever no intermediate overflows or is
    subnormal.

    The memo outlives the call.  It sits in a one-slot module cache keyed
    on the exact bytes of (lam, delta_sq, sigma_sq), so every kernel made
    for the same inputs, by any later cdf_cf call on the same normalized
    form (a form and its 2^k multiples normalize alike), reuses the nodes
    evaluated before; a kernel for other inputs takes the slot with a fresh
    memo.  G and psi do not depend on t and the kernel is deterministic, so
    a reused node has the bits a new evaluation would give.  The memo is
    emptied when it reaches _PHASE_MEMO_CAP nodes, which bounds its memory
    on forms whose weighted tails add new nodes at every t.  The work
    buffers belong to one kernel, so concurrent calls share only the memo,
    whose entries are the same whoever writes them; threads that take the
    slot from each other can cost each other reuse, never a value.
    """
    global _phase_memo
    key = (lam.tobytes(), delta_sq.tobytes(), float(sigma_sq).hex())
    slot_key, memo = _phase_memo
    if slot_key != key:
        memo = {}
        _phase_memo = (key, memo)
    two_delta_sq = 2.0 * delta_sq
    lam_delta_sq = lam * delta_sq
    half_sigma_sq = 0.5 * sigma_sq
    lu, l2, q, den, g = (np.empty_like(lam) for _ in range(5))

    def phase(u):
        hit = memo.get(u)
        if hit is not None:
            return hit
        if len(memo) >= _PHASE_MEMO_CAP:
            memo.clear()
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
        hit = memo[u] = (float(g.sum()) + half_sigma_sq * u * u, float(lu.sum()))
        return hit

    return phase


def _death_bracket(g_decay, hi):
    """Bracket (lo, up) of the point where an increasing G reaches _G_STOP.

    Requires G(hi) >= _G_STOP.  Halves hi while G(hi/2) still reaches the
    stop, then bisects [hi/2, hi] keeping G(lo) < _G_STOP <= G(up).  Once lo
    and up are adjacent floats the midpoint rounds onto one of them and a
    further step changes nothing, so the search stops there; the 200-step
    cap is never reached on a finite bracket (53 steps halve [hi/2, hi]
    down to adjacent floats).
    """
    while g_decay(hi / 2.0) >= _G_STOP:
        hi /= 2.0
    lo, up = hi / 2.0, hi
    for _ in range(200):
        mid = 0.5 * (lo + up)
        if not lo < mid < up:
            break
        if g_decay(mid) >= _G_STOP:
            up = mid
        else:
            lo = mid
    return lo, up


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
    knee = math.pi / 4.0
    with np.errstate(over="ignore"):
        x = np.abs(lam) * u_end
        arc = np.minimum(x, knee) + knee * np.log(np.maximum(x, knee) / knee)
        rat = s_terms * np.arctan(2.0 * x) / (2.0 * np.abs(lam))
    bound = (lam.size + 16) * _EPS * (float(np.sum(arc + rat)) + abs(omega) * u_end)
    if bound / math.pi > 0.5 * ACCURACY_TARGET:
        raise NumericalError(
            "phase rounding leaves only %.2e absolute accuracy" % (bound / math.pi),
            accuracy=bound / math.pi,
        )
    return bound


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
    and the noncentral terms saturate.  One kernel, _phase_kernel, computes
    G and psi together for each u.  G and psi do not depend on t, so its memo
    is kept across calls on the same normalized form: the sine and cosine
    tail passes below share the nodes they both visit, and a later call on
    the form (at another t, or on a 2^k multiple) reuses every node an
    earlier one evaluated in its death search, head, ladder and tail, with
    the same bits.  The memo holds one form at a time and is emptied at
    _PHASE_MEMO_CAP nodes; each call has its own work buffers, so calls
    from several threads give the values of serial calls.

    The integral is split into a head up to the point where the nonlinear
    phase has settled, a ladder of doubling blocks (so no adaptive pass can
    overlook mass stranded deep inside a long interval), and a weighted
    QUADPACK tail for the residual oscillation exp(-G) sin(psi_inf + w u)/u.
    When the amplitude exp(-G) dies before the phase settles, the head ends
    at the death point instead, found by a bisection (_death_bracket) that
    stops once its bracket cannot shrink.
    Absolute accuracy target 1e-6; raises NumericalError with the achieved
    estimate when the error accounting cannot certify half of that.  The
    accounting includes the rounding of the phase split (_split_rounding): a
    tiny nonzero a_k with a nonzero b_k makes psi and omega u cancel in size
    b_k^2 u/(4|a_k|), and a tiny a_k alone stretches the head to u_settle
    ~ 5/|a_k|, where omega u keeps few correct digits.  Such forms raise
    before the integral that cannot be certified is computed.

    F depends on (a, b, t) only up to a common scale, so it is evaluated on
    (a, b, t) * 2^-e, e = _binade(a, b): nothing squared then leaves the
    float range, and scaling the form and t by 2^k moves no bit.
    """
    from scipy.integrate import quad

    t = _check_real(t, "t", "any")
    if not (any(form.a) or any(form.b)):
        raise DegenerateFormError("form is deterministic; its CDF is a step function")
    e = _binade(form.a, form.b)
    a, b = np.ldexp(form.a, -e), np.ldexp(form.b, -e)
    with np.errstate(over="ignore"):  # a t that overflows here lands in the clamps below
        t = float(np.ldexp(t, -e))
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
        omega = float(-np.sum(lb * lb / (4.0 * lam))) - t
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
    # G(u) >= log1p(4 a_max^2 u^2)/4 > log(2 a_max u)/2 passes _G_STOP by
    # exp(2 _G_STOP)/a_max, where the head ends even if the phase never
    # settles; the unweighted integrals reach the head's end or the death
    # point, so at least the floor: refuse a hopeless split before any phase
    a_max = float(np.max(np.abs(lam)))
    head = min(u_settle, math.exp(2.0 * _G_STOP) / a_max)
    half_b_sq = 0.5 * float(np.sum(b * b))
    floor = _death_floor(lam, half_b_sq, math.sqrt(2.0 * _G_STOP) / sd, head)
    _split_rounding(lam, s_terms, omega, floor)
    phase = _phase_kernel(lam, delta_sq, sigma_sq)

    def g_decay(u):
        return phase(u)[0]

    def integrand(u):
        if u == 0.0:
            return mean - t
        g, ps = phase(u)
        return math.exp(-g) * math.sin(ps + omega * u) / u

    # when the amplitude dies before the phase settles, the head ends at the
    # death point (G is increasing, so bisection brackets cleanly) and the
    # provably negligible rest is dropped
    dies = g_decay(head) >= _G_STOP
    end = _death_bracket(g_decay, head)[1] if dies else u_settle
    split = _split_rounding(lam, s_terms, omega, end)
    # quad's first rule samples [0, end] no nearer 0 than 0.002 end, so a head
    # reaching far past the scale 1/a_max of the mass near 0 could miss it;
    # such a head is split at points doubling from 256/a_max
    knee = 256.0 / a_max
    points = knee * 2.0 ** np.arange(math.ceil(math.log2(end / knee))) if end > knee else None
    total, err, *_ = quad(
        integrand, 0.0, end, epsabs=1e-11, epsrel=1e-10, limit=2000, points=points, full_output=1
    )
    if dies:
        err = err + 2.0 * ENVELOPE_CUTOFF + split
    else:
        u = u_settle
        w = abs(omega)
        finished = False
        for _ in range(_MAX_BLOCKS):
            amp = math.exp(-g_decay(u))
            if amp <= ENVELOPE_CUTOFF:
                err += 2.0 * amp  # remaining integral <= 2 exp(-G(u))
                finished = True
                break
            if w * u >= 3.0:
                break
            val, e, *_ = quad(integrand, u, 2.0 * u, epsabs=1e-12, limit=200, full_output=1)
            total += val
            err += e
            u *= 2.0
        else:
            raise NumericalError("integration ladder did not terminate", accuracy=float("inf"))
        err += _split_rounding(lam, s_terms, omega, u)  # the unweighted integrals end at u
        if not finished:
            sign = 1.0 if omega > 0 else -1.0

            def part(x, trig):  # exp(-G) trig(psi)/x, weighted by sin or cos of w x
                g, ps = phase(x)
                return math.exp(-g) * trig(ps) / x

            (v1, e1, *_), (v2, e2, *_) = (
                quad(part, u, np.inf, args=(trig,), weight=weight, wvar=w, epsabs=1e-11,
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
