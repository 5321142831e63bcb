"""Independent ground truth for the law of T = sum_k a_k z_k^2 + b_k z_k.

Three routes, none sharing code with the bounds machinery they validate:

* a bit-reproducible Monte Carlo sampler with exact binomial confidence
  intervals (the court of last resort),
* a closed-form CDF for p = 1 built on the error function,
* a characteristic-function inversion (Gil-Pelaez / Imhof style) for
  general p, cross-validated against the other two.

Sampling uses counter-based Philox streams: sample block c of a run is
generated from counter c * 2^128 regardless of how blocks are scheduled,
so serial and parallel execution, or runs of different total size, agree
bit for bit on the shared prefix.  Normals come from an explicit
Box-Muller transform rather than a library-version-dependent method.

scipy is imported inside the two routines that use it, the binomial
interval and cdf_cf, so importing the package loads numpy only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DiagonalForm, _check_direction, _is_integer
from .errors import DegenerateFormError, NumericalError, ValidationError
from .spectral import QuadraticForm

DEFAULT_CHUNK = 65536
DEFAULT_CONFIDENCE = 0.99

# characteristic-function integration: stop once the integrand envelope
# exp(-G) falls below this; the dropped tail is provably < 2x the cutoff
ENVELOPE_CUTOFF = 1e-12
_G_STOP = -math.log(ENVELOPE_CUTOFF)
ACCURACY_TARGET = 1e-6
_MAX_BLOCKS = 200


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo tail probability with an exact binomial confidence interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    n: int
    seed: int

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
    """`count` standard normals from chunk `chunk_index` of the stream for `seed`."""
    pairs = (count + 1) // 2
    bitgen = np.random.Philox(key=seed, counter=chunk_index << 128)
    raw = bitgen.random_raw(2 * pairs)
    # top 53 bits -> uniforms; u1 in (0, 1] so log never sees 0
    u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    u2 = (raw[1::2] >> np.uint64(11)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def _validate_counts(n, chunk_size):
    if not (_is_integer(n) and n >= 1):
        raise ValidationError("n must be a positive integer, got %r" % (n,))
    if not (_is_integer(chunk_size) and chunk_size >= 1):
        raise ValidationError("chunk_size must be a positive integer")
    return int(n), int(chunk_size)


def sample(form: DiagonalForm, n: int, seed: int, chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
    """n realizations of the diagonal form, reproducible for fixed (seed, chunk_size)."""
    n, chunk_size = _validate_counts(n, chunk_size)
    seed = _check_seed(seed)
    p = form.p
    out = np.empty(n)
    for chunk in range((n + chunk_size - 1) // chunk_size):
        lo = chunk * chunk_size
        m = min(chunk_size, n - lo)
        z = _chunk_normals(seed, chunk, m * p).reshape(m, p)
        out[lo : lo + m] = (z * z) @ form.a + z @ form.b
    return out


def sample_quadratic(
    form: QuadraticForm, n: int, seed: int, chunk_size: int = DEFAULT_CHUNK
) -> np.ndarray:
    """n realizations of z'Az + b'z sampled in matrix form (no reduction involved)."""
    n, chunk_size = _validate_counts(n, chunk_size)
    seed = _check_seed(seed)
    p = form.p
    out = np.empty(n)
    for chunk in range((n + chunk_size - 1) // chunk_size):
        lo = chunk * chunk_size
        m = min(chunk_size, n - lo)
        z = _chunk_normals(seed, chunk, m * p).reshape(m, p)
        out[lo : lo + m] = np.einsum("ij,jk,ik->i", z, form.matrix, z) + z @ form.b
    return out


def _clopper_pearson(k, n, confidence):
    # quantiles of Beta(k, n-k+1) and Beta(k+1, n-k); betaincinv is what
    # scipy.stats.beta.ppf evaluates, without its per-call distribution overhead
    from scipy.special import betaincinv

    alpha = 1.0 - confidence
    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return low, high


def empirical_tail(
    samples, t: float, direction: str, confidence: float = DEFAULT_CONFIDENCE, seed: int = 0
) -> TailEstimate:
    """Exact-binomial estimate of P(T >= t) (upper) or P(T <= t) (lower).

    `seed` is carried through into the estimate for provenance; it does not
    affect the computation.
    """
    _check_direction(direction)
    if not 0.0 < confidence < 1.0:
        raise ValidationError("confidence must be in (0, 1)")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("samples must be a nonempty vector")
    if math.isnan(t):
        raise ValidationError("threshold must not be NaN")
    n = x.size
    k = int(np.count_nonzero(x >= t)) if direction == "upper" else int(np.count_nonzero(x <= t))
    low, high = _clopper_pearson(k, n, confidence)
    return TailEstimate(p_hat=k / n, ci_low=low, ci_high=high, n=n, seed=_check_seed(seed))


def _phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def cdf_p1(a: float, b: float, t: float) -> float:
    """Exact P(a z^2 + b z <= t) for one Gaussian coordinate.

    a != 0 reduces to which z solve the quadratic a z^2 + b z - t <= 0: an
    interval between the roots when a > 0, the complement when a < 0, and
    empty or everything when the discriminant b^2 + 4at is negative.
    """
    for name, val in (("a", a), ("b", b), ("t", t)):
        if math.isnan(val):
            raise ValidationError("%s must not be NaN" % name)
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


def cdf_cf(form: DiagonalForm, t: float) -> float:
    """P(T <= t) by numerical inversion of the characteristic function.

    Completing the square per coordinate makes T a linear combination of
    noncentral chi-squares plus an independent Gaussian, with
    characteristic function exp(-G(u) + i H(u)) where

        G(u) = sum_k [ log(1+4 a_k^2 u^2)/4 + 2 a_k^2 d_k^2 u^2/(1+4 a_k^2 u^2) ]
               + sigma^2 u^2 / 2
        H(u) = sum_k [ arctan(2 a_k u)/2 - a_k d_k^2 u / (1+4 a_k^2 u^2) ] ... - t u

    (d_k = b_k/(2 a_k); zero-a_k terms collapse into the sigma^2 piece).
    Gil-Pelaez then gives F(t) = 1/2 - (1/pi) Int_0^inf exp(-G) sin(H)/u du.
    Writing the phase terms directly in b_k (expanded below) avoids the
    d_k -> inf blowup when a_k is tiny.

    The integral is split into a head up to the point where the nonlinear
    phase has settled, a ladder of doubling blocks (so no adaptive pass can
    overlook mass stranded deep inside a long interval), and a weighted
    QUADPACK tail for the residual oscillation exp(-G) sin(psi_inf + w u)/u.
    Absolute accuracy target 1e-6; raises NumericalError with the achieved
    estimate when the error accounting cannot certify half of that.
    """
    from scipy.integrate import quad

    if math.isnan(t) or math.isinf(t):
        raise ValidationError("t must be finite")
    a, b = form.a, form.b
    quad_mask = a != 0.0
    lam = a[quad_mask]
    lb = b[quad_mask]
    sigma_sq = float(np.sum(b[~quad_mask] ** 2))
    if lam.size == 0:
        if sigma_sq == 0.0:
            raise DegenerateFormError("form is deterministic; its CDF is a step function")
        return _phi(t / math.sqrt(sigma_sq))

    delta_sq = (lb / (2.0 * lam)) ** 2
    mean = float(np.sum(a))
    sd = math.sqrt(float(np.sum(2.0 * a * a + b * b)))
    # Chebyshev clamp: beyond 1e6 standard deviations the answer is 0/1 to 1e-12
    if t - mean > 1e6 * sd:
        return 1.0
    if mean - t > 1e6 * sd:
        return 0.0
    # linear phase slope left once arctan and the noncentral terms saturate
    omega = float(-np.sum(lb * lb / (4.0 * lam))) - t

    def g_decay(u):
        l2 = (lam * u) ** 2
        return float(
            np.sum(0.25 * np.log1p(4.0 * l2) + 2.0 * l2 * delta_sq / (1.0 + 4.0 * l2))
            + 0.5 * sigma_sq * u * u
        )

    def psi(u):
        lu = lam * u
        return float(np.sum(0.5 * np.arctan(2.0 * lu) + lam * delta_sq * u / (1.0 + 4.0 * lu * lu)))

    def integrand(u):
        if u == 0.0:
            return mean - t
        return math.exp(-g_decay(u)) * math.sin(psi(u) + omega * u) / u

    total = 0.0
    err = 0.0

    # residual phase beyond u_settle is below ~0.05 rad, so the integrand
    # out there is exp(-G) sin(psi_inf + omega u)/u with slowly varying parts
    u_settle = 5.0 * float(np.sum((1.0 + delta_sq) / np.abs(lam)))

    if g_decay(u_settle) >= _G_STOP:
        # amplitude dies before the phase settles; integrate to the death
        # point (G is increasing, so bisection brackets cleanly) and drop
        # the provably negligible rest
        hi = u_settle
        while g_decay(hi / 2.0) >= _G_STOP:
            hi /= 2.0
        lo, up = hi / 2.0, hi
        for _ in range(200):
            mid = 0.5 * (lo + up)
            if g_decay(mid) >= _G_STOP:
                up = mid
            else:
                lo = mid
        val, e, *_ = quad(integrand, 0.0, up, epsabs=1e-11, epsrel=1e-10, limit=2000, full_output=1)
        total += val
        err += e + 2.0 * ENVELOPE_CUTOFF
    else:
        val, e, *_ = quad(
            integrand, 0.0, u_settle, epsabs=1e-11, epsrel=1e-10, limit=2000, full_output=1
        )
        total += val
        err += e
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
        if not finished:
            sign = 1.0 if omega > 0 else -1.0

            def cos_part(x):
                return math.exp(-g_decay(x)) * math.cos(psi(x)) / x

            def sin_part(x):
                return math.exp(-g_decay(x)) * math.sin(psi(x)) / x

            v1, e1, *_ = quad(
                cos_part, u, np.inf, weight="sin", wvar=w, epsabs=1e-11, limlst=300, full_output=1
            )
            v2, e2, *_ = quad(
                sin_part, u, np.inf, weight="cos", wvar=w, epsabs=1e-11, limlst=300, full_output=1
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
