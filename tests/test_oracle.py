"""Sampling determinism, binomial intervals, and the two distribution oracles.

cdf_cf reference values were frozen after cross-checking against an
independent conditioning quadrature (integrate the p=1 closed form against
the Gaussian weight of the remaining coordinate, adaptive quad); the two
routes agreed to ~1e-15 on every probe.
"""

import contextlib
import io
import math
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from _cf_reference import g_decay, psi
from _interpreter import run_python
from _sample_reference import TABLE_COS, TABLE_SIN, chunk_loop, libm_normals, uniforms
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta, chi2, ks_2samp, ncx2, norm

import quadconc as qc
from quadconc import oracle
from quadconc.errors import DegenerateFormError, NumericalError, ValidationError

CHI1 = qc.DiagonalForm(np.ones(1), np.zeros(1))
CHI3 = qc.DiagonalForm(np.ones(3), np.zeros(3))

# frozen reference points (see module docstring)
HETERO_CDF_AT_50 = 0.5206085305269479  # a = (100, -0.001), b = (5, 1)
MIXED_CDF_AT_1 = 0.7613525340395519  # a = (1, -1), b = (1, 1)
CP_ZERO_HIGH = 5.298303330489367e-06  # k = 0, n = 1e6, 99% two-sided


@pytest.fixture(autouse=True)
def cold_plan_cache():
    # every test starts from an empty plan cache, as if it ran alone
    oracle._slot = (None, None)


def test_sample_deterministic():
    form = qc.DiagonalForm(np.array([1.0, -0.5]), np.array([0.3, 2.0]))
    one = qc.sample(form, 5000, 42)
    two = qc.sample(form, 5000, 42)
    assert np.array_equal(one, two)
    assert not np.array_equal(one, qc.sample(form, 5000, 43))


def test_sample_prefix_stable_across_n():
    # growing n must extend the stream, not reshuffle it
    form = qc.DiagonalForm(np.array([1.0, 2.0, -1.0]), np.array([0.0, 1.0, 0.5]))
    long = qc.sample(form, 150000, 7)
    short = qc.sample(form, 100000, 7)
    assert np.array_equal(long[:100000], short)


def test_sample_chunk_size_changes_stream_layout(monkeypatch):
    form = qc.DiagonalForm(np.ones(2), np.zeros(2))
    default = qc.sample(form, 1000, 5)
    monkeypatch.setattr(oracle, "DEFAULT_CHUNK", 128)
    small = qc.sample(form, 1000, 5)
    # different chunking is a different (still deterministic) stream
    assert small.shape == default.shape
    assert np.array_equal(small, qc.sample(form, 1000, 5))


def test_sample_degenerate_form_is_constant():
    form = qc.DiagonalForm(np.zeros(2), np.zeros(2))
    assert np.array_equal(qc.sample(form, 100, 0), np.zeros(100))


@settings(max_examples=40, deadline=None)
@given(st.integers(-1000, 1023))
@example(1020)
def test_sample_scale_covariance_bitwise(k):
    # a power-of-two scale moves no bit of a draw that stays a finite normal
    # float; at k = 1020 the products of the unscaled form overflowed
    form = qc.DiagonalForm([1.0, -0.9], [0.5, 0.0])
    scaled = qc.DiagonalForm([math.ldexp(v, k) for v in form.a], [math.ldexp(v, k) for v in form.b])
    got = qc.sample(scaled, 10**5, 7)
    with np.errstate(over="ignore"):
        want = np.ldexp(qc.sample(form, 10**5, 7), k)
    normal = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
    assert got[normal].tobytes() == want[normal].tobytes()
    assert np.array_equal(np.isinf(got), np.isinf(want))


def test_sample_moments():
    n = 10**5
    draws = qc.sample(CHI1, n, 2024)
    # z^2 has mean 1, variance 2
    assert abs(draws.mean() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert abs(draws.var() - 2.0) < 0.1


SAMPLER_PROBE = r"""
import sys
import numpy as np
import quadconc as qc
from _sample_reference import chunk_loop
from quadconc import oracle

p, n, chunk_size = map(int, sys.argv[1:])
rng = np.random.default_rng(2009)
form = qc.DiagonalForm(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
oracle.DEFAULT_CHUNK = chunk_size
got, want = qc.sample(form, n, 77), chunk_loop(form, n, 77, chunk_size)
print(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
"""


@pytest.mark.parametrize(
    "p, n, chunk_size",
    [
        pytest.param(5, 1, 4096, id="1-4096"),
        pytest.param(5, 4096, 4096, id="4096-4096"),
        pytest.param(5, 10007, 4096, id="10007-4096"),
        pytest.param(5, 777, 1, id="777-1"),
        # several blocks per chunk, a ragged last block in each chunk and a
        # ragged last chunk; at p = 2100 a block is the 64-row minimum
        pytest.param(24, 150001, 65536, id="p24-150001-65536"),
        pytest.param(97, 40001, 16384, id="p97-40001-16384"),
        pytest.param(2100, 200, 65536, id="p2100-200-65536"),
    ],
)
def test_samplers_match_their_chunk_loops_bitwise(p, n, chunk_size, monkeypatch):
    # cases at p >= 96 run at one BLAS thread: there OpenBLAS's thread split
    # of the referee's whole-chunk gemv can send rows of a ragged chunk
    # through its tail kernel (seen at p = 97)
    if p < 96:
        rng = np.random.default_rng(2009)
        form = qc.DiagonalForm(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
        monkeypatch.setattr(oracle, "DEFAULT_CHUNK", chunk_size)
        got = qc.sample(form, n, 77)
        assert got.tobytes() == chunk_loop(form, n, 77, chunk_size).tobytes()
        return
    res = run_python("-c", SAMPLER_PROBE, p, n, chunk_size, OPENBLAS_NUM_THREADS="1")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0"


def test_polar_is_within_2_to_the_minus_52_of_the_exact_angle():
    # 10^4 random uniforms, the edges 0 and 1 - 2^-53, every knot j / N, and
    # every tie v - j = +-1/2 between knots (rint rounds it to the even knot)
    # with its two neighbours
    knots = oracle._TURN_KNOTS
    ties = (np.arange(knots) + 0.5) / knots
    u = np.concatenate([
        np.random.default_rng(52).integers(0, 2**53, 10**4) * 2.0**-53,
        [0.0, 1.0 - 2.0**-53], np.arange(knots + 1) / knots,
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0),
    ])
    x, y = np.empty(u.size), np.empty(u.size)
    oracle._polar(u, np.ones(u.size), x, y, np.empty((6, u.size)))
    worst = 0.0
    with mpmath.workprec(120):
        for turns, cos, sin in zip(u.tolist(), x.tolist(), y.tolist()):
            twice = 2 * mpmath.mpf(turns)  # 2 pi u = pi * twice, exactly
            worst = max(worst, abs(cos - mpmath.cospi(twice)), abs(sin - mpmath.sinpi(twice)))
    assert worst <= 2.0**-52, float(worst)
    # the table is each knot's value rounded once
    assert oracle._TURN_COS.tobytes() == TABLE_COS.tobytes()
    assert oracle._TURN_SIN.tobytes() == TABLE_SIN.tobytes()


def test_normals_stay_near_libm_box_muller():
    # libm's cos and sin of the rounded angle fl(fl(2 pi) u) are a second
    # referee.  fl(2 pi) is off by under 2.45e-16 and the product by at most
    # half an ulp of an angle below 8, 2^-51; libm is off by under an ulp of
    # a value in [-1, 1], 2^-53.  The table kernel is within 2^-52 (above),
    # and the two products with the same radius r round by at most 2^-53 r
    # each, so the normals differ by at most r (2^-52 + 2.45e-16 + 2^-51 +
    # 3 * 2^-53).  a = 0, b = 1 makes each draw one normal.
    with mpmath.workprec(120):
        two_pi = float(abs(2 * mpmath.pi - mpmath.mpf(2.0 * math.pi)))
    assert two_pi < 2.45e-16
    per_radius = 2.0**-52 + 2.45e-16 + 2.0**-51 + 3 * 2.0**-53
    n, size = 2 * oracle.DEFAULT_CHUNK + 5, oracle.DEFAULT_CHUNK
    got = qc.sample(qc.DiagonalForm([0.0], [1.0]), n, 2024)
    for chunk, lo in enumerate(range(0, n, size)):
        m = min(size, n - lo)
        u1, _ = uniforms(2024, chunk, (m + 1) // 2)
        radius = np.repeat(np.sqrt(-2.0 * np.log(u1)), 2)[:m]
        gap = np.abs(got[lo : lo + m] - libm_normals(2024, chunk, m))
        assert np.all(gap <= radius * per_radius), (gap / radius).max()


POLAR_PROBE = r"""
import hashlib
import numpy as np
from quadconc import oracle

rng = np.random.Generator(np.random.Philox(key=52))
u = np.concatenate([rng.random(10**5), np.arange(257) / 256, (np.arange(256) + 0.5) / 256])
radius = 9.0 * rng.random(u.size)
x, y = np.empty(u.size), np.empty(u.size)
oracle._polar(u, radius, x, y, np.empty((6, u.size)))
print(hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest())
"""


def test_polar_bits_are_the_same_on_every_cpu_setting():
    # numpy dispatching as on a host without AVX-512, or at its x86-64-v2
    # baseline without AVX2 either, and OpenBLAS running the kernels of a
    # host without AVX2, give the kernel's bytes unchanged
    hashes = set()
    for setting in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
                    {"OPENBLAS_CORETYPE": "Sandybridge"}):
        res = run_python("-c", POLAR_PROBE, **setting)
        assert res.returncode == 0, res.stderr
        hashes.add(res.stdout)
    assert len(hashes) == 1, hashes


def test_sample_memory_is_one_block():
    # the normals of one whole chunk at p = 24 are 12.6 MB; sample holds the
    # block's normals and nine rows of about _BLOCK / 2 doubles
    # beside the n-vector, 1.2 MB (with 2^17-normal blocks it held 2.6 MB)
    rng = np.random.default_rng(24)
    form = qc.DiagonalForm(rng.uniform(-2, 2, 24), rng.uniform(-2, 2, 24))
    n = 2 * oracle.DEFAULT_CHUNK
    qc.sample(form, n, 3)
    tracemalloc.start()
    try:
        qc.sample(form, n, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 5 * 8 * 2**15, peak


def test_sample_validation():
    with pytest.raises(ValidationError):
        qc.sample(CHI1, 0, 1)
    with pytest.raises(ValidationError):
        qc.sample(CHI1, 10, -1)
    with pytest.raises(ValidationError):
        qc.sample(CHI1, 10, 2**64)
    with pytest.raises(ValidationError):
        qc.sample(CHI1, 10.5, 1)


def test_counts_and_seed_reject_bools_accept_numpy_ints():
    for bad in (True, np.bool_(True)):
        with pytest.raises(ValidationError):
            oracle._check_seed(bad)
        with pytest.raises(ValidationError):
            qc.sample(CHI1, bad, 1)
    assert oracle._check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    assert np.array_equal(qc.sample(CHI1, np.int64(100), np.int64(5)), qc.sample(CHI1, 100, 5))


SAMPLE_PROBE = r"""
import hashlib
import numpy as np
import quadconc as qc

# at p = 97 the last chunk has 6001 rows, and one gemv over all of them is
# large enough for OpenBLAS to split it across threads
for p, n in ((24, 150001), (97, 71537)):
    rng = np.random.default_rng(p)
    form = qc.DiagonalForm(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
    print(hashlib.sha256(qc.sample(form, n, 11).tobytes()).hexdigest())
"""


def test_sample_bitwise_across_blas_threads():
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(SAMPLE_PROBE, {})
    for threads in ("1", "2"):
        res = run_python("-c", SAMPLE_PROBE, OPENBLAS_NUM_THREADS=threads)
        assert res.returncode == 0, res.stderr
        assert res.stdout == here.getvalue(), threads


def test_clopper_pearson_bitwise_equal_to_beta_ppf():
    # scipy.stats.beta.ppf is the independent referee for the interval
    rng = np.random.default_rng(20091)
    for n in np.unique(np.round(np.logspace(4, 9, 11)).astype(np.int64)).tolist():
        interior = rng.integers(1, n, size=8).tolist()
        for k in [0, 1, 2, n // 2, n - 2, n - 1, n] + interior:
            for confidence in (0.9, 0.99, 0.999):
                alpha = 1.0 - confidence
                low = 0.0 if k == 0 else float(beta.ppf(alpha / 2.0, k, n - k + 1))
                high = 1.0 if k == n else float(beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
                assert oracle._clopper_pearson(k, n, confidence) == (low, high), (k, n, confidence)


def test_empirical_tail_zero_hits():
    est = qc.empirical_tail(np.zeros(10**6), 1.0, "upper")
    assert est.p_hat == 0.0 and est.ci_low == 0.0
    assert est.ci_high == pytest.approx(CP_ZERO_HIGH, rel=1e-10)
    # closed form for k = 0: 1 - (alpha/2)^(1/n)
    assert est.ci_high == pytest.approx(1.0 - 0.005 ** (1.0 / 10**6), rel=1e-4)


def test_empirical_tail_all_hits():
    est = qc.empirical_tail(np.arange(1000.0), -math.inf, "upper")
    assert est.p_hat == 1.0 and est.ci_high == 1.0
    assert est.ci_low == pytest.approx(0.9947156939605025, rel=1e-12)


def test_empirical_tail_frozen_interval():
    est = qc.empirical_tail(np.arange(1000.0), 950.0, "upper")
    assert est.p_hat == 0.05
    assert est.ci_low == pytest.approx(0.03392666271022028, rel=1e-12)
    assert est.ci_high == pytest.approx(0.07050437520145812, rel=1e-12)


def test_empirical_tail_lower_direction():
    est = qc.empirical_tail(np.arange(1000.0), 49.0, "lower")
    assert est.p_hat == 0.05


def test_tail_estimate_ordering_enforced():
    with pytest.raises(ValidationError):
        qc.TailEstimate(p_hat=0.5, ci_low=0.6, ci_high=0.7, n=10)
    with pytest.raises(ValidationError, match="n must be positive"):
        qc.TailEstimate(p_hat=0.5, ci_low=0.4, ci_high=0.6, n=0)
    with pytest.raises(ValidationError):
        qc.empirical_tail(np.arange(10.0), math.nan, "upper")
    with pytest.raises(ValidationError):
        qc.empirical_tail(np.arange(10.0), 1.0, "both")


def test_empirical_tail_refuses_thresholds_that_are_not_real_numbers():
    # a complex threshold ended in an untyped TypeError, None was refused as
    # NaN, and strings and bools were counted as the numbers they spell
    x = np.arange(10.0)
    for t in (1.0 + 0j, 2j, np.complex128(1.0), np.array([0.5, 1j]), "1", ["1", "2"],
              np.array(["1"]), True, np.bool_(True), [True, 0.5], np.array([True, False]),
              None, [0.5, None], [[1.0], [1.0, 2.0]], 10**400, [0.5, -(10**400)]):
        for direction in qc.DIRECTIONS:
            with pytest.raises(ValidationError, match=r"^t must be a real number"):
                qc.empirical_tail(x, t, direction)
    for t in (math.nan, [0.5, math.nan], np.array([math.nan])):
        with pytest.raises(ValidationError, match=r"^t must not be NaN"):
            qc.empirical_tail(x, t, "upper")
    # real numbers of any type, infinities and 0-d arrays stay thresholds
    want = qc.empirical_tail(x, [4.5, 7.0, 2.0, math.inf], "lower")
    assert qc.empirical_tail(x, [np.float32(4.5), 7, np.int8(2), np.float64(math.inf)], "lower") == want
    assert qc.empirical_tail(x, np.array(4.5), "lower") == want[0]
    assert qc.empirical_tail(x, np.array([4.5, 7, 2, math.inf], dtype=object), "lower") == want


def test_empirical_tail_refuses_samples_that_are_not_real_numbers():
    # strings, bools and None are not real numbers, whatever float() makes of them
    for samples in (["1", "2"], np.array(["1", "2"]), np.array([True, False]), [True, 2.0],
                    [1.0, None], [1.0, 2j], np.array([1.0 + 1.0j, 2.0]), [1.0, 10**400]):
        for direction in qc.DIRECTIONS:
            with pytest.raises(ValidationError, match=r"^samples must be a real number"):
                qc.empirical_tail(samples, 0.5, direction)
    want = qc.empirical_tail(np.array([1.0, 2.0, 0.0]), 0.5, "upper")
    for samples in ([1, 2.0, 0], np.array([1, 2, 0], dtype=np.int8), np.float32([1, 2, 0])):
        assert qc.empirical_tail(samples, 0.5, "upper") == want


def test_empirical_tail_rejects_nan_samples():
    # a NaN used to count as a miss in both directions
    for direction in ("upper", "lower"):
        with pytest.raises(ValidationError, match="NaN"):
            qc.empirical_tail(np.array([math.nan, 1.0]), 0.5, direction)
        late = np.zeros(oracle.DEFAULT_CHUNK + 3)
        late[-2] = math.nan
        with pytest.raises(ValidationError, match="NaN"):
            qc.empirical_tail(late, np.array([0.0, 1.0]), direction)


def test_empirical_tail_vector_matches_scalar_calls():
    draws = qc.sample(CHI3, 200003, 9)
    thresholds = np.array([-1.0, 0.5, 3.0, 3.0, 7.5, 20.0, math.inf])
    for direction in ("upper", "lower"):
        vector = qc.empirical_tail(draws, thresholds, direction)
        assert isinstance(vector, list) and len(vector) == thresholds.size
        assert vector == [qc.empirical_tail(draws, t, direction) for t in thresholds]
    assert qc.empirical_tail(draws, np.array([]), "upper") == []
    with pytest.raises(ValidationError):
        qc.empirical_tail(draws, np.ones((2, 2)), "upper")
    with pytest.raises(ValidationError):
        qc.empirical_tail(draws, np.array([1.0, math.nan]), "lower")


_values = st.sampled_from([-math.inf, -2.5, -1.0, -0.0, 0.0, 1e-300, 1.0, 2.5, math.inf])


@settings(max_examples=150)
@given(
    st.lists(st.one_of(_values, st.floats(-3, 3)), min_size=1, max_size=60),
    st.lists(st.one_of(_values, st.floats(-3, 3)), min_size=1, max_size=12),
    st.integers(1, 9),
)
def test_sorted_counts_match_count_nonzero(values, thresholds, block):
    # ties, duplicates, +-inf, +-0.0, and blocks that do not divide n
    x = np.array(values)
    ts = np.array(thresholds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "DEFAULT_CHUNK", block)
        upper = qc.empirical_tail(x, ts, "upper")
        lower = qc.empirical_tail(x, ts, "lower")
    for t, up, low in zip(ts, upper, lower):
        assert up.p_hat * x.size == np.count_nonzero(x >= t)
        assert low.p_hat * x.size == np.count_nonzero(x <= t)
        assert up.p_hat == np.count_nonzero(x >= t) / x.size


@pytest.mark.parametrize("n", [1000, oracle.DEFAULT_CHUNK, 3 * oracle.DEFAULT_CHUNK + 1],
                         ids=["below-chunk", "one-chunk", "k-chunks-plus-1"])
def test_streamed_counts_match_the_sampled_vector(n):
    # a stream of chunks in one reused buffer counts exactly what the
    # n-vector of sample counts, and yields the same draws in the same order
    form = qc.DiagonalForm([1.0, -0.5, 2.0], [0.3, 0.0, -1.0])
    draws = qc.sample(form, n, 13)
    ts = np.concatenate([np.quantile(draws, [0.0, 0.01, 0.5, 0.99, 1.0]), [-np.inf, np.inf]])
    for direction in qc.DIRECTIONS:
        _, chunks = oracle._chunks(form, n, 13)
        assert qc.empirical_tail(chunks, ts, direction) == qc.empirical_tail(draws, ts, direction)
    buffer, chunks = oracle._chunks(form, n, 13)
    assert buffer.size == min(n, oracle.DEFAULT_CHUNK)
    streamed = []
    for chunk in chunks:
        assert np.shares_memory(chunk, buffer)
        streamed.append(chunk.copy())
    assert np.concatenate(streamed).tobytes() == draws.tobytes()


def test_streamed_samples_are_checked():
    for samples in (iter([]), np.zeros(0), np.zeros((2, 3))):
        with pytest.raises(ValidationError, match="nonempty"):
            qc.empirical_tail(samples, 0.0, "upper")
    for direction in qc.DIRECTIONS:
        with pytest.raises(ValidationError, match="NaN"):
            qc.empirical_tail(iter([np.zeros(3), np.array([1.0, math.nan])]), 0.5, direction)
    for n, seed, message in ((10, -1, "seed must"), (10, 2**64, "seed must"), (0, 1, "n must")):
        with pytest.raises(ValidationError, match=message):
            oracle._chunks(CHI1, n, seed)
    read_only = np.zeros(3)
    read_only.flags.writeable = False
    for block in (np.zeros((2, 3)), np.zeros(0), [1.0, 2.0], read_only, np.zeros(3, complex)):
        with pytest.raises(ValidationError, match="block"):
            qc.empirical_tail(iter([np.zeros(3), block]), 0.5, "upper")
    for samples in (np.array([1.0 + 1.0j, 2.0]), [1.0, 2.0j]):
        with pytest.raises(ValidationError, match="complex"):
            qc.empirical_tail(samples, 0.5, "upper")


def test_cdf_p1_chi_square():
    for t in (-1.0, 0.0, 0.5, 1.0, 3.0, 3.841, 10.0):
        assert qc.cdf_p1(1.0, 0.0, t) == pytest.approx(chi2.cdf(t, 1), abs=1e-14)
    assert qc.cdf_p1(1.0, 0.0, 3.841) == pytest.approx(0.9499863162360433, rel=1e-12)


def test_cdf_p1_noncentral():
    # a z^2 + b z = a (z + b/2a)^2 - b^2/4a: shifted noncentral chi-square
    for t in (-0.9, -0.5, 0.0, 1.0, 4.0):
        assert qc.cdf_p1(1.0, 2.0, t) == pytest.approx(ncx2.cdf(t + 1.0, 1, 1.0), abs=1e-12)


def test_cdf_p1_negative_curvature():
    for t in (-10.0, -3.0, -0.5, -0.01):
        assert qc.cdf_p1(-1.0, 0.0, t) == pytest.approx(chi2.sf(-t, 1), abs=1e-14)
    assert qc.cdf_p1(-1.0, 0.0, 0.0) == 1.0


def test_cdf_p1_linear_and_constant():
    for t in (-2.0, 0.0, 0.5, 2.0):
        assert qc.cdf_p1(0.0, 2.0, t) == pytest.approx(norm.cdf(t / 2.0), abs=1e-14)
        assert qc.cdf_p1(0.0, -2.0, t) == pytest.approx(norm.cdf(t / 2.0), abs=1e-14)
    assert qc.cdf_p1(0.0, 0.0, -0.1) == 0.0
    assert qc.cdf_p1(0.0, 0.0, 0.0) == 1.0
    assert qc.cdf_p1(0.0, 0.0, 0.1) == 1.0


def test_cdf_p1_rejects_nan():
    with pytest.raises(ValidationError):
        qc.cdf_p1(math.nan, 0.0, 1.0)
    with pytest.raises(ValidationError):
        qc.cdf_p1(1.0, 0.0, math.nan)


@pytest.mark.parametrize("bad", [True, np.bool_(True), "1", None, 10**400, math.inf, -math.inf])
def test_cdf_inputs_must_be_finite_reals(bad):
    # bools once passed as 1 (cdf_p1 gave 0.6827, cdf_cf 0.4996); a str or None
    # raised TypeError and 10**400 OverflowError
    with pytest.raises(ValidationError):
        qc.cdf_cf(CHI3, bad)
    for args in ((bad, 0.0, 1.0), (1.0, bad, 1.0), (1.0, 0.0, bad)):
        with pytest.raises(ValidationError):
            qc.cdf_p1(*args)


def test_functions_of_a_form_refuse_other_objects():
    # an object with lists a and b once passed as a form: cdf_cf gave 0.5384
    # for this one, and the same stale 0.5384 after ns.a[0] = 5.0, where the
    # form of the changed lists gives 0.2957
    ns = SimpleNamespace(a=[0.5] * 24, b=[0.0] * 24)
    calls = (lambda: qc.cdf_cf(ns, 12.0), lambda: qc.form_stats(ns),
             lambda: qc.sample(ns, 10, 1), lambda: qc.envelope_grid_check(ns, 16),
             lambda: qc.log_mgf_centered(ns, 0.1))
    for call in calls:
        with pytest.raises(ValidationError, match="DiagonalForm"):
            call()
    ns.a[0] = 5.0
    with pytest.raises(ValidationError, match="DiagonalForm"):
        qc.cdf_cf(ns, 12.0)
    assert qc.cdf_cf(qc.DiagonalForm(ns.a, ns.b), 12.0) == pytest.approx(0.2957, abs=1e-4)


def test_cdf_numpy_scalars_match_python_floats():
    form = qc.DiagonalForm(np.array([1.0, -0.5]), np.array([0.3, 2.0]))
    want = qc.cdf_cf(form, 1.0).hex()
    for t in (np.float32(1.0), np.float64(1.0), np.int64(1), 1, np.array(1.0), np.array(1)):
        assert qc.cdf_cf(form, t).hex() == want, type(t)
    want = qc.cdf_p1(1.0, 2.0, 1.0).hex()
    assert qc.cdf_p1(np.float32(1.0), np.int32(2), np.float64(1.0)).hex() == want
    assert qc.cdf_p1(np.array(1.0), np.array(2), np.array(np.float32(1.0))).hex() == want


def test_cdf_cf_matches_chi_square():
    assert qc.cdf_cf(CHI1, 3.841) == pytest.approx(qc.cdf_p1(1.0, 0.0, 3.841), abs=1e-9)
    assert qc.cdf_cf(CHI3, 3.0) == pytest.approx(0.6083748237289109, abs=1e-9)
    # omega = 0 exactly on a form without damping: the integrand does not oscillate
    assert abs(qc.cdf_cf(CHI1, 0.0)) <= 1e-9


def test_cdf_cf_frozen_hard_cases():
    hetero = qc.DiagonalForm(np.array([100.0, -0.001]), np.array([5.0, 1.0]))
    assert qc.cdf_cf(hetero, 50.0) == pytest.approx(HETERO_CDF_AT_50, abs=1e-9)
    mixed = qc.DiagonalForm(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    assert qc.cdf_cf(mixed, 1.0) == pytest.approx(MIXED_CDF_AT_1, abs=1e-9)
    # at t = omega0 = -sum_k b_k^2/(4 a_k) = 1/4 the phase slope is 0 exactly, and
    # sum_k d_k^2/2 = 5/8 leaves the form without damping; conditioning on z0
    # leaves the p = 1 closed form of the other coordinate
    a, b, t = np.array([1.0, -0.5]), np.array([1.0, 1.0]), 0.25

    def conditional(z):
        return norm.pdf(z) * qc.cdf_p1(a[1], b[1], t - a[0] * z * z - b[0] * z)

    want, _ = quad(conditional, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    assert abs(qc.cdf_cf(qc.DiagonalForm(a, b), t) - want) <= 1e-9


def test_cdf_cf_support_edge():
    # T = z^2 + 2z is supported on [-1, inf); the oscillation frequency of the
    # inversion integrand vanishes as t approaches the edge
    form = qc.DiagonalForm(np.array([1.0]), np.array([2.0]))
    for offset in (1e-4, 1e-7, 1e-10, 0.0):
        assert abs(qc.cdf_cf(form, -1.0 - offset)) < 1e-9


def test_cdf_cf_negative_curvature():
    form = qc.DiagonalForm(np.array([-1.0]), np.array([0.0]))
    assert qc.cdf_cf(form, -3.0) == pytest.approx(chi2.sf(3.0, 1), abs=1e-9)


def test_cdf_cf_noncentral_vs_scipy():
    form = qc.DiagonalForm(np.array([1.0]), np.array([2.0]))
    for t in (-0.5, 0.5, 2.0, 8.0):
        assert qc.cdf_cf(form, t) == pytest.approx(ncx2.cdf(t + 1.0, 1, 1.0), abs=1e-8)


def test_cdf_cf_monotone_and_clipped():
    form = qc.DiagonalForm(np.array([1.0, 0.5]), np.array([0.5, -1.0]))
    grid = np.linspace(-2.0, 12.0, 30)
    vals = [qc.cdf_cf(form, t) for t in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_cdf_cf_pure_gaussian_branch():
    form = qc.DiagonalForm(np.zeros(2), np.array([3.0, 4.0]))
    assert qc.cdf_cf(form, 2.5) == qc.cdf_p1(0.0, 1.0, 0.5)  # Phi(0.5), same code path


def test_cdf_cf_far_tails():
    assert qc.cdf_cf(CHI3, -1e12) == 0.0
    assert qc.cdf_cf(CHI3, 1e12) == 1.0


def test_cdf_cf_degenerate_rejected():
    with pytest.raises(DegenerateFormError):
        qc.cdf_cf(qc.DiagonalForm(np.zeros(2), np.zeros(2)), 0.0)
    with pytest.raises(ValidationError):
        qc.cdf_cf(CHI1, math.nan)
    # a sum whose error account misses the target is refused, not returned
    with pytest.raises(NumericalError) as info:
        qc.cdf_cf(qc.DiagonalForm([1e-6] + [1.0] * 8, [1.0] + [0.0] * 8), -1.0)
    assert info.value.accuracy > 0.5 * oracle.ACCURACY_TARGET


@pytest.mark.parametrize("t", [0.0, 1.0, 3.0])
@pytest.mark.parametrize(
    "eps", [1e-8, 1e-16, -1e-16, 1e-18, 1e-20, 1e-30, 1e-100, 1e-150, 1e-160, 1e-300, 5e-324]
)
def test_cdf_cf_tiny_curvature_with_shift_is_right_or_refused(eps, t):
    # T = eps z0^2 + z0 + z1^2: psi(u) and omega u cancel in size u/(4 eps), so
    # the computed phase is rounding noise unless its error is accounted for.
    # The referee drops eps z0^2, which moves the CDF by about eps; at 1e-8
    # the guard must still let the value through
    def conditional(z):
        return norm.pdf(z) * norm.cdf(t - z * z)

    want, _ = quad(conditional, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
    form = qc.DiagonalForm(np.array([eps, 1.0]), np.array([1.0, 0.0]))
    try:
        got = qc.cdf_cf(form, t)
    except NumericalError:
        assert eps != 1e-8, "the rounding guard refused a form it can certify"
        return
    assert abs(got - want) <= 1e-6, (got, want)


def test_slow_decay_ladder_stops_at_the_phase_rounding(monkeypatch):
    # _split_rounding books 1.5e-6 for this form's phase at t = 0, and the
    # ladder's sums at M = 64, 256, 1024 and 4096 differ by 5.3e-10, 2.6e-10
    # and 1.4e-10, rounding noise far below that account: the second rung ends it
    ladder = []
    de_sum = oracle._de_sum

    def counting(*args):
        ladder.append(args[3])
        return de_sum(*args)

    monkeypatch.setattr(oracle, "_de_sum", counting)
    got = qc.cdf_cf(qc.DiagonalForm([1e-8, 1.0], [1.0, 0.0]), 0.0)
    assert ladder == [64, 256]
    assert abs(got - 0.2809852154437049) <= 1e-9


@pytest.mark.parametrize("t", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("eps", [1e-8, 1e-16, 1e-20, 1e-50, 1e-100, 1e-150, 1e-200])
def test_cdf_cf_tiny_curvature_without_shift_is_right_or_refused(eps, t):
    # T = eps z0^2 + z1^2 is chi-square(1) up to about eps, but its phase
    # settles only near u ~ 1/eps.  At t = 0 there is no oscillation, and a
    # rule that samples far past the scale of the mass near 0 misses it and
    # returns 0.5
    form = qc.DiagonalForm(np.array([eps, 1.0]), np.zeros(2))
    try:
        got = qc.cdf_cf(form, t)
    except NumericalError:
        return
    assert abs(got - chi2.cdf(t, 1)) <= 1e-6, got


@pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
def test_cdf_cf_split_head_matches_conditioning(t):
    # T = c z0^2 + z1^2 with a small curvature c: the phase settles only near
    # u ~ 1/c, long after the amplitude of the z1 coordinate has begun its
    # slow decay.  Conditioning on z0 leaves the chi-square(1) CDF at t - c z0^2
    for c in (1e-3, 1e-4):
        def conditional(z):
            return norm.pdf(z) * chi2.cdf(t - c * z * z, 1)

        reach = math.sqrt(t / c)
        want, _ = quad(conditional, -reach, reach, epsabs=1e-13, epsrel=1e-12, limit=200)
        got = qc.cdf_cf(qc.DiagonalForm(np.array([c, 1.0]), np.zeros(2)), t)
        assert abs(got - want) <= 1e-9, (c, got, want)


def test_cdf_cf_refuses_tiny_curvature_before_the_phase_overflows(monkeypatch):
    # b0^2/(4 a0) = 2.5e99: psi and the slope r u that cancels it reach
    # 2.5e99 u, so the phase rounding alone spends the accuracy budget, and
    # the refusal comes before any phase is computed.  It comes after the
    # clamp: t = -1 lies below the form's lower Chernoff radius
    def no_kernel(*args):
        raise AssertionError("the phase kernel ran")

    monkeypatch.setattr(oracle, "_phase_sums", no_kernel)
    form = qc.DiagonalForm(np.array([1e-200, 1.0]), np.array([1e-50, 0.0]))
    for t in (1.0, 3.0):
        with pytest.raises(NumericalError) as info:
            qc.cdf_cf(form, t)
        assert info.value.accuracy > 1.0
    assert qc.cdf_cf(form, -1.0) == 0.0
    # b0^2/(4 a0) overflows outright: a refusal of the form alone, kept in
    # its plan and raised only between the radii
    overflow = qc.DiagonalForm(np.array([1e-300, 1.0]), np.array([1.0, 0.0]))
    assert qc.cdf_cf(overflow, 1e10) == 1.0
    with pytest.raises(NumericalError):
        qc.cdf_cf(overflow, 2.0)


def test_cdf_cf_at_tiny_scales():
    # sd underflowed to 0 here and the clamp returned 0.0; b alone was "deterministic"
    tiny = qc.DiagonalForm(np.array([1e-170, 2e-170]), np.zeros(2))
    unit = qc.DiagonalForm(np.array([1.0, 2.0]), np.zeros(2))
    assert qc.cdf_cf(tiny, 2e-170) == pytest.approx(qc.cdf_cf(unit, 2.0), abs=1e-9)
    assert qc.cdf_cf(unit, 2.0) == pytest.approx(0.49958, abs=1e-5)
    shift = qc.DiagonalForm(np.zeros(1), np.array([1e-170]))
    assert qc.cdf_cf(shift, 1e-170) == qc.cdf_p1(0.0, 1.0, 1.0)
    assert qc.cdf_cf(shift, 1e300) == 1.0 and qc.cdf_cf(tiny, -1e300) == 0.0


@settings(max_examples=40)
@given(
    st.lists(st.floats(0.1, 4.0), min_size=1, max_size=4),
    st.integers(-1000, 1000),
    st.floats(-3.0, 3.0),
    st.data(),
)
def test_cdf_cf_scale_covariance_bitwise(mags, k, z, data):
    # cdf_cf runs on (a, b, t) normalized by a power of two, so scaling all
    # three by 2^k changes no bit of the answer, or of the refusal
    p = len(mags)
    a = np.array(mags) * np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=p,
                                                     max_size=p)))
    b = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p)))
    t = float(np.sum(a) + z * math.sqrt(np.sum(2.0 * a * a + b * b)))
    ca, cb, ct = np.ldexp(a, k), np.ldexp(b, k), float(np.ldexp(t, k))
    if not (np.array_equal(np.ldexp(ca, -k), a) and np.array_equal(np.ldexp(cb, -k), b)
            and float(np.ldexp(ct, -k)) == t):
        return  # scaling rounded an input: another question

    def outcome(form, at):
        try:
            return qc.cdf_cf(form, at).hex()
        except NumericalError as exc:
            return str(exc)

    assert outcome(qc.DiagonalForm(ca, cb), ct) == outcome(qc.DiagonalForm(a, b), t)


def test_cdf_p1_at_extreme_scales():
    # b^2 + 4at overflowed or underflowed here: 1.0, 0.0, 1.0 at 2^530,
    # 0.0, 0.9999999999999999, 0.0 at 2^-540, and 2.7e-6 off at 1e-160
    cases = {(1.0, 1.0, 1.0): 0.6788958964901445, (-3.0, 0.5, -1.0): 0.5610300762729097,
             (1.0, 0.0, 2.0): 0.8427007929497149}
    for args, want in cases.items():
        assert qc.cdf_p1(*args) == want
        for c in (2.0**530, 2.0**-530, 2.0**-540):
            assert qc.cdf_p1(*(c * v for v in args)).hex() == want.hex(), (args, c)
        assert qc.cdf_p1(*(1e-160 * v for v in args)) == pytest.approx(want, abs=1e-15)
    # t overflows once rescaled by a and b: the limiting answer, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qc.cdf_p1(1e-300, 0.0, 1e300) == 1.0
        assert qc.cdf_p1(1e-300, 0.0, -1e300) == 0.0
        assert qc.cdf_p1(-1e-300, 1e-300, 1e300) == 1.0
        assert qc.cdf_p1(-1e-300, 1e-300, -1e300) == 0.0
        assert qc.cdf_p1(0.0, 1e-300, 1e300) == 1.0


@settings(max_examples=200)
@given(
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.floats(-20.0, 20.0),
    st.integers(-1000, 1000),
)
def test_cdf_p1_scale_covariance_bitwise(a, b, t, k):
    # cdf_p1 runs on (a, b, t) normalized by a power of two, so scaling all
    # three by 2^k changes no bit of the answer
    scaled = [math.ldexp(v, k) for v in (a, b, t)]
    if [math.ldexp(v, -k) for v in scaled] != [a, b, t]:
        return  # scaling rounded an input: another question
    assert qc.cdf_p1(*scaled).hex() == qc.cdf_p1(a, b, t).hex()


def test_cdf_cf_against_monte_carlo():
    rng = np.random.default_rng(99)
    form = qc.DiagonalForm(rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8))
    draws = qc.sample(form, 200000, 31415)
    for q in (0.1, 0.5, 0.9):
        t = float(np.quantile(draws, q))
        got = qc.cdf_cf(form, t)
        p_hat = float(np.mean(draws <= t))
        assert abs(got - p_hat) < 4.0 * math.sqrt(0.25 / draws.size)


def _phase_inputs(a, b):
    # what cdf_cf hands its kernel: the a != 0 coordinates, d^2 and sigma^2
    lam = a[a != 0.0]
    delta_sq = (b[a != 0.0] / (2.0 * lam)) ** 2
    sigma_sq = float(np.sum(b[a == 0.0] ** 2))
    return lam, delta_sq, sigma_sq


def _phase_at(lam, delta_sq, sigma_sq, u):
    # (G(u), psi(u)) from the kernel at the single node u
    g, psi_u = oracle._phase_sums(lam, delta_sq, 0.5 * sigma_sq, np.array([u]))
    return float(g[0]), float(psi_u[0])


@given(
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
    st.integers(-200, 200),
    st.booleans(),
    st.lists(st.floats(-20.0, 12.0), min_size=1, max_size=12),
)
@settings(max_examples=200)
def test_phase_kernel_matches_textbook_bitwise(p, seed, k, central, log2_u):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.05, 3.0, p) * rng.choice([-1.0, 1.0], p)
    a[rng.random(p) < 0.25] = 0.0
    a[0] = a[0] or 1.0  # at least one quadratic coordinate
    b = np.zeros(p) if central else rng.uniform(-3.0, 3.0, p)
    lam, delta_sq, sigma_sq = _phase_inputs(a * 2.0**k, b * 2.0**k)
    # nodes from deep in the head, 2^-20 times the scale on which the phase
    # settles, far out into the tail
    u_settle = 5.0 * float(np.sum((1.0 + delta_sq) / np.abs(lam)))
    for e in log2_u:
        u = u_settle * 2.0**e
        want = (g_decay(lam, delta_sq, sigma_sq, u).hex(), psi(lam, delta_sq, u).hex())
        assert tuple(x.hex() for x in _phase_at(lam, delta_sq, sigma_sq, u)) == want, u


@pytest.mark.parametrize("p", [24, 96, 300])
def test_phase_kernel_matches_textbook_bitwise_at_large_p(p):
    # the benchmark's sizes, and one past numpy's 128-element pairwise block
    rng = np.random.default_rng(p)
    lam, delta_sq, sigma_sq = _phase_inputs(*rng.normal(size=(2, p)))
    nodes = np.geomspace(1e-4, 1e4, 41)
    # both paths of cdf_cf evaluate their nodes as one vector, a row of terms each
    column = zip(*(x.tolist() for x in oracle._phase_sums(lam, delta_sq, 0.5 * sigma_sq, nodes)))
    for u, at_u in zip(nodes.tolist(), column):
        want = [x.hex() for x in (g_decay(lam, delta_sq, sigma_sq, u), psi(lam, delta_sq, u))]
        assert [x.hex() for x in _phase_at(lam, delta_sq, sigma_sq, u)] == want, u
        assert [x.hex() for x in at_u] == want, u


def _cold_cdf_cf(form, t):
    # cdf_cf with the plan cache emptied first: any plan made afresh
    oracle._slot = (None, None)
    return qc.cdf_cf(form, t)


def _thresholds(form, count):
    stats = qc.form_stats(form)
    sd = math.sqrt(float(np.sum(2.0 * np.square(form.a) + np.square(form.b))))
    return (stats.mean + sd * np.linspace(-2.0, 3.0, count)).tolist()


def _on_trapezoid_path(form, t):
    # cdf_cf(form, t) and whether the plan now cached sums over a node grid
    value = qc.cdf_cf(form, t)
    return value, oracle._slot[1][3].__qualname__.startswith("_node_grid.")


def test_grid_cache_shared_across_forms_gives_cold_bits():
    # A and 2A normalize to one form; A's twin holds -0.0 where A holds 0.0,
    # so it is == A and reuses A's grid; B takes the slow-decay path and
    # evicts it, and A0, A's a without its b, has a grid of its own.
    # Interleaved, every value must have the bits of a call that starts
    # from an empty cache
    rng = np.random.default_rng(24)
    a, b = rng.normal(size=(2, 24))
    a[::6] = b[1::6] = 0.0
    form_a = qc.DiagonalForm(a, b)
    twin = qc.DiagonalForm(np.where(a == 0.0, -0.0, a), np.where(b == 0.0, -0.0, b))
    assert twin == form_a and str(twin.a[0]) == str(twin.b[1]) == "-0.0"
    form_b = qc.DiagonalForm(np.array([1.0, -0.5]), np.array([0.3, 2.0]))
    form_2a = qc.DiagonalForm(2.0 * a, 2.0 * b)
    form_a0 = qc.DiagonalForm(a, np.zeros(24))
    assert _on_trapezoid_path(form_a, 0.0)[1] and not _on_trapezoid_path(form_b, 0.0)[1]
    cases = []
    for t_a, t_b in zip(_thresholds(form_a, 20), _thresholds(form_b, 20)):
        cases += [(form_a, t_a), (form_b, t_b), (form_2a, 2.0 * t_a), (form_a, -t_a),
                  (twin, -t_a), (form_a0, t_a)]
    warm = [qc.cdf_cf(form, t).hex() for form, t in cases]
    cold = [_cold_cdf_cf(form, t).hex() for form, t in cases]
    assert warm == cold
    assert warm[0::6] == warm[2::6]  # scaling by 2 moves no bit
    assert warm[3::6] == warm[4::6]


def test_grid_cache_concurrent_calls_match_serial_bits():
    # four threads on two forms, one on each path, with a short switch
    # interval: the threads take the cache slot from each other mid-call,
    # and every value must still have the bits of a serial call
    import threading

    rng = np.random.default_rng(48)
    forms = [
        qc.DiagonalForm(rng.normal(size=24), rng.normal(size=24)),
        qc.DiagonalForm(np.array([1.0, -0.5]), np.array([0.3, 2.0])),
    ]
    jobs = [[(form, t) for t in _thresholds(form, 12)] for form in forms]
    jobs += [job[::-1] for job in jobs]
    serial = [[_cold_cdf_cf(form, t).hex() for form, t in job] for job in jobs]
    oracle._slot = (None, None)
    got = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def worker(k):
        start.wait()
        got[k] = [qc.cdf_cf(form, t).hex() for form, t in jobs[k]]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == serial


def test_grid_cache_builds_no_grid_on_a_seen_form(monkeypatch):
    builds = []
    node_grid = oracle._node_grid

    def counting_node_grid(*args):
        builds.append(args)
        return node_grid(*args)

    monkeypatch.setattr(oracle, "_node_grid", counting_node_grid)
    rng = np.random.default_rng(24)
    form = qc.DiagonalForm(rng.normal(size=24), rng.normal(size=24))
    counts = []
    for t in (3.0, 1.0, -2.0):
        before = len(builds)
        qc.cdf_cf(form, t)
        counts.append(len(builds) - before)
    assert counts == [1, 0, 0]
    assert _on_trapezoid_path(form, 3.0)[1]


def test_plan_cache_sets_up_the_slow_decay_path_once(monkeypatch):
    # chi-square(3) takes the slow-decay path; its damping end, like the
    # rest of its plan, is found on the first call only
    ends = []
    damping_end = oracle._damping_end

    def counting_damping_end(*args):
        ends.append(args)
        return damping_end(*args)

    monkeypatch.setattr(oracle, "_damping_end", counting_damping_end)
    warm = [_on_trapezoid_path(CHI3, t) for t in (1.0, 3.0, 6.0)]
    assert len(ends) == 1 and not any(on for _, on in warm)
    assert [v for v, _ in warm] == [_cold_cdf_cf(CHI3, t) for t in (1.0, 3.0, 6.0)]


def test_grid_cache_warm_calls_skip_normalizing_the_form(monkeypatch):
    # calls 2-32 on the same form object find it in the slot and go
    # straight to the grid, with the bits of cold calls; a distinct form
    # with equal values is found by its value and builds no grid
    binades, builds = [], []
    binade, node_grid = oracle._binade, oracle._node_grid

    def counting_binade(*args):
        binades.append(args)
        return binade(*args)

    def counting_node_grid(*args):
        builds.append(args)
        return node_grid(*args)

    monkeypatch.setattr(oracle, "_binade", counting_binade)
    monkeypatch.setattr(oracle, "_node_grid", counting_node_grid)
    rng = np.random.default_rng(32)
    form = qc.DiagonalForm(rng.normal(size=24), rng.normal(size=24))
    ts = _thresholds(form, 32)
    warm = [qc.cdf_cf(form, ts[0]).hex()]
    assert (len(binades), len(builds)) == (1, 1)
    warm += [qc.cdf_cf(form, t).hex() for t in ts[1:]]
    assert (len(binades), len(builds)) == (1, 1)
    cold = [_cold_cdf_cf(form, t).hex() for t in ts]
    assert warm == cold
    twin = qc.DiagonalForm(list(form.a), list(form.b))
    assert twin.a is not form.a and twin == form
    builds.clear()
    assert [qc.cdf_cf(twin, t).hex() for t in ts] == cold
    assert builds == []
    # a form holding form's very a tuple, but its own b, is not form
    other = qc.DiagonalForm(form.a, np.zeros(24))
    object.__setattr__(other, "a", form.a)
    qc.cdf_cf(form, ts[0])
    assert qc.cdf_cf(other, ts[0]).hex() == _cold_cdf_cf(other, ts[0]).hex()
    assert len(builds) == 2


def test_chernoff_radius_is_no_larger_than_a_dense_grid():
    # the Newton root of s K'(s) - K(s) = _TAIL_LOG against the least
    # (K(s) + _TAIL_LOG)/s over a grid of s: geometric below the end of the
    # range and crowding towards it, 2^(1/4) apart (318 values) or 2^(1/64)
    # apart, close enough to the least value to catch a radius below it
    def grid_radius(lam, half_b_sq, half_sigma_sq, sd, step):
        top = float(np.max(lam))
        s_hi = 2.0**20 / sd if top <= 0.0 else min(0.5 / top, 2.0**20 / sd)
        x = 2.0 ** -np.arange(step, 40.0, step)
        s = s_hi * np.concatenate([x, 1.0 - x])
        two_as = 2.0 * np.multiply.outer(s, lam)
        k = np.multiply.outer(s * s, half_b_sq) / (1.0 - two_as) - 0.5 * np.log1p(-two_as)
        return float(np.min((k.sum(axis=1) + half_sigma_sq * s * s + oracle._TAIL_LOG) / s))

    rng = np.random.default_rng(318)
    cases = [(np.full(24, 0.5), np.zeros(24), 0.0), (np.ones(3), np.zeros(3), 0.0),
             (-np.ones(5), np.full(5, 0.3), 0.0), (np.array([1e-8, 0.5]), np.zeros(2), 0.25)]
    for form, _ in _matrix_like_forms():
        a, b = np.array(form.a), np.array(form.b)
        e = math.frexp(float(max(np.max(np.abs(a)), np.max(np.abs(b)))))[1]
        cases.append((np.ldexp(a, -e), np.ldexp(b, -e), 0.0))
    for _ in range(40):
        p = int(rng.integers(1, 60))
        cases.append((rng.uniform(-1.0, 1.0, p) * rng.choice([1e-3, 1.0], p),
                      rng.uniform(-1.0, 1.0, p) * rng.integers(0, 2), rng.uniform(0.0, 0.5)))
    for lam, b, sigma_sq in cases:
        sd = math.sqrt(float(np.sum(2.0 * lam * lam + b * b)) + sigma_sq)
        for sign in (1.0, -1.0):
            args = (sign * lam, 0.5 * b * b, 0.5 * sigma_sq, sd)
            got = oracle._chernoff_radius(*args)
            coarse, fine = grid_radius(*args, 0.25), grid_radius(*args, 2.0**-6)
            assert fine - 1e-4 * abs(fine) <= got <= coarse + 1e-14 * abs(coarse), (got, fine)


@pytest.mark.parametrize("p", [24, 96])
def test_cdf_cf_trapezoid_matches_chi_square(p):
    form = qc.DiagonalForm(np.ones(p), np.zeros(p))
    for q in (1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-8):
        t = float(chi2.ppf(q, p))
        got, trapezoid = _on_trapezoid_path(form, t)
        assert trapezoid
        assert got == pytest.approx(chi2.cdf(t, p), abs=1e-9), (q, got)


def test_cdf_cf_trapezoid_matches_noncentral_chi_square():
    # z^2 + 0.5 z = (z + 1/4)^2 - 1/16, so T + 24/16 is chi-square(24)
    # with noncentrality 24/16
    p, shift = 24, 0.5
    form = qc.DiagonalForm(np.ones(p), np.full(p, shift))
    offset = p * shift * shift / 4.0
    for q in (1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-8):
        t = float(ncx2.ppf(q, p, offset)) - offset
        got, trapezoid = _on_trapezoid_path(form, t)
        assert trapezoid
        assert got == pytest.approx(ncx2.cdf(t + offset, p, offset), abs=1e-9), (q, got)


def _matrix_like_forms():
    # what the benchmark's matrix-exact workload feeds cdf_cf: the diagonal
    # form of a Gaussian p x p matrix, central and shifted, and its
    # thresholds at a few tail exponents on both sides
    rng = np.random.default_rng(2024)
    for p in (24, 48, 96):
        for shifted in (False, True):
            scale = math.exp(rng.uniform(-1.0, 1.0))
            mat = rng.normal(size=(p, p)) * scale
            b = rng.normal(size=p) * scale if shifted else np.zeros(p)
            form = qc.reduce(qc.QuadraticForm(mat, b)).diagonal_form()
            stats = qc.form_stats(form)
            ts = [one(stats, x).threshold for x in (0.25, 1.0, 4.0, 8.0)
                  for one in (qc.upper_threshold, qc.lower_threshold)]
            yield form, ts


def test_cdf_cf_trapezoid_matches_slow_decay_path(monkeypatch):
    forms = list(_matrix_like_forms())
    trapezoid = []
    for form, ts in forms:
        values = [_on_trapezoid_path(form, t) for t in ts]
        assert all(on for _, on in values)
        trapezoid.append([v for v, _ in values])
    monkeypatch.setattr(oracle, "_NODE_BUDGET", 0)
    for (form, ts), want in zip(forms, trapezoid):
        for t, value in zip(ts, want):
            got, on = _on_trapezoid_path(form, t)
            assert not on
            assert abs(got - value) <= 1e-9, (form.p, t, got, value)


@settings(max_examples=30)
@given(st.sampled_from([24, 96]), st.integers(0, 2**31 - 1), st.integers(-1000, 1000),
       st.floats(-3.0, 3.0), st.booleans())
def test_cdf_cf_trapezoid_scale_covariance_bitwise(p, seed, k, z, central):
    # the grid is built on the normalized form, so scaling the form and t
    # by 2^k changes no bit of the answer
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 4.0, p) * rng.choice([-1.0, 1.0], p)
    b = np.zeros(p) if central else rng.uniform(-3.0, 3.0, p)
    t = float(np.sum(a) + z * math.sqrt(np.sum(2.0 * a * a + b * b)))
    ca, cb, ct = np.ldexp(a, k), np.ldexp(b, k), math.ldexp(t, k)
    assert np.array_equal(np.ldexp(ca, -k), a) and np.array_equal(np.ldexp(cb, -k), b)
    want, trapezoid = _on_trapezoid_path(qc.DiagonalForm(a, b), t)
    assert trapezoid
    assert _cold_cdf_cf(qc.DiagonalForm(ca, cb), ct).hex() == want.hex()


def test_cdf_cf_clamps_past_the_chernoff_radii():
    # a = 1/2 is already normalized, so the plan's radii are in t's units;
    # chi-square(24)/2 puts less than e^-30 beyond each of them
    form = qc.DiagonalForm(np.full(24, 0.5), np.zeros(24))
    qc.cdf_cf(form, 12.0)
    plan = oracle._slot[1]
    e, lo, hi, _ = plan
    assert e == 0
    assert chi2.cdf(2.0 * lo, 24) <= math.exp(-30.0)
    assert chi2.sf(2.0 * hi, 24) <= math.exp(-30.0)
    assert qc.cdf_cf(form, float(np.nextafter(lo, -np.inf))) == 0.0
    assert qc.cdf_cf(form, float(np.nextafter(hi, np.inf))) == 1.0
    assert qc.cdf_cf(form, hi) == pytest.approx(1.0, abs=1e-12)
    assert oracle._slot[1] is plan
    # the slow-decay path clamps at its radii too: chi-square(3) puts less
    # than e^-30 above 72.557, and 73 lies past that
    qc.cdf_cf(CHI3, 3.0)
    e, _, hi, _ = oracle._slot[1]
    assert 72.5 < math.ldexp(hi, e) < 73.0 and chi2.sf(math.ldexp(hi, e), 3) <= math.exp(-30.0)
    assert qc.cdf_cf(CHI3, 73.0) == 1.0


def test_cdf_cf_over_budget_form_takes_the_slow_decay_path():
    # chi-square(3) decays like u^(-3/2): the grid would need millions of nodes
    assert _on_trapezoid_path(CHI3, 3.0) == (pytest.approx(0.6083748237289109, abs=1e-9), False)


def test_matrix_and_diagonal_samplers_agree_in_law():
    rng = np.random.default_rng(12)
    mat = rng.normal(size=(5, 5))
    b = rng.normal(size=5)
    qf = qc.QuadraticForm(mat, b)
    direct = chunk_loop(qf, 10**5, 111, oracle.DEFAULT_CHUNK, matrix=True)
    reduced = qc.sample(qc.reduce(qf).diagonal_form(), 10**5, 222)
    assert ks_2samp(direct, reduced).pvalue > 1e-3
