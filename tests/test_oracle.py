"""Sampling determinism, binomial intervals, and the two distribution oracles.

cdf_cf reference values were frozen after cross-checking against an
independent conditioning quadrature (integrate the p=1 closed form against
the Gaussian weight of the remaining coordinate, adaptive quad); the two
routes agreed to ~1e-15 on every probe.
"""

import math

import numpy as np
import pytest
from scipy.stats import beta, chi2, ks_2samp, ncx2, norm

import quadconc as qc
from quadconc import oracle
from quadconc.errors import DegenerateFormError, ValidationError

CHI1 = qc.DiagonalForm(np.ones(1), np.zeros(1))
CHI3 = qc.DiagonalForm(np.ones(3), np.zeros(3))

# frozen reference points (see module docstring)
HETERO_CDF_AT_50 = 0.5206085305269479  # a = (100, -0.001), b = (5, 1)
MIXED_CDF_AT_1 = 0.7613525340395519  # a = (1, -1), b = (1, 1)
CP_ZERO_HIGH = 5.298303330489367e-06  # k = 0, n = 1e6, 99% two-sided


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


def test_sample_chunk_size_changes_stream_layout():
    form = qc.DiagonalForm(np.ones(2), np.zeros(2))
    default = qc.sample(form, 1000, 5)
    small = qc.sample(form, 1000, 5, chunk_size=128)
    # different chunking is a different (still deterministic) stream
    assert small.shape == default.shape
    assert np.array_equal(small, qc.sample(form, 1000, 5, chunk_size=128))


def test_sample_degenerate_form_is_constant():
    form = qc.DiagonalForm(np.zeros(2), np.zeros(2))
    assert np.array_equal(qc.sample(form, 100, 0), np.zeros(100))


def test_sample_moments():
    n = 10**5
    draws = qc.sample(CHI1, n, 2024)
    # z^2 has mean 1, variance 2
    assert abs(draws.mean() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert abs(draws.var() - 2.0) < 0.1


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
        with pytest.raises(ValidationError):
            qc.sample(CHI1, 10, 1, chunk_size=bad)
    assert oracle._check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    assert np.array_equal(qc.sample(CHI1, np.int64(100), np.int64(5)), qc.sample(CHI1, 100, 5))


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
        qc.TailEstimate(p_hat=0.5, ci_low=0.6, ci_high=0.7, n=10, seed=0)
    with pytest.raises(ValidationError):
        qc.empirical_tail(np.arange(10.0), math.nan, "upper")
    with pytest.raises(ValidationError):
        qc.empirical_tail(np.arange(10.0), 1.0, "both")


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


def test_cdf_cf_matches_chi_square():
    assert qc.cdf_cf(CHI1, 3.841) == pytest.approx(qc.cdf_p1(1.0, 0.0, 3.841), abs=1e-9)
    assert qc.cdf_cf(CHI3, 3.0) == pytest.approx(0.6083748237289109, abs=1e-9)


def test_cdf_cf_frozen_hard_cases():
    hetero = qc.DiagonalForm(np.array([100.0, -0.001]), np.array([5.0, 1.0]))
    assert qc.cdf_cf(hetero, 50.0) == pytest.approx(HETERO_CDF_AT_50, abs=1e-9)
    mixed = qc.DiagonalForm(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    assert qc.cdf_cf(mixed, 1.0) == pytest.approx(MIXED_CDF_AT_1, abs=1e-9)


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


def test_cdf_cf_against_monte_carlo():
    rng = np.random.default_rng(99)
    form = qc.DiagonalForm(rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8))
    draws = qc.sample(form, 200000, 31415)
    for q in (0.1, 0.5, 0.9):
        t = float(np.quantile(draws, q))
        got = qc.cdf_cf(form, t)
        p_hat = float(np.mean(draws <= t))
        assert abs(got - p_hat) < 4.0 * math.sqrt(0.25 / draws.size)


def test_matrix_and_diagonal_samplers_agree_in_law():
    rng = np.random.default_rng(12)
    mat = rng.normal(size=(5, 5))
    b = rng.normal(size=5)
    qf = qc.QuadraticForm(mat, b)
    direct = qc.sample_quadratic(qf, 10**5, 111)
    reduced = qc.sample(qc.reduce(qf).diagonal_form(), 10**5, 222)
    assert ks_2samp(direct, reduced).pvalue > 1e-3
