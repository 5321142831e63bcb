"""Log-MGF terms, the quadratic-over-linear envelope, and grid checks.

The quadrature oracle integrates exp(y(a v^2 + b v)) against the Gaussian
weight directly.  Under the tilt the integrand is Gaussian with mean
y b/(1-2ay) and scale 1/sqrt(1-2ay), so a window of 14 scales around that
mean captures the mass to far below the comparison tolerance.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from _scalar_lemma import check_scalar_ineq, scalar_ineq_grid
from scipy.integrate import quad

import quadconc as qc
from quadconc.errors import DomainError, ValidationError
from quadconc import mgf
from quadconc.mgf import LINEAR_ONLY_Y_MAX, envelope_y_grid

CHI1 = qc.DiagonalForm(np.ones(1), np.zeros(1))


def mgf_quad(a, b, y):
    """Independent oracle for E exp(y (a z^2 + b z)) by direct integration."""
    assert 1.0 - 2.0 * a * y > 0.0
    scale = 1.0 / math.sqrt(1.0 - 2.0 * a * y)
    center = y * b * scale * scale

    def integrand(v):
        return math.exp(y * (a * v * v + b * v) - 0.5 * v * v) / math.sqrt(2.0 * math.pi)

    lo, hi = center - 14.0 * scale, center + 14.0 * scale
    val, err = quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def test_log_mgf_term_frozen():
    # a = 1, y = 1/4: -(1/2) log(1/2) = log(2)/2
    assert qc.log_mgf_term(1.0, 0.0, 0.25) == pytest.approx(0.34657359027997264, rel=1e-15)
    assert qc.log_mgf_term(1.0, 0.0, 0.0) == 0.0
    assert qc.log_mgf_term(0.0, 1.0, 0.5) == pytest.approx(0.125, rel=1e-15)
    # numpy scalars and 0-d arrays are scalars too
    want = qc.log_mgf_term(1.0, 0.5, 0.1)
    assert qc.log_mgf_term(np.float64(1.0), np.array(0.5), np.array(0.1)) == want


def test_log_mgf_centered_frozen():
    assert qc.log_mgf_centered(CHI1, 0.25) == pytest.approx(0.09657359027997264, rel=1e-13)
    assert qc.log_mgf_centered(CHI1, 0.0) == 0.0


def test_log_mgf_against_quadrature():
    cases = [
        (1.0, 0.0, 0.25),
        (0.8, 1.2, 0.3),
        (-1.5, 0.5, 0.2),
        (0.0, 1.0, 0.7),
        (2.0, -1.0, 0.2),
        (-3.0, 2.0, 0.1),
    ]
    for a, b, y in cases:
        want = math.log(mgf_quad(a, b, y))
        got = qc.log_mgf_term(a, b, y)
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_log_mgf_small_y_expansion():
    # centered term behaves like (a^2 + b^2/2) y^2 as y -> 0
    a, b = 1.3, 0.7
    form = qc.DiagonalForm(np.array([a]), np.array([b]))
    lead = (a * a + 0.5 * b * b)
    errs = []
    for y in (1e-3, 1e-4, 1e-5):
        got = qc.log_mgf_centered(form, y)
        errs.append(abs(got / (lead * y * y) - 1.0))
    assert errs[0] < 0.01
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_log_mgf_domain():
    with pytest.raises(DomainError):
        qc.log_mgf_term(1.0, 0.0, 0.5)  # pole at y = 1/2
    with pytest.raises(DomainError):
        qc.log_mgf_term(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        qc.log_mgf_centered(CHI1, 0.5)
    # negative y is fine for the raw term (two-sided transform)
    assert math.isfinite(qc.log_mgf_term(1.0, 1.0, -3.0))


def test_log_mgf_at_extreme_scales():
    # b^2 y^2 overflowed (or b^2 underflowed) and the terms came out NaN; they
    # run on (a, b) * 2^-e and y * 2^e now.  Values are the exact logs
    # rounded to double for the float inputs as given.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qc.log_mgf_term(1e-200, 1e-200, 1e199) == 0.11782177565710489
        assert qc.log_mgf_term(1e200, 1e200, 1e-201) == 0.11782177565710486
        # a form and its 2^-700 multiple, at y and y * 2^700: the same bits
        a, b, y = np.array([0.75, -1.5, 0.0]), np.array([1.0, 0.5, -2.0]), 0.25
        tiny = qc.DiagonalForm(np.ldexp(a, -700), np.ldexp(b, -700))
        want = qc.log_mgf_centered(qc.DiagonalForm(a, b), y)
        assert qc.log_mgf_centered(tiny, math.ldexp(y, 700)).hex() == want.hex()


def test_log_mgf_term_where_b_squared_y_squared_overflows():
    # b^2 y^2 passes the float range, but 1 - 2ay brings the term back: the
    # term is about y/4 in the first case and -log(2y)/2 in the second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qc.log_mgf_term(-1.0, 1.0, 1e160) == 2.5e159
        assert qc.log_mgf_term(-1.0, 1e-100, 1e160) == pytest.approx(
            -0.5 * math.log(2e160), rel=1e-15
        )


def test_envelope_grid_near_the_float_limits():
    # the grid is spread for the rescaled pole: y_max * n does not overflow
    # for an a_plus near the bottom of the normal range
    low = qc.envelope_grid_check(qc.DiagonalForm(np.array([1e-306]), np.zeros(1)), 4096)
    assert low.ok and low.y_max == pytest.approx(0.999 / 2e-306, rel=1e-15)
    # a_plus about 2^-1030 times the largest coefficient puts the rescaled grid
    # past the float range; refused like any grid that leaves it
    for a, b in (([1e-300], [1e10]), ([-1e10, 1e-300], [0.0, 0.0])):
        with pytest.raises(ValidationError, match="float range"):
            qc.envelope_grid_check(qc.DiagonalForm(np.array(a), np.array(b)), 16)


def test_envelope_rhs_frozen():
    stats = qc.FormStats(mean=1.0, u=math.sqrt(1.0625), a_plus=1.0, a_minus=0.0)
    env = qc.MgfEnvelope.from_stats(stats)
    assert env.rhs(0.25) == pytest.approx(0.1328125, rel=1e-15)
    with pytest.raises(DomainError):
        env.rhs(0.5)  # at the pole
    with pytest.raises(DomainError):
        env.rhs(0.0)
    with pytest.raises(DomainError):
        env.rhs(-0.1)


def test_envelope_object_matches_function():
    stats = qc.FormStats(mean=1.0, u=math.sqrt(1.0625), a_plus=1.0, a_minus=0.0)
    env = qc.MgfEnvelope.from_stats(stats)
    assert (env.u, env.v) == stats.envelope("upper") == (stats.u, 2.0 * stats.a_plus)
    # one kernel: a grid of points gives each point's value bit for bit
    ys = np.array([0.25, 0.125, 0.4])
    assert env.rhs(ys).tolist() == [env.rhs(y) for y in ys.tolist()]
    with pytest.raises(DomainError):
        env.rhs(np.array([0.25, 0.5]))
    lower = qc.MgfEnvelope.from_stats(
        qc.FormStats(mean=0.0, u=1.0, a_plus=3.0, a_minus=0.5), "lower"
    )
    assert lower.v == 1.0


def test_check_scalar_ineq_frozen():
    lhs, rhs, holds = check_scalar_ineq(-1.0, 1.0, 0.25)
    assert lhs == pytest.approx(0.04726744594591781, rel=1e-13)
    assert rhs == pytest.approx(0.125, rel=1e-15)
    assert holds
    lhs, rhs, holds = check_scalar_ineq(1.0, 1.0, 0.125)
    assert lhs == pytest.approx(0.01884103622589045, rel=1e-13)
    assert rhs == pytest.approx(0.020833333333333332, rel=1e-13)
    assert holds
    # equality case r = a: lhs touches the centered term itself
    lhs, rhs, holds = check_scalar_ineq(1.0, 1.0, 0.25)
    assert holds and lhs <= rhs


def test_check_scalar_ineq_domain():
    with pytest.raises(DomainError):
        check_scalar_ineq(1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        check_scalar_ineq(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        check_scalar_ineq(3.0, 1.0, 0.2)  # 1 - 2ry <= 0


def test_envelope_y_grid_shape():
    ys = envelope_y_grid(2.0, 100)
    assert ys.shape == (100,)
    assert ys[0] > 0.0
    assert np.all(np.diff(ys) > 0)
    assert ys[-1] == pytest.approx(0.999 / 4.0, rel=1e-15)
    flat = envelope_y_grid(0.0, 10)
    assert flat[-1] == LINEAR_ONLY_Y_MAX


def test_envelope_grid_random_forms():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = int(rng.integers(1, 11))
        form = qc.DiagonalForm(rng.uniform(-5, 5, p), rng.uniform(-5, 5, p))
        check = qc.envelope_grid_check(form, 128)
        assert check.ok, (form.a, form.b, check.max_slack)
        assert check.violations == 0
        assert check.grid_size == 128


def test_envelope_grid_is_scale_safe():
    # with a_plus = 1e-170 the grid reaches y = 5e169, whose square overflowed;
    # it runs in normalized units now, with the bits of the unit-scale form
    unit = qc.envelope_grid_check(qc.DiagonalForm(np.array([1.0]), np.array([1.0])), 16)
    for k in (-1000, -565, 500, 1000):
        c = 2.0**k
        got = qc.envelope_grid_check(qc.DiagonalForm(np.array([c]), np.array([c])), 16)
        assert got.max_slack == unit.max_slack and got.violations == unit.violations == 0
        assert (got.y_max, got.worst_y) == (unit.y_max / c, unit.worst_y / c)
    tiny = qc.envelope_grid_check(qc.DiagonalForm(np.array([1e-170]), np.array([1e-170])), 16)
    assert tiny.ok and tiny.y_max == pytest.approx(0.999 / 2e-170, rel=1e-15)
    # without a pole the grid reaches y = 10 in the form's units: b^2 y^2 overflows
    with pytest.raises(ValidationError, match="float range"):
        qc.envelope_grid_check(qc.DiagonalForm(np.zeros(1), np.array([1e160])), 16)
    # a pole at y = 5e319 is past the float range; the MGF does not diverge on the grid
    for a in ([1e-320], [-1.0, 1e-310]):
        form = qc.DiagonalForm(np.array(a), np.zeros(len(a)))
        with pytest.raises(ValidationError, match="float range"):
            qc.envelope_grid_check(form, 16)


def test_scalar_grid_quick():
    check = scalar_ineq_grid(16)
    assert check.ok
    assert check.violations == 0
    assert check.points == 16**3


def test_grid_sizes_accept_numpy_ints_reject_bools():
    form = qc.DiagonalForm(np.array([1.0, -0.5]), np.array([0.3, 2.0]))
    plain = qc.envelope_grid_check(form, 64)
    got = qc.envelope_grid_check(form, np.int64(64))
    assert got == plain and type(got.grid_size) is int
    assert scalar_ineq_grid(np.int32(16)) == scalar_ineq_grid(16)
    assert np.array_equal(envelope_y_grid(2.0, np.uint8(10)), envelope_y_grid(2.0, 10))
    for bad in (True, False, np.bool_(True), 64.0):
        with pytest.raises(ValidationError):
            qc.envelope_grid_check(form, bad)
        with pytest.raises(ValidationError):
            scalar_ineq_grid(bad)


def test_chernoff_closure():
    # at the optimizing y the penalized envelope equals -x exactly
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = int(rng.integers(1, 8))
        form = qc.DiagonalForm(rng.uniform(-3, 3, p), rng.uniform(-3, 3, p))
        stats = qc.form_stats(form)
        if stats.u == 0.0:
            continue
        env = qc.MgfEnvelope.from_stats(stats)
        for x in (0.5, 2.0):
            dev = qc.envelope_threshold(env.u, env.v, x)
            y_star = math.sqrt(x) / (env.u + env.v * math.sqrt(x))
            ys = list(envelope_y_grid(stats.a_plus, 512))
            ys.append(y_star)
            vals = [env.rhs(y) - y * dev for y in ys if env.v * y < 1.0]
            best = min(vals)
            assert best <= -x + 1e-6
            assert best >= -x - 1e-9 * (1.0 + x)


def whole_grid_sums(form, ys):
    """Referee: the centered log-MGF sums formed on the whole (p, n) grid at once.

    This is the whole-array formula the blocked kernel replaced, operation
    for operation: products scaled by the form's power of two, the
    b^2 y^2 overflow fallback, log1p, then one sum over the coefficients.
    """
    a, b = np.array(form.a), np.array(form.b)
    e = math.frexp(float(max(np.max(np.abs(a)), np.max(np.abs(b)))))[1]
    a_s, b_s, y_s = np.ldexp(a, -e), np.ldexp(b, -e), np.ldexp(ys, e)
    with np.errstate(over="ignore", invalid="ignore"):
        q = -2.0 * np.outer(a_s, y_s)
        assert np.all(1.0 + q > 0.0)
        terms = np.outer(np.square(b_s), np.square(y_s))
        terms *= 0.5
        terms /= 1.0 + q
        if not math.isfinite(terms.max()):
            lost = ~np.isfinite(terms)
            by = np.outer(b_s, y_s)[lost]
            terms[lost] = 0.5 * by * (by / (1.0 + q[lost]))
        terms -= 0.5 * np.log1p(q)
        return np.sum(terms + 0.5 * q, axis=0)


def whole_grid_check(form, n):
    """Referee: envelope_grid_check's five fields from the whole-grid sums."""
    stats = qc.form_stats(form)
    ys = envelope_y_grid(stats.a_plus, n)
    rhs = qc.MgfEnvelope.from_stats(stats).rhs(ys)
    slack = whole_grid_sums(form, ys) - rhs
    worst = int(np.argmax(slack))
    violations = int(np.count_nonzero(slack > mgf.ENVELOPE_SLACK * (1.0 + np.abs(rhs))))
    return (ys.size, float(ys[-1]).hex(), float(slack[worst]).hex(), float(ys[worst]).hex(),
            violations)


@pytest.mark.parametrize(
    "p, n, shifted",
    [
        (5, 512, True),  # one block
        (24, 3000, True),  # 1365-column blocks and a ragged last block of 270
        (24, 2731, False),  # a lone last column joins the block before it
        (48, 4096, False),
        (96, 4096, True),
        (2**15 + 3, 5, True),  # more coefficients than a block's cells: two columns a block
        (2**15 + 3, 1, False),  # one column, summed pairwise, as the whole grid sums it
    ],
)
def test_envelope_grid_blocks_match_the_whole_grid_bitwise(p, n, shifted):
    rng = np.random.default_rng(p * n)
    a = rng.normal(size=p) * math.exp(rng.uniform(-3.0, 3.0))
    b = rng.normal(size=p) if shifted else np.zeros(p)
    form = qc.DiagonalForm(a, b)
    ys = envelope_y_grid(qc.form_stats(form).a_plus, n)
    assert mgf._centered_sums(form.a, form.b, ys).tobytes() == whole_grid_sums(form, ys).tobytes()
    got = qc.envelope_grid_check(form, n)
    want = whole_grid_check(form, n)
    assert (got.grid_size, got.y_max.hex(), got.max_slack.hex(), got.worst_y.hex(),
            got.violations) == want


def test_envelope_grid_fallback_spans_blocks_bitwise():
    # a_plus = 1e-170 stretches the grid to y = 5e169, where b^2 y^2 overflows
    # in every block past the first few columns and the fallback forms the
    # terms; their sums keep the whole grid's bits
    form = qc.DiagonalForm(np.array([-1.0, 1e-170]), np.array([1.0, 0.0]))
    ys = envelope_y_grid(qc.form_stats(form).a_plus, 3 * 2**14 + 7)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.square(np.ldexp(ys, 1))).all()
    got = mgf._centered_sums(form.a, form.b, ys)
    assert np.isfinite(got).all()
    assert got.tobytes() == whole_grid_sums(form, ys).tobytes()


def test_envelope_grid_refusals_span_blocks():
    # the overflow and pole refusals of test_envelope_grid_is_scale_safe, on
    # a grid of several blocks
    n = 3 * mgf._BLOCK_CELLS + 1
    with pytest.raises(ValidationError, match="float range"):
        qc.envelope_grid_check(qc.DiagonalForm(np.zeros(1), np.array([1e160])), n)
    for a in ([1e-320], [-1.0, 1e-310]):
        form = qc.DiagonalForm(np.array(a), np.zeros(len(a)))
        with pytest.raises(ValidationError, match="float range"):
            qc.envelope_grid_check(form, n)


def test_log_mgf_domain_error_names_the_first_pole_cell():
    # the pole is checked at the least and the largest y, where each row's
    # 1 - 2ay is least, and the error names the first coefficient, then
    # the first y, that reaches it, as a check of every cell would
    a = np.array([-1.0, 0.5, 2.0])
    cases = [
        ([0.1, 0.2, 0.3, 0.6, 1.2], r"k=1: .* \(a=0\.5, y=1\.2\)"),
        ([0.1, 0.2, 0.3, 0.6], r"k=2: .* \(a=2\.0, y=0\.3\)"),
        ([0.6, 0.1, 1.2, 0.2], r"k=1: .* \(a=0\.5, y=1\.2\)"),
        ([0.2, -0.6, 0.1], r"k=0: .* \(a=-1\.0, y=-0\.6\)"),
    ]
    for ys, match in cases:
        with pytest.raises(DomainError, match=match):
            mgf._centered_sums(a, np.zeros(3), np.array(ys))


def test_envelope_grid_memory_is_one_block():
    # at p = 96, n = 4096 the whole grid holds 3 MB a (p, n) array; the
    # blocked kernel holds three buffers of about _BLOCK_CELLS cells each
    rng = np.random.default_rng(96)
    form = qc.DiagonalForm(rng.normal(size=96), rng.normal(size=96))
    qc.envelope_grid_check(form, 4096)
    tracemalloc.start()
    try:
        qc.envelope_grid_check(form, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 96 * 4096 * 8, peak
