"""Threshold arithmetic, inversion, and the duality/monotonicity contracts.

Reference values were frozen from independent closed-form evaluation:
for a = (1,...,1), b = 0 with p = 5 the upper threshold at x = 1 is
5 + 2*sqrt(5) + 2 = 7 + 2*sqrt(5).
"""

import decimal
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadconc as qc
from quadconc.errors import DegenerateFormError, ValidationError

CHI5_UPPER_X1 = 11.47213595499958  # 7 + 2*sqrt(5)
CHI5_LOWER_X1 = 0.5278640450004204  # 3 - 2*sqrt(5)


def chi5_stats():
    return qc.form_stats(qc.DiagonalForm(np.ones(5), np.zeros(5)))


finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(finite, min_size=1, max_size=8)
exponents = st.floats(1e-3, 50.0, allow_nan=False, allow_infinity=False)


def test_form_stats_chi5():
    stats = chi5_stats()
    assert stats.mean == 5.0
    assert stats.u == math.sqrt(5.0)
    assert stats.a_plus == 1.0
    assert stats.a_minus == 0.0


def test_form_stats_mixed_signs():
    stats = qc.form_stats(qc.DiagonalForm(np.array([-2.0, 3.0]), np.array([1.0, 0.0])))
    assert stats.mean == 1.0
    assert stats.u == math.sqrt(13.5)
    assert stats.a_plus == 3.0
    assert stats.a_minus == 2.0


def test_form_stats_all_zero():
    stats = qc.form_stats(qc.DiagonalForm(np.zeros(3), np.zeros(3)))
    assert stats.mean == 0.0 and stats.u == 0.0
    assert stats.a_plus == 0.0 and stats.a_minus == 0.0


def test_upper_threshold_frozen():
    tb = qc.upper_threshold(chi5_stats(), 1.0)
    assert tb.threshold == pytest.approx(CHI5_UPPER_X1, rel=1e-15)
    assert tb.prob_bound == math.exp(-1.0)
    assert tb.direction == "upper"


def test_lower_threshold_frozen():
    tb = qc.lower_threshold(chi5_stats(), 1.0)
    assert tb.threshold == pytest.approx(CHI5_LOWER_X1, rel=1e-12)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=12),
       exponents)
def test_nonnegative_a_is_laurent_massart(a_list, x):
    # for a >= 0 and b = 0 the thresholds are Laurent & Massart (2000, Lemma 1):
    # sum a + 2 |a|_2 sqrt(x) + 2 |a|_inf x above, sum a - 2 |a|_2 sqrt(x) below,
    # each within 4 ulps of a 60-digit evaluation (of its larger term, below)
    stats = qc.form_stats(qc.DiagonalForm(a_list, [0.0] * len(a_list)))
    upper, lower = qc.upper_threshold(stats, x).threshold, qc.lower_threshold(stats, x).threshold
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, d = [decimal.Decimal(v) for v in a_list], decimal.Decimal(x)
        total, gauss = sum(a), 2 * sum(v * v for v in a).sqrt() * d.sqrt()
        above = total + gauss + 2 * max(a) * d
        for got, exact, size in ((upper, above, above), (lower, total - gauss, max(total, gauss))):
            ulp = decimal.Decimal(math.ulp(float(size)))
            assert abs(decimal.Decimal(got) - exact) <= 4 * ulp, (got, exact)


def test_pure_linear_threshold():
    # a = 0, b = 1: threshold at x is 2*sqrt(x/2) = sqrt(2x); at x = 2 that is 2
    stats = qc.form_stats(qc.DiagonalForm(np.zeros(1), np.ones(1)))
    tb = qc.upper_threshold(stats, 2.0)
    assert abs(tb.threshold - 2.0) < 1e-12


def test_prob_bound_is_exact_exp():
    stats = chi5_stats()
    for x in (0.25, 1.0, 3.0, 10.0):
        assert qc.upper_threshold(stats, x).prob_bound == math.exp(-x)


def test_degenerate_form_threshold_is_mean():
    stats = qc.form_stats(qc.DiagonalForm(np.zeros(2), np.zeros(2)))
    assert qc.upper_threshold(stats, 1.0).threshold == 0.0
    assert qc.lower_threshold(stats, 1.0).threshold == 0.0
    with pytest.raises(DegenerateFormError):
        qc.tail_exponent(stats, 1.0, "upper")


def test_tail_exponent_frozen():
    # u = 1, v = 2: deviation 2*1*sqrt(x) + 2*x = 4 at x = 1
    stats = qc.FormStats(mean=0.0, u=1.0, a_plus=1.0, a_minus=0.0)
    tb = qc.tail_exponent(stats, 4.0, "upper")
    assert tb.x == 1.0
    assert tb.threshold == 4.0
    # v = 0: deviation 2*sqrt(x) = 2 at x = 1
    stats0 = qc.FormStats(mean=0.0, u=1.0, a_plus=0.0, a_minus=0.0)
    assert qc.tail_exponent(stats0, 2.0, "upper").x == 1.0


def test_tail_exponent_lower_uses_a_minus():
    stats = qc.FormStats(mean=0.0, u=1.0, a_plus=0.0, a_minus=1.0)
    tb = qc.tail_exponent(stats, 4.0, "lower")
    assert tb.x == 1.0
    assert tb.threshold == -4.0


def test_envelope_threshold_examples():
    assert qc.envelope_threshold(1.0, 0.0, 4.0) == 4.0
    assert qc.envelope_threshold(0.0, 1.0, 3.0) == 3.0
    stats = chi5_stats()
    want = qc.upper_threshold(stats, 1.0).threshold - stats.mean
    got = qc.envelope_threshold(stats.u, 2.0 * stats.a_plus, 1.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_union_single_form_is_bitwise_plain():
    stats = chi5_stats()
    plain = qc.upper_threshold(stats, 1.0)
    joint = qc.union_threshold([stats], 1.0, "upper")
    assert len(joint) == 1
    assert joint[0].x == plain.x
    assert joint[0].threshold == plain.threshold


def test_union_three_forms_shifts_exponent():
    stats = chi5_stats()
    joint = qc.union_threshold([stats, stats, stats], 1.0, "upper")
    assert len(joint) == 3
    for tb in joint:
        assert tb.x == pytest.approx(1.0 + math.log(3.0), rel=1e-15)
        assert tb.prob_bound * 3.0 == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_union_empty_rejected():
    with pytest.raises(ValidationError):
        qc.union_threshold([], 1.0, "upper")


@given(coeff_lists, exponents, st.data())
def test_negation_duality_bitwise(a_list, x, data):
    b_list = data.draw(st.lists(finite, min_size=len(a_list), max_size=len(a_list)))
    a = np.array(a_list)
    b = np.array(b_list)
    lower = qc.lower_threshold(qc.form_stats(qc.DiagonalForm(a, b)), x)
    upper = qc.upper_threshold(qc.form_stats(qc.DiagonalForm(-a, -b)), x)
    assert lower.threshold == -upper.threshold


@given(st.lists(st.one_of(finite, st.floats(-1e-12, 1e-12)), min_size=2, max_size=12),
       exponents, st.data())
def test_permutation_invariance_bitwise(a_list, x, data):
    # every sum is correctly rounded, so the order of the coordinates moves no bit
    b_list = data.draw(st.lists(finite, min_size=len(a_list), max_size=len(a_list)))
    order = data.draw(st.permutations(range(len(a_list))))
    bits = []
    for a, b in ((a_list, b_list), ([a_list[k] for k in order], [b_list[k] for k in order])):
        stats = qc.form_stats(qc.DiagonalForm(a, b))
        fields = [stats.mean, stats.u, stats.a_plus, stats.a_minus]
        fields += [one(stats, x).threshold for one in (qc.upper_threshold, qc.lower_threshold)]
        bits.append([value.hex() for value in fields])
    assert bits[0] == bits[1]


@given(coeff_lists, st.data())
def test_threshold_monotone_in_x(a_list, data):
    b_list = data.draw(st.lists(finite, min_size=len(a_list), max_size=len(a_list)))
    stats = qc.form_stats(qc.DiagonalForm(np.array(a_list), np.array(b_list)))
    xs = sorted(data.draw(st.lists(exponents, min_size=2, max_size=5)))
    ups = [qc.upper_threshold(stats, x).threshold for x in xs]
    los = [qc.lower_threshold(stats, x).threshold for x in xs]
    assert all(u2 >= u1 for u1, u2 in zip(ups, ups[1:]))
    assert all(l2 <= l1 for l1, l2 in zip(los, los[1:]))
    assert all(u >= stats.mean >= l for u, l in zip(ups, los))


@given(coeff_lists, exponents, st.data())
def test_inversion_round_trip(a_list, x, data):
    b_list = data.draw(st.lists(finite, min_size=len(a_list), max_size=len(a_list)))
    stats = qc.form_stats(qc.DiagonalForm(np.array(a_list), np.array(b_list)))
    if stats.u == 0.0:
        return
    for direction, one in (("upper", qc.upper_threshold), ("lower", qc.lower_threshold)):
        deviation = abs(one(stats, x).threshold - stats.mean)
        if deviation == 0.0:
            continue
        back = qc.tail_exponent(stats, deviation, direction)
        assert abs(back.x - x) <= 1e-10 * (1.0 + x)
        assert abs(abs(back.threshold - stats.mean) - deviation) <= 1e-10 * (1.0 + deviation)


def _in_range(*values):
    """Every value is zero or a finite normal float."""
    return all(v == 0.0 or sys.float_info.min <= abs(v) < math.inf for v in values)


def _scaled(values, k):
    """values * 2^k, each rounded once."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.asarray(values, dtype=float), k).tolist()


# short mantissas across 2^-64..2^6, so that 2^-1000 pushes them exactly into
# the subnormal range
short = st.builds(math.ldexp, st.integers(-64, 64).map(float), st.integers(-70, 0))
scalable = st.one_of(finite, short)
scales = st.one_of(st.integers(-1000, 1000), st.integers(-1000, -940), st.integers(940, 1000))


@settings(max_examples=300)
@given(st.lists(scalable, min_size=1, max_size=8), exponents, scales, st.data())
def test_scale_covariance_at_any_scale(a_list, x, k, data):
    # c = 2^k scales form_stats and both thresholds by exactly c, and leaves
    # tail_exponent's x alone, wherever no intermediate leaves the normal
    # range; elsewhere the call raises a typed error or rounds within the
    # subnormal spacing
    b_list = data.draw(st.lists(scalable, min_size=len(a_list), max_size=len(a_list)))
    a, b = np.array(a_list), np.array(b_list)
    ca, cb = _scaled(a, k), _scaled(b, k)
    if _scaled(ca, -k) != a.tolist() or _scaled(cb, -k) != b.tolist():
        return  # scaling rounded a coefficient: another form
    try:
        stats = qc.form_stats(qc.DiagonalForm(a, b))
    except ValidationError:
        return  # u of the form itself is rounded into the subnormal range
    fields = (stats.mean, stats.u, stats.a_plus, stats.a_minus)
    if not _in_range(*fields):
        return
    want = _scaled(fields, k)
    try:
        scaled = qc.form_stats(qc.DiagonalForm(ca, cb))
    except ValidationError:
        assert 0.0 < want[1] < sys.float_info.min  # only a u rounded below the range
        return
    assert [scaled.mean, scaled.u, scaled.a_plus, scaled.a_minus] == want
    for direction, one, sign in (
        ("upper", qc.upper_threshold, 1.0), ("lower", qc.lower_threshold, -1.0)
    ):
        u, v = stats.envelope(direction)
        gauss, linear = 2.0 * u * math.sqrt(x), v * x
        tb = one(stats, x)
        parts = [stats.mean, stats.u, gauss, linear, stats.mean + sign * gauss, tb.threshold]
        try:
            got = one(scaled, x).threshold
        except ValidationError:
            assert _scaled([gauss + linear], k)[0] <= 2.0**-1074  # deviation underflows
            continue
        want_t = _scaled([tb.threshold], k)[0]
        if _in_range(*parts, *_scaled(parts, k)):
            assert got == want_t
        else:
            spread = max(abs(w) for w in _scaled(parts, k))
            assert abs(got - want_t) <= 4.0 * math.ulp(spread) + 2.0**-1072
        deviation = gauss + linear
        if deviation == 0.0 or _scaled(_scaled([deviation], k), -k)[0] != deviation:
            continue
        back = qc.tail_exponent(stats, deviation, direction)
        got = qc.tail_exponent(scaled, _scaled([deviation], k)[0], direction)
        assert got.x == back.x
        if _in_range(back.threshold, _scaled([back.threshold], k)[0], deviation):
            assert got.threshold == _scaled([back.threshold], k)[0]


def test_extreme_scales_refuse_rather_than_round_down():
    # u = 2^-1074 / sqrt(2) has to be rounded into the subnormal range
    with pytest.raises(ValidationError, match="normal"):
        qc.form_stats(qc.DiagonalForm(np.zeros(1), np.array([5e-324])))
    # a subnormal u that is exact is kept
    assert qc.form_stats(qc.DiagonalForm(np.array([1e-310]), np.zeros(1))).u == 1e-310
    # 2 u sqrt(x) underflows to zero and would put the threshold at the mean
    stats = qc.form_stats(qc.DiagonalForm(np.zeros(1), np.array([1e-300])))
    for one in (qc.upper_threshold, qc.lower_threshold):
        with pytest.raises(ValidationError, match="underflows"):
            one(stats, 1e-300)
    # b = 1e-170 once gave u_sq = 0 and threshold = mean = 0; now 2u sqrt(x) = b sqrt(2x)
    tiny = qc.form_stats(qc.DiagonalForm(np.zeros(1), np.array([1e-170])))
    assert qc.upper_threshold(tiny, 2.0).threshold == pytest.approx(2e-170, rel=1e-15)
    assert qc.tail_exponent(tiny, 1e-170, "upper").x == pytest.approx(0.5, rel=1e-15)


def test_matrix_and_diagonal_stats_agree():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = int(rng.integers(2, 9))
        mat = rng.normal(size=(p, p))
        b = rng.normal(size=p)
        diag = qc.reduce(qc.QuadraticForm(mat, b)).diagonal_form()
        stats = qc.form_stats(diag)
        sym = 0.5 * (mat + mat.T)
        eigs = np.linalg.eigvalsh(sym)
        assert stats.mean == pytest.approx(np.trace(mat), rel=1e-10, abs=1e-10)
        want_u = 0.25 * np.linalg.norm(mat + mat.T, "fro") ** 2 + 0.5 * b @ b
        assert stats.u**2 == pytest.approx(want_u, rel=1e-10)
        assert stats.a_plus == pytest.approx(max(eigs.max(), 0.0), rel=1e-10, abs=1e-12)
        assert stats.a_minus == pytest.approx(max(-eigs.min(), 0.0), rel=1e-10, abs=1e-12)


def test_validation_errors():
    stats = chi5_stats()
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            qc.upper_threshold(stats, bad)
    with pytest.raises(ValidationError):
        qc.tail_exponent(stats, 1.0, "sideways")
    with pytest.raises(ValidationError):
        qc.DiagonalForm(np.ones(2), np.ones(3))
    with pytest.raises(ValidationError):
        qc.DiagonalForm(np.array([np.nan]), np.array([0.0]))
    with pytest.raises(ValidationError):
        qc.DiagonalForm(np.ones(0), np.ones(0))
    with pytest.raises(ValidationError, match="cannot both be zero"):
        qc.envelope_threshold(0.0, 0.0, 1.0)


def test_integers_past_the_float_range_are_refused():
    # math.isfinite(10**400) raises OverflowError; these must be typed errors
    stats = chi5_stats()
    huge = 10**400
    for call in (
        lambda: qc.upper_threshold(stats, huge),
        lambda: qc.tail_exponent(stats, huge, "upper"),
        lambda: qc.envelope_threshold(huge, 1.0, 1.0),
        lambda: qc.FormStats(huge, 1.0, 1.0, 0.0),
        lambda: qc.MgfEnvelope(1.0, huge),
    ):
        with pytest.raises(ValidationError):
            call()


def test_numpy_scalars_match_python_floats():
    stats = qc.form_stats(qc.DiagonalForm(np.array([1.0, -0.5]), np.array([0.3, 2.0])))
    for value in (np.float32(1.0), np.int64(2), np.float64(0.3), np.float32(0.1), np.array(0.3),
                  np.array(2)):
        plain = float(value)
        for one in (qc.upper_threshold, qc.lower_threshold):
            got = one(stats, value)
            assert type(got.x) is float and type(got.threshold) is float
            assert got == one(stats, plain)
        for direction in qc.DIRECTIONS:
            assert qc.tail_exponent(stats, value, direction) == qc.tail_exponent(
                stats, plain, direction
            )
        got = qc.envelope_threshold(value, value, value)
        assert type(got) is float and got == qc.envelope_threshold(plain, plain, plain)
        assert qc.union_threshold([stats], value, "upper") == [qc.upper_threshold(stats, plain)]


def test_bools_are_not_reals():
    stats = chi5_stats()
    for bad in (True, np.bool_(True), False):
        with pytest.raises(ValidationError):
            qc.upper_threshold(stats, bad)
        with pytest.raises(ValidationError):
            qc.lower_threshold(stats, bad)
        for direction in qc.DIRECTIONS:
            with pytest.raises(ValidationError):
                qc.tail_exponent(stats, bad, direction)
        with pytest.raises(ValidationError):
            qc.envelope_threshold(bad, 1.0, 1.0)
        with pytest.raises(ValidationError):
            qc.envelope_threshold(1.0, bad, 1.0)
        with pytest.raises(ValidationError):
            qc.envelope_threshold(1.0, 1.0, bad)
        with pytest.raises(ValidationError):
            qc.MgfEnvelope(u=bad, v=1.0)


def test_form_stats_fields_are_reals_not_bools():
    plain = qc.FormStats(mean=-1.0, u=2.0, a_plus=0.5, a_minus=0.0)
    got = qc.FormStats(np.float32(-1.0), np.float64(2.0), np.float32(0.5), np.int64(0))
    assert got == plain
    assert all(type(v) is float for v in (got.mean, got.u, got.a_plus, got.a_minus))
    assert qc.upper_threshold(got, 1.0) == qc.upper_threshold(plain, 1.0)
    for bad in (True, np.bool_(True), False):
        for pos in range(4):
            fields = [0.0, 1.0, 1.0, 0.0]
            fields[pos] = bad
            with pytest.raises(ValidationError):
                qc.FormStats(*fields)


LOOK_ALIKE = SimpleNamespace(mean=10.0, envelope=lambda direction: (-1.0, 0.0))


def test_scalar_checks_name_the_argument_and_its_sign():
    # one check per kind of argument: finite real of a sign, count, direction or record
    stats = chi5_stats()
    cases = [
        (lambda: qc.FormStats(math.nan, 1.0, 1.0, 0.0), "mean must be a finite real, got nan"),
        (lambda: qc.FormStats(0.0, -1.0, 1.0, 0.0), "u must be a nonnegative finite real"),
        (lambda: qc.FormStats(0.0, 1.0, 1.0, math.inf), "a_minus must be a nonnegative finite"),
        (lambda: qc.upper_threshold(stats, 0.0), "exponent x must be a positive finite real"),
        # a 0-d look-alike that cannot be indexed once raised TypeError
        (lambda: qc.upper_threshold(stats, SimpleNamespace(ndim=0)), "exponent x must be a posit"),
        (lambda: qc.tail_exponent(stats, -2, "lower"), "deviation must be a positive finite real"),
        (lambda: qc.envelope_threshold(1.0, -0.5, 1.0), "v must be a nonnegative finite real"),
        (lambda: qc.cdf_p1(1.0, True, 0.0), "b must be a finite real, got True"),
        (lambda: qc.sample(qc.DiagonalForm([1.0], [0.0]), 0, 1), "n must be a positive integer"),
        (lambda: qc.envelope_y_grid(-1.0, 4), "a_plus must be a nonnegative finite real, got -1.0"),
        (lambda: qc.envelope_y_grid(1.0, 2**61), "grid size must be at most 2**53, got 2305843"),
        (lambda: qc.tail_exponent(stats, 1.0, np.array(["upper", "lower"])), "direction must be"),
        # a look-alike whose v < 0 once gave a threshold below the mean
        (lambda: qc.upper_threshold(LOOK_ALIKE, 2.0), "stats must be a FormStats, got Simple"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value).startswith(message), (str(info.value), message)
    # a plain float takes a fast path that must keep every refusal of a numpy
    # scalar: NaN and +-inf always, +-0.0 where the sign rule wants x > 0
    from quadconc.bounds import _check_real

    for sign, kind in (("any", ""), ("nonnegative", "nonnegative "), ("positive", "positive ")):
        for value in (math.nan, math.inf, -math.inf, 0.0, -0.0):
            for scalar in (value, np.float64(value)):
                if value == 0.0 and sign != "positive":
                    got = _check_real(scalar, "v", sign)
                    assert type(got) is float
                    assert math.copysign(1.0, got) == math.copysign(1.0, value)
                    continue
                with pytest.raises(ValidationError) as info:
                    _check_real(scalar, "v", sign)
                assert str(info.value) == "v must be a %sfinite real, got %r" % (kind, scalar)


def test_binade_brackets_the_largest_magnitude():
    from quadconc.bounds import _binade

    assert _binade(np.array([0.75, -0.25]), 0.0) == 0  # e = 0 does not mean all zero
    assert _binade(0.0, np.zeros(3)) == 0
    assert _binade(1.0) == 1 and _binade(np.array([-3.0]), 0.5) == 2
    assert _binade(5e-324) == -1073 and _binade(1.7e308) == 1024


def test_forms_are_immutable():
    form = qc.DiagonalForm(np.ones(2), np.zeros(2))
    with pytest.raises(TypeError):
        form.a[0] = 7.0


@pytest.mark.parametrize(
    "bad",
    [[True, False], [1.5, True], ["1.5", "2"], [None, 1.0], np.array([True, False]),
     np.array(["1.5", "2"]), np.array([1.0 + 0j, 2.0])],
)
def test_coefficients_must_be_real_numbers(bad):
    # np.asarray(..., dtype=float) turns True into 1.0 and "1.5" into 1.5
    with pytest.raises(ValidationError, match="must be real numbers"):
        qc.DiagonalForm(bad, [0.0, 1.0])
    with pytest.raises(ValidationError, match="must be real numbers"):
        qc.DiagonalForm([0.0, 1.0], bad)


def test_coefficient_conversion_failures_are_validation_errors():
    # these used to escape as OverflowError and numpy's ragged-array ValueError
    with pytest.raises(ValidationError, match="must be finite"):
        qc.DiagonalForm([10**400], [0])
    with pytest.raises(ValidationError, match="must be finite"):
        qc.DiagonalForm([0], [-(10**400)])
    with pytest.raises(ValidationError):
        qc.DiagonalForm([[1.0, 2.0], [3.0]], [0.0, 0.0])
    form = qc.DiagonalForm([2**70, np.int64(3)], [np.float32(0.5), 0])
    assert list(form.a) == [1.1805916207174113e21, 3.0]
    assert list(form.b) == [0.5, 0.0]


def test_forms_copy_their_coefficients():
    a = np.ones(2)
    form = qc.DiagonalForm(a, np.zeros(2))
    a[0] = 7.0
    assert list(form.a) == [1.0, 1.0]
    assert a.flags.writeable
