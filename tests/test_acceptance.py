"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each criterion is one test function; run with -v for a one-line verdict per
criterion (add -s to see the printed summaries).  These use fixed RNG seeds
so the suite is deterministic.
"""

import json
import math
import subprocess
import sys

import numpy as np
from _scalar_lemma import scalar_ineq_grid
from scipy.integrate import quad
from scipy.special import gammainc

import quadconc as qc

SIZES = (1, 2, 5, 20)
X_LEVELS = (0.25, 0.5, 1.0, 2.0, 4.0)


def random_form(rng, p, low=-3.0, high=3.0):
    return qc.DiagonalForm(rng.uniform(low, high, p), rng.uniform(low, high, p))


def test_criterion_01_bound_validity_monte_carlo():
    # 50 random forms, n = 1e6 each, 99% intervals must never contradict e^-x
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        form = random_form(rng, SIZES[trial % 4])
        stats = qc.form_stats(form)
        draws = qc.sample(form, 10**6, 5000 + trial)
        for direction, one in (("upper", qc.upper_threshold), ("lower", qc.lower_threshold)):
            tbs = [one(stats, x) for x in X_LEVELS]
            ests = qc.empirical_tail(draws, np.array([tb.threshold for tb in tbs]), direction)
            for x, tb, est in zip(X_LEVELS, tbs, ests):
                assert est.ci_low <= tb.prob_bound, (
                    trial, x, direction, est.ci_low, tb.prob_bound,
                )
                worst = max(worst, est.ci_low - tb.prob_bound)
    print("ACCEPTANCE 1: PASS - 50 forms x 5 exponents x 2 tails, "
          "max(ci_low - bound) = %.3g (never positive)" % worst)


def test_criterion_02_reduction_identities():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 31))
        mat = rng.normal(size=(p, p)) * float(rng.uniform(0.1, 10.0))
        b = rng.normal(size=p)
        red = qc.reduce(qc.QuadraticForm(mat, b))
        tr = np.trace(mat)
        e1 = abs(red.eigenvalues.sum() - tr) / max(1.0, abs(tr))
        frob = 0.25 * np.linalg.norm(mat + mat.T, "fro") ** 2
        e2 = abs((red.eigenvalues**2).sum() - frob) / max(1.0, frob)
        bn = np.linalg.norm(b)
        e3 = abs(np.linalg.norm(red.rotated_b) - bn) / max(1.0, bn)
        e4 = float(np.max(np.abs(red.basis.T @ red.basis - np.eye(p))))
        for err in (e1, e2, e3, e4):
            assert err <= 1e-10, (p, e1, e2, e3, e4)
            worst = max(worst, err)
    print("ACCEPTANCE 2: PASS - 200 reductions up to 30x30, worst identity "
          "error %.3g (tolerance 1e-10)" % worst)


def test_criterion_03_negation_duality():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 13))
        a = rng.uniform(-4, 4, p)
        b = rng.uniform(-4, 4, p)
        x = float(rng.uniform(0.01, 10.0))
        lo = qc.lower_threshold(qc.form_stats(qc.DiagonalForm(a, b)), x).threshold
        up = qc.upper_threshold(qc.form_stats(qc.DiagonalForm(-a, -b)), x).threshold
        err = abs(lo + up) / max(1.0, abs(lo))
        assert err <= 1e-12, (a, b, x, lo, up)
        worst = max(worst, err)
    print("ACCEPTANCE 3: PASS - 1000 duality pairs, worst relative "
          "mismatch %.3g (tolerance 1e-12, equality is bitwise)" % worst)


def test_criterion_04_envelope_and_quadrature():
    rng = np.random.default_rng(404)
    worst_slack = -math.inf
    for _ in range(1000):
        p = int(rng.integers(1, 21))
        form = random_form(rng, p, -5.0, 5.0)
        check = qc.envelope_grid_check(form, 512)
        assert check.ok and check.violations == 0, (form.a, form.b, check.max_slack)
        worst_slack = max(worst_slack, check.max_slack)
    # closed form vs direct quadrature of E exp(y(a z^2 + b z))
    worst_q = 0.0
    for a in np.linspace(-2.0, 2.0, 10):
        for b in np.linspace(-3.0, 3.0, 10):
            y_hi = 0.45 / a if a > 0 else 2.0
            for y in np.linspace(y_hi / 10.0, y_hi, 10):
                scale = 1.0 / math.sqrt(1.0 - 2.0 * a * y)
                center = y * b * scale * scale

                def f(v, a=a, b=b, y=y):
                    return math.exp(y * (a * v * v + b * v) - 0.5 * v * v) / math.sqrt(2 * math.pi)

                val, _ = quad(f, center - 14 * scale, center + 14 * scale,
                              epsabs=1e-14, epsrel=1e-13, limit=400)
                want = math.log(val)
                got = qc.log_mgf_term(float(a), float(b), float(y))
                err = abs(got - want) / (1.0 + abs(want))
                assert err <= 1e-8, (a, b, y, got, want)
                worst_q = max(worst_q, err)
    print("ACCEPTANCE 4: PASS - envelope slack <= 1e-10 on 1000 forms x 512 "
          "points (max %.3g); quadrature match on 1000-point grid, worst "
          "relative error %.3g (tolerance 1e-8)" % (worst_slack, worst_q))


def test_criterion_05_scalar_grid():
    check = scalar_ineq_grid(64)
    assert check.violations == 0, check.max_excess
    assert check.points == 64**3
    print("ACCEPTANCE 5: PASS - scalar inequality on the 64^3 grid, "
          "0 violations, max excess %.3g (slack 1e-12)" % check.max_excess)


def test_criterion_06_inversion_round_trip():
    rng = np.random.default_rng(606)
    deviations = np.logspace(-3, 3, 7)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 13))
        form = random_form(rng, p)
        stats = qc.form_stats(form)
        if stats.u == 0.0:
            continue
        for direction, one in (("upper", qc.upper_threshold), ("lower", qc.lower_threshold)):
            for d in deviations:
                x = qc.tail_exponent(stats, float(d), direction).x
                realized = abs(one(stats, x).threshold - stats.mean)
                err = abs(realized - d) / d
                assert err <= 1e-10, (form.a, form.b, direction, d, realized)
                worst = max(worst, err)
    print("ACCEPTANCE 6: PASS - 1000 forms x 7 log-spaced deviations x 2 "
          "tails, worst relative round-trip error %.3g (tolerance 1e-10)" % worst)


def test_criterion_07_oracle_agreement():
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(500):
        a = 0.0 if i % 10 == 0 else float(rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-3.0, 3.0))
        if a == 0.0 and abs(b) < 0.05:
            b = 1.0
        sd = math.sqrt(2 * a * a + b * b)
        t = float(a + rng.uniform(-3.0, 3.0) * sd)
        got = qc.cdf_cf(qc.DiagonalForm(np.array([a]), np.array([b])), t)
        want = qc.cdf_p1(a, b, t)
        err = abs(got - want)
        assert err <= 1e-6, (a, b, t, got, want)
        worst = max(worst, err)
    chi3 = qc.cdf_cf(qc.DiagonalForm(np.ones(3), np.zeros(3)), 3.0)
    ref = float(gammainc(1.5, 1.5))  # 0.6083748237289109
    assert abs(chi3 - ref) <= 1e-4
    print("ACCEPTANCE 7: PASS - 500 triples, max |cdf_cf - cdf_p1| = %.3g "
          "(tolerance 1e-6); chi2_3 landmark off by %.3g (tolerance 1e-4)"
          % (worst, abs(chi3 - ref)))


def test_criterion_08_chi_square_landmark():
    tail = 1.0 - qc.cdf_p1(1.0, 0.0, 3.841)
    assert abs(tail - 0.0500) <= 1e-3, tail
    print("ACCEPTANCE 8: PASS - upper tail of z^2 at 3.841 is %.6f "
          "(within 1e-3 of 0.0500)" % tail)


def test_criterion_09_cli_determinism(tmp_path):
    doc = tmp_path / "form.json"
    doc.write_text('{"a": [1.5, -0.5, 1.0], "b": [0.2, 1.0, -2.0], "label": "acc9"}\n')
    outputs = []
    out = tmp_path / "rep"
    for run in range(2):
        res = subprocess.run(
            [sys.executable, "-m", "quadconc", "verify", "--input", str(doc),
             "--samples", "10000", "--seed", "2718", "--x-grid", "0.5:2:0.5",
             "--out", str(out)],
            capture_output=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr
        outputs.append((out.with_suffix(".csv").read_bytes(), res.stdout))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    n_rows = len(outputs[0][0].split(b"\n")) - 2  # header and trailing newline
    assert n_rows == 4
    print("ACCEPTANCE 9: PASS - two verify runs, byte-identical CSV "
          "(%d bytes, %d rows)" % (len(outputs[0][0]), n_rows))


def test_criterion_10_union_bound():
    rng = np.random.default_rng(1010)
    p = 10
    forms = [random_form(rng, p) for _ in range(5)]
    stats = [qc.form_stats(f) for f in forms]
    # same seed and same p means every form sees the same underlying z draws,
    # so the five violation events are evaluated on one joint sample
    draws = [qc.sample(f, 10**6, 424242) for f in forms]
    for x in (1.0, 2.0):
        for direction in ("upper", "lower"):
            joint = qc.union_threshold(stats, x, direction)
            if direction == "upper":
                viol = np.zeros(10**6, dtype=bool)
                for d, tb in zip(draws, joint):
                    viol |= d >= tb.threshold
            else:
                viol = np.zeros(10**6, dtype=bool)
                for d, tb in zip(draws, joint):
                    viol |= d <= tb.threshold
            est = qc.empirical_tail(viol.astype(float), 0.5, "upper")
            assert est.ci_low <= math.exp(-x), (x, direction, est.p_hat, est.ci_low)
    print("ACCEPTANCE 10: PASS - joint violation rate of 5 forms stays inside "
          "e^-x at x in {1, 2}, both tails, n = 1e6")
