"""LAPACK-backed eigen_sym and the reduction identities.

Refereed by the cyclic Jacobi iteration in _jacobi.py, which shares no code
with the library, and by numpy.linalg.eigvalsh.
"""

from fractions import Fraction

import numpy as np
import pytest
from _interpreter import run_python
from _jacobi import jacobi_eigen
from hypothesis import given, settings
from hypothesis import strategies as st

import quadconc as qc
from quadconc import spectral
from quadconc.errors import NumericalError, ValidationError
from quadconc.spectral import eigen_sym, symmetrize


def random_symmetric(rng, p):
    m = rng.normal(size=(p, p))
    return 0.5 * (m + m.T)


def test_symmetrize_identity():
    out = symmetrize(np.eye(2))
    assert np.array_equal(out, np.eye(2))


def test_symmetrize_strict_upper():
    out = symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(out, np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_symmetrize_skew_is_zero():
    skew = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert np.array_equal(symmetrize(skew), np.zeros((2, 2)))


def test_symmetrize_accepts_form():
    form = qc.QuadraticForm(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    out = symmetrize(form)
    assert np.array_equal(out, out.T)


def test_symmetrize_near_the_float_limit():
    # (A + A')/2 overflows in the sum above about 9e307; A/2 + A'/2 cannot
    red = qc.reduce(qc.QuadraticForm(np.diag([1.5e308, -1.5e308]), np.zeros(2)))
    assert np.array_equal(red.eigenvalues, np.array([1.5e308, -1.5e308]))
    mat = np.array([[1.5e308, 1.7e308], [1.6e308, -1.7e308]])
    half_sum = float((Fraction(1.7e308) + Fraction(1.6e308)) / 2)  # exact, rounded once
    want = np.array([[1.5e308, half_sum], [half_sum, -1.7e308]])
    assert np.array_equal(symmetrize(mat), want)


@given(st.integers(1, 12), st.integers(0, 2**31 - 1), st.integers(-1000, 1000))
@settings(max_examples=100)
def test_symmetrize_matches_halved_sum(p, seed, k):
    # A/2 + A'/2 and (A + A')/2 round alike while every entry stays normal
    mat = np.random.default_rng(seed).normal(size=(p, p)) * 2.0**k
    assert np.array_equal(symmetrize(mat), 0.5 * (mat + mat.T))


def test_eigen_diagonal_input():
    s, u = eigen_sym(np.diag([3.0, 1.0]))
    assert np.array_equal(s, np.array([3.0, 1.0]))
    assert np.array_equal(np.abs(u), np.eye(2))


def test_eigen_two_by_two_exact():
    s, u = eigen_sym(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert s == pytest.approx([0.5, -0.5], abs=1e-15)
    recon = u @ np.diag(s) @ u.T
    assert np.max(np.abs(recon - np.array([[0.0, 0.5], [0.5, 0.0]]))) < 1e-15


def test_eigen_matches_jacobi_referee():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mat = random_symmetric(rng, 8)
        ref = np.sort(np.linalg.eigvalsh(mat))[::-1]
        s, u = eigen_sym(mat)
        s_jac, u_jac = jacobi_eigen(mat)
        for got, basis in ((s, u), (s_jac, u_jac)):
            assert np.max(np.abs(got - ref)) < 1e-10 * max(1.0, np.abs(ref).max())
            assert np.max(np.abs(basis @ np.diag(got) @ basis.T - mat)) < 1e-10
            assert np.max(np.abs(basis.T @ basis - np.eye(8))) < 1e-12
            assert np.all(np.diff(got) <= 0)
        assert np.max(np.abs(s - s_jac)) < 1e-10 * max(1.0, np.abs(s_jac).max())


def test_eigen_recovers_planted_spectrum():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    want = np.array([9.0, 4.0, 1.0, 0.5, -2.0, -7.0])
    mat = q @ np.diag(want) @ q.T
    mat = 0.5 * (mat + mat.T)
    s, _ = eigen_sym(mat)
    assert np.max(np.abs(s - want)) < 1e-10


def test_eigen_rejects_bad_input():
    with pytest.raises(ValidationError):
        eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValidationError):
        eigen_sym(np.ones((2, 3)))
    with pytest.raises(ValidationError, match="must be square"):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        eigen_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_jacobi_referee_sweep_cap():
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericalError) as err:
        jacobi_eigen(mat, max_sweeps=0)
    assert err.value.residual is not None and err.value.residual > 0
    # already-diagonal input needs no sweeps at all
    s, _ = jacobi_eigen(np.diag([2.0, 1.0]), max_sweeps=0)
    assert np.array_equal(s, np.array([2.0, 1.0]))


@pytest.mark.parametrize("k", [-1000, 0, 1000])
@pytest.mark.parametrize(
    "corruption", ["columns_reversed", "eigenvalues_off_1e-9", "basis_zero", "basis_doubled"]
)
def test_eigen_residual_check_rejects_corrupted_eigh(monkeypatch, k, corruption):
    # the corruptions are relative, so a check computed on S itself, whose
    # Frobenius norm underflows to 0 at 2^-1000 and overflows at 2^1000,
    # would let them through at the extreme scales; a zero or doubled basis
    # keeps the residual ||S V - V diag(w)|| at 0 or a rounding error, and
    # only the orthonormality check ||V'V - I|| refuses it
    real_eigh = np.linalg.eigh

    def corrupted(a):
        w, v = real_eigh(a)
        if corruption == "columns_reversed":
            return w, v[:, ::-1]
        if corruption == "basis_zero":
            return w, 0.0 * v
        if corruption == "basis_doubled":
            return w, 2.0 * v
        return w * (1.0 + 1e-9), v

    monkeypatch.setattr(spectral.np.linalg, "eigh", corrupted)
    mat = 2.0**k * np.diag([3.0, 2.0, 1.0, -1.0])
    mat[0, 1] = mat[1, 0] = 2.0**k * 0.5
    with pytest.raises(NumericalError) as err:
        qc.reduce(qc.QuadraticForm(mat, np.ones(4)))
    assert err.value.residual is not None and err.value.residual > 0


def test_eigen_at_the_edge_of_the_float_range():
    s, _ = eigen_sym(np.full((2, 2), 2.0**1020))
    assert np.array_equal(s, np.array([2.0**1021, 0.0]))
    s, _ = eigen_sym(np.full((2, 2), 2.0**-1074))  # the smallest subnormal
    assert np.array_equal(s, np.array([2.0**-1073, 0.0]))
    with pytest.raises(ValidationError):
        eigen_sym(np.full((2, 2), 1e308))  # eigenvalue 2e308 is not a float


def test_eigen_zero_matrix():
    s, u = eigen_sym(np.zeros((3, 3)))
    assert np.array_equal(s, np.zeros(3))
    assert np.array_equal(u, np.eye(3))


@given(st.integers(1, 12), st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_reduction_identities(p, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(p, p))
    b = rng.normal(size=p)
    red = qc.reduce(qc.QuadraticForm(mat, b))
    ref, _ = jacobi_eigen(symmetrize(mat))
    assert np.max(np.abs(red.eigenvalues - ref)) < 1e-10 * max(1.0, np.abs(ref).max())
    scale = max(1.0, np.abs(mat).max())
    assert abs(red.eigenvalues.sum() - np.trace(mat)) < 1e-10 * scale * p
    frob = 0.25 * np.linalg.norm(mat + mat.T, "fro") ** 2
    assert abs((red.eigenvalues**2).sum() - frob) < 1e-10 * max(1.0, frob)
    bnorm = np.linalg.norm(b)
    assert abs(np.linalg.norm(red.rotated_b) - bnorm) < 1e-10 * max(1.0, bnorm)
    assert np.max(np.abs(red.basis.T @ red.basis - np.eye(p))) < 1e-10


@given(st.integers(1, 12), st.integers(0, 2**31 - 1), st.integers(-1000, 1000))
@settings(max_examples=100)
def test_reduce_scale_covariance(p, seed, k):
    # not bitwise: at 2^-1000 small entries of c*A are subnormal and lose bits
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(p, p))
    b = rng.normal(size=p)
    c = 2.0**k
    want = qc.reduce(qc.QuadraticForm(mat, b)).eigenvalues
    got = qc.reduce(qc.QuadraticForm(c * mat, c * b)).eigenvalues / c
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


DETERMINISM_PROBE = r"""
import hashlib
import numpy as np
import quadconc as qc

for p in (8, 48, 96):
    rng = np.random.default_rng(p)
    red = qc.reduce(qc.QuadraticForm(rng.normal(size=(p, p)), rng.normal(size=p)))
    digest = hashlib.sha256()
    for arr in (red.eigenvalues, red.basis, red.rotated_b):
        digest.update(np.ascontiguousarray(arr).tobytes())
    print(p, digest.hexdigest())
"""


def test_reduce_bitwise_across_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        res = run_python("-c", DETERMINISM_PROBE, OPENBLAS_NUM_THREADS=threads)
        assert res.returncode == 0, res.stderr
        outputs.append(res.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


def test_reduce_diagonal_matrix_sorts_exactly():
    a = np.array([2.0, -1.0, 5.0, 0.0])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    red = qc.reduce(qc.QuadraticForm(np.diag(a), b))
    order = np.argsort(-a, kind="stable")
    assert np.array_equal(red.eigenvalues, a[order])
    assert np.max(np.abs(np.abs(red.rotated_b) - np.abs(b[order]))) < 1e-14


def test_reduce_p1():
    red = qc.reduce(qc.QuadraticForm(np.array([[4.0]]), np.array([3.0])))
    assert red.eigenvalues[0] == 4.0
    assert abs(red.rotated_b[0]) == 3.0
    diag = red.diagonal_form()
    assert diag.p == 1


def test_reduction_preserves_distribution_stats():
    # same mean and variance under either representation
    rng = np.random.default_rng(8)
    mat = rng.normal(size=(5, 5))
    b = rng.normal(size=5)
    diag = qc.reduce(qc.QuadraticForm(mat, b)).diagonal_form()
    stats = qc.form_stats(diag)
    # variance of T is 2*sum(a_k^2) + sum(b_k^2) = 2*u^2
    sym = 0.5 * (mat + mat.T)
    want_var = 2.0 * np.sum(np.linalg.eigvalsh(sym) ** 2) + b @ b
    assert 2.0 * stats.u**2 == pytest.approx(want_var, rel=1e-10)


def test_reduce_rejects_non_form():
    with pytest.raises(ValidationError):
        qc.reduce(np.eye(2))
    with pytest.raises(ValidationError):
        qc.QuadraticForm(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValidationError, match="2-dimensional"):
        qc.QuadraticForm([1.0, 2.0], [0.0])
    with pytest.raises(ValidationError):
        qc.QuadraticForm(np.eye(2), np.ones(3))


def test_matrix_entries_must_be_finite_real_numbers():
    for bad in ([[True]], np.array([[True]]), [["1.5"]], np.array([["1.5"]]), [[None]]):
        with pytest.raises(ValidationError, match="must be real numbers"):
            qc.QuadraticForm(bad, [0.0])
        with pytest.raises(ValidationError, match="must be real numbers"):
            symmetrize(bad)
        with pytest.raises(ValidationError, match="must be real numbers"):
            eigen_sym(bad)
    with pytest.raises(ValidationError, match="must be real numbers"):
        qc.QuadraticForm([[1.0]], [False])
    with pytest.raises(ValidationError):
        qc.QuadraticForm([[1, 2], [3]], [0, 0])  # ragged
    with pytest.raises(ValidationError, match="must be finite"):
        qc.QuadraticForm([[10**400]], [0])
    form = qc.QuadraticForm([[2**70]], [0])
    assert form.matrix.tolist() == [[1.1805916207174113e21]]
