"""Reduction of matrix quadratic forms to diagonal ones.

T = z'Az + b'z depends on A only through its symmetric part S = (A+A')/2.
Diagonalizing S = U diag(s) U' and rotating b into b' = U'b turns T into
sum_k s_k w_k^2 + b'_k w_k with w = U'z again standard Gaussian, so every
tail statement about diagonal forms transfers to matrix forms.  The
reduction preserves sum(s) = tr(A), sum(s^2) = ||A+A'||_F^2 / 4 and
||b'|| = ||b||, which is what the bounds module consumes.

The eigensolver is LAPACK's symmetric solver behind np.linalg.eigh, run on
a power-of-two rescaling of S, so any finite magnitude works, and scaling S
by 2^k scales the eigenvalues by exactly 2^k wherever no entry leaves the
normal float range.  Every result passes a reconstruction residual check
before it is returned.  The test suite referees it with an
independent cyclic Jacobi iteration (Golub & Van Loan, Matrix Computations,
section 8.5) that shares no code with this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DiagonalForm
from .errors import NumericalError, ValidationError

# accepted ||S V - V diag(w)||_F / ||S||_F; LAPACK's backward error is a
# small multiple of p * 2.2e-16, about 2e-14 at p = 96
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticForm:
    """Matrix form T = z'Az + b'z; z is an implicit standard Gaussian vector."""

    matrix: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError("matrix must be square with p >= 1, got shape %r" % (m.shape,))
        if b.ndim != 1 or b.size != m.shape[0]:
            raise ValidationError("b must be a vector of length p = %d" % m.shape[0])
        if not (np.isfinite(m).all() and np.isfinite(b).all()):
            raise ValidationError("matrix and b entries must be finite")
        m = m.copy()
        b = b.copy()
        m.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "b", b)

    @property
    def p(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralReduction:
    """Eigendecomposition of the symmetric part plus the rotated linear term."""

    eigenvalues: np.ndarray
    basis: np.ndarray
    rotated_b: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        u = np.asarray(self.basis, dtype=float)
        bp = np.atleast_1d(np.asarray(self.rotated_b, dtype=float))
        p = s.size
        if u.shape != (p, p) or bp.size != p:
            raise ValidationError("inconsistent reduction shapes")
        if np.any(np.diff(s) > 0):
            raise ValidationError("eigenvalues must be sorted descending")
        ortho = np.max(np.abs(u.T @ u - np.eye(p)))
        if ortho > 1e-10:
            raise ValidationError("basis is not orthonormal (deviation %.3e)" % ortho)
        for arr, name in ((s, "eigenvalues"), (u, "basis"), (bp, "rotated_b")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def diagonal_form(self) -> DiagonalForm:
        return DiagonalForm(self.eigenvalues, self.rotated_b)


def symmetrize(form):
    """Symmetric part (A + A')/2; accepts a QuadraticForm or a square matrix.

    Exactly symmetric by construction: entry (i,j) and entry (j,i) are the
    same float expression.
    """
    if isinstance(form, QuadraticForm):
        a = form.matrix
    else:
        a = np.asarray(form, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("matrix must be square, got shape %r" % (a.shape,))
        if not np.isfinite(a).all():
            raise ValidationError("matrix entries must be finite")
    return 0.5 * (a + a.T)


def eigen_sym(s_mat):
    """Eigenvalues (descending) and orthonormal basis of a symmetric matrix.

    LAPACK's symmetric solver (np.linalg.eigh) runs on S * 2^-e, where
    2^(e-1) <= max|S| < 2^e, so it always sees max|entry| in [0.5, 1).  A
    power-of-two scaling rounds nothing except entries pushed below the
    normal range, which are negligible against max|S|, and the eigenvalues
    scale back by 2^e exactly.  The result is accepted only if the
    reconstruction residual ||S V - V diag(w)||_F, computed on the same
    scaled matrix so it cannot underflow or overflow, is at most
    RESIDUAL_TOL * ||S||_F; otherwise NumericalError carries the relative
    residual.  Eigenvalues beyond the float range raise ValidationError.
    """
    s_mat = np.asarray(s_mat, dtype=float)
    if s_mat.ndim != 2 or s_mat.shape[0] != s_mat.shape[1] or s_mat.shape[0] < 1:
        raise ValidationError("matrix must be square with p >= 1")
    if not np.isfinite(s_mat).all():
        raise ValidationError("matrix entries must be finite")
    if not np.array_equal(s_mat, s_mat.T):
        raise ValidationError("matrix must be exactly symmetric; apply symmetrize() first")

    p = s_mat.shape[0]
    peak = float(np.max(np.abs(s_mat)))
    if peak == 0.0:
        return np.zeros(p), np.eye(p)
    e = math.frexp(peak)[1]
    scaled = np.ldexp(s_mat, -e)
    w, v = np.linalg.eigh(scaled)
    w, v = w[::-1], v[:, ::-1]  # eigh returns ascending order
    norm = float(np.linalg.norm(scaled))  # in [0.5, p]: max|scaled| is in [0.5, 1)
    residual = float(np.linalg.norm(scaled @ v - v * w)) / norm
    if not residual <= RESIDUAL_TOL:
        raise NumericalError(
            "eigendecomposition residual %.3e exceeds %.0e relative to ||S||_F"
            % (residual, RESIDUAL_TOL),
            residual=residual,
        )
    with np.errstate(over="ignore"):  # reported just below
        w = np.ldexp(w, e)
    if not np.isfinite(w).all():
        raise ValidationError("eigenvalues exceed the floating-point range")
    return w, v


def reduce(form: QuadraticForm) -> SpectralReduction:
    """Full reduction: symmetrize, diagonalize, rotate the linear term."""
    if not isinstance(form, QuadraticForm):
        raise ValidationError("reduce expects a QuadraticForm")
    s, u = eigen_sym(symmetrize(form))
    return SpectralReduction(eigenvalues=s, basis=u, rotated_b=u.T @ form.b)
