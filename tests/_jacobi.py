"""Cyclic Jacobi eigensolver: the test suite's independent referee for eigen_sym.

This is the iteration quadconc used before its reduction moved to LAPACK
(Golub & Van Loan, Matrix Computations, section 8.5).  It lives here so
that the library and the referee that checks it share no numerical code.
It is slow, O(p^3) Python-level rotations per sweep, and is meant for the
p <= 30 matrices the tests use.
"""

import math

import numpy as np

from quadconc.errors import NumericalError, ValidationError


def _offdiag_norm(a):
    # summed directly, never as ||A||_F^2 minus the diagonal mass: that
    # difference bottoms out at rounding garbage ~eps*||A||_F^2, far above
    # the convergence tolerance
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_eigen(s_mat, max_sweeps=100):
    """Eigenvalues (descending) and orthonormal basis of a symmetric matrix.

    Cyclic Jacobi: sweep all (i, j) pairs, each rotation annihilating one
    off-diagonal entry; stop when the off-diagonal Frobenius mass falls
    below 1e-14 * ||S||_F.  Raises NumericalError with the remaining
    residual if max_sweeps sweeps do not get there.
    """
    s_mat = np.asarray(s_mat, dtype=float)
    if s_mat.ndim != 2 or s_mat.shape[0] != s_mat.shape[1] or s_mat.shape[0] < 1:
        raise ValidationError("matrix must be square with p >= 1")
    if not np.isfinite(s_mat).all():
        raise ValidationError("matrix entries must be finite")
    if not np.array_equal(s_mat, s_mat.T):
        raise ValidationError("matrix must be exactly symmetric; apply symmetrize() first")

    p = s_mat.shape[0]
    a = s_mat.copy()
    u = np.eye(p)
    tol = 1e-14 * float(np.linalg.norm(s_mat))  # rotations preserve the Frobenius norm

    for _ in range(max_sweeps):
        if _offdiag_norm(a) <= tol:
            break
        for i in range(p - 1):
            for j in range(i + 1, p):
                apq = float(a[i, j])
                if apq == 0.0:
                    continue
                # plain C-double arithmetic: theta may overflow to inf for a
                # tiny pivot, which cleanly gives t = 0 below
                theta = 0.5 * (float(a[j, j]) - float(a[i, i])) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # two-sided rotation J'AJ applied as columns then rows; the
                # identical update expressions keep A exactly symmetric
                col_i = a[:, i].copy()
                col_j = a[:, j].copy()
                a[:, i] = c * col_i - s * col_j
                a[:, j] = s * col_i + c * col_j
                row_i = a[i, :].copy()
                row_j = a[j, :].copy()
                a[i, :] = c * row_i - s * row_j
                a[j, :] = s * row_i + c * row_j
                a[i, j] = 0.0
                a[j, i] = 0.0
                u_i = u[:, i].copy()
                u_j = u[:, j].copy()
                u[:, i] = c * u_i - s * u_j
                u[:, j] = s * u_i + c * u_j
    else:
        off = _offdiag_norm(a)
        if off > tol:
            raise NumericalError(
                "Jacobi iteration did not converge in %d sweeps" % max_sweeps, residual=off
            )

    d = np.diag(a).copy()
    order = np.argsort(-d, kind="stable")
    return d[order], u[:, order]
