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
normal float range.  A decomposition is accepted on its residual and on
the orthonormality of its basis, which is what keeps w = U'z standard
Gaussian.  The test suite referees it with an independent cyclic Jacobi
iteration (Golub & Van Loan, Matrix Computations, section 8.5) that shares
no code with this module.
"""

import numpy as np

from .bounds import DiagonalForm, _binade, _check_instance, _real_values, _Record
from .errors import NumericalError, ValidationError

# accepted ||S V - V diag(w)||_F / ||S||_F and ||V'V - I||_F; LAPACK's
# errors are small multiples of p * 2.2e-16, about 2e-14 at p = 96
RESIDUAL_TOL = 1e-12


def _float_array(values, name, ndim=1):
    """`values` as a read-only `ndim`-dimensional float array of its own.

    The entries must pass _real_values and be finite, and the shape must
    have `ndim` dimensions, or ValidationError is raised.  A scalar counts
    as one-dimensional.
    """
    arr = np.array(_real_values(values, name), ndmin=1)
    if not np.isfinite(arr).all():
        raise ValidationError("%s entries must be finite" % name)
    if arr.ndim != ndim:
        raise ValidationError("%s must be %d-dimensional, got shape %r" % (name, ndim, arr.shape))
    arr.flags.writeable = False
    return arr


class QuadraticForm(_Record):
    """Matrix form T = z'Az + b'z; z is an implicit standard Gaussian vector.

    matrix and b are read-only float arrays of their own.
    """

    def __init__(self, matrix, b):
        m, b = _float_array(matrix, "matrix", 2), _float_array(b, "b")
        if m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError("matrix must be square with p >= 1, got shape %r" % (m.shape,))
        if b.size != m.shape[0]:
            raise ValidationError("b must be a vector of length p = %d" % m.shape[0])
        self.__dict__.update(matrix=m, b=b)

    @property
    def p(self):
        return self.matrix.shape[0]


class SpectralReduction(_Record):
    """Eigendecomposition of the symmetric part (certified by eigen_sym), rotated b."""

    def __init__(self, eigenvalues, basis, rotated_b):
        self.__dict__.update(
            eigenvalues=_float_array(eigenvalues, "eigenvalues", 1),
            basis=_float_array(basis, "basis", 2),
            rotated_b=_float_array(rotated_b, "rotated_b", 1),
        )

    def diagonal_form(self) -> DiagonalForm:
        return DiagonalForm(self.eigenvalues, self.rotated_b)


def symmetrize(form):
    """Symmetric part (A + A')/2; accepts a QuadraticForm or a square matrix.

    Computed as A/2 + A'/2, which cannot overflow for finite A; halving is
    exact outside the subnormal range, so this equals (A + A')/2 bit for bit
    wherever that sum stays finite and no entry is subnormal.  Exactly
    symmetric by construction: entry (i,j) and entry (j,i) are the same
    float expression.
    """
    a = form.matrix if isinstance(form, QuadraticForm) else _float_array(form, "matrix", 2)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("matrix must be square, got shape %r" % (a.shape,))
    return 0.5 * a + 0.5 * a.T


def eigen_sym(s_mat):
    """Eigenvalues (descending) and orthonormal basis of a symmetric matrix.

    LAPACK's symmetric solver (np.linalg.eigh) runs on S * 2^-e,
    e = _binade(S), so it always sees max|entry| in [0.5, 1).  A
    power-of-two scaling rounds nothing except entries pushed below the
    normal range, which are negligible against max|S|, and the eigenvalues
    scale back by 2^e exactly, in order.  The result is accepted only if
    the residual ||S V - V diag(w)||_F, computed on the scaled matrix so it
    cannot underflow or overflow, is at most RESIDUAL_TOL * ||S||_F and
    ||V'V - I||_F (which the residual alone would pass at V = 0 or 2V) is
    at most RESIDUAL_TOL; otherwise NumericalError carries the failing
    measure.  Eigenvalues beyond the float range raise ValidationError.
    """
    s_mat = _float_array(s_mat, "matrix", 2)
    if s_mat.size == 0 or not np.array_equal(s_mat, s_mat.T):  # array_equal compares shapes
        raise ValidationError("matrix must be nonempty and exactly symmetric; apply symmetrize()")

    p = s_mat.shape[0]
    if not s_mat.any():
        return np.zeros(p), np.eye(p)
    e = _binade(float(np.max(np.abs(s_mat))))
    scaled = np.ldexp(s_mat, -e)
    w, v = np.linalg.eigh(scaled)
    w, v = w[::-1], v[:, ::-1]  # eigh returns ascending order
    norm = float(np.linalg.norm(scaled))  # in [0.5, p]: max|scaled| is in [0.5, 1)
    residual = float(np.linalg.norm(scaled @ v - v * w)) / norm
    ortho = float(np.linalg.norm(v.T @ v - np.eye(p)))
    for value, what in ((residual, "residual relative to ||S||_F"), (ortho, "||V'V - I||_F")):
        if not value <= RESIDUAL_TOL:
            raise NumericalError(
                "eigendecomposition %s is %.3e, over %.0e" % (what, value, RESIDUAL_TOL),
                residual=value,
            )
    with np.errstate(over="ignore"):  # reported just below
        w = np.ldexp(w, e)
    if not np.isfinite(w).all():
        raise ValidationError("eigenvalues exceed the floating-point range")
    return w, v


def reduce(form: QuadraticForm) -> SpectralReduction:
    """Full reduction: symmetrize, diagonalize, rotate the linear term."""
    _check_instance(form, QuadraticForm, "form")
    s, u = eigen_sym(symmetrize(form))
    return SpectralReduction(eigenvalues=s, basis=u, rotated_b=u.T @ form.b)
