"""Dense float64 matrix primitives backed by LAPACK through numpy.

Validation, SVD failure reporting, the rank tolerance and the overflow
check on a Gram's squared feature distances live here.  Gram
assembly and certification take their determinants and eigenvalues from
these helpers; the principal-angle SVD in `grassmann`, the
eigendecomposition in `machines.klsh` and the active-set solves in
`machines.sparse` still call numpy directly.
"""

import numpy as np

from .exceptions import (ConvergenceFailure, DimensionMismatch,
                         NumericalOverflow, RankDeficient)

RANK_TOLERANCE = 1e-10


def as_matrix(values):
    """Coerce input to a 2-D float64 array with finite entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if m.size == 0:
        raise DimensionMismatch("matrix must have at least one entry")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def require_finite(values, what):
    """`values`, or NumericalOverflow naming `what` when one of them is
    infinite or NaN."""
    if not np.all(np.isfinite(values)):
        raise NumericalOverflow(f"{what} overflow a float")
    return values


def gram_distances_sq(k):
    """Squared distances K_ii + K_jj - 2 K_ij between the feature points
    behind the Gram matrix `k`.

    Raises NumericalOverflow when one leaves the float range, which
    needs a kernel value above a quarter of the largest float.
    """
    diagonal = np.diag(k)
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(diagonal[:, None] + diagonal - 2.0 * k,
                              "squared feature distances")


def _require_square(m, what):
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{what} needs a square matrix, got {m.shape}")


def svd(m):
    """Thin singular value decomposition m = u @ diag(s) @ v.T.

    Returns (u, s, v) with s nonnegative and sorted descending.  Raises
    ConvergenceFailure when LAPACK's divide-and-conquer driver does not
    converge.
    """
    m = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T


def orthonormalize(m):
    """Orthonormal basis spanning the columns of m, preserving column order.

    Uses QR with the diagonal of R forced positive, so an input that is
    already orthonormal (or diagonal with positive entries) comes back
    without sign flips.  Raises RankDeficient when the smallest singular
    value falls below RANK_TOLERANCE times the largest.
    """
    m = as_matrix(m)
    d, p = m.shape
    if d < p:
        raise RankDeficient(f"cannot orthonormalize {p} columns in R^{d}")
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0 or s[-1] < RANK_TOLERANCE * s[0]:
        raise RankDeficient(
            f"column rank below {p}: singular value ratio "
            f"{s[-1]:.3e} / {s[0]:.3e}")
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def symmetric_eigenvalues(m):
    """Eigenvalues of the symmetric part (m + m.T) / 2, ascending.  m is
    halved before the sum, which then cannot overflow.  Raises
    NumericalOverflow when an eigenvalue leaves the float range."""
    m = as_matrix(m) / 2.0
    _require_square(m, "eigenvalue computation")
    return require_finite(np.linalg.eigvalsh(m + m.T), "eigenvalues")


def determinant(m):
    """Determinant of a square matrix, or the array of them for a stack.

    LAPACK factors each matrix of a (k, n, n) stack on its own, so each
    determinant is bit for bit that of its matrix alone.
    """
    m = np.asarray(m, dtype=np.float64)
    as_matrix(m.reshape(-1, m.shape[-1]) if m.ndim == 3 else m)
    _require_square(m, "determinant")
    return np.linalg.det(m) if m.ndim == 3 else float(np.linalg.det(m))
