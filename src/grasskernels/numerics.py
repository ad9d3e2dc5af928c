"""Dense float64 matrix primitives, backed by LAPACK through numpy.

Validation, the rank tolerance and the overflow check on a Gram's
squared feature distances live here.  Gram assembly and certification
take their determinants and eigenvalues from these helpers: a 2 x 2
determinant is ad - bc in closed form, and every other determinant and
every eigenvalue comes from LAPACK.  `determinant` and `orthonormalize`
take a (k, r, c) stack as well as one matrix, and give each matrix of a
stack bit for bit the result of that matrix alone.  The principal-angle
SVD in `grassmann`, the eigendecomposition in `machines.klsh` and the
active-set solves in `machines.sparse` still call numpy directly.
`one_blas_thread` runs a block on one OpenBLAS thread, so its floats do
not depend on the thread count.  `distinct` gives an integer array's
sorted distinct values from one sort: numpy's plain `np.unique` checks
for a masked array and so imports `numpy.ma` in every labeled task run.
"""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

from .exceptions import NumericalOverflow

RANK_TOLERANCE = 1e-10

# thread count setters of the OpenBLAS builds numpy loads: its wheels'
# `scipy_openblas64_`, a 64-bit-integer build and a system build; each
# has the getter of the same name with `get` for `set`
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "openblas_set_num_threads64_",
                        "openblas_set_num_threads")


@functools.cache
def _blas_thread_calls():
    """(getter, setter) of the loaded BLAS's thread count, or None.

    The libraries tried are the OpenBLAS that numpy's wheels bundle
    (`numpy.libs` on Linux and Windows, `numpy/.dylibs` on macOS), then
    the system's; loading one that numpy already loaded gives numpy's.
    """
    root = os.path.dirname(np.__file__)
    paths = (glob.glob(os.path.join(root, os.pardir, "numpy.libs",
                                    "*openblas*"))
             + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    if not paths:
        # find_library runs a helper program and imports subprocess, so
        # only when numpy bundles no OpenBLAS
        from ctypes.util import find_library
        paths = [find_library("openblas")]
    for path in filter(None, paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(library, name):
                get = getattr(library, name.replace("_set_", "_get_"))
                set_ = getattr(library, name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the enclosed block, or the decorated function, on one BLAS
    thread, and restore the thread count afterwards.

    A multithreaded BLAS product or LAPACK reduction does not fix its
    summation order, so its last bits can change with the thread count.
    With one thread a run gives the same floats at any
    `OPENBLAS_NUM_THREADS`.  Does nothing when no OpenBLAS thread setter
    is found (another BLAS, or an unusual install).
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get_threads, set_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def distinct(values):
    """The sorted distinct entries of an integer array, as `np.unique`
    gives them in values and dtype: one sort and a mask of the entries
    that differ from their left neighbour, the first always kept."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def as_matrix(values):
    """Coerce input to a 2-D float64 array with finite entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError("matrix must have at least one entry")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _as_matrices(values):
    """A float64 matrix or (k, r, c) stack of them, checked as as_matrix
    checks one matrix."""
    m = np.asarray(values, dtype=np.float64)
    as_matrix(m.reshape(len(m) * m.shape[1], m.shape[2]) if m.ndim == 3
              else m)
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
        raise ValueError(f"{what} needs a square matrix, got {m.shape}")


def svd(m):
    """Thin singular value decomposition m = u @ diag(s) @ v.T.

    Returns (u, s, v) with s nonnegative and sorted descending.  When
    LAPACK does not converge, numpy's LinAlgError passes through.
    """
    m = as_matrix(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return u, s, vt.T


def orthonormalize(m):
    """Orthonormal basis spanning the columns of m, preserving column order;
    for a (k, d, p) stack, the stack of each matrix's basis.

    Uses QR with the diagonal of R forced positive, so an input that is
    already orthonormal (or diagonal with positive entries) comes back
    without sign flips.  numpy's svd and qr call LAPACK once per matrix,
    so each basis of a stack is bit for bit that of its matrix alone.
    Raises ValueError when a smallest singular value falls below
    RANK_TOLERANCE times the largest, naming the matrix of a stack.
    """
    m = _as_matrices(m)
    d, p = m.shape[-2:]
    if d < p:
        raise ValueError(f"cannot orthonormalize {p} columns in R^{d}")
    s = np.linalg.svd(m, compute_uv=False).reshape(-1, p)
    deficient = (s[:, 0] == 0.0) | (s[:, -1] < RANK_TOLERANCE * s[:, 0])
    if deficient.any():
        i = int(np.argmax(deficient))
        where = f"matrix {i}: " if m.ndim == 3 else ""
        raise ValueError(
            f"{where}column rank below {p}: singular value ratio "
            f"{s[i, -1]:.3e} / {s[i, 0]:.3e}")
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    return q * signs[..., None, :]


def symmetric_eigenvalues(m):
    """Eigenvalues of the symmetric part (m + m.T) / 2, ascending.  m is
    halved before the sum, which then cannot overflow.  Raises
    NumericalOverflow when an eigenvalue leaves the float range."""
    m = as_matrix(m) / 2.0
    _require_square(m, "eigenvalue computation")
    return require_finite(np.linalg.eigvalsh(m + m.T), "eigenvalues")


def determinant(m):
    """Determinant of a square matrix, or the array of them for a stack.

    A 2 x 2 determinant is ad - bc in closed form, elementwise over a
    (k, 2, 2) stack; every other size goes to LAPACK, which factors each
    matrix of a (k, n, n) stack on its own.  Either way each determinant
    is bit for bit that of its matrix alone.
    """
    m = _as_matrices(m)
    _require_square(m, "determinant")
    if m.shape[-1] == 2:
        det = m[..., 0, 0] * m[..., 1, 1]
        det -= m[..., 0, 1] * m[..., 1, 0]
    else:
        det = np.linalg.det(m)
    return det if m.ndim == 3 else float(det)
