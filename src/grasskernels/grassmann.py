"""Subspace geometry: principal angles, distances and explicit embeddings.

A p-dimensional subspace of R^d is represented by an orthonormal d x p
basis matrix.  All quantities defined here depend only on the span, never
on the particular basis, and the tests hold the implementations to that.
"""

import itertools
import math

import numpy as np

from . import numerics
from .exceptions import (DegenerateRatio, DimensionMismatch,
                         EmbeddingTooLarge)

EMBEDDING_CAP = 10_000
EMBEDDINGS = ("bc", "projection")  # Binet-Cauchy and projection similarity

_ORTHONORMALITY_TOL = 1e-10
_PROJECTOR_EQ_TOL = 1e-8


class Subspace:
    """A p-dimensional linear subspace of R^d.

    Held as an orthonormal d x p basis matrix, validated on construction
    and frozen afterwards.  Equality compares orthogonal projectors, so
    two different bases spanning the same subspace compare equal.

    Parameters
    ----------
    basis : array_like, shape (d, p)
        Matrix with orthonormal columns, 0 < p < d.
    """

    __slots__ = ("basis",)

    def __init__(self, basis):
        basis = numerics.as_matrix(basis).copy()
        d, p = basis.shape
        if not 0 < p < d:
            raise DimensionMismatch(
                f"subspace dimensions need 0 < p < d, got d={d}, p={p}")
        gram = basis.T @ basis
        defect = np.max(np.abs(gram - np.eye(p)))
        if defect > _ORTHONORMALITY_TOL:
            raise ValueError(
                f"basis columns are not orthonormal (defect {defect:.3e}); "
                "pass the matrix through numerics.orthonormalize first")
        basis.setflags(write=False)
        self.basis = basis

    @property
    def d(self):
        return self.basis.shape[0]

    @property
    def p(self):
        return self.basis.shape[1]

    def projector(self):
        """The orthogonal projector onto the subspace, a d x d matrix."""
        return self.basis @ self.basis.T

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.basis.shape != other.basis.shape:
            return False
        gap = np.max(np.abs(self.projector() - other.projector()))
        return bool(gap <= _PROJECTOR_EQ_TOL)

    __hash__ = None

    def __repr__(self):
        return f"Subspace(d={self.d}, p={self.p})"


def _check_pair(x, y):
    if not isinstance(x, Subspace) or not isinstance(y, Subspace):
        raise TypeError("expected Subspace operands")
    if x.basis.shape != y.basis.shape:
        raise DimensionMismatch(
            f"subspaces live on different manifolds: "
            f"(d={x.d}, p={x.p}) vs (d={y.d}, p={y.p})")


def _row_products(xs, ys):
    """One (len(ys), p, p) stack of x.T @ y per x in xs, lazily.

    The ys bases are stacked once and every product comes from the same
    batched matmul, so a product does not depend on the other inputs.
    """
    xs, ys = list(xs), list(ys)
    if not xs or not ys:
        raise DimensionMismatch("need at least one subspace on each side")
    for z in xs + ys:
        _check_pair(xs[0], z)
    stack = np.stack([y.basis for y in ys])
    return (np.matmul(x.basis.T, stack) for x in xs)


def similarity(embedding, xs, ys):
    """Similarity of every x in xs to every y in ys, a len(xs) x len(ys) array.

    "bc" (Binet-Cauchy) gives |det(x.T @ y)|, the product of the angle
    cosines; "projection" gives ||x.T @ y||_F^2, the sum of their
    squares.  Each row is one batched product and one reduction per
    block, so entry (i, j) is bit for bit the value of the pair alone;
    bc_inner and proj_inner are the 1 x 1 case.
    """
    if embedding not in EMBEDDINGS:
        raise ValueError(f"unknown embedding {embedding!r}")
    rows = _row_products(xs, ys)
    if embedding == "bc":
        return np.array([np.abs(numerics.determinant(r)) for r in rows])
    return np.array([np.square(r).reshape(len(r), -1).sum(axis=1)
                     for r in rows])


def _angles(products):
    # roundoff routinely pushes the cosines a few ulp outside [0, 1]
    cosines = np.linalg.svd(products, compute_uv=False)
    return np.sort(np.arccos(np.clip(cosines, 0.0, 1.0)), axis=-1)


def principal_angles(x, y):
    """Principal angles between two subspaces, an ascending array in
    [0, pi/2]: arccos of the singular values of x.T @ y, clamped into
    [0, 1] first.  arccos loses half the digits of a small angle, so a
    subspace against itself can give angles up to 4.2e-8, not 0 (151 of
    200 random subspaces of G(3, 10) did)."""
    return _angles(next(_row_products([x], [y]))[0])


def geodesic_distances(xs, ys):
    """Arc length from every x in xs to every y in ys, row by row."""
    return np.array([np.linalg.norm(_angles(r), axis=-1)
                     for r in _row_products(xs, ys)])


def geodesic_distance(x, y):
    """Arc length between two subspaces, the norm of the angle vector."""
    return float(geodesic_distances([x], [y])[0, 0])


def bc_inner(x, y):
    """Absolute determinant of x.T @ y, the product of angle cosines."""
    return float(similarity("bc", [x], [y])[0, 0])


def proj_inner(x, y):
    """Squared Frobenius norm of x.T @ y, the sum of squared cosines."""
    return float(similarity("projection", [x], [y])[0, 0])


def plucker_embed(x):
    """Vector of all p x p minors of the basis, in lexicographic row order.

    The result has choose(d, p) coordinates and unit norm; for a 4 x 2
    basis the six entries use rows (0,1), (0,2), (0,3), (1,2), (1,3),
    (2,3).  Raises EmbeddingTooLarge when the coordinate count exceeds
    EMBEDDING_CAP, which keeps accidental use on large manifolds from
    allocating astronomically long vectors.
    """
    if not isinstance(x, Subspace):
        raise TypeError("expected a Subspace")
    # the p-row minors of the d x p basis: its compound's one column
    coords = compound_matrix(x.basis, x.p)[:, 0]
    # minors of an orthonormal basis already have unit total norm;
    # normalize anyway so the invariant holds bit-for-bit
    coords /= np.linalg.norm(coords)
    return coords


def compound_matrix(m, q):
    """Matrix of all q x q minors of m, rows and columns lexicographic.

    Entry (i, j) is the minor of m taken from the i-th q-subset of rows
    and the j-th q-subset of columns.  Satisfies the product identity
    compound(a @ b, q) = compound(a, q) @ compound(b, q).  Raises
    EmbeddingTooLarge when it would have more than EMBEDDING_CAP entries.
    """
    m = numerics.as_matrix(m)
    r, c = m.shape
    if not 1 <= q <= min(r, c):
        raise DimensionMismatch(
            f"minor order q={q} out of range for shape {m.shape}")
    n_rows = math.comb(r, q)
    n_cols = math.comb(c, q)
    if n_rows * n_cols > EMBEDDING_CAP:
        raise EmbeddingTooLarge(f"compound matrix has {n_rows} x {n_cols} "
                                f"entries, cap is {EMBEDDING_CAP}")
    rows = np.array(list(itertools.combinations(range(r), q)))
    cols = np.array(list(itertools.combinations(range(c), q)))
    minors = m[rows[:, None, :, None], cols[None, :, None, :]]
    return numerics.determinant(minors.reshape(-1, q, q)).reshape(
        n_rows, n_cols)


def curve_length_ratio(x, y):
    """Ratio of the squared overlap chordal distance to the squared geodesic.

    The numerator is 2 - 2 * det(x.T @ y)^2.  As the two subspaces
    approach each other the ratio tends to 2, which bounds how much the
    chordal distance can understate arc length locally.  Undefined for
    identical subspaces.
    """
    _check_pair(x, y)
    geo = geodesic_distance(x, y)
    if x == y or geo == 0.0:
        raise DegenerateRatio(
            "curve length ratio is undefined for identical subspaces")
    overlap = bc_inner(x, y)
    return (2.0 - 2.0 * overlap * overlap) / (geo * geo)


def random_subspace(d, p, rng):
    """A uniformly distributed subspace, from an orthonormalized Gaussian."""
    if not 0 < p < d:
        raise DimensionMismatch(
            f"subspace dimensions need 0 < p < d, got d={d}, p={p}")
    return Subspace(numerics.orthonormalize(rng.standard_normal((d, p))))


def subspace_pair_with_angles(d, p, angles, rng):
    """A random pair of subspaces with exactly the given principal angles.

    Draws a Haar 2p-frame, takes its first p columns as x, and tilts each
    of those columns toward a distinct complementary frame column by the
    corresponding angle.  Needs d >= 2p and angles in [0, pi/2], in any
    order; angle i is realized between the i-th columns.
    """
    a = np.asarray(angles, dtype=np.float64)
    if a.shape != (p,):
        raise DimensionMismatch(f"need {p} angles, got shape {a.shape}")
    if 2 * p > d:
        raise DimensionMismatch(f"need d >= 2p to realize all angles "
                                f"(d={d}, p={p})")
    if np.any(a < 0.0) or np.any(a > np.pi / 2 + 1e-12):
        raise ValueError("principal angles must lie in [0, pi/2]")
    frame = numerics.orthonormalize(rng.standard_normal((d, 2 * p)))
    x = frame[:, :p]
    normals = frame[:, p:]
    y = x * np.cos(a) + normals * np.sin(a)
    return Subspace(x), Subspace(y)


def tilt_subspace(x, angles, rng):
    """Rotate the basis columns of x toward random orthogonal directions.

    Column i moves by angles[i] toward the i-th column of a random
    orthonormal frame drawn inside the orthogonal complement of x.  When
    the complement is narrower than p only the first d - p columns can
    move; the remaining angles are ignored.
    """
    if not isinstance(x, Subspace):
        raise TypeError("expected a Subspace")
    a = np.asarray(angles, dtype=np.float64)
    if a.ndim != 1 or a.size != x.p:
        raise DimensionMismatch(f"need {x.p} angles, got {a!r}")
    k = min(x.p, x.d - x.p)
    raw = rng.standard_normal((x.d, k))
    raw -= x.basis @ (x.basis.T @ raw)
    normals = numerics.orthonormalize(raw)
    basis = x.basis.copy()
    basis[:, :k] = basis[:, :k] * np.cos(a[:k]) + normals * np.sin(a[:k])
    return Subspace(basis)
