"""Subspace geometry: principal angles, distances and explicit embeddings.

A p-dimensional subspace of R^d is represented by an orthonormal d x p
basis matrix.  All quantities defined here depend only on the span, never
on the particular basis, and the tests hold the implementations to that.
"""

import itertools
import math

import numpy as np

from . import numerics

EMBEDDING_CAP = 10_000
EMBEDDINGS = ("bc", "projection")  # Binet-Cauchy and projection similarity

_ORTHONORMALITY_TOL = 1e-10
_PROJECTOR_EQ_TOL = 1e-8

# entries that one matrix product of _products may produce; 2**15
# doubles are 256 KiB
_BLOCK_ENTRIES = 2**15

# _products pads its right side with zero columns to a multiple of this
# width: OpenBLAS 0.3.31 on AVX-512 takes a narrower column tail of a
# large product through a kernel whose sums can differ in the last bit
# from those of the pair's own product
_COLUMN_MULTIPLE = 8


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
        problem = basis_problem(basis[None])
        if problem is not None:
            raise ValueError(problem[1])
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


def basis_problem(bases):
    """(index, reason) of the first basis of a (k, d, p) float64 stack
    that a Subspace refuses, or None when it takes them all.

    The one rule of Subspace, applied to the whole stack at once: 0 < p
    < d, finite entries, and columns orthonormal to within
    _ORTHONORMALITY_TOL in max |B.T @ B - I|.
    """
    _, d, p = bases.shape
    if not 0 < p < d:
        return 0, f"subspace dimensions need 0 < p < d, got d={d}, p={p}"
    finite = np.isfinite(bases).all(axis=(1, 2))
    # inf and huge entries make inf or nan defects; the finite mask
    # names the former
    with np.errstate(all="ignore"):
        defects = np.abs(np.matmul(bases.swapaxes(1, 2), bases)
                         - np.eye(p)).max(axis=(1, 2))
    bad = ~finite | ~(defects <= _ORTHONORMALITY_TOL)
    if not bad.any():
        return None
    index = int(np.argmax(bad))
    if not finite[index]:
        return index, "matrix entries must be finite"
    return index, (f"basis columns are not orthonormal (defect "
                   f"{defects[index]:.3e}); pass the matrix through "
                   "numerics.orthonormalize first")


def checked_subspaces(bases):
    """A Subspace for each basis of a C-ordered (k, d, p) stack that
    basis_problem passed, without checking each again: the stack is
    frozen and each basis is a read-only view of it."""
    bases.setflags(write=False)
    subspaces = []
    for basis in bases:
        x = object.__new__(Subspace)
        x.basis = basis
        subspaces.append(x)
    return subspaces


def _check_pair(x, y):
    if not isinstance(x, Subspace) or not isinstance(y, Subspace):
        raise TypeError("expected Subspace operands")
    if x.basis.shape != y.basis.shape:
        raise ValueError(
            f"subspaces live on different manifolds: "
            f"(d={x.d}, p={x.p}) vs (d={y.d}, p={y.p})")


def _products(xs, ys):
    """The (len(xs), len(ys), p, p) stack of every x.T @ y, yielded in
    row blocks: C-ordered (rows, len(ys), p, p) arrays, in row order.

    The ys bases sit side by side in one d x (len(ys) p) matrix, and each
    block of xs rows takes one matrix product with it.  A block's product
    has at most _BLOCK_ENTRIES entries (one row's, when a row alone has
    more), so the temporaries stay small however many rows there are,
    and a caller that reduces each block before taking the next never
    holds the whole stack.  Entry (i, j) is bit for bit the product of
    its pair alone, at one BLAS thread and at two
    (test_similarity_matches_pair_products).
    """
    xs, ys = list(xs), list(ys)
    if not xs or not ys:
        raise ValueError("need at least one subspace on each side")
    for z in xs + ys:
        _check_pair(xs[0], z)
    n, m, p = len(xs), len(ys), xs[0].p
    if p == 1:
        # a 1 x 1 product is a BLAS dot, whose sums no matrix product
        # repeats, so lines take one dot per pair
        right = np.stack([y.basis for y in ys])
        rows = max(1, _BLOCK_ENTRIES // m)
        for start in range(0, n, rows):
            yield np.matmul(np.stack([x.basis.T for x in
                                      xs[start:start + rows]])[:, None],
                            right)
        return
    width = -(-m * p // _COLUMN_MULTIPLE) * _COLUMN_MULTIPLE
    right = np.zeros((xs[0].d, width))
    np.concatenate([y.basis for y in ys], axis=1, out=right[:, :m * p])
    rows = max(1, _BLOCK_ENTRIES // (width * p))
    for start in range(0, n, rows):
        count = min(rows, n - start)
        product = (np.hstack([x.basis for x in xs[start:start + count]]).T
                   @ right).reshape(count, p, width)
        block = np.ascontiguousarray(
            product[:, :, :m * p].reshape(count, p, m, p).swapaxes(1, 2))
        # drop the product before the caller reduces the block, and the
        # block before the next product, so no two blocks' arrays are
        # ever held at once
        del product
        yield block
        del block


def similarities(embeddings, xs, ys):
    """{embedding: similarity matrix} of every x in xs to every y in ys,
    each a len(xs) x len(ys) array, in the order `embeddings` first names
    them, all from one _products call.

    "bc" (Binet-Cauchy) gives |det(x.T @ y)|, the product of the angle
    cosines; "projection" gives ||x.T @ y||_F^2, the sum of their
    squares.  Each row block of products is reduced to its rows of every
    similarity before the next block is made: the determinants from one
    stacked call, then the squares overwrite the block in place.  So
    entry (i, j) of each is bit for bit the value of the pair alone, and
    the product stack is never held whole.
    """
    embeddings = list(dict.fromkeys(embeddings))
    for embedding in embeddings:
        if embedding not in EMBEDDINGS:
            raise ValueError(f"unknown embedding {embedding!r}")
    xs, ys = list(xs), list(ys)
    result = {embedding: np.empty((len(xs), len(ys)))
              for embedding in embeddings}
    start = 0
    for block in _products(xs, ys):
        rows, m, p, _ = block.shape
        stop = start + rows
        if "bc" in result:
            values = numerics.determinant(block.reshape(-1, p, p))
            result["bc"][start:stop] = np.abs(values, out=values).reshape(
                rows, m)
        if "projection" in result:
            # summing the p * p squares along one axis keeps the per-pair
            # order
            result["projection"][start:stop] = np.square(
                block, out=block).reshape(rows, m, p * p).sum(axis=2)
        start = stop
        # dropped before the next block is made
        del block
    return result


def similarity(embedding, xs, ys):
    """The one-embedding case of similarities, a len(xs) x len(ys) array;
    bc_inner and proj_inner are its 1 x 1 case."""
    return similarities([embedding], xs, ys)[embedding]


def _angles(products):
    # roundoff routinely pushes the cosines a few ulp outside [0, 1]
    cosines = np.linalg.svd(products, compute_uv=False)
    return np.sort(np.arccos(np.clip(cosines, 0.0, 1.0)), axis=-1)


def principal_angles(x, y):
    """Principal angles between two subspaces, an ascending array in
    [0, pi/2]: arccos of the singular values of x.T @ y, clamped into
    [0, 1].  arccos loses half the digits of a small angle: 151 of 200
    subspaces of G(3, 10) drawn from default_rng(0) give themselves angles
    up to 4.2e-8, not 0 (test_self_angles_show_arccos_roundoff)."""
    return _angles(next(_products([x], [y]))[0, 0])


def geodesic_distances(xs, ys):
    """Arc length from every x in xs to every y in ys, the norm of each
    pair's principal angles, all pairs from one _products call."""
    return np.concatenate([np.linalg.norm(_angles(block), axis=-1)
                           for block in _products(xs, ys)])


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
    (2,3).  Raises ValueError when the coordinate count exceeds
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
    ValueError when it would have more than EMBEDDING_CAP entries.
    """
    m = numerics.as_matrix(m)
    r, c = m.shape
    if not 1 <= q <= min(r, c):
        raise ValueError(
            f"minor order q={q} out of range for shape {m.shape}")
    n_rows = math.comb(r, q)
    n_cols = math.comb(c, q)
    if n_rows * n_cols > EMBEDDING_CAP:
        raise ValueError(f"compound matrix has {n_rows} x {n_cols} "
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
        raise ValueError(
            "curve length ratio is undefined for identical subspaces")
    overlap = bc_inner(x, y)
    return (2.0 - 2.0 * overlap * overlap) / (geo * geo)


def random_subspace(d, p, rng):
    """A uniformly distributed subspace, from an orthonormalized Gaussian."""
    if not 0 < p < d:
        raise ValueError(
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
        raise ValueError(f"need {p} angles, got shape {a.shape}")
    if 2 * p > d:
        raise ValueError(f"need d >= 2p to realize all angles "
                         f"(d={d}, p={p})")
    if np.any(a < 0.0) or np.any(a > np.pi / 2 + 1e-12):
        raise ValueError("principal angles must lie in [0, pi/2]")
    frame = numerics.orthonormalize(rng.standard_normal((d, 2 * p)))
    x = frame[:, :p]
    normals = frame[:, p:]
    y = x * np.cos(a) + normals * np.sin(a)
    return Subspace(x), Subspace(y)


def tilted_bases(bases, angles, draws):
    """Each basis of a (n, d, p) stack with its first k columns rotated
    toward orthogonal directions, k = draws.shape[2] <= min(p, d - p).

    Column i of basis j moves by angles[j, i] toward the i-th column of
    the orthonormalized part of draws[j], a (d, k) Gaussian draw, that
    lies in the orthogonal complement of basis j; its other columns and
    angles are left alone.  Every step is stacked (numerics.orthonormalize
    included), so basis j is bit for bit that of its stack of one.
    """
    raw = draws - bases @ (bases.swapaxes(1, 2) @ draws)
    normals = numerics.orthonormalize(raw)
    k = draws.shape[2]
    a = angles[:, None, :k]
    tilted = bases.copy()
    tilted[:, :, :k] = bases[:, :, :k] * np.cos(a) + normals * np.sin(a)
    return tilted


def tilt_subspace(x, angles, rng):
    """Rotate the basis columns of x toward random orthogonal directions.

    Column i moves by angles[i] toward the i-th column of a random
    orthonormal frame drawn inside the orthogonal complement of x.  When
    the complement is narrower than p only the first d - p columns can
    move; the remaining angles are ignored.  The one-member case of
    tilted_bases, drawing its (d, min(p, d - p)) Gaussian from `rng`.
    """
    if not isinstance(x, Subspace):
        raise TypeError("expected a Subspace")
    a = np.asarray(angles, dtype=np.float64)
    if a.ndim != 1 or a.size != x.p:
        raise ValueError(f"need {x.p} angles, got {a!r}")
    draws = rng.standard_normal((x.d, min(x.p, x.d - x.p)))
    return Subspace(tilted_bases(x.basis[None], a[None], draws[None])[0])
