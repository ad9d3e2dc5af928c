"""Kernelized locality-sensitive hashing over precomputed Gram matrices.

Each hash bit approximates a random Gaussian projection in the implicit
feature space: draw t anchor points, whiten them with the inverse square
root of their kernel submatrix, and project onto the mean direction of a
random half of them.  Binarizing the projection at zero gives bits whose
collision probability grows with kernel similarity.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import kernels
from ..exceptions import DimensionMismatch, InsufficientData

DEFAULT_ANCHORS = 30

# eigenvalues below this are treated as zero when inverting
EIGENVALUE_FLOOR = 1e-10

# bits whitened per stacked eigendecomposition
_BIT_BLOCK = 4


@dataclass(frozen=True)
class HashFamily:
    """A trained family of hash bits.

    `anchor_indices[b]` lists the training indices anchoring bit b and
    `projection_weights[:, b]` the weights applied to the kernel values
    against those anchors.  `training_refs` keeps the training subspaces
    (when provided) so out-of-sample queries can be hashed.
    """

    spec: Optional[kernels.KernelSpec]
    anchor_indices: np.ndarray
    projection_weights: np.ndarray
    training_refs: Optional[Tuple] = None

    @property
    def bit_count(self):
        return self.anchor_indices.shape[0]

    @property
    def anchor_count(self):
        return self.anchor_indices.shape[1]


def _whitened_weights(k, anchor_indices, indicators):
    """(anchors, bits) projection weights: column b is K_SS^{-1/2} times
    indicator b, where S lists bit b's anchors.

    The bits are whitened `_BIT_BLOCK` at a time through one stacked
    eigendecomposition, which keeps the peak allocation near that of a
    single bit while sharing the per-call overhead.
    """
    bits, anchors = anchor_indices.shape
    weights = np.empty((anchors, bits))
    for start in range(0, bits, _BIT_BLOCK):
        block = slice(start, start + _BIT_BLOCK)
        idx = anchor_indices[block]
        m = k[idx[:, :, None], idx[:, None, :]]
        values, vectors = np.linalg.eigh((m + m.transpose(0, 2, 1)) / 2.0)
        inv = np.where(values > EIGENVALUE_FLOOR, values, np.inf) ** -0.5
        whiteners = (vectors * inv[:, None, :]) @ vectors.transpose(0, 2, 1)
        weights[:, block] = (whiteners @ indicators[block, :, None])[:, :, 0].T
    return weights


def klsh_build(gram_matrix, bits, anchors=DEFAULT_ANCHORS, seed=0,
               refs=None):
    """Build a hash family from the Gram matrix of the database.

    For every bit, `anchors` database points are drawn without
    replacement, and ceil(anchors / 2) of them form the random half
    whose whitened indicator provides the projection direction.
    """
    k = gram_matrix.values
    n = k.shape[0]
    if bits < 1:
        raise ValueError(f"need at least one bit, got {bits}")
    if anchors < 1 or anchors > n:
        raise InsufficientData(
            f"cannot draw {anchors} anchors from {n} points")
    if refs is not None and len(refs) != n:
        raise DimensionMismatch(f"need {n} training refs, got {len(refs)}")

    rng = np.random.default_rng(seed)
    half = math.ceil(anchors / 2)
    anchor_indices = np.empty((bits, anchors), dtype=np.intp)
    indicators = np.full((bits, anchors), -half / anchors)
    for b in range(bits):
        anchor_indices[b] = rng.choice(n, size=anchors, replace=False)
        indicators[b, rng.choice(anchors, size=half, replace=False)] += 1.0
    weights = _whitened_weights(k, anchor_indices, indicators)
    return HashFamily(
        spec=gram_matrix.spec,
        anchor_indices=anchor_indices,
        projection_weights=weights,
        training_refs=tuple(refs) if refs is not None else None,
    )


def _keys(family, k):
    """(q, bits) key bits of q points; column j of k holds point j's
    kernel values against the training points."""
    keys = np.empty((k.shape[1], family.bit_count), dtype=np.uint8)
    for b in range(family.bit_count):
        scores = family.projection_weights[:, b] @ k[family.anchor_indices[b]]
        keys[:, b] = scores > 0.0
    return keys


def klsh_hash_gram(family, gram_matrix):
    """Hash every point behind the Gram matrix used to build the family.

    Returns an (n, bits) uint8 array of key bits.
    """
    return _keys(family, gram_matrix.values)


def klsh_hash(family, query):
    """Hash one out-of-sample subspace, returning a (bits,) uint8 key."""
    if family.training_refs is None:
        raise ValueError("family was built without refs; "
                         "hash through klsh_hash_gram instead")
    if family.spec is None:
        raise ValueError("family has no kernel spec to evaluate with")
    needed = np.unique(family.anchor_indices)
    column = np.full((int(needed.max()) + 1, 1), np.nan)
    column[needed, 0] = kernels.cross_gram(
        family.spec, [query], [family.training_refs[t] for t in needed])[0]
    return _keys(family, column)[0]


def hamming_distance(key_a, key_b):
    """Number of differing bits between two keys."""
    a = np.asarray(key_a)
    b = np.asarray(key_b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"keys differ in shape: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def rank_by_hamming(db_keys, key, top_m):
    """Indices of the `top_m` database keys closest to `key` in Hamming
    distance, ties broken by ascending database index."""
    db = np.asarray(db_keys)
    if db.ndim != 2 or db.shape[0] == 0:
        raise InsufficientData("hash database is empty")
    distances = np.count_nonzero(db != np.asarray(key)[None, :], axis=1)
    order = np.argsort(distances, kind="stable")
    return order[:top_m]


def klsh_query(family, db_keys, query, top_m):
    """Hash an out-of-sample query and rank the database against it."""
    return rank_by_hamming(db_keys, klsh_hash(family, query), top_m)
