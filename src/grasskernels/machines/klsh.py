"""Kernelized locality-sensitive hashing over precomputed Gram matrices.

Each hash bit approximates a random Gaussian projection in the implicit
feature space: draw t anchor points, whiten them with the inverse square
root of their kernel submatrix, and project onto the mean direction of a
random half of them.  Binarizing the projection at zero gives bits whose
collision probability grows with kernel similarity.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import InsufficientData

# eigenvalues below this are treated as zero when inverting
EIGENVALUE_FLOOR = 1e-10

# bits whitened per stacked eigendecomposition, and hashed per stacked
# product
_BIT_BLOCK = 4


@dataclass(frozen=True)
class HashFamily:
    """A trained family of hash bits.

    `anchor_indices[b]` lists the training indices anchoring bit b and
    `projection_weights[:, b]` the weights applied to the kernel values
    against those anchors.
    """

    anchor_indices: np.ndarray
    projection_weights: np.ndarray

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
        # a GramMatrix is exactly symmetric, and so is each anchor block
        values, vectors = np.linalg.eigh(k[idx[:, :, None], idx[:, None, :]])
        inv = np.where(values > EIGENVALUE_FLOOR, values, np.inf) ** -0.5
        whiteners = (vectors * inv[:, None, :]) @ vectors.transpose(0, 2, 1)
        weights[:, block] = (whiteners @ indicators[block, :, None])[:, :, 0].T
    return weights


def klsh_build(gram_matrix, bits, anchors, seed=0):
    """Build a hash family from the Gram matrix of the database.

    For every bit, `anchors` database points are drawn without
    replacement, and ceil(anchors / 2) of them form the random half
    whose whitened indicator provides the projection direction.  With
    fewer than two anchors that half is every anchor, the centred
    indicator is zero and so is every bit, so `anchors` must be at
    least 2.
    """
    k = gram_matrix.values
    n = k.shape[0]
    if bits < 1:
        raise ValueError(f"need at least one bit, got {bits}")
    if anchors < 2 or anchors > n:
        raise InsufficientData(
            f"cannot draw {anchors} anchors from {n} points")

    rng = np.random.default_rng(seed)
    half = math.ceil(anchors / 2)
    anchor_indices = np.empty((bits, anchors), dtype=np.intp)
    indicators = np.full((bits, anchors), -half / anchors)
    for b in range(bits):
        anchor_indices[b] = rng.choice(n, size=anchors, replace=False)
        indicators[b, rng.choice(anchors, size=half, replace=False)] += 1.0
    weights = _whitened_weights(k, anchor_indices, indicators)
    return HashFamily(
        anchor_indices=anchor_indices,
        projection_weights=weights,
    )


def klsh_hash_gram(family, gram_matrix):
    """Hash every point behind the Gram matrix used to build the family.

    Returns an (n, bits) uint8 array of key bits.  Bit b's scores are
    column b of the weights times the Gram rows of its anchors.  The
    bits are scored `_BIT_BLOCK` at a time by one stacked vector-matrix
    product, which gives each bit's scores bit for bit as its own
    product does and gathers the Gram rows of only a few bits at once.
    """
    k = gram_matrix.values
    weights = family.projection_weights.T[:, None, :]
    keys = np.empty((k.shape[0], family.bit_count), dtype=np.uint8)
    for start in range(0, family.bit_count, _BIT_BLOCK):
        block = slice(start, start + _BIT_BLOCK)
        scores = np.matmul(weights[block], k[family.anchor_indices[block]])
        keys[:, block] = (scores[:, 0, :] > 0.0).T
    return keys
