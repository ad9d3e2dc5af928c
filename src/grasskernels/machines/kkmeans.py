"""Kernel k-means: Lloyd iterations expressed through the Gram matrix.

The squared distance from point i to the centroid of cluster c expands as

    K_ii - 2 * sum_{j in c} K_ij / |c| + sum_{j,l in c} K_jl / |c|^2

so assignments and inertia never need feature coordinates.  Seeding is
kernel-space k-means++; runs restart from distinct streams and the best
inertia wins, ties going to the lowest restart index.
"""

import dataclasses
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import InsufficientData

MAX_ITERATIONS = 300


@dataclass(frozen=True)
class ClusterAssignment:
    """Result of one clustering run.

    `inertia_history` holds the within-cluster sum of squares after
    seeding and after each Lloyd iteration; it never increases.
    `converged` is False when the run stopped after MAX_ITERATIONS Lloyd
    iterations with an assignment that would still change.
    `unconverged_restarts` counts the restarts of the `kkmeans` call that
    stopped so, this run included.
    """

    labels: np.ndarray
    inertia: float
    inertia_history: Tuple[float, ...]
    iterations: int
    restart: int
    converged: bool
    unconverged_restarts: int


def _pairwise_sq(k):
    diag = np.diag(k)
    return diag[:, None] + diag[None, :] - 2.0 * k


def _seed_indices(sq, n_clusters, rng):
    """Kernel k-means++ seeding over the squared point distances."""
    n = sq.shape[0]
    chosen = [int(rng.integers(n))]
    closest = sq[chosen[0]].copy()
    for _ in range(n_clusters - 1):
        total = float(np.sum(np.maximum(closest, 0.0)))
        if total <= 0.0:
            # all remaining points coincide with a seed; take the lowest
            # index not already chosen
            pick = next(i for i in range(n) if i not in chosen)
        else:
            weights = np.maximum(closest, 0.0) / total
            pick = int(rng.choice(n, p=weights))
        chosen.append(pick)
        np.minimum(closest, sq[pick], out=closest)
    return chosen


def _cluster_stats(k, labels, n_clusters):
    """Per-cluster sizes, cross sums and internal sums.

    Returns (sizes, cross, internal) where cross[i, c] is the sum of
    K_ij over members j of c and internal[c] is the sum of K_jl over
    member pairs.
    """
    n = k.shape[0]
    member = np.zeros((n, n_clusters))
    member[np.arange(n), labels] = 1.0
    sizes = member.sum(axis=0)
    cross = k @ member
    internal = np.einsum("ic,ic->c", member, cross)
    return sizes, cross, internal


def _distances(k, sizes, cross, internal):
    diag = np.diag(k)[:, None]
    safe = np.maximum(sizes, 1.0)
    d = diag - 2.0 * cross / safe + internal / (safe * safe)
    d[:, sizes == 0] = np.inf
    return d


def kkmeans(gram_matrix, n_clusters, seed=0, restarts=1):
    """Cluster the points behind a Gram matrix into `n_clusters` groups.

    Each restart r draws its randomness from default_rng([seed, r]), so
    results are reproducible.  Each run stops when the assignment is
    stable or after MAX_ITERATIONS Lloyd iterations.
    """
    k = gram_matrix.values
    n = k.shape[0]
    if not 1 <= n_clusters <= n:
        raise InsufficientData(
            f"cannot form {n_clusters} clusters from {n} points")
    if restarts < 1:
        raise ValueError("need at least one restart")

    sq = _pairwise_sq(k)
    best = None
    unconverged = 0
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        result = _single_run(k, sq, n_clusters, rng, restart)
        unconverged += int(not result.converged)
        if best is None or result.inertia < best.inertia:
            best = result
    return dataclasses.replace(best, unconverged_restarts=unconverged)


def _single_run(k, sq, n_clusters, rng, restart):
    seeds = _seed_indices(sq, n_clusters, rng)
    labels = np.argmin(sq[:, seeds], axis=1)
    labels[seeds] = np.arange(n_clusters)  # each seed anchors its cluster

    history = []
    iterations = 0
    while True:
        sizes, cross, internal = _cluster_stats(k, labels, n_clusters)
        d = _distances(k, sizes, cross, internal)
        history.append(_inertia(d, labels))
        new_labels = np.argmin(d, axis=1)
        for c in range(n_clusters):
            if np.any(new_labels == c):
                continue
            # reseed an emptied cluster from the farthest point whose own
            # cluster can spare it
            own = d[np.arange(len(new_labels)), new_labels].copy()
            counts = np.bincount(new_labels, minlength=n_clusters)
            own[counts[new_labels] <= 1] = -np.inf
            donor = int(np.argmax(own))
            new_labels[donor] = c
        converged = bool(np.array_equal(new_labels, labels))
        if converged or iterations >= MAX_ITERATIONS:
            break
        labels = new_labels
        iterations += 1

    return ClusterAssignment(
        labels=labels.astype(np.int64),
        inertia=history[-1],
        inertia_history=tuple(history),
        iterations=iterations,
        restart=restart,
        converged=converged,
        unconverged_restarts=int(not converged),
    )


def _inertia(d, labels):
    # roundoff can leave the sum a few ulp below zero for coincident points
    return float(max(np.sum(d[np.arange(len(labels)), labels]), 0.0))
