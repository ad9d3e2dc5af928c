"""Kernel k-means: Lloyd iterations expressed through the Gram matrix.

The squared distance from point i to the centroid of cluster c expands as

    K_ii - 2 * sum_{j in c} K_ij / |c| + sum_{j,l in c} K_jl / |c|^2

so assignments and inertia never need feature coordinates.  Seeding is
kernel-space k-means++; runs restart from distinct streams and the best
inertia wins, ties going to the lowest restart index.

The restarts train together, as the rows of (restarts, n) and
(restarts, n, clusters) arrays: each k-means++ step is one cumulative sum
over every row, and each Lloyd pass one stacked product K @ membership.
A row leaves when its assignment is stable or at its iteration budget.
Each row computes exactly what its restart computes alone, so every
restart keeps the seeds, labels, inertia history and iteration count of
its run alone.
"""

import dataclasses
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .. import numerics

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


def _seed_rows(sq, n_clusters, rngs):
    """Kernel k-means++ seeds over the squared point distances, one row of
    `n_clusters` point indices per generator in `rngs`.

    `Generator.choice(n, p=w)` returns the number of entries of
    cumsum(w) / cumsum(w)[-1] at or below one `random()` draw, so one
    cumulative sum over all rows and one draw per row pick what `choice`
    would pick for each row alone.
    """
    n = sq.shape[0]
    chosen = np.empty((len(rngs), n_clusters), dtype=np.int64)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    closest = sq[chosen[:, 0]]
    for step in range(1, n_clusters):
        weights = np.maximum(closest, 0.0)
        totals = numerics.require_finite(weights.sum(axis=1),
                                          "k-means++ weight totals")
        cdf = np.cumsum(weights / totals[:, None], axis=1)
        cdf /= cdf[:, -1:]
        for row, rng in enumerate(rngs):
            if totals[row] > 0.0:
                chosen[row, step] = np.count_nonzero(cdf[row] <= rng.random())
            else:
                # all remaining points coincide with a seed; take the
                # lowest index not already chosen
                free = np.ones(n, dtype=bool)
                free[chosen[row, :step]] = False
                chosen[row, step] = np.argmax(free)
        np.minimum(closest, sq[chosen[:, step]], out=closest)
    return chosen


def _distances(k, labels, n_clusters):
    """Squared distances (rows, n, n_clusters) from every point to every
    centroid of each row's assignment; empty clusters are at infinity."""
    rows, n = labels.shape
    member = np.zeros((rows, n, n_clusters))
    member[np.arange(rows)[:, None], np.arange(n), labels] = 1.0
    sizes = member.sum(axis=1)[:, None, :]
    cross = np.matmul(k, member)
    internal = np.einsum("ric,ric->rc", member, cross)[:, None, :]
    safe = np.maximum(sizes, 1.0)
    d = numerics.require_finite(
        np.diag(k)[:, None] - 2.0 * cross / safe + internal / (safe * safe),
        "centroid distances")
    d[np.broadcast_to(sizes == 0, d.shape)] = np.inf
    return d


def _reseed_empty(d, labels, n_clusters):
    """Give each cluster that `labels` leaves empty, in order, the
    farthest point whose own cluster can spare it (in place)."""
    for c in range(n_clusters):
        if np.any(labels == c):
            continue
        own = d[np.arange(len(labels)), labels]
        counts = np.bincount(labels, minlength=n_clusters)
        own[counts[labels] <= 1] = -np.inf
        labels[int(np.argmax(own))] = c


def kkmeans(gram_matrix, n_clusters, seed=0, restarts=1):
    """Cluster the points behind a Gram matrix into `n_clusters` groups.

    Each restart r draws its randomness from default_rng([seed, r]), so
    results are reproducible.  Each run stops when the assignment is
    stable or after MAX_ITERATIONS Lloyd iterations.  Raises
    NumericalOverflow when the Gram's values are so large that a
    distance, a seeding weight total or an inertia leaves the float
    range.
    """
    k = gram_matrix.values
    n = k.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(
            f"cannot form {n_clusters} clusters from {n} points")
    if restarts < 1:
        raise ValueError("need at least one restart")

    # overflow is reported by the finiteness checks, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sq = numerics.gram_distances_sq(k)
        seeds = _seed_rows(
            sq, n_clusters,
            [np.random.default_rng([seed, r]) for r in range(restarts)])
        labels = np.argmin(sq[:, seeds], axis=2).T
        # each seed anchors its cluster
        labels[np.arange(restarts)[:, None], seeds] = np.arange(n_clusters)
        runs = _lloyd_rows(k, labels, n_clusters)

    unconverged = sum(not run.converged for run in runs)
    # min keeps the first of equal inertias, the lowest restart
    best = min(runs, key=lambda run: run.inertia)
    return dataclasses.replace(best, unconverged_restarts=unconverged)


def _lloyd_rows(k, labels, n_clusters):
    """Lloyd iterations from each row of `labels`, all rows advancing
    together; one ClusterAssignment per row, in row order."""
    runs = [None] * len(labels)
    histories = [[] for _ in runs]
    active = np.arange(len(labels))
    iterations = 0
    while active.size:
        d = _distances(k, labels, n_clusters)
        rows = np.arange(active.size)[:, None]
        # numpy sums each row of a C-ordered array as it sums the row
        # alone; a gather through F-ordered labels would not be C-ordered
        own = np.ascontiguousarray(
            d[rows, np.arange(labels.shape[1]), labels])
        inertias = numerics.require_finite(own.sum(axis=1), "inertias")
        new_labels = np.argmin(d, axis=2)
        present = np.zeros((active.size, n_clusters), dtype=bool)
        present[rows, new_labels] = True
        for row in np.flatnonzero(~present.all(axis=1)):
            _reseed_empty(d[row], new_labels[row], n_clusters)
        stable = np.all(new_labels == labels, axis=1)
        done = stable | (iterations >= MAX_ITERATIONS)
        for row, restart in enumerate(active):
            # roundoff can leave the sum a few ulp below zero for
            # coincident points
            histories[restart].append(float(max(inertias[row], 0.0)))
            if done[row]:
                runs[restart] = ClusterAssignment(
                    labels=labels[row].astype(np.int64),
                    inertia=histories[restart][-1],
                    inertia_history=tuple(histories[restart]),
                    iterations=iterations,
                    restart=int(restart),
                    converged=bool(stable[row]),
                    unconverged_restarts=int(not stable[row]),
                )
        active, labels = active[~done], new_labels[~done]
        iterations += 1
    return runs
