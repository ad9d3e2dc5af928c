"""Binary soft-margin support vector machine on precomputed Gram matrices.

The dual is solved by two-variable decomposition with second-order working
set selection (WSS 2 of Fan, Chen & Lin, "Working set selection using second
order information for training SVM", JMLR 6, 2005; the LIBSVM default).
Each iteration forms two candidate pairs: the maximal violator i with the
partner j that maximizes the second-order gain gap^2 / a, and the minimal
violator j with the partner i chosen the same way, where gap is the pair's
KKT violation and a = K_ii + K_jj - 2 K_ij is floored at a small positive
constant.  The candidate with the larger gain is updated.  Taking both
one-sided choices keeps the iterates symmetric under a label flip, which
swaps the roles of i and j.  Training stops when the maximal-violating-pair
gap falls to the tolerance.

Each update direction changes alpha_i by +y_i * step and alpha_j by
-y_j * step, so the label-weighted coefficient sum stays zero throughout.
Two consequences the tests lean on: the solver tolerates conditionally
positive definite Gram matrices (the curvature along every update direction
is K_ii + K_jj - 2 K_ij, which such matrices keep nonnegative), and adding a
constant to every Gram entry leaves the iterates untouched (neither the
gaps nor the curvatures see it).

Several machines on one Gram matrix, such as the one-vs-rest machines of a
multi-class split, train in lockstep: each iteration runs the one-machine
loop's statements on the rows of (m, n) arrays, one row per unfinished
machine, so each machine ends with the same model as when trained alone.
A machine leaves the arrays at the iteration its gap reaches the tolerance.
One machine keeps its own loop: as a one-row lockstep it took about 2.2
times as long per iteration, on the 20-point machine of the default `bench`
and on a 50-point one.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .. import numerics
from ..exceptions import (ConvergenceFailure, DegenerateLabels,
                          DimensionMismatch)

KKT_TOLERANCE = 1e-6
MAX_ITERATIONS = 1_000_000

# curvature floor for degenerate working pairs
_TAU = 1e-12


@dataclass(frozen=True)
class SvmModel:
    """A trained classifier.

    `dual_coefficients[t]` is alpha * y for the support vector whose
    training index is `support_indices[t]`.
    """

    support_indices: np.ndarray
    dual_coefficients: np.ndarray
    bias: float
    kkt_residual: float
    iterations: int


@dataclass(frozen=True)
class SvmModels:
    """Machines trained together on one Gram matrix, one per target row.

    `models[r]` is the SvmModel of target row r, and `iterations` is the
    sum of their iteration counts.
    """

    models: Tuple[SvmModel, ...]
    iterations: int


def _best_partner(gaps, curvatures):
    """Index and value of the largest second-order gain gap^2 / a.

    `gaps[t]` is the KKT violation of pairing the fixed index f with t,
    and `curvatures[t]` is a = K_ff + K_tt - 2 K_ft floored at _TAU; only
    positive gaps count.
    """
    gains = np.where(gaps > 0.0, gaps * gaps / curvatures, -np.inf)
    best = int(np.argmax(gains))
    return best, gains[best]


def _best_partners(gaps, curvatures, starts):
    """`_best_partner` of each row of (m, n) gaps and curvatures.

    `starts[r]` is the flat index of row r's first entry.
    """
    gains = np.where(gaps > 0.0, gaps * gaps / curvatures, -np.inf)
    best = gains.argmax(axis=1)
    return best, gains.ravel()[starts + best]


def _pair_key(a, b, n):
    """Sorted index pairs as integers that order like the sorted tuples."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def svm_train(gram_matrix, labels, c=1.0):
    """Train on a precomputed Gram matrix with labels in {-1, +1}.

    `labels` is one target vector, which trains one machine and returns
    its SvmModel, or an (m, n) matrix of target rows, which trains the m
    machines in lockstep and returns SvmModels; each row's model equals
    training that row alone.  Runs until every maximal KKT violation
    drops to KKT_TOLERANCE.  Raises ConvergenceFailure (carrying the
    largest remaining gap) if MAX_ITERATIONS iterations run out first,
    DegenerateLabels when a target holds a single class, and
    NumericalOverflow when a pair's curvature leaves the float range.
    """
    y = np.asarray(labels, dtype=np.float64)
    k = gram_matrix.values
    n = k.shape[0]
    if y.ndim not in (1, 2) or y.shape[-1] != n or y.size == 0:
        raise DimensionMismatch(
            f"need {n} labels per target for a {n} x {n} Gram matrix, "
            f"got {y.shape}")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be -1 or +1")
    if np.any(np.all(y == y[..., :1], axis=-1)):
        raise DegenerateLabels("training labels contain a single class")
    if not 0.0 < c < np.inf:
        raise ValueError(f"penalty c must be positive, got {c}")

    # every pair's curvature K_ii + K_jj - 2 K_ij, floored, built once
    curvatures = np.maximum(numerics.gram_distances_sq(k), _TAU)
    if y.ndim == 1:
        return _train_one(k, y, c, curvatures)
    models = _train_lockstep(k, y, c, curvatures)
    return SvmModels(models=tuple(models),
                     iterations=sum(model.iterations for model in models))


def _train_one(k, y, c, curvatures):
    n = k.shape[0]
    alpha = np.zeros(n)
    score = y.copy()  # -y * gradient at alpha = 0
    # where each dual ends when it moves along +y: c for a positive
    # label, 0 for a negative one; it ends at c - raise_end along -y.  So
    # alpha can still move along +y while y * alpha < raise_end, and
    # along -y while y * alpha > raise_end - c.
    raise_end = np.where(y > 0.0, c, 0.0)
    residual = np.inf
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        signed = y * alpha
        up = np.where(signed < raise_end, score, -np.inf)
        top = int(np.argmax(up))
        down = np.where(signed > raise_end - c, score, np.inf)
        bottom = int(np.argmin(down))
        residual = up[top] - down[bottom]
        if residual <= KKT_TOLERANCE:
            break

        # one-sided second-order choices: the best partner j of the
        # maximal violator and the best partner i of the minimal one
        j, gain_j = _best_partner(up[top] - down, curvatures[top])
        i, gain_i = _best_partner(up - down[bottom], curvatures[bottom])
        # a label flip swaps the two choices; ties go to the pair with the
        # smaller sorted indices, which the flip leaves alone
        if gain_j > gain_i or (gain_j == gain_i and sorted((top, j))
                               <= sorted((i, bottom))):
            i = top
        else:
            j = bottom

        step = (up[i] - down[j]) / curvatures[i, j]
        # alpha_i moves along +y_i and alpha_j along -y_j; each step stops
        # at the end of that move
        old_i, old_j = alpha[i], alpha[j]
        end_i, end_j = raise_end[i], c - raise_end[j]
        limit_i, limit_j = abs(end_i - old_i), abs(end_j - old_j)
        step = min(step, limit_i, limit_j)
        alpha[i] = end_i if step == limit_i else old_i + y[i] * step
        alpha[j] = end_j if step == limit_j else old_j - y[j] * step
        score -= (k[i] * (y[i] * (alpha[i] - old_i))
                  + k[j] * (y[j] * (alpha[j] - old_j)))
    else:
        _budget_spent(residual)

    return _model(alpha, y, c, score, up, down, residual, iterations)


def _train_lockstep(k, y, c, curvatures):
    """The loop of `_train_one` on every target row at once.

    Row r of each (m, n) array belongs to machine `machine[r]`; a machine
    that converges is finished and its row dropped.  Single entries are
    read and written through flat indices, row start plus column.
    """
    m, n = y.shape
    models = [None] * m
    machine = np.arange(m)
    alpha = np.zeros((m, n))
    score = y.copy()
    raise_end = np.where(y > 0.0, c, 0.0)
    residual = np.full(m, np.inf)
    starts = np.arange(0, alpha.size, n)
    for iteration in range(1, MAX_ITERATIONS + 1):
        signed = y * alpha
        up = np.where(signed < raise_end, score, -np.inf)
        top = up.argmax(axis=1)
        down = np.where(signed > raise_end - c, score, np.inf)
        bottom = down.argmin(axis=1)
        up_top = up.ravel()[starts + top]
        down_bottom = down.ravel()[starts + bottom]
        residual = up_top - down_bottom
        done = residual <= KKT_TOLERANCE
        if done.any():
            for r in done.nonzero()[0]:
                models[machine[r]] = _model(alpha[r], y[r], c, score[r],
                                            up[r], down[r], residual[r],
                                            iteration)
            left = ~done
            if not left.any():
                break
            (machine, y, alpha, score, raise_end, up, down, top, bottom,
             up_top, down_bottom, residual) = (
                 array[left] for array in (
                     machine, y, alpha, score, raise_end, up, down, top,
                     bottom, up_top, down_bottom, residual))
            starts = np.arange(0, alpha.size, n)

        j, gain_j = _best_partners(up_top[:, None] - down, curvatures[top],
                                   starts)
        i, gain_i = _best_partners(up - down_bottom[:, None],
                                   curvatures[bottom], starts)
        first = (gain_j > gain_i) | ((gain_j == gain_i) & (
            _pair_key(top, j, n) <= _pair_key(i, bottom, n)))
        i = np.where(first, top, i)
        j = np.where(first, j, bottom)

        flat_i, flat_j = starts + i, starts + j
        step = ((up.ravel()[flat_i] - down.ravel()[flat_j])
                / curvatures[i, j])
        duals, labels, ends = alpha.ravel(), y.ravel(), raise_end.ravel()
        old_i, old_j = duals[flat_i], duals[flat_j]
        y_i, y_j = labels[flat_i], labels[flat_j]
        end_i, end_j = ends[flat_i], c - ends[flat_j]
        limit_i = np.abs(end_i - old_i)
        limit_j = np.abs(end_j - old_j)
        step = np.minimum(np.minimum(step, limit_i), limit_j)

        new_i = np.where(step == limit_i, end_i, old_i + y_i * step)
        new_j = np.where(step == limit_j, end_j, old_j - y_j * step)
        duals[flat_i] = new_i
        duals[flat_j] = new_j
        score -= (k[i] * (y_i * (new_i - old_i))[:, None]
                  + k[j] * (y_j * (new_j - old_j))[:, None])
    else:
        _budget_spent(residual.max())
    return models


def _budget_spent(residual):
    raise ConvergenceFailure(
        f"no convergence after {MAX_ITERATIONS} iterations, "
        f"remaining KKT gap {residual:.3e}",
        iterations=MAX_ITERATIONS, gap=float(residual))


def _model(alpha, y, c, score, up, down, residual, iterations):
    """The SvmModel of converged duals.

    `score` is -y * gradient, and `up` and `down` are the scores of the
    duals that can still move along +y and along -y, the others set to
    -inf and +inf.
    """
    free = (alpha > 0.0) & (alpha < c)
    if np.any(free):
        bias = float(np.mean(score[free]))
    else:
        bias = float((np.max(up) + np.min(down)) / 2.0)

    support = np.flatnonzero(alpha > 0.0)
    return SvmModel(
        support_indices=support,
        dual_coefficients=alpha[support] * y[support],
        bias=bias,
        kkt_residual=float(max(residual, 0.0)),
        iterations=iterations,
    )


def svm_decision_from_rows(model, rows):
    """Decision values from kernel rows against the full training set.

    `rows[q, t]` must hold the kernel between query q and training point
    t, in the training order used at fit time.  For new subspaces,
    `kernels.cross_gram(spec, queries, training_points)` gives the rows.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return rows[:, model.support_indices] @ model.dual_coefficients \
        + model.bias
