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
"""

from dataclasses import dataclass

import numpy as np

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


def _best_partner(gaps, curvatures):
    """Index and value of the largest second-order gain gap^2 / a.

    `gaps[t]` is the KKT violation of pairing the fixed index f with t,
    and `curvatures[t]` is a = K_ff + K_tt - 2 K_ft floored at _TAU; only
    positive gaps count.
    """
    gains = np.where(gaps > 0.0, gaps * gaps / curvatures, -np.inf)
    best = int(np.argmax(gains))
    return best, gains[best]


def svm_train(gram_matrix, labels, c=1.0, max_iterations=MAX_ITERATIONS):
    """Train on a precomputed Gram matrix with labels in {-1, +1}.

    Runs until the maximal KKT violation drops to KKT_TOLERANCE.  Raises
    ConvergenceFailure (carrying the remaining gap) if the iteration
    budget runs out first, and DegenerateLabels when only one class is
    present.
    """
    y = np.asarray(labels, dtype=np.float64)
    k = gram_matrix.values
    n = k.shape[0]
    if y.shape != (n,):
        raise DimensionMismatch(
            f"need {n} labels for a {n} x {n} Gram matrix, got {y.shape}")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise DegenerateLabels("training labels contain a single class")
    if not c > 0.0:
        raise ValueError(f"penalty c must be positive, got {c}")

    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
    positive = y > 0.0
    diagonal = np.diag(k)
    # every pair's curvature K_ii + K_jj - 2 K_ij, floored, built once
    curvatures = np.maximum(diagonal[:, None] + diagonal - 2.0 * k, _TAU)

    # which duals can still move along +y and along -y; a step changes
    # only alpha_i and alpha_j, so only their entries are recomputed
    can_raise = np.where(positive, alpha < c, alpha > 0.0)
    can_lower = np.where(positive, alpha > 0.0, alpha < c)
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        score = -y * grad
        up = np.where(can_raise, score, -np.inf)
        top = int(np.argmax(up))
        down = np.where(can_lower, score, np.inf)
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
        # box limits for alpha_i + y_i * step and alpha_j - y_j * step
        limit_i = c - alpha[i] if positive[i] else alpha[i]
        limit_j = alpha[j] if positive[j] else c - alpha[j]
        step = min(step, limit_i, limit_j)

        old_i, old_j = alpha[i], alpha[j]
        if step == limit_i:
            alpha[i] = c if positive[i] else 0.0
        else:
            alpha[i] = old_i + y[i] * step
        if step == limit_j:
            alpha[j] = 0.0 if positive[j] else c
        else:
            alpha[j] = old_j - y[j] * step
        grad += y * (k[:, i] * (y[i] * (alpha[i] - old_i))
                     + k[:, j] * (y[j] * (alpha[j] - old_j)))
        for t in (i, j):
            above, below = alpha[t] > 0.0, alpha[t] < c
            can_raise[t], can_lower[t] = ((below, above) if positive[t]
                                          else (above, below))
    else:
        raise ConvergenceFailure(
            f"no convergence after {max_iterations} iterations, "
            f"remaining KKT gap {residual:.3e}",
            iterations=max_iterations, gap=float(residual))

    score = -y * grad
    free = (alpha > 0.0) & (alpha < c)
    if np.any(free):
        bias = float(np.mean(score[free]))
    else:
        hi = np.max(np.where(can_raise, score, -np.inf))
        lo = np.min(np.where(can_lower, score, np.inf))
        bias = float((hi + lo) / 2.0)

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
