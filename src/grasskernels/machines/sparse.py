"""Kernelized sparse coding by feature-sign search.

A query with kernel self-similarity q and kernel column vector k against
a dictionary with Gram matrix K is coded by minimizing

    f(y) = y.T K y - 2 y.T k + q + lam * ||y||_1

which is the feature-space lasso residual.  Feature-sign search (Lee,
Battle, Raina & Ng, "Efficient sparse coding algorithms", NIPS 2007), an
active-set method of the homotopy family of Osborne, Presnell & Turlach
(2000), solves it exactly.  Starting from y = 0 it keeps an active set
of atoms with fixed signs theta.  When the active coefficients are
optimal, the zero coefficient with the largest gradient |g_i| > lam
joins the set with the sign that lowers f.  Each step then solves the
sign-constrained problem on the active set,

    K[A, A] y_A = k_A - (lam / 2) theta_A,

and a line search from the current code to that solution checks every
point where a coefficient crosses zero, keeping the one of lowest f.
On a positive definite dictionary every step lowers f, and the optimum
is reached after finitely many steps (Lee et al.).

The line search keeps K y' with each point y' it evaluates, so a sweep
multiplies K by the accepted code once; that product then gives the
next gradient, whose violations of the optimality conditions choose
the next step.  A step is accepted when its change in f,

    d.T K (y' + y) - 2 d.T k + lam (|y'|_1 - |y|_1),   d = y' - y,

is negative.  The difference of two absolute values of f would carry
the constant q, and on ill-conditioned dictionaries (condition numbers
of 1e5 and more) the last true decreases are lost to its roundoff.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import (DimensionMismatch, NotPositiveSemidefinite,
                          ZeroCode)
from ..kernels import certify_pd

MAX_SWEEPS = 10_000
KKT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SparseCode:
    """A fitted code and its optimization trace.

    `objective_history` records after every sweep the lowest value of f
    computed at the zero code and the codes accepted since, so it never
    increases; `objective` is its last entry.  Near the optimum a step
    accepted for its negative change in f can compute f a few ulp above
    the last entry, which then stands.  `kkt_residual` is the largest
    violation of the optimality conditions of f at the returned code,
    and `converged` says whether it is within the tolerance.
    """

    coefficients: np.ndarray
    lam: float
    objective: float
    objective_history: Tuple[float, ...]
    sweeps: int
    converged: bool
    kkt_residual: float


def _objective(kmat, k, q, lam, y):
    """f(y), and the product K y it is computed from."""
    ky = kmat @ y
    return (float(y @ ky - 2.0 * (y @ k) + q + lam * np.abs(y).sum()),
            ky)


def _kkt(y, ky, k, lam):
    """The gradient g = 2 (K y - k) of the smooth part of f at y, each
    coefficient's distance of 0 from the subdifferential of f, and the
    KKT residual, the largest of those distances.

    A nonzero coefficient needs g_i = -lam * sign(y_i), a zero one
    |g_i| <= lam.
    """
    gradient = 2.0 * (ky - k)
    violation = np.where(y != 0.0, np.abs(gradient + lam * np.sign(y)),
                         np.maximum(np.abs(gradient) - lam, 0.0))
    return gradient, violation, float(violation.max(initial=0.0))


def _feature_sign_step(kmat, k, q, lam, y, ky, gradient, violation):
    """One active-set step from y: (new y, its f, its K y), or None if f
    would not drop.

    `ky`, `gradient` and `violation` are those of y.  A singular or
    non-finite solve, or a line search whose best point has no negative
    change in f, ends the step without a move.
    """
    signs = np.sign(y)
    if violation[signs != 0.0].max(initial=0.0) <= KKT_TOLERANCE:
        # the active coefficients are optimal: the zero coefficient with
        # the largest violation joins them, with the sign that lowers f
        entering = int(np.where(signs == 0.0, violation, -1.0).argmax())
        signs[entering] = -np.sign(gradient[entering])
    active = signs.nonzero()[0]
    try:
        target = np.linalg.solve(kmat[active[:, None], active],
                                 k[active] - 0.5 * lam * signs[active])
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(target).all():
        return None
    start = y[active]
    direction = target - start
    best_y = y.copy()
    best_y[active] = target
    best, best_ky = _objective(kmat, k, q, lam, best_y)
    # the points on the way where a coefficient changes sign
    for j in (start * target < 0.0).nonzero()[0]:
        candidate = y.copy()
        candidate[active] = start + (start[j] / -direction[j]) * direction
        candidate[active[j]] = 0.0
        value, candidate_ky = _objective(kmat, k, q, lam, candidate)
        if value < best:
            best_y, best, best_ky = candidate, value, candidate_ky
    d = best_y - y
    change = (d @ (best_ky + ky) - 2.0 * (d @ k)
              + lam * (np.abs(best_y).sum() - np.abs(y).sum()))
    if not change < 0.0:
        return None
    return best_y, best, best_ky


def kernel_sparse_code(dict_gram, query_column, query_self, lam,
                       max_sweeps=MAX_SWEEPS, check_psd=True):
    """Code one query against a dictionary held as a Gram matrix.

    `query_column[t]` is the kernel between the query and dictionary
    atom t, and `query_self` the kernel of the query with itself.  A
    sweep is one feature-sign step: choose the active set and signs,
    solve on it and line-search to the solution.  The solve stops once
    the largest violation of the optimality conditions (the KKT
    residual) is at most KKT_TOLERANCE, after `max_sweeps` sweeps, or when
    a step cannot lower f (a singular or indefinite active block); the
    result's `converged` and `kkt_residual` say which.  A code that is
    zero from the start takes one sweep.

    Dictionaries whose Gram matrix is not positive semidefinite are
    rejected; callers that certify once and code many queries can pass
    check_psd=False to skip the repeated eigenvalue check.
    """
    kmat = dict_gram.values
    n = kmat.shape[0]
    k = np.asarray(query_column, dtype=np.float64).ravel()
    if k.shape != (n,):
        raise DimensionMismatch(
            f"query column must have {n} entries, got {k.shape}")
    if not lam > 0.0:
        raise ValueError(f"penalty lam must be positive, got {lam}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if check_psd and not certify_pd(dict_gram, mode="pd").passed:
        raise NotPositiveSemidefinite(
            "dictionary Gram matrix has a negative eigenvalue beyond "
            "roundoff; the coding objective would be unbounded")

    q = float(query_self)
    y = np.zeros(n)
    objective, ky = _objective(kmat, k, q, lam, y)
    gradient, violation, residual = _kkt(y, ky, k, lam)
    history = []
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        step = None
        if residual > KKT_TOLERANCE:
            step = _feature_sign_step(kmat, k, q, lam, y, ky, gradient,
                                      violation)
        if step is not None:
            y, value, ky = step
            objective = min(objective, value)
            gradient, violation, residual = _kkt(y, ky, k, lam)
        history.append(objective)
        if step is None or residual <= KKT_TOLERANCE:
            break
    return SparseCode(
        coefficients=y,
        lam=float(lam),
        objective=history[-1],
        objective_history=tuple(history),
        sweeps=sweeps,
        converged=residual <= KKT_TOLERANCE,
        kkt_residual=residual,
    )


def sparse_code_classify(code, atom_labels):
    """Label of the atom with the largest absolute coefficient.

    Ties go to the lowest atom index.  Raises ZeroCode when every
    coefficient is zero, which signals that the penalty was too large
    for the query.
    """
    labels = np.asarray(atom_labels)
    weight = np.abs(code.coefficients)
    if labels.shape != weight.shape:
        raise DimensionMismatch(
            f"need {weight.size} atom labels, got {labels.shape}")
    if not np.any(weight > 0.0):
        raise ZeroCode("all coefficients are zero; no atom to attribute")
    return labels[int(np.argmax(weight))]
