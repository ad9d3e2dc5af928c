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
of 1e5 and more) the last true decreases are lost to its roundoff.  A
step is also refused when its computed f is negative beyond roundoff,
below -OBJECTIVE_ROUNDOFF times the sum of the magnitudes of the four
terms of f.  f is a squared feature-space distance plus a penalty, so
it is nonnegative on a positive semidefinite dictionary; such a value
comes from a solve on a numerically singular active block, whose huge
solution drowns f in the roundoff of y.T K y.

The queries of one call, such as the test queries of a split, are coded
in lockstep: each sweep runs one query's statements on the rows of
(Q, n) arrays, one row per unfinished query, and a query leaves the
arrays when it converges, when it has no step, or when its budget runs
out.  Active sets differ in size from row to row, so each sweep takes
the rows of each size with one mask and solves them in one stacked
`np.linalg.solve`; the ragged zero crossings of the line searches are
evaluated in one stack and compared row by row.

Every query is coded on the iterates it takes alone, bit for bit,
because each product is one BLAS call per row, as it is for one query:
`np.matmul(K, Y[:, :, None])` runs one gemv per row of Y, the stacked
`(Q, 1, n) @ (Q, n, 1)` one dot per row, and a stacked solve one LAPACK
gesv per block.  One gemm `Y @ K` sums in another order, so its products
can differ in the last bits, which can change a line search's choice and
so a code.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import NotPositiveSemidefinite
from ..kernels import certify_pd

MAX_SWEEPS = 10_000
KKT_TOLERANCE = 1e-8

# relative roundoff allowed below zero in a computed f: a factor of about
# 1e6 over the unit roundoff, for the error that y.T K y gathers from K y
OBJECTIVE_ROUNDOFF = 1e-10


@dataclass(frozen=True)
class SparseCode:
    """A fitted code and its optimization trace.

    `objective_history` records after every sweep the lowest value of f
    computed at the zero code and the codes accepted since, so it never
    increases; `objective` is its last entry.  Near the optimum a step
    accepted for its negative change in f can compute f a few ulp above
    the last entry, which then stands.  On a solve that stopped without
    converging, `objective` is f at the last accepted code, not at an
    optimum: the step that stopped it, one that did not lower f or whose
    f came out below zero beyond roundoff, is not taken.  So no accepted
    step gives a negative `objective`.  `kkt_residual` is the largest
    violation of the optimality conditions of f at the returned code,
    and `converged` says whether it is within the tolerance.
    """

    coefficients: np.ndarray
    objective: float
    objective_history: Tuple[float, ...]
    sweeps: int
    converged: bool
    kkt_residual: float


@dataclass(frozen=True)
class SparseCodes:
    """Queries coded together against one dictionary.

    `codes[r]` is the SparseCode of query column r, and `sweeps` is the
    sum of their sweep counts.
    """

    codes: Tuple[SparseCode, ...]
    sweeps: int


def _products(kmat, y):
    """K y_r of every row y_r of y, one gemv per row."""
    return np.matmul(kmat, y[:, :, None])[:, :, 0]


def _dots(a, b):
    """a_r . b_r of every pair of rows, one dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _objectives(kmat, k, q, lam, y):
    """f of every row of y; also K y, ||y||_1 and the roundoff floor of
    each f, -OBJECTIVE_ROUNDOFF times the summed magnitudes of its
    terms."""
    ky = _products(kmat, y)
    quadratic = _dots(y, ky)
    linear = 2.0 * _dots(y, k)
    l1 = np.abs(y).sum(axis=1)
    floor = -OBJECTIVE_ROUNDOFF * (np.abs(quadratic) + np.abs(linear)
                                   + np.abs(q) + lam * l1)
    return quadratic - linear + q + lam * l1, ky, l1, floor


def _kkt(y, ky, k, lam):
    """The gradient g = 2 (K y - k) of the smooth part of f at each row
    of y, each coefficient's distance of 0 from the subdifferential of
    f, and each row's KKT residual, the largest of those distances.

    A nonzero coefficient needs g_i = -lam * sign(y_i), a zero one
    |g_i| <= lam.
    """
    gradient = 2.0 * (ky - k)
    violation = np.where(y != 0.0, np.abs(gradient + lam * np.sign(y)),
                         np.maximum(np.abs(gradient) - lam, 0.0))
    return gradient, violation, violation.max(axis=1, initial=0.0)


def _solve(blocks, rhs):
    """Solutions of a (B, m, m) stack of systems, NaN for a singular one."""
    try:
        return np.linalg.solve(blocks, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        solutions = np.full(rhs.shape, np.nan)
        for b, (block, right) in enumerate(zip(blocks, rhs)):
            try:
                solutions[b] = np.linalg.solve(block, right)
            except np.linalg.LinAlgError:
                pass
        return solutions


def _targets(kmat, k, lam, signs):
    """Each row's solution of its sign-constrained problem,
    K[A, A] y_A = k_A - (lam / 2) theta_A on the atoms A of nonzero sign,
    written into a row of zeros; NaN on A when the block is singular.
    The rows of each active-set size are solved in one stacked solve.
    """
    active = signs != 0.0
    sizes = active.sum(axis=1)
    target = np.zeros(signs.shape)
    for size in np.unique(sizes).tolist():
        mask = sizes == size
        rows = mask.nonzero()[0][:, None]
        cols = active[mask].nonzero()[1].reshape(-1, size)
        rhs = k[rows, cols] - 0.5 * lam * signs[rows, cols]
        target[rows, cols] = _solve(kmat[cols[:, :, None], cols[:, None]], rhs)
    return target


def _steps(kmat, k, q, lam, y, ky, l1, gradient, violation):
    """One feature-sign step from every row of y.

    Returns whether each row moved, and the rows' codes, f, K y and
    ||y||_1 after the step, a row that did not move keeping its own.
    `ky`, `l1`, `gradient` and `violation` are those of y.  A singular
    or non-finite solve, or a line search whose best point has no
    negative change in f or a computed f below its roundoff floor, ends
    the row's step without a move.
    """
    signs = np.sign(y)
    # rows whose active coefficients are optimal: the zero coefficient
    # with the largest violation joins them, with the sign that lowers f
    rows = (np.where(signs != 0.0, violation, 0.0).max(axis=1)
            <= KKT_TOLERANCE).nonzero()[0]
    entering = np.where(signs[rows] == 0.0, violation[rows], -1.0).argmax(
        axis=1)
    signs[rows, entering] = -np.sign(gradient[rows, entering])
    target = _targets(kmat, k, lam, signs)
    active = signs != 0.0
    best = np.where(active & np.isfinite(target).all(axis=1)[:, None],
                    target, y)
    value, best_ky, best_l1, floor = _objectives(kmat, k, q, lam, best)
    # the points on the way where a coefficient changes sign; a row
    # keeps its first point of lowest f, the solution first
    rows, cols = (y * best < 0.0).nonzero()
    if rows.size:
        direction = best - y
        points = np.where(active[rows], y[rows] + (
            y[rows, cols] / -direction[rows, cols])[:, None]
            * direction[rows], y[rows])
        points[np.arange(rows.size), cols] = 0.0
        point = _objectives(kmat, k[rows], q[rows], lam, points)
        lowest = value.tolist()
        chosen = {}
        for c, (r, f) in enumerate(zip(rows.tolist(), point[0].tolist())):
            if f < lowest[r]:
                lowest[r] = f
                chosen[r] = c
        rows, picks = list(chosen), list(chosen.values())
        for array, of_points in zip((best, value, best_ky, best_l1, floor),
                                    (points, *point)):
            array[rows] = of_points[picks]
    d = best - y
    change = (_dots(d, best_ky + ky) - 2.0 * _dots(d, k)
              + lam * (best_l1 - l1))
    moved = (change < 0.0) & (value >= floor)
    return (moved, np.where(moved[:, None], best, y), value,
            np.where(moved[:, None], best_ky, ky),
            np.where(moved, best_l1, l1))


def _code_rows(kmat, k, q, lam):
    """Feature-sign search on every row of (Q, n) query columns `k`, with
    (Q,) self values `q`: the list of their Q SparseCodes.

    Row r of each array belongs to query `query[r]`; a query that
    finishes is recorded and its row dropped.
    """
    codes = [None] * len(k)
    histories = [[] for _ in codes]
    query = np.arange(len(k))
    y = np.zeros(k.shape)
    objective, ky, l1, _ = _objectives(kmat, k, q, lam, y)
    gradient, violation, residual = _kkt(y, ky, k, lam)
    # a zero code that is already optimal takes one sweep and no step
    done = residual <= KKT_TOLERANCE
    for sweeps in range(MAX_SWEEPS + 1):
        if sweeps:
            moved, y, value, ky, l1 = _steps(kmat, k, q, lam, y, ky, l1,
                                             gradient, violation)
            objective = np.where(moved & (value < objective), value,
                                 objective)
            gradient, violation, residual = _kkt(y, ky, k, lam)
            for r, lowest in zip(query.tolist(), objective.tolist()):
                histories[r].append(lowest)
            done = (~moved | (residual <= KKT_TOLERANCE)
                    | (sweeps == MAX_SWEEPS))
        for r in done.nonzero()[0]:
            # pass 0 finishes the zero codes, each after one sweep
            history = histories[query[r]] or [float(objective[r])]
            codes[query[r]] = SparseCode(
                coefficients=y[r].copy(), objective=history[-1],
                objective_history=tuple(history), sweeps=max(sweeps, 1),
                converged=bool(residual[r] <= KKT_TOLERANCE),
                kkt_residual=float(residual[r]))
        if done.any():
            left = ~done
            (query, k, q, y, objective, ky, l1, gradient, violation,
             residual) = (array[left] for array in (
                 query, k, q, y, objective, ky, l1, gradient, violation,
                 residual))
        if not query.size:
            break
    return codes


def kernel_sparse_code(dict_gram, query_columns, query_selves, lam):
    """Code queries against a dictionary held as a Gram matrix.

    `query_columns[r, t]` is the kernel between query r and dictionary
    atom t, and `query_selves[r]` the kernel of query r with itself; the
    Q queries of the (Q, n) matrix and the (Q,) vector are coded in
    lockstep and returned as SparseCodes, each row's code equal to
    coding that query alone.  A sweep is one feature-sign step: choose
    the active set and signs, solve on it and line-search to the
    solution.  The solve stops once the largest violation of the
    optimality conditions (the KKT residual) is at most KKT_TOLERANCE,
    after MAX_SWEEPS sweeps, or when a step cannot lower f (a singular
    or indefinite active block) or computes f below zero beyond
    roundoff; the result's `converged` and `kkt_residual` say which.  A
    code that is zero from the start takes one sweep.

    KKT_TOLERANCE is absolute, not scaled by the kernel values, so on a
    Gram with huge entries no code converges: with rbf:projection:beta=20
    on split seed 0 of the CLI's default data (entries up to 2.35e17)
    every code stops after 2 sweeps with KKT residuals of 1.5e16 to
    9.7e16, though the codes still classify.  A batch of one query costs
    about as much per sweep as many rows, so code queries in batches.

    Dictionaries whose Gram matrix does not certify positive definite
    raise NotPositiveSemidefinite.
    """
    k = np.asarray(query_columns, dtype=np.float64)
    q = np.asarray(query_selves, dtype=np.float64)
    if k.ndim != 2 or k.shape[1] != dict_gram.n:
        raise ValueError(f"query columns must form a "
                         f"(Q, {dict_gram.n}) matrix, got {k.shape}")
    if q.shape != k.shape[:1]:
        raise ValueError(
            f"need {len(k)} query self values, got {q.shape}")
    if not 0.0 < lam < np.inf:
        raise ValueError(f"penalty lam must be positive, got {lam}")
    if not certify_pd(dict_gram, mode="pd").passed:
        raise NotPositiveSemidefinite(
            "dictionary Gram matrix has a negative eigenvalue beyond "
            "roundoff; the coding objective would be unbounded")

    codes = _code_rows(dict_gram.values, k, q, float(lam))
    return SparseCodes(codes=tuple(codes),
                       sweeps=sum(code.sweeps for code in codes))


def sparse_code_classify(codes, atom_labels, columns):
    """Labels of the codes of one kernel_sparse_code call, coded from the
    (Q, n) kernel `columns`, and the (Q,) mask of those that fell back.

    A code takes the label of the atom with the largest absolute
    coefficient, ties to the lowest atom index.  A code with no nonzero
    coefficient, which a penalty too large for its query gives, falls
    back to the atom most similar to the query: the largest entry of its
    column, ties again to the lowest index.
    """
    labels = np.asarray(atom_labels)
    columns = np.asarray(columns)
    weights = np.abs(np.stack([code.coefficients for code in codes]))
    if labels.shape != weights.shape[1:] or columns.shape != weights.shape:
        raise ValueError(f"need {weights.shape[1]} atom labels and column "
                         f"entries per code, got shapes {labels.shape} "
                         f"and {columns.shape} for {len(weights)} codes")
    fell_back = ~np.any(weights > 0.0, axis=1)
    weights[fell_back] = columns[fell_back]
    return labels[np.argmax(weights, axis=1)], fell_back
