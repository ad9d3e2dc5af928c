"""Label-agreement metrics for clustering results."""

import numpy as np

from .. import numerics


def _contingency(predicted, truth):
    """The (distinct predicted, distinct truth) table of label pair
    counts, rows and columns in ascending label order.

    Each label's index among its vector's `numerics.distinct` values is
    its `np.searchsorted` position, and one `np.bincount` of the flat
    cell indices counts the table.
    """
    a = np.asarray(predicted).ravel()
    b = np.asarray(truth).ravel()
    if a.size != b.size or a.size == 0:
        raise ValueError(
            f"label vectors must have equal nonzero length, "
            f"got {a.size} and {b.size}")
    a_values = numerics.distinct(a)
    b_values = numerics.distinct(b)
    cells = (np.searchsorted(a_values, a) * b_values.size
             + np.searchsorted(b_values, b))
    shape = (a_values.size, b_values.size)
    return np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape)


def normalized_mutual_information(predicted, truth):
    """Mutual information normalized by the geometric mean of entropies.

    Uses natural logarithms.  When either labeling has zero entropy the
    normalization is undefined and the result is 0 by convention.
    """
    table = _contingency(predicted, truth)
    n = table.sum()
    joint = table / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(pa, pb)
    info = float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))
    ha = float(-np.sum(pa[pa > 0] * np.log(pa[pa > 0])))
    hb = float(-np.sum(pb[pb > 0] * np.log(pb[pb > 0])))
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return float(min(max(info / np.sqrt(ha * hb), 0.0), 1.0))


def _max_matching_total(table):
    """Largest total of `table` entries over matchings of rows to distinct
    columns, every row of the smaller side matched.

    Shortest augmenting paths with dual potentials on the cost -table, one
    row at a time (Kuhn 1955; Jonker & Volgenant 1987; Crouse, IEEE TAES
    52(4), 2016); a table with more rows than columns is transposed first.
    Integer counts keep every potential an exact integer in float64.
    """
    if table.shape[0] > table.shape[1]:
        table = table.T
    rows, cols = table.shape
    # column `cols` is the virtual start of each path and is never matched
    cost = np.full((rows, cols + 1), np.inf)
    cost[:, :cols] = -table
    row_dual = np.zeros(rows)
    col_dual = np.zeros(cols + 1)
    owner = np.full(cols + 1, -1)
    for row in range(rows):
        owner[cols] = row
        col = cols
        slack = np.full(cols + 1, np.inf)
        via = np.full(cols + 1, cols)
        done = np.zeros(cols + 1, dtype=bool)
        while owner[col] >= 0:
            done[col] = True
            r = owner[col]
            reduced = cost[r] - row_dual[r] - col_dual
            better = ~done & (reduced < slack)
            slack[better] = reduced[better]
            via[better] = col
            col = int(np.argmin(np.where(done, np.inf, slack)))
            delta = slack[col]
            row_dual[owner[done]] += delta
            col_dual[done] -= delta
            slack[~done] -= delta
        while col != cols:
            owner[col] = owner[via[col]]
            col = via[col]
    matched = np.flatnonzero(owner[:cols] >= 0)
    return table[owner[matched], matched].sum()


def clustering_accuracy(predicted, truth):
    """Fraction of points correct under the best cluster-to-class matching.

    The matching is the assignment maximizing the total contingency mass,
    found by the shortest-augmenting-path form of the Hungarian algorithm,
    so permuting cluster ids never changes the score.
    """
    table = _contingency(predicted, truth)
    return float(_max_matching_total(table) / table.sum())
