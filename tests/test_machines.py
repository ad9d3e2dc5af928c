"""Tests for the kernel machines: SVM, k-means, sparse coding, hashing.

Expected values come from hand-solvable instances (two-point SVM duals,
one-atom soft thresholds, tiny Gram matrices) and from exhaustive
enumeration oracles small enough to brute-force.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, minimize

from grasskernels import grassmann, kernels
from grasskernels.exceptions import NotPositiveSemidefinite
from grasskernels.grassmann import Subspace
from grasskernels.harness import experiments
from grasskernels.harness.config import build_config
from grasskernels.harness.datasets import generate_planted, stratified_split
from grasskernels.kernels import (GramMatrix, evaluate, gram, grams,
                                 parse_kernel_token)
from grasskernels.machines import kkmeans as kkmeans_mod
from grasskernels.machines import sparse as sparse_mod
from grasskernels.machines import svm as svm_mod
from grasskernels.machines.kkmeans import kkmeans
from grasskernels.machines.klsh import (EIGENVALUE_FLOOR, klsh_build,
                                        klsh_hash_gram)
from grasskernels.machines.metrics import (_max_matching_total,
                                           clustering_accuracy,
                                           normalized_mutual_information)
from grasskernels.machines.sparse import (SparseCode, SparseCodes,
                                          kernel_sparse_code,
                                          sparse_code_classify)
from grasskernels.machines.svm import svm_decision_from_rows, svm_train

RBF_PROJ = parse_kernel_token("rbf:projection:beta=0.5", 2)


def line(t):
    return Subspace([[math.cos(t)], [math.sin(t)]])


def binary_labels(labels):
    return np.where(np.asarray(labels) == 0, -1.0, 1.0)


def planted_binary():
    data = generate_planted(d=8, p=2, classes=2, per_class=10,
                            noise_angle=0.1, seed=0)
    return data, binary_labels(data.labels)


# ----------------------------------------------------------------- svm


def test_svm_two_point_closed_form():
    """Orthogonal lines under exp(similarity) give alpha = 1/(e-1), bias 0.

    The 2 x 2 Gram matrix is [[e, 1], [1, e]]; maximizing the dual in the
    single shared coefficient gives 2 - alpha (2e - 2) = 0.
    """
    pts = [line(0.0), line(math.pi / 2.0)]
    spec = parse_kernel_token("rbf:projection:beta=1.0", 1)
    g = gram(spec, pts)
    np.testing.assert_allclose(g.values, [[math.e, 1.0], [1.0, math.e]],
                               rtol=1e-12)
    model = svm_train(g, [[1.0, -1.0]], c=10.0).models[0]
    alpha = 1.0 / (math.e - 1.0)
    assert np.array_equal(model.support_indices, [0, 1])
    np.testing.assert_allclose(model.dual_coefficients, [alpha, -alpha],
                               rtol=0, atol=1e-6)
    assert abs(model.bias) < 1e-6
    assert model.kkt_residual <= 1e-6
    decisions = svm_decision_from_rows(model, g.values)
    np.testing.assert_allclose(decisions, [1.0, -1.0], rtol=0, atol=1e-6)
    # new lines are scored from their kernel rows against the training
    # points; the midpoint line sits on the boundary, which maps to +1
    for t, label in ((math.pi / 4.0, 1), (0.1, 1), (math.pi / 2.0 - 0.1, -1)):
        row = kernels.cross_gram(spec, [line(t)], pts)
        decision = svm_decision_from_rows(model, row)[0]
        assert (1 if decision >= 0.0 else -1) == label


def _recomputed_kkt_residual(g, y, c, model):
    """The maximal-violating-pair gap of a model's duals, evaluated from
    scratch; the duals must lie in the box with a zero weighted sum."""
    alpha = np.zeros(g.n)
    alpha[model.support_indices] = model.dual_coefficients \
        * y[model.support_indices]
    assert np.all(alpha >= 0.0) and np.all(alpha <= c)
    np.testing.assert_allclose(np.sum(alpha * y), 0.0, rtol=0, atol=1e-12)
    gradient = y * (g.values @ (y * alpha)) - 1.0
    score = -y * gradient
    positive = y > 0
    can_raise = np.where(positive, alpha < c, alpha > 0.0)
    can_lower = np.where(positive, alpha > 0.0, alpha < c)
    return np.max(np.where(can_raise, score, -np.inf)) \
        - np.min(np.where(can_lower, score, np.inf))


def test_svm_kkt_residual_recomputed_independently():
    """The reported residual must match a from-scratch KKT evaluation."""
    data, y = planted_binary()
    g = gram(RBF_PROJ, data.subspaces)
    model = svm_train(g, y[None], c=10.0).models[0]
    residual = _recomputed_kkt_residual(g, y, 10.0, model)
    assert residual <= 1e-6 + 1e-12
    np.testing.assert_allclose(residual, model.kkt_residual,
                               rtol=0, atol=1e-12)
    assert model.converged


def test_svm_label_flip_antisymmetry():
    data, y = planted_binary()
    g = gram(RBF_PROJ, data.subspaces)
    straight = svm_train(g, y[None], c=10.0).models[0]
    flipped = svm_train(g, -y[None], c=10.0).models[0]
    d0 = svm_decision_from_rows(straight, g.values)
    d1 = svm_decision_from_rows(flipped, g.values)
    np.testing.assert_allclose(d1, -d0, rtol=0, atol=1e-12)


def test_svm_constant_shift_leaves_decisions_alone():
    """Adding a constant to every Gram entry must not move the classifier.

    The solver preserves the zero label-weighted coefficient sum, so the
    rank-one shift cancels out of every update; relevant for kernels that
    are only conditionally positive definite.
    """
    data, y = planted_binary()
    for token in ("logarithm:projection", "logarithm:bc"):
        spec = parse_kernel_token(token, 2)
        g = gram(spec, data.subspaces)
        base = svm_train(g, y[None], c=10.0).models[0]
        reference = svm_decision_from_rows(base, g.values)
        for shift in (1.0, 10.0):
            lifted = GramMatrix(g.values + shift)
            model = svm_train(lifted, y[None], c=10.0).models[0]
            decisions = svm_decision_from_rows(model, lifted.values)
            assert np.array_equal(model.support_indices,
                                  base.support_indices)
            assert np.array_equal(np.sign(decisions), np.sign(reference))
            np.testing.assert_allclose(decisions, reference,
                                       rtol=0, atol=1e-5)


def test_svm_error_paths():
    pts = [line(0.0), line(1.0)]
    g = gram(parse_kernel_token("rbf:projection:beta=1.0", 1), pts)
    with pytest.raises(ValueError, match="single class"):
        svm_train(g, [[1.0, 1.0]])
    with pytest.raises(ValueError, match="must be -1 or"):
        svm_train(g, [[0.0, 1.0]])
    with pytest.raises(ValueError, match="labels per target"):
        svm_train(g, [[1.0, -1.0, 1.0]])
    # a target vector is refused, naming the shape of a target matrix
    with pytest.raises(ValueError,
                       match=r"need an \(m, 2\) matrix of target rows"):
        svm_train(g, [1.0, -1.0])
    for c in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="must be positive"):
            svm_train(g, [[1.0, -1.0]], c=c)


def test_svm_one_target_row_trains_without_the_lockstep(monkeypatch):
    """A (1, n) target runs the one-machine loop, not a one-row lockstep,
    and its model is the reference loop's."""
    data, y = planted_binary()
    g = gram(RBF_PROJ, data.subspaces)

    def refuse(*args):
        raise AssertionError("one target row reached the lockstep")

    monkeypatch.setattr(svm_mod, "_train_lockstep", refuse)
    trained = svm_train(g, y[None], c=10.0)
    [model] = trained.models
    alpha, bias, iterations = _per_pair_curvature_smo(g.values, y, 10.0)
    support = np.flatnonzero(alpha > 0.0)
    assert trained.iterations == model.iterations == iterations
    assert np.array_equal(model.support_indices, support)
    assert np.array_equal(model.dual_coefficients,
                          alpha[support] * y[support])
    assert model.bias == bias


def test_svm_budget_exhaustion_returns_unconverged_model(monkeypatch):
    """A machine that spends its budget returns the model of its duals
    at the last selection, flagged unconverged, with the KKT residual of
    those duals; a budget of exactly the iterations it needs converges."""
    data, y = planted_binary()
    g = gram(RBF_PROJ, data.subspaces)
    full = svm_train(g, y[None], c=10.0).models[0]
    assert full.converged and full.iterations > 2
    for budget in (1, full.iterations // 2, full.iterations - 1):
        monkeypatch.setattr(svm_mod, "MAX_ITERATIONS", budget)
        cut = svm_train(g, y[None], c=10.0).models[0]
        assert cut.iterations == budget and not cut.converged
        assert cut.kkt_residual > 1e-6
        np.testing.assert_allclose(
            _recomputed_kkt_residual(g, y, 10.0, cut), cut.kkt_residual,
            rtol=0, atol=1e-12)
        assert np.isfinite(cut.bias)
    monkeypatch.setattr(svm_mod, "MAX_ITERATIONS", full.iterations)
    exact = svm_train(g, y[None], c=10.0).models[0]
    assert exact.converged and exact.kkt_residual == full.kkt_residual
    assert exact.iterations == full.iterations


def _duals(model, y, n):
    alpha = np.zeros(n)
    alpha[model.support_indices] = model.dual_coefficients \
        * y[model.support_indices]
    return alpha


def test_svm_bias_without_free_vectors_is_the_kkt_midpoint():
    """A tiny penalty bounds every dual, so no free vector fixes the bias:
    it is the midpoint between the largest score that may still rise and
    the smallest that may still fall, recomputed here from the duals."""
    data = generate_planted(d=8, p=2, classes=2, per_class=6,
                            noise_angle=0.1, seed=0)
    y = binary_labels(data.labels)
    g = gram(RBF_PROJ, data.subspaces)
    c = 1e-3
    model = svm_train(g, y[None], c=c).models[0]
    alpha = _duals(model, y, y.size)
    assert np.all(alpha == c)
    # -y * gradient of the dual; at alpha = c only negatives can rise
    # and only positives can fall
    score = y - g.values @ (alpha * y)
    midpoint = (np.max(score[y < 0.0]) + np.min(score[y > 0.0])) / 2.0
    assert model.bias == pytest.approx(midpoint, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.3, 10.0])
@pytest.mark.parametrize("token", ["rbf:projection:beta=0.5",
                                   "logarithm:projection"])
def test_svm_matches_independent_qp_solver(token, c):
    """SLSQP on the same dual, with the box 0 <= alpha <= c and the
    equality y'alpha = 0, reaches the solver's objective to 1e-6 relative.

    The noisy planted data overlap, so at c = 0.3 some duals sit on the
    box; logarithm:projection is only conditionally positive definite.
    """
    data = generate_planted(d=8, p=2, classes=2, per_class=10,
                            noise_angle=0.6, seed=1)
    y = binary_labels(data.labels)
    g = gram(parse_kernel_token(token, 2), data.subspaces)
    alpha = _duals(svm_train(g, y[None], c=c).models[0], y, g.n)
    q = np.outer(y, y) * g.values

    def objective(a):
        return 0.5 * a @ q @ a - np.sum(a)

    oracle = minimize(
        objective, np.zeros(g.n), jac=lambda a: q @ a - 1.0,
        method="SLSQP", bounds=[(0.0, c)] * g.n,
        constraints=[{"type": "eq", "fun": lambda a: y @ a,
                      "jac": lambda a: y}],
        options={"ftol": 1e-14, "maxiter": 1000})
    assert oracle.success
    if c < 1.0:
        assert np.any(alpha == c)
    np.testing.assert_allclose(objective(alpha), oracle.fun,
                               rtol=1e-6, atol=0)


def test_svm_iteration_count_on_tasks_sized_problem():
    """Iterations of the ten one-vs-rest machines of one tasks-n100-shaped
    problem (d=100, p=2, 10 classes of 10, split seed 0, c=10).

    Second-order working set selection takes 1,442 iterations in total;
    the maximal-violating-pair rule it replaced took 48,562.
    """
    data = generate_planted(d=100, p=2, classes=10, per_class=10,
                            noise_angle=0.1, seed=0)
    g = gram(RBF_PROJ, data.subspaces)
    train, _ = stratified_split(data.labels, 0.5, np.random.default_rng([0]))
    k_train = g.take(train)
    total = 0
    for value in np.unique(data.labels[train]):
        targets = np.where(data.labels[train] == value, 1.0, -1.0)
        model = svm_train(k_train, targets[None], c=10.0).models[0]
        assert model.kkt_residual <= 1e-6
        total += model.iterations
    assert total < 3000


@pytest.mark.parametrize("opposite", [False, True])
def test_svm_duplicated_point_gives_finite_duals(opposite, monkeypatch):
    """A duplicated training point has curvature a = 0 against its copy,
    floored at _TAU, so no gain or step divides by zero.  With opposite
    labels that pair's gain gap^2 / _TAU wins the first selection and its
    step is clipped to the box."""
    data, y = planted_binary()
    subspaces = list(data.subspaces) + [data.subspaces[0]]
    labels = np.append(y, -y[0] if opposite else y[0])
    g = gram(RBF_PROJ, subspaces)
    assert g.values[0, 0] + g.values[-1, -1] - 2.0 * g.values[0, -1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by a zero curvature
        model = svm_train(g, labels[None], c=10.0).models[0]
    assert np.all(np.isfinite(model.dual_coefficients))
    assert np.isfinite(model.bias)
    assert model.kkt_residual <= 1e-6
    alpha = _duals(model, labels, g.n)
    assert np.all((alpha >= 0.0) & (alpha <= 10.0))
    if opposite:
        assert 10.0 in alpha[[0, -1]]
    monkeypatch.setattr(svm_mod, "MAX_ITERATIONS", 2)
    cut = svm_train(g, labels[None], c=10.0).models[0]
    assert not cut.converged
    assert np.isfinite(cut.kkt_residual) and cut.kkt_residual > 1e-6
    assert np.all(np.isfinite(cut.dual_coefficients))
    assert np.isfinite(cut.bias)


def _per_pair_curvature_smo(k, y, c, tolerance=1e-6):
    """Reference for svm_train: the same WSS 2 iterates, with every
    curvature K_ii + K_jj - 2 K_ij recomputed from the Gram entries where
    it is used and the box masks rebuilt from alpha at every iteration.

    Returns (alpha, bias, iterations).
    """
    n = k.shape[0]
    alpha = np.zeros(n)
    grad = -np.ones(n)
    positive = y > 0.0
    diagonal = np.diag(k)

    def best_partner(gaps, f):
        curvatures = np.maximum(k[f, f] + diagonal - 2.0 * k[f], svm_mod._TAU)
        gains = np.where(gaps > 0.0, gaps * gaps / curvatures, -np.inf)
        best = int(np.argmax(gains))
        return best, gains[best]

    iterations = 0
    while True:
        iterations += 1
        can_raise = np.where(positive, alpha < c, alpha > 0.0)
        can_lower = np.where(positive, alpha > 0.0, alpha < c)
        score = -y * grad
        up = np.where(can_raise, score, -np.inf)
        top = int(np.argmax(up))
        down = np.where(can_lower, score, np.inf)
        bottom = int(np.argmin(down))
        if up[top] - down[bottom] <= tolerance:
            break
        j, gain_j = best_partner(up[top] - down, top)
        i, gain_i = best_partner(up - down[bottom], bottom)
        if gain_j > gain_i or (gain_j == gain_i and sorted((top, j))
                               <= sorted((i, bottom))):
            i = top
        else:
            j = bottom
        curvature = max(k[i, i] + k[j, j] - 2.0 * k[i, j], svm_mod._TAU)
        limit_i = c - alpha[i] if positive[i] else alpha[i]
        limit_j = alpha[j] if positive[j] else c - alpha[j]
        step = min((up[i] - down[j]) / curvature, limit_i, limit_j)
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = ((c if positive[i] else 0.0) if step == limit_i
                    else old_i + y[i] * step)
        alpha[j] = ((0.0 if positive[j] else c) if step == limit_j
                    else old_j - y[j] * step)
        grad += y * (k[:, i] * (y[i] * (alpha[i] - old_i))
                     + k[:, j] * (y[j] * (alpha[j] - old_j)))
    free = (alpha > 0.0) & (alpha < c)
    if np.any(free):
        bias = float(np.mean(score[free]))
    else:
        bias = float((np.max(up) + np.min(down)) / 2.0)
    return alpha, bias, iterations


def _curvature_table_problems():
    """(Gram, labels, c) of the ten tasks-sized one-vs-rest machines, of
    both duplicated-point problems, whose copies hit the _TAU floor, of
    every row of the tie-heavy integer Grams and of the default bench's
    20-point machine."""
    data = generate_planted(d=100, p=2, classes=10, per_class=10,
                            noise_angle=0.1, seed=0)
    train, _ = stratified_split(data.labels, 0.5, np.random.default_rng([0]))
    k_train = gram(RBF_PROJ, data.subspaces).take(train)
    for value in np.unique(data.labels[train]):
        yield k_train, np.where(data.labels[train] == value, 1.0, -1.0), 10.0
    small, y = planted_binary()
    g = gram(RBF_PROJ, list(small.subspaces) + [small.subspaces[0]])
    for label in (y[0], -y[0]):
        yield g, np.append(y, label), 10.0
    for g, rows, c in _integer_problems():
        for row in rows:
            yield g, row, c
    data = generate_planted(d=8, p=2, classes=2, per_class=20,
                            noise_angle=0.1, seed=0)
    train, _ = stratified_split(data.labels, 0.5, np.random.default_rng([0]))
    yield (gram(RBF_PROJ, data.subspaces).take(train),
           binary_labels(data.labels[train]), 10.0)


def test_svm_curvature_table_keeps_iterates():
    """The once-built curvature table gives the iterates of recomputing
    each curvature where it is used, bit for bit."""
    for g, y, c in _curvature_table_problems():
        model = svm_train(g, y[None], c=c).models[0]
        alpha, bias, iterations = _per_pair_curvature_smo(g.values, y, c)
        support = np.flatnonzero(alpha > 0.0)
        assert model.iterations == iterations
        assert np.array_equal(model.support_indices, support)
        assert np.array_equal(model.dual_coefficients,
                              alpha[support] * y[support])
        assert model.bias == bias


def _one_vs_rest(labels):
    return np.where(np.asarray(labels) == np.unique(labels)[:, None],
                    1.0, -1.0)


def _lockstep_problems():
    """(Gram, target rows, c) of the ten one-vs-rest machines of two
    tasks-sized splits, and of small integer Grams whose repeated points
    and exact ties exercise the floored curvature and the tie rule."""
    for seed, token in ((0, "rbf:projection:beta=0.5"),
                        (1, "logarithm:projection")):
        data = generate_planted(d=100, p=2, classes=10, per_class=10,
                                noise_angle=0.1, seed=seed)
        train, _ = stratified_split(data.labels, 0.5,
                                    np.random.default_rng([seed]))
        g = gram(parse_kernel_token(token, 2), data.subspaces).take(train)
        yield g, _one_vs_rest(data.labels[train]), 10.0
    yield from _integer_problems()


def _integer_problems():
    """(Gram, target rows, c) of 40 small integer Grams with repeated
    points and exact ties."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = rng.integers(-1, 2, size=(12, 3)).astype(float)
        rows = rng.choice([-1.0, 1.0], size=(4, 12))
        rows[:, 0], rows[:, 1] = 1.0, -1.0  # two classes in every row
        yield GramMatrix(x @ x.T), rows, float(rng.choice([0.5, 2.0, 10.0]))


def _assert_trained_alone(g, rows, c):
    """Each row of a lockstep call equals svm_train on that row alone."""
    together = svm_train(g, rows, c=c)
    alone = [svm_train(g, row[None], c=c).models[0] for row in rows]
    assert len(together.models) == len(alone)
    for model, single in zip(together.models, alone):
        assert np.array_equal(model.support_indices, single.support_indices)
        assert (model.dual_coefficients.tobytes()
                == single.dual_coefficients.tobytes())
        assert model.bias == single.bias
        assert model.kkt_residual == single.kkt_residual
        assert model.iterations == single.iterations
        assert model.converged == single.converged
    assert together.iterations == sum(m.iterations for m in alone)


def test_svm_lockstep_rows_train_as_alone():
    """One-vs-rest splits and tie-heavy integer Grams, where several
    points repeat (curvature 0 against their copies)."""
    repeated = 0
    for g, rows, c in _lockstep_problems():
        _assert_trained_alone(g, rows, c)
        repeated += len(np.unique(g.values, axis=0)) < g.n
    assert repeated > 0


def test_svm_lockstep_duplicated_points():
    """The duplicated-point problems of the scalar tests, both label
    choices for the copy, as rows of one call."""
    small, y = planted_binary()
    g = gram(RBF_PROJ, list(small.subspaces) + [small.subspaces[0]])
    rows = np.array([np.append(y, y[0]), np.append(y, -y[0]),
                     np.append(-y, y[0])])
    _assert_trained_alone(g, rows, 10.0)


def test_svm_lockstep_cross_validation_folds(monkeypatch):
    """Every lockstep call of an `svm --tune` run, cross-validation folds
    and final fits alike, matches its machines trained one by one."""
    calls = []

    def checked(gram_matrix, labels, c=1.0):
        _assert_trained_alone(gram_matrix, np.asarray(labels), c)
        calls.append(gram_matrix.n)
        return svm_train(gram_matrix, labels, c=c)

    monkeypatch.setattr(experiments, "svm_train", checked)
    experiments.run_experiment(build_config("svm", overrides={
        "d": "8", "p": "2", "classes": "4", "per_class": "8",
        "seeds": "0 1", "tune": "true", "beta_grid": "0.1 1.0",
        "cv_folds": "3"}))
    # per seed, 16 train points of 4 classes: for each of 2 candidates,
    # folds 0, 1, 2 hold out 8, 4 and 4 of them; then the final fit
    assert sorted(calls) == [8] * 4 + [12] * 8 + [16] * 2


def test_svm_lockstep_rows_at_a_cut_budget_train_as_alone(monkeypatch):
    """With a budget that half the rows need more than, every row of the
    lockstep equals its one-row model, the converged flag included: the
    rows within the budget converge and the others stop at it."""
    g, rows, c = next(_lockstep_problems())
    counts = sorted(svm_train(g, row[None], c=c).iterations for row in rows)
    budget = counts[len(counts) // 2]
    monkeypatch.setattr(svm_mod, "MAX_ITERATIONS", budget)
    _assert_trained_alone(g, rows, c)
    models = svm_train(g, rows, c=c).models
    assert 0 < sum(not model.converged for model in models) < len(rows)
    for model in models:
        assert model.iterations <= budget
        assert model.converged or model.iterations == budget


def test_svm_lockstep_rejects_bad_target_rows():
    g = gram(RBF_PROJ, planted_binary()[0].subspaces[:4])
    good = [1.0, -1.0, 1.0, -1.0]
    with pytest.raises(ValueError, match="single class"):
        svm_train(g, [good, [1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="must be -1 or"):
        svm_train(g, [good, [1.0, -1.0, 0.5, -1.0]])
    with pytest.raises(ValueError, match="labels per target"):
        svm_train(g, [good[:3], good[:3]])
    with pytest.raises(ValueError, match="labels per target"):
        svm_train(g, np.empty((0, 4)))


# ------------------------------------------------------------- kkmeans


def test_kkmeans_hand_inertia():
    """Two feature points at squared norms 0 and 1, one cluster.

    Both sit at squared distance 1/4 from the midpoint centroid, so the
    within-cluster sum of squares is exactly 1/2.
    """
    g = GramMatrix(np.array([[0.0, 0.0], [0.0, 1.0]]))
    result = kkmeans(g, 1, seed=0)
    assert result.inertia == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(result.labels, [0, 0])


def test_kkmeans_recovers_planted_clusters():
    data = generate_planted(d=8, p=2, classes=3, per_class=8,
                            noise_angle=0.1, seed=2)
    g = gram(RBF_PROJ, data.subspaces)
    result = kkmeans(g, 3, seed=0, restarts=3)
    assert clustering_accuracy(result.labels, data.labels) == 1.0
    assert normalized_mutual_information(result.labels, data.labels) == 1.0


def test_kkmeans_history_never_increases():
    data = generate_planted(d=8, p=2, classes=3, per_class=10,
                            noise_angle=0.3, seed=5)
    g = gram(RBF_PROJ, data.subspaces)
    for seed in range(5):
        result = kkmeans(g, 3, seed=seed)
        history = np.array(result.inertia_history)
        assert history.size == result.iterations + 1
        assert np.all(np.diff(history) <= 0.0)
        assert result.inertia == history[-1]


def test_kkmeans_deterministic_and_restart_monotone():
    data = generate_planted(d=8, p=2, classes=4, per_class=6,
                            noise_angle=0.4, seed=9)
    g = gram(RBF_PROJ, data.subspaces)
    first = kkmeans(g, 4, seed=1, restarts=4)
    again = kkmeans(g, 4, seed=1, restarts=4)
    assert np.array_equal(first.labels, again.labels)
    assert first.inertia == again.inertia
    single = kkmeans(g, 4, seed=1, restarts=1)
    assert first.inertia <= single.inertia
    assert 0 <= first.restart < 4


def test_kkmeans_edge_counts():
    pts = [grassmann.random_subspace(5, 2, np.random.default_rng([8, i]))
           for i in range(6)]
    g = gram(RBF_PROJ, pts)
    lone = kkmeans(g, 1, seed=0)
    assert np.array_equal(lone.labels, np.zeros(6, dtype=np.int64))
    split = kkmeans(g, 6, seed=0)
    assert sorted(split.labels) == list(range(6))
    assert split.inertia == 0.0
    with pytest.raises(ValueError, match="clusters from"):
        kkmeans(g, 0, seed=0)
    with pytest.raises(ValueError, match="clusters from"):
        kkmeans(g, 7, seed=0)
    with pytest.raises(ValueError, match="at least one restart"):
        kkmeans(g, 2, seed=0, restarts=0)


def test_kkmeans_coincident_points_reseed_emptied_clusters():
    """Five copies of one subspace in three clusters: every distance is
    zero, so seeding takes the lowest unchosen indices, and the clusters
    the first assignment empties take points from the one that holds
    them all."""
    x = grassmann.random_subspace(5, 2, np.random.default_rng(3))
    result = kkmeans(gram(RBF_PROJ, [x] * 5), 3, seed=0)
    assert np.array_equal(result.labels, [1, 2, 0, 0, 0])
    assert result.inertia == 0.0


def test_kkmeans_stops_at_its_iteration_budget(monkeypatch):
    data = generate_planted(d=8, p=2, classes=3, per_class=10,
                            noise_angle=0.3, seed=5)
    g = gram(RBF_PROJ, data.subspaces)
    assert kkmeans(g, 3, seed=0).iterations > 0
    monkeypatch.setattr(kkmeans_mod, "MAX_ITERATIONS", 0)
    result = kkmeans(g, 3, seed=0)
    assert result.iterations == 0
    assert len(result.inertia_history) == 1


def test_kkmeans_flags_runs_stopped_at_the_budget(monkeypatch):
    """Restart 0 of seed 0 needs one Lloyd iteration.  With none allowed
    it stops unconverged, the other restarts start stable and converge,
    and the count covers every restart, not only the one returned."""
    data = generate_planted(d=8, p=2, classes=3, per_class=10,
                            noise_angle=0.3, seed=5)
    g = gram(RBF_PROJ, data.subspaces)
    free = kkmeans(g, 3, seed=0, restarts=6)
    assert (free.restart, free.iterations) == (0, 1)
    assert free.converged and free.unconverged_restarts == 0
    monkeypatch.setattr(kkmeans_mod, "MAX_ITERATIONS", 0)
    alone = kkmeans(g, 3, seed=0)
    assert not alone.converged and alone.unconverged_restarts == 1
    capped = kkmeans(g, 3, seed=0, restarts=6)
    assert capped.restart == 1 and capped.converged
    assert capped.unconverged_restarts == 1


def _seed_reference(sq, n_clusters, rng, taken):
    """k-means++ seeding of one restart through `Generator.choice`, as
    `kkmeans` seeded before its restarts ran in lockstep."""
    n = sq.shape[0]
    chosen = [int(rng.integers(n))]
    closest = sq[chosen[0]].copy()
    for _ in range(n_clusters - 1):
        total = float(np.sum(np.maximum(closest, 0.0)))
        if total <= 0.0:
            taken.add("coincident seeding")
            pick = next(i for i in range(n) if i not in chosen)
        else:
            weights = np.maximum(closest, 0.0) / total
            pick = int(rng.choice(n, p=weights))
        chosen.append(pick)
        np.minimum(closest, sq[pick], out=closest)
    return chosen


def _restart_reference(k, sq, n_clusters, rng, restart, taken):
    """One restart's Lloyd loop on (n, clusters) arrays."""
    n = k.shape[0]
    seeds = _seed_reference(sq, n_clusters, rng, taken)
    labels = np.argmin(sq[:, seeds], axis=1)
    labels[seeds] = np.arange(n_clusters)
    diag = np.diag(k)[:, None]
    history = []
    iterations = 0
    while True:
        member = np.zeros((n, n_clusters))
        member[np.arange(n), labels] = 1.0
        sizes = member.sum(axis=0)
        cross = k @ member
        internal = np.einsum("ic,ic->c", member, cross)
        safe = np.maximum(sizes, 1.0)
        d = diag - 2.0 * cross / safe + internal / (safe * safe)
        d[:, sizes == 0] = np.inf
        history.append(float(max(np.sum(d[np.arange(n), labels]), 0.0)))
        new_labels = np.argmin(d, axis=1)
        for c in range(n_clusters):
            if np.any(new_labels == c):
                continue
            taken.add("empty cluster")
            own = d[np.arange(n), new_labels].copy()
            counts = np.bincount(new_labels, minlength=n_clusters)
            own[counts[new_labels] <= 1] = -np.inf
            new_labels[int(np.argmax(own))] = c
        converged = bool(np.array_equal(new_labels, labels))
        if converged or iterations >= kkmeans_mod.MAX_ITERATIONS:
            break
        labels = new_labels
        iterations += 1
    return (labels.astype(np.int64), history[-1], tuple(history), iterations,
            restart, converged)


def _assert_clusters_as_reference(g, n_clusters, seed, restarts, taken):
    """`kkmeans` returns, field for field, the best of the restarts that
    `_restart_reference` runs one at a time."""
    sq = np.diag(g.values)[:, None] + np.diag(g.values) - 2.0 * g.values
    runs = [_restart_reference(g.values, sq, n_clusters,
                               np.random.default_rng([seed, r]), r, taken)
            for r in range(restarts)]
    best = runs[0]
    for run in runs[1:]:
        if run[1] < best[1]:
            best = run
    labels, inertia, history, iterations, restart, converged = best
    result = kkmeans(g, n_clusters, seed=seed, restarts=restarts)
    assert result.labels.dtype == labels.dtype
    assert result.labels.tobytes() == labels.tobytes()
    # hex tells -0.0 from 0.0 and every last bit
    assert inertia.hex() == result.inertia.hex()
    assert ([x.hex() for x in result.inertia_history]
            == [x.hex() for x in history])
    assert (result.iterations, result.restart, result.converged) == (
        iterations, restart, converged)
    assert result.unconverged_restarts == sum(not run[5] for run in runs)
    return result


def _coincident_grams():
    """Grams with repeated points: five copies of one subspace, and four
    and three copies of two, so that seeding runs out of distinct points
    and the first assignment leaves clusters empty."""
    x, y = (grassmann.random_subspace(5, 2, np.random.default_rng(s))
            for s in (3, 4))
    return [(gram(RBF_PROJ, [x] * 5), 3),
            (gram(RBF_PROJ, [x] * 4 + [y] * 3), 4),
            (gram(RBF_PROJ, [y, x, y, x, x]), 4)]


def test_kkmeans_lockstep_restarts_run_as_alone():
    """The hard file at seeds 0-9, an n=100 pool file in 10 clusters, and
    the coincident Grams, with 1 and 5 restarts."""
    taken = set()
    hard = gram(RBF_PROJ, _hard_file().subspaces)
    pool = gram(RBF_PROJ, generate_planted(d=100, p=2, classes=10,
                                           per_class=10, noise_angle=0.1,
                                           seed=24).subspaces)
    iterations = []
    for restarts in (1, 5):
        for seed in range(10):
            iterations.append(_assert_clusters_as_reference(
                hard, 6, seed, restarts, taken).iterations)
        for seed in range(3):
            _assert_clusters_as_reference(pool, 10, seed, restarts, taken)
            for g, n_clusters in _coincident_grams():
                _assert_clusters_as_reference(g, n_clusters, seed, restarts,
                                              taken)
    assert min(iterations) >= 2 and max(iterations) >= 10
    assert taken == {"coincident seeding", "empty cluster"}


@pytest.mark.parametrize("budget", [0, 1])
def test_kkmeans_lockstep_at_a_cut_budget(budget, monkeypatch):
    """Rows that stop at the budget leave the lockstep as they stop alone,
    unconverged, beside rows that converge within it."""
    monkeypatch.setattr(kkmeans_mod, "MAX_ITERATIONS", budget)
    hard = gram(RBF_PROJ, _hard_file().subspaces)
    results = [_assert_clusters_as_reference(hard, 6, seed, 5, set())
               for seed in range(10)]
    assert all(r.iterations == budget for r in results)
    assert any(r.unconverged_restarts for r in results)


def test_generator_choice_counts_its_cdf_at_or_below_one_draw():
    """The numpy rule k-means++ seeding (machines/kkmeans.py) relies on:
    `rng.choice(n, p=w)` takes one `random()` draw u and returns the
    number of entries of cumsum(w) / cumsum(w)[-1] at or below u.  If a
    numpy upgrade changes it, the lockstep seeds no longer match the ones
    `choice` draws and reports change, so this fails first.
    pyproject.toml allows numpy>=1.24; the rule was checked on numpy 2.4.6
    only."""
    source = np.random.default_rng(17)
    for trial in range(2000):
        n = int(source.integers(1, 120))
        raw = source.exponential(size=n) * 10.0 ** source.integers(-8, 8)
        raw[source.random(n) < source.random()] = 0.0
        if not raw.sum() > 0.0:
            raw[source.integers(n)] = 1.0
        w = raw / np.sum(raw)
        drawn, counted = (np.random.default_rng([17, trial])
                          for _ in range(2))
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        assert drawn.choice(n, p=w) == np.count_nonzero(
            cdf <= counted.random())
        assert drawn.random() == counted.random()


# ------------------------------------------------------------- metrics


def test_nmi_values():
    assert normalized_mutual_information([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert normalized_mutual_information([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0
    assert normalized_mutual_information([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0
    # hand case: contingency [[2, 1], [0, 1]] under natural logs
    predicted = [0, 0, 0, 1]
    truth = [0, 0, 1, 1]
    joint = np.array([[0.5, 0.25], [0.0, 0.25]])
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    info = sum(joint[i, j] * math.log(joint[i, j] / (pa[i] * pb[j]))
               for i in range(2) for j in range(2) if joint[i, j] > 0)
    ha = -sum(v * math.log(v) for v in pa)
    hb = -sum(v * math.log(v) for v in pb)
    expected = info / math.sqrt(ha * hb)
    np.testing.assert_allclose(
        normalized_mutual_information(predicted, truth), expected,
        rtol=1e-12)
    swapped = normalized_mutual_information([1, 1, 1, 0], truth)
    np.testing.assert_allclose(swapped, expected, rtol=1e-12)


def test_clustering_accuracy_values():
    assert clustering_accuracy([2, 2, 0, 0], [0, 0, 1, 1]) == 1.0
    # three clusters against two classes: the best matching drops one
    assert clustering_accuracy([0, 0, 1, 2], [0, 0, 1, 1]) == 0.75
    with pytest.raises(ValueError, match="equal nonzero length"):
        clustering_accuracy([0, 1], [0, 1, 1])
    with pytest.raises(ValueError, match="equal nonzero length"):
        normalized_mutual_information([], [])


def _oracle_tables():
    """Seeded contingency tables: square, wide and tall, from small
    counts and from {0, 1} (many tied matchings), plus all-zero, 1 x 1
    and 50 x 50."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        rows, cols = rng.integers(1, 9, size=2)
        yield rng.integers(0, rng.choice([2, 4, 20]), size=(rows, cols))
    for shape in ((1, 1), (6, 6), (4, 9), (9, 4), (50, 50)):
        yield np.zeros(shape, dtype=np.int64)
    yield np.array([[7]])
    for high in (2, 30):
        yield rng.integers(0, high, size=(50, 50))


def test_matching_total_matches_linear_sum_assignment():
    for table in _oracle_tables():
        rows, cols = linear_sum_assignment(table, maximize=True)
        best = table[rows, cols].sum()
        assert _max_matching_total(table) == best
        if best:
            # label vectors whose contingency table is this one without
            # its empty rows and columns, which add nothing to a matching
            i, j = np.nonzero(table)
            counts = table[i, j]
            accuracy = clustering_accuracy(np.repeat(i, counts),
                                           np.repeat(j, counts))
            assert accuracy == float(best / table.sum())


# -------------------------------------------------------------- sparse


def _code_one(dictionary, column, self_value, lam):
    """The SparseCode of one query, coded as a batch of one."""
    return kernel_sparse_code(dictionary, np.asarray(column)[None],
                              np.array([self_value]), lam).codes[0]


def _code_rows(dictionary, columns, self_values, lam):
    """The codes of the query rows from the loop kernel_sparse_code runs
    after its checks, for dictionaries that do not certify."""
    return sparse_mod._code_rows(dictionary.values,
                                 np.asarray(columns, dtype=np.float64),
                                 np.asarray(self_values, dtype=np.float64),
                                 lam)


def test_sparse_single_atom_soft_threshold():
    """One unit atom: the code is the soft-thresholded similarity."""
    g = GramMatrix(np.array([[1.0]]))
    code = _code_one(g, [0.9], 1.0, lam=0.2)
    np.testing.assert_allclose(code.coefficients, [0.8], rtol=1e-12)
    # objective: 0.64 - 1.44 + 1 + 0.2 * 0.8
    np.testing.assert_allclose(code.objective, 0.36, rtol=1e-12)
    assert code.sweeps <= 3
    # a penalty past twice the similarity zeroes the coefficient
    zero = _code_one(g, [0.9], 1.0, lam=2.0)
    assert np.array_equal(zero.coefficients, [0.0])


def _lasso_oracle(kmat, column, query_self, lam):
    """Global minimum by enumerating all sign patterns of the support."""
    n = column.size
    best = None
    best_coef = None
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=n):
        sigma = np.array(pattern)
        support = np.flatnonzero(sigma != 0.0)
        y = np.zeros(n)
        if support.size:
            try:
                sol = np.linalg.solve(
                    kmat[np.ix_(support, support)],
                    column[support] - (lam / 2.0) * sigma[support])
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(sol) != sigma[support]):
                continue
            y[support] = sol
        gradient = 2.0 * (kmat @ y - column)
        off = np.setdiff1d(np.arange(n), support)
        if off.size and np.any(np.abs(gradient[off]) > lam + 1e-9):
            continue
        objective = float(y @ kmat @ y - 2.0 * y @ column + query_self
                          + lam * np.abs(y).sum())
        if best is None or objective < best:
            best = objective
            best_coef = y
    return best, best_coef


def test_sparse_matches_enumeration_oracle():
    """The solver lands on the global optimum of tiny problems."""
    rng = np.random.default_rng(77)
    spec = RBF_PROJ
    for _ in range(5):
        atoms = [grassmann.random_subspace(6, 2, rng) for _ in range(6)]
        query = grassmann.random_subspace(6, 2, rng)
        dictionary = gram(spec, atoms)
        column = np.array([evaluate(spec, query, a) for a in atoms])
        self_sim = evaluate(spec, query, query)
        for lam in (0.1, 0.5):
            code = _code_one(dictionary, column, self_sim, lam)
            target, coefficients = _lasso_oracle(dictionary.values, column,
                                                 self_sim, lam)
            assert target is not None
            assert abs(code.objective - target) <= 1e-6
            np.testing.assert_allclose(code.coefficients, coefficients,
                                       rtol=0, atol=1e-6)
            history = np.array(code.objective_history)
            assert np.all(np.diff(history) <= 1e-12)
            assert code.objective == history[-1]


def test_sparse_error_paths(monkeypatch):
    pts = [grassmann.random_subspace(5, 2, np.random.default_rng([4, i]))
           for i in range(4)]
    g = gram(RBF_PROJ, pts)
    column = g.values[0]
    for lam in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="must be positive"):
            _code_one(g, column, 1.0, lam=lam)
    with pytest.raises(ValueError, match="query columns"):
        _code_one(g, column[:2], 1.0, lam=0.1)
    lines = [line(k * math.pi / 4.0) for k in range(4)]
    indefinite = gram(parse_kernel_token("linear:bc", 1), lines)
    with pytest.raises(NotPositiveSemidefinite):
        _code_one(indefinite, indefinite.values[0], 1.0, lam=0.1)
    # past the check the solver still returns within its budget
    monkeypatch.setattr(sparse_mod, "MAX_SWEEPS", 5)
    [waived] = _code_rows(indefinite, indefinite.values[:1], [1.0], 0.1)
    assert 1 <= waived.sweeps <= 5


def test_sparse_classify():
    def fitted(coefficients):
        return SparseCode(coefficients=np.array(coefficients),
                          objective=0.0, objective_history=(0.0,), sweeps=1,
                          converged=True, kkt_residual=0.0)

    def classify(coefficients, column):
        [label], [fell_back] = sparse_code_classify(
            [fitted(coefficients)], labels, np.array([column]))
        assert fell_back == (not np.any(coefficients))
        return label

    labels = np.array([5, 7, 9])
    column = [0.9, 0.1, 0.5]
    # the largest |coefficient| wins, whatever the column says
    assert classify([0.1, -0.7, 0.3], column) == 7
    # ties in |coefficient| go to the lowest atom
    assert classify([0.0, 0.5, -0.5], column) == 7
    # a zero code takes the most similar atom
    empty = [0.0, 0.0, 0.0]
    assert classify(empty, column) == 5
    assert classify(empty, [0.1, 0.9, 0.5]) == 7
    # ties in the column go to the lowest atom
    assert classify(empty, [0.2, 0.8, 0.8]) == 7
    # negative zeros are zero
    assert classify([-0.0, 0.0, -0.0], [0.1, 0.2, 0.3]) == 9
    # one call labels every code, each as it is labeled alone
    codes = [fitted(c) for c in ([0.1, -0.7, 0.3], empty, [0.0, 0.0, 0.2])]
    columns = np.array([column, [0.1, 0.9, 0.5], column])
    predicted, fell_back = sparse_code_classify(codes, labels, columns)
    assert predicted.tolist() == [7, 7, 9]
    assert fell_back.tolist() == [False, True, False]
    with pytest.raises(ValueError, match="atom labels and column entries"):
        sparse_code_classify(codes, np.array([3, 4]), columns)
    with pytest.raises(ValueError, match="atom labels and column entries"):
        sparse_code_classify(codes, labels, columns[:, :2])
    with pytest.raises(ValueError, match="atom labels and column entries"):
        sparse_code_classify(codes, labels, columns[0])
    with pytest.raises(ValueError, match="atom labels and column entries"):
        sparse_code_classify(codes, labels, columns[:2])


def test_sparse_zero_code_from_large_penalty():
    """A penalty too large for the query zeroes its code in one sweep,
    and the classifier falls back to the most similar atom."""
    data = generate_planted(d=8, p=2, classes=2, per_class=4,
                            noise_angle=0.1, seed=3)
    g = gram(RBF_PROJ, data.subspaces)
    dictionary = g.take(np.arange(1, g.n))
    column = g.values[0, 1:]
    code = _code_one(dictionary, column, g.values[0, 0], lam=100.0)
    assert not np.any(code.coefficients)
    assert code.converged and code.sweeps == 1
    assert code.objective_history == (code.objective,)
    nearest = int(np.argmax(column))
    predicted, fell_back = sparse_code_classify([code], data.labels[1:],
                                                column[None])
    assert fell_back.tolist() == [True]
    assert predicted[0] == data.labels[1 + nearest] == data.labels[0]


def _kkt_residual(kmat, column, lam, y):
    """Largest distance of 0 from the subdifferential of the objective."""
    gradient = 2.0 * (kmat @ y - column)
    worst = 0.0
    for g, coefficient in zip(gradient, y):
        if coefficient != 0.0:
            worst = max(worst, abs(g + lam * math.copysign(1.0, coefficient)))
        else:
            worst = max(worst, abs(g) - lam)
    return worst


def _bench_dictionary():
    """The default bench dataset and split: 20 atoms, 20 queries."""
    data = generate_planted(d=8, p=2, classes=2, per_class=20,
                            noise_angle=0.1, seed=0)
    g = gram(RBF_PROJ, data.subspaces)
    train, test = stratified_split(data.labels, 0.5,
                                   np.random.default_rng([0]))
    return g, train, test


def test_sparse_converges_on_bench_dictionary():
    g, train, test = _bench_dictionary()
    dictionary, columns, self_values = _split_problem(g, train, test)
    codes = kernel_sparse_code(dictionary, columns, self_values,
                               lam=1e-3).codes
    for column, code in zip(columns, codes):
        residual = _kkt_residual(dictionary.values, column, 1e-3,
                                 code.coefficients)
        assert code.converged
        assert residual <= 1e-8 and code.kkt_residual <= 1e-8
        assert np.all(np.diff(code.objective_history) <= 0.0)


def test_sparse_large_beta_claim_in_docstring():
    """`kernel_sparse_code`'s docstring: with rbf:projection:beta=20 on
    split seed 0 of the CLI's default data the Gram entries reach
    2.35e17, and every code stops unconverged after 2 sweeps with KKT
    residuals of 1.5e16 to 9.7e16."""
    config = build_config("sparse-code")
    data = experiments._resolve_dataset(config)
    train, test = experiments._split(data, config, 0)
    g = gram(parse_kernel_token("rbf:projection:beta=20", 2),
             data.subspaces)
    assert f"{g.values.max():.2e}" == "2.35e+17"
    codes = kernel_sparse_code(*_split_problem(g, train, test),
                               lam=config.lam).codes
    assert len(codes) == 20
    assert all(code.sweeps == 2 and not code.converged for code in codes)
    residuals = [code.kkt_residual for code in codes]
    assert f"{min(residuals):.1e} {max(residuals):.1e}" == "1.5e+16 9.7e+16"


def test_sparse_budget_exhaustion_is_reported(monkeypatch):
    g, train, test = _bench_dictionary()
    dictionary = g.take(train)
    column = g.values[test[0], train]
    full = _code_one(dictionary, column, g.values[test[0], test[0]],
                     lam=1e-3)
    assert full.converged and full.sweeps > 1
    monkeypatch.setattr(sparse_mod, "MAX_SWEEPS", 1)
    cut = _code_one(dictionary, column, g.values[test[0], test[0]],
                    lam=1e-3)
    assert cut.sweeps == 1 and not cut.converged
    assert cut.kkt_residual > 1e-8
    assert cut.kkt_residual == _kkt_residual(dictionary.values, column, 1e-3,
                                             cut.coefficients)
    assert cut.objective == cut.objective_history[-1] > full.objective


def _degenerate_problems():
    """(dictionary, column, self value, converges) of repeated-atom and
    indefinite dictionaries, each coded through `_code_rows`, which skips
    the certification; columns of one dictionary share its object."""
    data = generate_planted(d=8, p=2, classes=2, per_class=4,
                            noise_angle=0.1, seed=3)
    g = gram(RBF_PROJ, data.subspaces)
    atoms = np.array([1, 2, 3, 1, 4, 5])
    repeated = g.take(atoms)
    # the copies of atom 1 disagree on the query, so both enter and the
    # active block is singular
    disagreeing = g.values[1, atoms] + np.array([0, 0, 0, 0.05, 0, 0])
    lines = [line(k * math.pi / 4.0) for k in range(4)]
    indefinite = gram(parse_kernel_token("linear:bc", 1), lines)
    # on these lines the sign-constrained solution of an indefinite
    # block is a saddle, and the step would raise f
    skewed = gram(parse_kernel_token("linear:bc", 1),
                  [line(0.3)] + [line(t) for t in (0.0, 1.0, 2.0, 3.0)])
    # with its true self value f turns negative on the first step, and
    # the roundoff floor stops the solve there; a larger one keeps f
    # positive until the singular block is solved
    return [(repeated, g.values[0, atoms], g.values[0, 0], True),
            (repeated, disagreeing, g.values[1, 1], False),
            (repeated, disagreeing, 5.0, False),
            (indefinite, indefinite.values[0], 1.0, True),
            (indefinite, np.array([0.9, 0.1, -0.8, 0.3]), 1.0, False),
            (skewed.take(np.arange(1, 5)), skewed.values[0, 1:], 1.0,
             False)]


def test_sparse_degenerate_dictionaries_return():
    """A singular or indefinite active block stops the solve, never raises."""
    for dictionary, column, self_value, converges in _degenerate_problems():
        [code] = _code_rows(dictionary, [column], [self_value], 1e-3)
        history = np.array(code.objective_history)
        assert 1 <= code.sweeps == history.size
        assert np.all(np.diff(history) <= 0.0)
        assert code.objective == history[-1]
        assert code.converged == converges
        assert code.converged == (code.kkt_residual <= 1e-8)
        assert code.kkt_residual == _kkt_residual(
            dictionary.values, column, 1e-3, code.coefficients)


def _feature_sign_reference(kmat, k, q, lam, max_sweeps=10_000):
    """A feature-sign loop that codes one query and shares no work
    between sweeps: each sweep multiplies K by the accepted code again
    for the gradient, recomputes the violations and accepts a step whose
    absolute f is lower, unless that f is below -1e-10 times the summed
    magnitudes of its terms.  Returns (coefficients, objective history,
    sweeps, KKT residual, converged)."""
    tolerance = 1e-8

    def objective(y):
        return float(y @ (kmat @ y) - 2.0 * (y @ k) + q
                     + lam * np.sum(np.abs(y)))

    def below_roundoff(y, value):
        terms = (y @ (kmat @ y), 2.0 * (y @ k), q, lam * np.sum(np.abs(y)))
        return value < -1e-10 * sum(abs(term) for term in terms)

    def violations(y, gradient):
        return np.where(y != 0.0, np.abs(gradient + lam * np.sign(y)),
                        np.maximum(np.abs(gradient) - lam, 0.0))

    def gradient_and_residual(y):
        gradient = 2.0 * (kmat @ y - k)
        return gradient, float(np.max(violations(y, gradient), initial=0.0))

    def step(y, gradient, current):
        signs = np.sign(y)
        violation = violations(y, gradient)
        if np.max(violation[signs != 0.0], initial=0.0) <= tolerance:
            entering = int(np.argmax(np.where(signs == 0.0, violation,
                                              -1.0)))
            signs[entering] = -np.sign(gradient[entering])
        active = np.flatnonzero(signs)
        try:
            target = np.linalg.solve(kmat[np.ix_(active, active)],
                                     k[active] - 0.5 * lam * signs[active])
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(target)):
            return None
        start = y[active]
        direction = target - start
        best_y = y.copy()
        best_y[active] = target
        best = objective(best_y)
        for j in np.flatnonzero(start * target < 0.0):
            candidate = y.copy()
            candidate[active] = start + (start[j] / -direction[j]) * direction
            candidate[active[j]] = 0.0
            value = objective(candidate)
            if value < best:
                best_y, best = candidate, value
        if not best < current or below_roundoff(best_y, best):
            return None
        return best_y, best

    y = np.zeros(k.size)
    gradient, residual = gradient_and_residual(y)
    current = objective(y)
    history = []
    for sweeps in range(1, max_sweeps + 1):
        moved = None
        if residual > tolerance:
            moved = step(y, gradient, current)
        if moved is not None:
            y, current = moved
            gradient, residual = gradient_and_residual(y)
        history.append(current)
        if moved is None or residual <= tolerance:
            break
    return y, tuple(history), sweeps, residual, residual <= tolerance


def _assert_is_reference_code(code, dictionary, column, self_value, lam):
    """The code `_feature_sign_reference` gives the query alone, at the
    current MAX_SWEEPS."""
    y, history, sweeps, residual, converged = _feature_sign_reference(
        dictionary.values, np.asarray(column, dtype=np.float64), self_value,
        lam, max_sweeps=sparse_mod.MAX_SWEEPS)
    assert code.coefficients.tobytes() == y.tobytes()
    assert code.objective_history == history
    assert code.objective == history[-1]
    assert code.sweeps == sweeps
    assert code.kkt_residual == residual
    assert code.converged == converged


def _assert_coded_as_reference(dictionary, column, self_value, lam):
    [code] = _code_rows(dictionary, [column], [self_value], lam)
    _assert_is_reference_code(code, dictionary, column, self_value, lam)
    return code


def test_sparse_sweeps_match_the_reference_loop(monkeypatch):
    """Keeping K y and the violations between sweeps, and accepting a step
    by its change in f, leave every iterate bit-identical on dictionaries
    where no decrease is lost to roundoff: the bench split, one
    tasks-sized split, repeated-atom and indefinite dictionaries, a zero
    code and cut budgets."""
    g, train, test = _bench_dictionary()
    bench = g.take(train)
    for query in test:
        for max_sweeps in (10_000, 1, 3):
            with monkeypatch.context() as patch:
                patch.setattr(sparse_mod, "MAX_SWEEPS", max_sweeps)
                _assert_coded_as_reference(bench, g.values[query, train],
                                           g.values[query, query], 1e-3)
    zero = _assert_coded_as_reference(bench, g.values[test[0], train],
                                      g.values[test[0], test[0]], 100.0)
    assert zero.sweeps == 1 and not np.any(zero.coefficients)
    for dictionary, column, self_value, converges in _degenerate_problems():
        code = _assert_coded_as_reference(dictionary, column, self_value,
                                          1e-3)
        assert code.converged == converges
    data = generate_planted(d=100, p=2, classes=10, per_class=10,
                            noise_angle=0.1, seed=24)
    g = gram(RBF_PROJ, data.subspaces)
    train, test = stratified_split(data.labels, 0.5,
                                   np.random.default_rng([0]))
    dictionary = g.take(train)
    sweeps = [_assert_coded_as_reference(dictionary, g.values[query, train],
                                         g.values[query, query], 1e-3).sweeps
              for query in test]
    assert sum(sweeps) > 2 * len(sweeps)


def test_sparse_converges_where_absolute_objectives_tie():
    """Split seed 1, query 24 of criterion 07's n=500 file: with a
    dictionary condition number near 1e5, comparing absolute values of f,
    which carry the constant q, lost the last true decrease to roundoff
    and stopped at a KKT residual of 6.2e-8.  The change in f still sees
    it."""
    data = generate_planted(d=100, p=2, classes=50, per_class=10,
                            noise_angle=0.1, seed=0)
    g = gram(RBF_PROJ, data.subspaces)
    train, test = stratified_split(data.labels, 0.5,
                                   np.random.default_rng([1]))
    query = 24
    assert query in test
    dictionary = g.take(train)
    column = g.values[query, train]
    code = _code_one(dictionary, column, g.values[query, query], 1e-3)
    assert code.converged and code.kkt_residual <= 1e-8
    assert code.kkt_residual == _kkt_residual(dictionary.values, column,
                                              1e-3, code.coefficients)
    assert np.all(np.diff(code.objective_history) <= 0.0)
    assert code.objective == code.objective_history[-1]
    # the same sweeps; the last step's recomputed f is a few ulp higher,
    # so the history keeps the lower value the reference stopped at
    _, history, sweeps, _, _ = _feature_sign_reference(
        dictionary.values, column, g.values[query, query], 1e-3)
    assert code.sweeps == sweeps and code.objective_history == history


def _assert_rows_coded_as_reference(dictionary, columns, self_values, lam,
                                    certified=True):
    """One lockstep call on the rows of `columns` gives each row the code
    `_feature_sign_reference` gives it alone; a dictionary that is not
    `certified` is coded through `_code_rows`.  Returns the codes."""
    if certified:
        coded = kernel_sparse_code(dictionary, columns, self_values, lam)
        assert isinstance(coded, SparseCodes)
        assert coded.sweeps == sum(code.sweeps for code in coded.codes)
        codes = coded.codes
    else:
        codes = _code_rows(dictionary, columns, self_values, lam)
    assert len(codes) == len(columns)
    for code, column, self_value in zip(codes, columns, self_values):
        _assert_is_reference_code(code, dictionary, column, self_value, lam)
    return codes


def _split_problem(g, train, test):
    """(dictionary, query columns, self values) of one split."""
    return (g.take(train), g.values[test[:, None], train],
            g.values[test, test])


def test_sparse_lockstep_rows_code_as_alone(monkeypatch):
    """A split's queries coded in one call: the bench split at full and
    cut budgets, the 50-query n=100 split, the degenerate problems with
    their singular and regular columns side by side, and no queries."""
    g, train, test = _bench_dictionary()
    dictionary, columns, self_values = _split_problem(g, train, test)
    for max_sweeps in (10_000, 1, 3):
        with monkeypatch.context() as patch:
            patch.setattr(sparse_mod, "MAX_SWEEPS", max_sweeps)
            _assert_rows_coded_as_reference(dictionary, columns, self_values,
                                            1e-3)
    empty = kernel_sparse_code(dictionary, columns[:0], self_values[:0], 1e-3)
    assert empty.codes == () and empty.sweeps == 0
    data = generate_planted(d=100, p=2, classes=10, per_class=10,
                            noise_angle=0.1, seed=24)
    g = gram(RBF_PROJ, data.subspaces)
    train, test = stratified_split(data.labels, 0.5,
                                   np.random.default_rng([0]))
    codes = _assert_rows_coded_as_reference(*_split_problem(g, train, test),
                                            1e-3)
    assert len(codes) == 50 and sum(code.sweeps for code in codes) > 2 * 50
    by_dictionary = {}
    for dictionary, column, self_value, converges in _degenerate_problems():
        by_dictionary.setdefault(id(dictionary), (dictionary, []))[1].append(
            (column, self_value, converges))
    assert any(len(rows) > 1 and {c for _, _, c in rows} == {True, False}
               for _, rows in by_dictionary.values())
    for dictionary, rows in by_dictionary.values():
        columns, self_values, converges = zip(*rows)
        codes = _assert_rows_coded_as_reference(
            dictionary, np.array(columns), np.array(self_values), 1e-3,
            certified=False)
        assert [code.converged for code in codes] == list(converges)


def test_sparse_lockstep_rejects_mismatched_queries():
    g, train, test = _bench_dictionary()
    dictionary, columns, self_values = _split_problem(g, train, test)
    bad = [(columns[:, :-1], self_values, "query columns"),
           (columns, self_values[:-1], "query self values"),
           (columns, self_values[:, None], "query self values"),
           (columns, 1.0, "query self values"),
           (columns[0], self_values[:1], "query columns"),
           (columns[None], self_values, "query columns"),
           (columns[0], self_values[0], "query columns")]
    for column, self_value, message in bad:
        with pytest.raises(ValueError, match=message):
            kernel_sparse_code(dictionary, column, self_value, 1e-3)


def _hard_file():
    """The noise-0.9 planted file on which the linear projection
    dictionary has numerical rank 21 = d (d + 1) / 2 of its 60 atoms."""
    with warnings.catch_warnings():
        # six 2-planes in R^6 cannot have orthogonal prototypes
        warnings.simplefilter("ignore")
        return generate_planted(d=6, p=2, classes=6, per_class=20,
                                noise_angle=0.9, seed=3)


def test_sparse_never_accepts_a_negative_objective():
    """Split seed 1 of the hard file under linear:projection: a 22-atom
    active block is numerically singular, and on queries 67 and 107 the
    step to its huge solution computed f = -1.27e12 and -3.77e11 (it
    cannot be negative) with coefficients up to 5.4e13.  The roundoff
    floor refuses those steps, so each solve stops at its last code."""
    data = _hard_file()
    g = gram(parse_kernel_token("linear:projection", 2), data.subspaces)
    train, test = stratified_split(data.labels, 0.5,
                                   np.random.default_rng([1]))
    queries = np.array([67, 107])
    assert np.isin(queries, test).all()
    dictionary = g.take(train)
    coded = kernel_sparse_code(dictionary, g.values[queries[:, None], train],
                               g.values[queries, queries], 1e-3)
    for query, code in zip(queries, coded.codes):
        y = code.coefficients
        column = g.values[query, train]
        recomputed = (y @ (dictionary.values @ y) - 2.0 * (y @ column)
                      + g.values[query, query] + 1e-3 * np.abs(y).sum())
        assert code.objective >= 0.0 and recomputed >= 0.0
        assert np.all(np.diff(code.objective_history) <= 0.0)
        assert np.abs(y).max() < 10.0
        assert not code.converged


def test_stacked_products_match_per_row_blas_calls():
    """The numpy rule two loops rely on: a stack of matrix-vector or
    vector-matrix products, dots or solves gives each result bit for bit
    as it comes alone.  If a numpy or BLAS upgrade breaks it, the
    sparse-coding and k-means lockstep rows no longer run as alone and
    klsh_hash_gram's keys may change, so this fails first."""
    rng = np.random.default_rng(5)
    message = ("stacked products differ from per-row ones; the feature-"
               "sign and k-means locksteps (machines/sparse.py, "
               "machines/kkmeans.py) and klsh_hash_gram (machines/klsh.py) "
               "rely on them being equal")
    for m in (1, 2, 5, 12, 30):
        a = rng.standard_normal((9, m, m))
        blocks = a @ a.transpose(0, 2, 1) + np.eye(m)
        rhs = rng.standard_normal((9, m))
        solved = np.linalg.solve(blocks, rhs[:, :, None])[:, :, 0]
        assert all(np.array_equal(solved[b], np.linalg.solve(blocks[b],
                                                             rhs[b]))
                   for b in range(9)), message
    for n in (1, 5, 20, 50, 250):
        a = rng.standard_normal((n, n))
        kmat = a @ a.T
        y = rng.standard_normal((7, n)) * (rng.random((7, n)) < 0.5)
        stacked = np.matmul(kmat, y[:, :, None])[:, :, 0]
        assert all(np.array_equal(stacked[r], kmat @ y[r])
                   for r in range(7)), message
        dots = np.matmul(y[:, None, :], stacked[:, :, None])[:, 0, 0]
        assert all(dots[r] == y[r] @ stacked[r] for r in range(7)), message
        assert all(np.abs(y).sum(axis=1)[r] == np.abs(y[r]).sum()
                   for r in range(7)), message
        member = np.zeros((7, n, 4))
        member[np.arange(7)[:, None], np.arange(n),
               rng.integers(4, size=(7, n))] = 1.0
        cross = np.matmul(kmat, member)
        internal = np.einsum("ric,ric->rc", member, cross)
        assert all(np.array_equal(cross[r], kmat @ member[r])
                   and np.array_equal(internal[r], np.einsum(
                       "ic,ic->c", member[r], kmat @ member[r]))
                   for r in range(7)), message
        anchors = min(n, 30)
        weights = rng.standard_normal((anchors, 12))
        index = np.array([rng.choice(n, anchors, replace=False)
                          for _ in range(12)])
        scores = np.matmul(weights.T[:, None, :], kmat[index])[:, 0, :]
        assert all(np.array_equal(scores[b], weights[:, b] @ kmat[index[b]])
                   for b in range(12)), message


# ---------------------------------------------------------------- klsh


def test_klsh_shapes_and_determinism():
    data = generate_planted(d=8, p=2, classes=4, per_class=10,
                            noise_angle=0.2, seed=4)
    g = gram(RBF_PROJ, data.subspaces)
    family = klsh_build(g, bits=12, anchors=10, seed=3)
    assert family.bit_count == 12 and family.anchor_indices.shape[1] == 10
    assert family.anchor_indices.shape == (12, 10)
    assert family.projection_weights.shape == (10, 12)
    assert np.all(family.anchor_indices >= 0)
    assert np.all(family.anchor_indices < g.n)
    for row in family.anchor_indices:
        assert len(set(row.tolist())) == 10  # drawn without replacement
    keys = klsh_hash_gram(family, g)
    assert keys.shape == (40, 12) and keys.dtype == np.uint8
    assert set(np.unique(keys)) <= {0, 1}
    again = klsh_build(g, bits=12, anchors=10, seed=3)
    assert np.array_equal(family.anchor_indices, again.anchor_indices)
    assert np.array_equal(family.projection_weights,
                          again.projection_weights)
    other = klsh_build(g, bits=12, anchors=10, seed=4)
    assert not np.array_equal(family.anchor_indices, other.anchor_indices)


def test_klsh_error_paths():
    pts = [grassmann.random_subspace(5, 2, np.random.default_rng([6, i]))
           for i in range(5)]
    g = gram(RBF_PROJ, pts)
    with pytest.raises(ValueError, match="at least one bit"):
        klsh_build(g, bits=0, anchors=3)
    with pytest.raises(ValueError, match="anchors from"):
        klsh_build(g, bits=4, anchors=6)
    with pytest.raises(ValueError, match="anchors from"):
        klsh_build(g, bits=4, anchors=0)
    with pytest.raises(ValueError, match="anchors from"):
        klsh_build(g, bits=4, anchors=1)


def _per_bit_klsh(k, bits, anchors, seed):
    """Reference for klsh_build: each bit drawn, whitened by its own
    inverse square root and projected alone.

    Returns (anchor_indices, projection_weights, floored bit count).
    """
    rng = np.random.default_rng(seed)
    half = math.ceil(anchors / 2)
    anchor_indices = np.empty((bits, anchors), dtype=np.intp)
    weights = np.empty((anchors, bits))
    floored = 0
    for b in range(bits):
        idx = rng.choice(k.shape[0], size=anchors, replace=False)
        anchor_indices[b] = idx
        block = k[np.ix_(idx, idx)]
        values, vectors = np.linalg.eigh((block + block.T) / 2.0)
        floored += bool(np.any(values <= EIGENVALUE_FLOOR))
        inv = np.where(values > EIGENVALUE_FLOOR, values, np.inf) ** -0.5
        members = rng.choice(anchors, size=half, replace=False)
        indicator = np.full(anchors, -half / anchors)
        indicator[members] += 1.0
        weights[:, b] = ((vectors * inv) @ vectors.T) @ indicator
    return anchor_indices, weights, floored


def test_klsh_blocked_whitening_matches_per_bit_loop():
    """Bit counts on either side of a whitening block, and a Gram whose
    duplicated points leave zero eigenvalues for the floor to drop."""
    data = generate_planted(d=8, p=2, classes=4, per_class=10,
                            noise_angle=0.2, seed=4)
    plain = gram(RBF_PROJ, data.subspaces)
    duplicated = gram(RBF_PROJ, list(data.subspaces) + list(data.subspaces))
    floored = 0
    for g in (plain, duplicated):
        for bits in (1, 3, 4, 5, 60):
            for anchors in (2, 30):
                family = klsh_build(g, bits=bits, anchors=anchors, seed=bits)
                indices, weights, count = _per_bit_klsh(
                    g.values, bits, anchors, bits)
                assert np.array_equal(family.anchor_indices, indices)
                assert np.array_equal(family.projection_weights, weights)
                floored += count
    assert floored > 0


def test_klsh_stacked_keys_match_per_bit_loop():
    """Keys of the bench and n=100 families against each bit's own
    vector-matrix product."""
    bench = generate_planted(d=8, p=2, classes=2, per_class=20,
                             noise_angle=0.1, seed=24)
    n100 = generate_planted(d=100, p=2, classes=10, per_class=10,
                            noise_angle=0.1, seed=24)
    for data in (bench, n100):
        for g in grams([RBF_PROJ, parse_kernel_token("linear:projection", 2),
                        parse_kernel_token("laplace:projection:beta=1", 2)],
                       data.subspaces).values():
            for seed in range(3):
                family = klsh_build(g, bits=60, anchors=30, seed=seed)
                keys = np.empty((g.n, 60), dtype=np.uint8)
                for b in range(60):
                    scores = (family.projection_weights[:, b]
                              @ g.values[family.anchor_indices[b]])
                    keys[:, b] = scores > 0.0
                hashed = klsh_hash_gram(family, g)
                assert hashed.dtype == np.uint8
                assert hashed.flags.c_contiguous
                assert np.array_equal(hashed, keys)


def test_klsh_build_peak_allocation():
    """Whitening a few bits at a time keeps a 60-bit, 30-anchor family on
    100 points under 512 KB of peak allocation; stacking all 60 blocks at
    once takes about 1.75 MB."""
    data = generate_planted(d=100, p=2, classes=10, per_class=10,
                            noise_angle=0.1, seed=0)
    g = gram(RBF_PROJ, data.subspaces)
    tracemalloc.start()
    try:
        klsh_build(g, bits=60, anchors=30, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_klsh_neighbor_recall():
    """Hash ranking keeps most same-class points in the short list."""
    data = generate_planted(d=20, p=2, classes=10, per_class=5,
                            noise_angle=0.1, seed=1)
    g = gram(RBF_PROJ, data.subspaces)
    family = klsh_build(g, bits=40, anchors=20, seed=0)
    keys = klsh_hash_gram(family, g)
    recalls = []
    for i in range(g.n):
        distances = np.count_nonzero(keys != keys[i], axis=1)
        ranked = np.argsort(distances, kind="stable")[:6]
        top = [t for t in ranked if t != i][:5]
        recalls.append(
            float(np.mean(data.labels[np.array(top)] == data.labels[i])))
    assert np.mean(recalls) >= 0.7


# --------------------------------------------------- train/test splits


def test_split_then_train_workflow():
    """End-to-end: split, train on the Gram submatrix, score held-out."""
    data, y = planted_binary()
    g = gram(RBF_PROJ, data.subspaces)
    correct = 0
    total = 0
    for seed in range(5):
        rng = np.random.default_rng([seed])
        train, test = stratified_split(data.labels, 0.5, rng)
        model = svm_train(g.take(train), y[None, train], c=10.0).models[0]
        rows = g.values[np.ix_(test, train)]
        predictions = np.where(
            svm_decision_from_rows(model, rows) >= 0.0, 1.0, -1.0)
        correct += int(np.sum(predictions == y[test]))
        total += test.size
    assert correct / total >= 0.95
