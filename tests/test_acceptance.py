"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Every test prints a `[criterion NN] PASS/FAIL` line before asserting, so
a full run documents all ten verdicts (run pytest with `-rA` or `-s` to
see the lines; the project enables `-rA` by default).

Criterion 02 sweeps the catalog's certification on sampled subspaces
and asserts each side of the embedding split for what theory says of
it.  On the projection embedding the similarity is an inner product of
projectors, so every sampled setting must certify in its mode.  On the
determinant embedding |det(x.T @ y)| is no inner product, and the test
asserts the paper's claim false: on each manifold some determinant
setting (the polynomial, binomial or conditional logarithm kernel on
the fixed sample) has a negative eigenvalue far outside roundoff.  The
test prints every uncertified setting with its spectrum.  See the module
docstring of `grasskernels.kernels` and the pd-check task for the same
finding surfaced through the library itself.
"""

import itertools
import math
import time

import numpy as np

from grasskernels import kernels
from grasskernels.grassmann import (Subspace, bc_inner, compound_matrix,
                                    curve_length_ratio, geodesic_distance,
                                    plucker_embed, principal_angles,
                                    proj_inner, random_subspace,
                                    subspace_pair_with_angles)
from grasskernels.harness.config import build_config
from grasskernels.harness.datasets import generate_planted, stratified_split
from grasskernels.harness.experiments import run_experiment
from grasskernels.machines.kkmeans import kkmeans
from grasskernels.machines.klsh import klsh_build, klsh_hash_gram
from grasskernels.machines.metrics import normalized_mutual_information
from grasskernels.machines.sparse import (kernel_sparse_code,
                                          sparse_code_classify)
from grasskernels.machines.svm import svm_decision_from_rows, svm_train

RBF_PROJ = "rbf:projection:beta=0.5"


def verdict(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# --------------------------------------------------------------------------


def test_criterion_01_geodesic_similarity_counterexample():
    """The four-point witness matrix has its negative eigenvalue in band."""
    start = time.time()
    report = kernels.certify_pd(kernels.counterexample_gram())
    elapsed = time.time() - start
    ok = (-0.0043 <= report.min_eigenvalue <= -0.0033) and elapsed < 1.0
    assert verdict(
        1, ok,
        f"exp(-geodesic^2) Gram on 4 subspaces has min eigenvalue "
        f"{report.min_eigenvalue:.6f}, inside (-0.0043, -0.0033), "
        f"in {elapsed:.2f}s")


def test_criterion_02_catalog_certification_sweep():
    """Advertised certification over sampled parameters on two manifolds.

    Sweeps the eight parametric kernels (4 families x 2 embeddings, 5
    sampled valid settings each) and both logarithm kernels on 100
    random subspaces on each of G(2,8) and G(3,10): 84 settings, each
    certified in its spec's `certification_mode` at the default relative
    eigenvalue tolerance 1e-8.

    The projection side is guaranteed: ||x.T @ y||_F^2 is the Frobenius
    inner product of the projectors, so all 42 projection settings must
    certify.  The determinant side is not: |det(x.T @ y)| is no inner
    product (for p = 1 it is |cos theta|, whose Legendre expansion has a
    negative degree-4 coefficient, so by Schoenberg's theorem even the
    linear kernel is indefinite).  The test asserts that finding as a
    witness: on each manifold at least one determinant setting fails,
    with a relative minimum eigenvalue below -1e-6, a hundred times the
    tolerance and far outside roundoff.
    """
    start = time.time()
    rng = np.random.default_rng(20240)
    # 100x certify_pd's default tolerance, far outside roundoff
    witness_bound = -1e-6

    def sample_settings(family, embedding, p):
        settings = []
        for _ in range(5):
            if family == "polynomial":
                settings.append(dict(alpha=float(rng.integers(1, 4)),
                                     beta=float(rng.uniform(0.1, 5.0))))
            elif family in ("rbf", "laplace"):
                settings.append(dict(beta=float(rng.uniform(0.1, 5.0))))
            elif family == "binomial":
                lower = 1.0 if embedding == "bc" else float(p)
                settings.append(dict(alpha=float(rng.uniform(0.5, 3.0)),
                                     beta=lower
                                     + float(rng.uniform(0.1, 2.0))))
        return settings

    results = []
    for d, p in ((8, 2), (10, 3)):
        manifold = f"G({p},{d})"
        points_rng = np.random.default_rng([7, d, p])
        points = [random_subspace(d, p, points_rng) for _ in range(100)]
        specs = [kernels.KernelSpec(embedding=embedding, family=family, p=p,
                                    **params)
                 for family in ("polynomial", "rbf", "laplace", "binomial")
                 for embedding in ("bc", "projection")
                 for params in sample_settings(family, embedding, p)]
        specs += [kernels.KernelSpec(embedding=embedding, family="logarithm",
                                     p=p)
                  for embedding in ("bc", "projection")]
        # one similarity matrix per embedding for all of the manifold's
        # settings
        grams = kernels.grams(specs, points)
        for spec in specs:
            report = kernels.certify_pd(grams[spec],
                                        mode=spec.certification_mode)
            results.append((manifold, spec, report))

    elapsed = time.time() - start
    failures = [(manifold, spec,
                 report.min_eigenvalue / abs(report.max_eigenvalue))
                for manifold, spec, report in results if not report.passed]
    for manifold, spec, relative in failures:
        print(f"    not certified: {manifold} {spec.label()} "
              f"[{spec.certification_mode}] "
              f"rel_min_eigenvalue={relative:.3e}")
    projection_total = sum(spec.embedding == "projection"
                           for _, spec, _ in results)
    projection_failures = [(manifold, spec.label())
                           for manifold, spec, _ in failures
                           if spec.embedding == "projection"]
    det_failures = [f for f in failures if f[1].embedding == "bc"]
    # the most negative relative eigenvalue among the determinant-side
    # failures on each manifold; 0.0 when that manifold has none
    worst = dict.fromkeys((manifold for manifold, _, _ in results), 0.0)
    for manifold, _, relative in det_failures:
        worst[manifold] = min(worst[manifold], relative)
    unwitnessed = [m for m, relative in worst.items()
                   if not relative < witness_bound]
    counts = {}
    for _, spec, _ in det_failures:
        key = f"{spec.family}:bc"
        counts[key] = counts.get(key, 0) + 1
    breakdown = ", ".join(f"{k} x{v}" for k, v in sorted(counts.items())) \
        or "none"
    worst_text = ", ".join(f"{m} {relative:.1e}"
                           for m, relative in worst.items())
    finding = (f"no determinant-embedding witness on "
               f"{', '.join(unwitnessed)}" if unwitnessed else
               "the |det| kernels are not positive definite")
    ok = (len(results) == 84 and not projection_failures
          and not unwitnessed and elapsed < 60.0)
    verdict(2, ok,
            f"{projection_total - len(projection_failures)} of "
            f"{projection_total} projection-embedding settings certified; "
            f"{len(det_failures)} of {len(results) - projection_total} "
            f"determinant-embedding settings fail ({breakdown}), worst "
            f"relative min eigenvalue {worst_text}; {finding}; "
            f"{elapsed:.1f}s")
    assert elapsed < 60.0
    assert len(results) == 84
    assert not projection_failures, (
        f"projection-embedding kernels are guaranteed (conditionally) "
        f"positive definite, yet these settings fail certification: "
        f"{projection_failures}")
    assert not unwitnessed, (
        f"no determinant-embedding setting on {unwitnessed} has a relative "
        f"min eigenvalue below {witness_bound:g}; the |det| kernels are "
        f"expected to be indefinite on such samples")


def test_criterion_03_minor_embedding_oracle():
    """The minor embedding reproduces the determinant similarity exactly,
    and the compound matrix satisfies its product identity."""
    rng = np.random.default_rng(303)
    worst_pair = 0.0
    pair_count = 0
    for d, p, count in ((4, 2, 334), (6, 2, 333), (6, 3, 333)):
        for _ in range(count):
            x = random_subspace(d, p, rng)
            y = random_subspace(d, p, rng)
            from_minors = abs(float(
                plucker_embed(x) @ plucker_embed(y)))
            worst_pair = max(worst_pair,
                             abs(from_minors - bc_inner(x, y)))
            pair_count += 1
    worst_product = 0.0
    shapes = ((5, 2, 2), (6, 3, 2), (6, 3, 3), (4, 2, 2))
    for index in range(100):
        rows, cols, q = shapes[index % len(shapes)]
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal((rows, cols))
        left = compound_matrix(a.T @ b, q)
        right = compound_matrix(a, q).T @ compound_matrix(b, q)
        worst_product = max(worst_product,
                            float(np.max(np.abs(left - right))))
    ok = worst_pair <= 1e-10 and worst_product <= 1e-10
    assert verdict(
        3, ok,
        f"|<P(x), P(y)>| matches |det(x^T y)| to {worst_pair:.2e} on "
        f"{pair_count} pairs; compound product identity holds to "
        f"{worst_product:.2e} on 100 pairs (both within 1e-10)")


def test_criterion_04_similarity_angle_identities():
    """Both similarities reduce to symmetric functions of the angles."""
    rng = np.random.default_rng(404)
    worst_proj = 0.0
    worst_bc = 0.0
    for d, p in ((4, 2), (6, 2), (6, 3), (8, 3)):
        for _ in range(250):
            x = random_subspace(d, p, rng)
            y = random_subspace(d, p, rng)
            cosines = np.cos(principal_angles(x, y))
            worst_proj = max(worst_proj, abs(proj_inner(x, y)
                                             - float(np.sum(cosines ** 2))))
            worst_bc = max(worst_bc, abs(bc_inner(x, y) ** 2
                                         - float(np.prod(cosines ** 2))))
    ok = worst_proj <= 1e-10 and worst_bc <= 1e-10
    assert verdict(
        4, ok,
        f"on 1000 pairs, projection similarity matches sum of squared "
        f"cosines to {worst_proj:.2e} and squared determinant similarity "
        f"matches their product to {worst_bc:.2e} (both within 1e-10)")


def test_criterion_05_chordal_to_geodesic_limit():
    """Near coincidence the squared-overlap chordal ratio approaches 2."""
    rng = np.random.default_rng(505)
    manifolds = ((4, 2), (6, 2), (6, 3), (10, 4))
    worst = 0.0
    largest_geo = 0.0
    for index in range(100):
        d, p = manifolds[index % len(manifolds)]
        angles = np.sort(rng.uniform(1e-6, 9e-4 / math.sqrt(p), size=p))
        x, y = subspace_pair_with_angles(d, p, angles, rng)
        geo = geodesic_distance(x, y)
        largest_geo = max(largest_geo, geo)
        worst = max(worst, abs(curve_length_ratio(x, y) - 2.0))
    ok = worst <= 1e-4 and largest_geo <= 1e-3
    assert verdict(
        5, ok,
        f"100 constructed pairs with geodesic distance <= "
        f"{largest_geo:.2e}: chordal-to-geodesic squared ratio within "
        f"{worst:.2e} of 2 (tolerance 1e-4)")


def test_criterion_06_basis_invariance():
    """Catalog kernel values ignore the choice of basis on both sides."""
    rng = np.random.default_rng(606)
    catalog = kernels.catalog(2)
    worst = 0.0
    for trial in range(500):
        spec = catalog[trial % len(catalog)]
        x = random_subspace(6, 2, rng)
        y = random_subspace(6, 2, rng)
        qx, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        qy, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        baseline = kernels.evaluate(spec, x, y)
        rotated = kernels.evaluate(spec, Subspace(x.basis @ qx),
                                   Subspace(y.basis @ qy))
        worst = max(worst, abs(rotated - baseline))
    ok = worst <= 1e-10
    assert verdict(
        6, ok,
        f"500 random basis changes across the 14-kernel catalog move "
        f"values by at most {worst:.2e} (tolerance 1e-10)")


def test_criterion_07_machines_on_planted_data():
    """All four machines clear their accuracy floors on planted data."""
    start = time.time()
    spec = kernels.parse_kernel_token(RBF_PROJ, 2)

    # binary SVM over 10 stratified splits
    data2 = generate_planted(d=8, p=2, classes=2, per_class=20,
                             noise_angle=0.1, seed=0)
    gram2 = kernels.gram(spec, data2.subspaces)
    targets = np.where(data2.labels == 0, -1.0, 1.0)
    accuracies = []
    for seed in range(10):
        rng = np.random.default_rng([seed])
        train, test = stratified_split(data2.labels, 0.5, rng)
        model = svm_train(gram2.take(train), targets[None, train],
                          c=10.0).models[0]
        rows = gram2.values[np.ix_(test, train)]
        predicted = np.where(svm_decision_from_rows(model, rows) >= 0.0,
                             1.0, -1.0)
        accuracies.append(float(np.mean(predicted == targets[test])))
    svm_accuracy = float(np.mean(accuracies))

    # clustering on five planted classes
    data5 = generate_planted(d=10, p=2, classes=5, per_class=20,
                             noise_angle=0.1, seed=0)
    gram5 = kernels.gram(spec, data5.subspaces)
    nmis = [normalized_mutual_information(
        kkmeans(gram5, 5, seed=seed, restarts=5).labels, data5.labels)
        for seed in range(10)]
    cluster_nmi = float(np.mean(nmis))

    # sparse coding classification on three classes
    data3 = generate_planted(d=8, p=2, classes=3, per_class=10,
                             noise_angle=0.1, seed=0)
    gram3 = kernels.gram(spec, data3.subspaces)
    sparse_accuracies = []
    for seed in range(10):
        rng = np.random.default_rng([seed])
        train, test = stratified_split(data3.labels, 0.5, rng)
        atom_labels = data3.labels[train]
        columns = gram3.values[test[:, None], train]
        codes = kernel_sparse_code(gram3.take(train), columns,
                                   gram3.values[test, test], lam=0.01).codes
        predicted, _ = sparse_code_classify(codes, atom_labels, columns)
        sparse_accuracies.append(float(np.mean(predicted
                                               == data3.labels[test])))
    sparse_accuracy = float(np.mean(sparse_accuracies))

    # hashing recall against exact kernel ranking on 500 points
    data500 = generate_planted(d=100, p=2, classes=50, per_class=10,
                               noise_angle=0.1, seed=0)
    gram500 = kernels.gram(spec, data500.subspaces)
    k = gram500.values
    recalls = []
    for seed in range(10):
        family = klsh_build(gram500, bits=60, anchors=30, seed=seed)
        keys = klsh_hash_gram(family, gram500)
        per_query = np.empty(k.shape[0])
        for i in range(k.shape[0]):
            similarity = k[i].copy()
            similarity[i] = -np.inf
            exact = np.argsort(-similarity, kind="stable")[:10]
            distance = np.count_nonzero(keys != keys[i], axis=1)
            distance[i] = keys.shape[1] + 1
            approx = np.argsort(distance, kind="stable")[:10]
            per_query[i] = np.intersect1d(exact, approx).size / 10.0
        recalls.append(float(np.mean(per_query)))
    hash_recall = float(np.mean(recalls))

    elapsed = time.time() - start
    ok = (svm_accuracy >= 0.95 and cluster_nmi >= 0.9
          and sparse_accuracy >= 0.9 and hash_recall >= 0.5
          and elapsed < 300.0)
    assert verdict(
        7, ok,
        f"svm accuracy {svm_accuracy:.4f} (>= 0.95), clustering nmi "
        f"{cluster_nmi:.4f} (>= 0.9), sparse coding accuracy "
        f"{sparse_accuracy:.4f} (>= 0.9), hash recall@10 "
        f"{hash_recall:.4f} (>= 0.5), in {elapsed:.0f}s (< 300s)")


def test_criterion_08_shifted_gram_leaves_predictions_alone():
    """Training-point decision signs survive a constant Gram shift."""
    data = generate_planted(d=8, p=2, classes=2, per_class=20,
                            noise_angle=0.1, seed=0)
    targets = np.where(data.labels == 0, -1.0, 1.0)
    checked = 0
    stable = True
    for token in ("logarithm:bc", "logarithm:projection"):
        spec = kernels.parse_kernel_token(token, 2)
        g = kernels.gram(spec, data.subspaces)
        base = svm_train(g, targets[None], c=10.0).models[0]
        reference = np.sign(svm_decision_from_rows(base, g.values))
        for shift in (1.0, 10.0):
            lifted = kernels.GramMatrix(g.values + shift)
            model = svm_train(lifted, targets[None], c=10.0).models[0]
            signs = np.sign(svm_decision_from_rows(model, lifted.values))
            stable &= bool(np.array_equal(signs, reference))
            checked += 1
    assert verdict(
        8, stable,
        f"both logarithm kernels keep every training decision sign under "
        f"Gram shifts of 1 and 10 ({checked} shifted retrainings, "
        f"{data.n} points each)")


def test_criterion_09_solver_invariants():
    """Optimality residuals and descent traces for all three solvers."""
    spec = kernels.parse_kernel_token(RBF_PROJ, 2)

    # SVM: reported residual, and an independent recomputation, <= 1e-6
    data = generate_planted(d=8, p=2, classes=2, per_class=10,
                            noise_angle=0.1, seed=0)
    g = kernels.gram(spec, data.subspaces)
    targets = np.where(data.labels == 0, -1.0, 1.0)
    c = 10.0
    model = svm_train(g, targets[None], c=c).models[0]
    alpha = np.zeros(g.n)
    alpha[model.support_indices] = model.dual_coefficients \
        * targets[model.support_indices]
    gradient = targets * (g.values @ (targets * alpha)) - 1.0
    score = -targets * gradient
    positive = targets > 0
    can_raise = np.where(positive, alpha < c, alpha > 0.0)
    can_lower = np.where(positive, alpha > 0.0, alpha < c)
    kkt = float(np.max(np.where(can_raise, score, -np.inf))
                - np.min(np.where(can_lower, score, np.inf)))

    # clustering: every logged inertia trace is non-increasing
    cluster_runs = 0
    cluster_monotone = True
    for d, p, classes, per, noise in ((10, 2, 5, 20, 0.1),
                                      (8, 2, 3, 12, 0.25),
                                      (6, 2, 2, 10, 0.3)):
        planted = generate_planted(d=d, p=p, classes=classes,
                                   per_class=per, noise_angle=noise,
                                   seed=1)
        gram_matrix = kernels.gram(spec, planted.subspaces)
        for seed in range(5):
            for restarts in (1, 2):
                run = kkmeans(gram_matrix, classes, seed=seed,
                              restarts=restarts)
                cluster_runs += 1
                cluster_monotone &= bool(
                    np.all(np.diff(run.inertia_history) <= 0.0))

    # sparse coding: descent per sweep and agreement with enumeration
    def oracle(kmat, column, query_self, lam):
        best = None
        for pattern in itertools.product((-1.0, 0.0, 1.0),
                                         repeat=column.size):
            sigma = np.array(pattern)
            support = np.flatnonzero(sigma != 0.0)
            y = np.zeros(column.size)
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
            off = np.setdiff1d(np.arange(column.size), support)
            slack = np.abs(2.0 * (kmat @ y - column)[off])
            if off.size and np.any(slack > lam + 1e-9):
                continue
            value = float(y @ kmat @ y - 2.0 * y @ column + query_self
                          + lam * np.abs(y).sum())
            if best is None or value < best:
                best = value
        return best

    rng = np.random.default_rng(909)
    sparse_gap = 0.0
    sparse_monotone = True
    sparse_instances = 0
    for _ in range(6):
        atoms = [random_subspace(6, 2, rng) for _ in range(6)]
        query = random_subspace(6, 2, rng)
        dictionary = kernels.gram(spec, atoms)
        column = np.array([kernels.evaluate(spec, query, a) for a in atoms])
        self_sim = kernels.evaluate(spec, query, query)
        lam = float(rng.uniform(0.05, 0.6))
        code = kernel_sparse_code(dictionary, column[None],
                                  np.array([self_sim]), lam).codes[0]
        target = oracle(dictionary.values, column, self_sim, lam)
        sparse_instances += 1
        sparse_gap = max(sparse_gap, abs(code.objective - target))
        sparse_monotone &= bool(
            np.all(np.diff(code.objective_history) <= 1e-12))

    ok = (kkt <= 1e-6 and model.kkt_residual <= 1e-6 and cluster_monotone
          and sparse_monotone and sparse_gap <= 1e-6)
    assert verdict(
        9, ok,
        f"svm kkt residual {kkt:.2e} (<= 1e-6, recomputed independently), "
        f"{cluster_runs} clustering traces non-increasing: "
        f"{cluster_monotone}, sparse objective within {sparse_gap:.2e} of "
        f"the enumeration optimum over {sparse_instances} 6-atom "
        f"instances with non-increasing sweeps: {sparse_monotone}")


def test_criterion_10_reports_are_deterministic():
    """The composite workload renders byte-identical reports at any
    thread count."""
    start = time.time()

    def run(threads):
        config = build_config("bench", overrides={
            "d": "8", "p": "2", "classes": "3", "per_class": "6",
            "seeds": "0 1 2", "threads": str(threads)})
        return run_experiment(config)

    single = run(1)
    repeat = run(1)
    pooled = run(8)
    elapsed = time.time() - start
    ok = (single.text == repeat.text and single.text == pooled.text
          and single.passed)
    assert verdict(
        10, ok,
        f"bench report ({len(single.text)} bytes) is byte-identical "
        f"across a rerun and across thread counts 1 and 8, verdict "
        f"passed={single.passed}, in {elapsed:.1f}s")
