"""Task runners behind the command line interface.

Every task resolves its dataset and kernels, builds each Gram it needs
once, runs each kernel over the configured seeds in order and renders
one report.  Each seed's randomness comes from generators seeded by the
seed itself, never from shared state, so the same configuration gives
the same report text.
"""

import contextlib
import dataclasses
import os
import re
from dataclasses import dataclass

import numpy as np

from .. import __version__, kernels
from ..exceptions import (InputError, InvalidKernelParameter,
                          NotPositiveSemidefinite, NumericalOverflow)
from ..machines.kkmeans import kkmeans
from ..machines.klsh import klsh_build, klsh_hash_gram
from ..machines.metrics import (clustering_accuracy,
                                normalized_mutual_information)
from ..machines.sparse import kernel_sparse_code, sparse_code_classify
from ..machines.svm import svm_decision_from_rows, svm_train
from . import datasets as ds_mod
from .reports import ReportBuilder, format_float, write_text

GENERATOR = f"grasskernels {__version__}"

# the counterexample matrix is a fixed regression target; its smallest
# eigenvalue must land in this window
COUNTEREXAMPLE_BAND = (-0.0043, -0.0033)

DEFAULT_KERNEL = "rbf:projection:beta=0.5"

# where the gram task writes its CSV files when no output path is given
GRAM_DIR = "out"


@dataclass(frozen=True)
class ExperimentResult:
    """Rendered report text plus the task verdict."""

    text: str
    passed: bool


def _resolve_dataset(config):
    if config.dataset:
        return ds_mod.load_dataset(config.dataset)
    return ds_mod.generate_planted(
        d=config.d, p=config.p, classes=config.classes,
        per_class=config.per_class, noise_angle=config.noise_angle,
        seed=config.seed, name=config.name or None)


# tasks that train on a seeded stratified split of a labeled dataset
_SPLIT_TASKS = ("svm", "sparse-code", "bench")


def _check_inputs(config, dataset):
    """Reject a dataset the task cannot run on, before any Gram is built."""
    task = config.task
    if task in _SPLIT_TASKS or (task == "cluster" and config.clusters == 0):
        if dataset.labels is None:
            raise InputError(f"task {task!r} needs a labeled dataset")
    # a split has a test point only from a class with two or more members
    if task in _SPLIT_TASKS and not 2 <= dataset.class_count < dataset.n:
        raise InputError(
            f"task {task!r} needs two or more classes, one of them with two "
            f"or more members; got {dataset.class_count} classes "
            f"in {dataset.n} points")
    if task in ("cluster", "bench") and config.clusters > dataset.n:
        raise InputError(
            f"clusters={config.clusters} exceeds dataset size {dataset.n}")
    if task == "hash" and config.anchors > dataset.n:
        raise InputError(
            f"anchors={config.anchors} exceeds dataset size {dataset.n}")
    # each query ranks the other n - 1 points
    if task == "hash" and config.top_m > dataset.n - 1:
        raise InputError(
            f"top_m={config.top_m} exceeds the {dataset.n - 1} other points "
            f"each query can rank")


def _joined(values):
    return " ".join(str(v) for v in values)


def _seeded_result(report, label, settings, seeds, series, extra=()):
    """Write one kernel's `[result]` section of per-seed scores.

    The section holds `settings`, `seeds`, then for each (name, plural,
    values) in `series` the per-seed values as `plural` plus their
    `mean_<name>` and sample `std_<name>`, then `extra`.  Returns the
    (mean, std) of each series, in order.
    """
    items = list(settings) + [("seeds", _joined(seeds))]
    stats = []
    for name, plural, values in series:
        v = np.asarray(values, dtype=np.float64)
        mean = float(np.mean(v))
        std = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
        items += [(plural, " ".join(format_float(x) for x in values)),
                  (f"mean_{name}", mean), (f"std_{name}", std)]
        stats.append((mean, std))
    report.add_section("result", items + list(extra), label=label)
    return stats


def _split(dataset, config, seed):
    """The (train, test) index split of one seed."""
    return ds_mod.stratified_split(dataset.labels, config.train_fraction,
                                   np.random.default_rng([seed]))


def _dataset_items(dataset):
    return [("dataset_name", dataset.name), ("n", dataset.n),
            ("d", dataset.d), ("p", dataset.p),
            ("fingerprint", dataset.fingerprint)]


@contextlib.contextmanager
def _kernel_failures(where):
    """Report a library step that a kernel's values broke as one InputError
    naming `where` (the task, the kernel and any seed) and what to try.
    A solver that spends its budget breaks nothing: the report counts it
    as unconverged."""
    hints = {
        NumericalOverflow: "pick parameters that give smaller kernel "
                           "values; for binomial, a beta further above smax",
        NotPositiveSemidefinite: "sparse coding needs a pd kernel"}
    try:
        yield
    except tuple(hints) as exc:
        raise InputError(f"{where}: {exc}; {hints[type(exc)]}") from exc


# --- gram -----------------------------------------------------------------

def _safe_filename(label):
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label)


def gram_csv_text(spec, gram_matrix, fingerprint):
    """A Gram matrix as CSV under a line naming its kernel and dataset."""
    alpha, beta = ("" if v is None else repr(v)
                   for v in (spec.alpha, spec.beta))
    lines = [f"# format_version=1 embedding={spec.embedding} "
             f"family={spec.family} alpha={alpha} beta={beta} "
             f"fingerprint={fingerprint}"]
    for row in gram_matrix.values:
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def _run_gram(config, dataset, specs, grams, report):
    rows = []
    for spec in specs:
        path = os.path.join(config.out or GRAM_DIR,
                            f"gram_{_safe_filename(spec.label())}.csv")
        write_text(path, gram_csv_text(spec, grams[spec],
                                       dataset.fingerprint))
        report.add_section("result", [
            ("kernel", spec.label()),
            ("file", path),
            ("n", grams[spec].n),
            ("fingerprint", dataset.fingerprint),
        ], label=f"gram {spec.label()}")
        rows.append((spec.label(), path))
    report.add_table("gram files", ("kernel", "file"), rows)
    return True


# --- pd-check ---------------------------------------------------------------

def _run_pd_check(config, dataset, specs, grams, report):
    """Certify each kernel; the verdict asks it only of the kernels that
    theory calls pd or cpd (`KernelSpec.theory`)."""
    passed = True
    rows = []
    for spec in specs:
        with _kernel_failures(f"pd-check with kernel {spec.label()!r}"):
            verdict = kernels.certify_pd(grams[spec],
                                         mode=spec.certification_mode)
        theory = spec.theory
        if theory in ("pd", "cpd"):
            passed = passed and verdict.passed
        report.add_section("result", [
            ("kernel", spec.label()),
            ("mode", verdict.mode),
            ("theory", theory),
            ("min_eigenvalue", verdict.min_eigenvalue),
            ("max_eigenvalue", verdict.max_eigenvalue),
            ("tolerance", verdict.tolerance),
            ("passed", verdict.passed),
        ], label=f"pd-check {spec.label()}")
        rows.append((spec.label(), verdict.mode, theory,
                     f"{verdict.min_eigenvalue:.6g}",
                     f"{verdict.max_eigenvalue:.6g}",
                     "pass" if verdict.passed else "FAIL"))
    report.add_table("spectra", ("kernel", "mode", "theory", "min_eig",
                                 "max_eig", "verdict"), rows)
    return passed


# --- counterexample ---------------------------------------------------------

def _run_counterexample(report):
    gram_matrix = kernels.counterexample_gram()
    verdict = kernels.certify_pd(gram_matrix, mode="pd")
    lo, hi = COUNTEREXAMPLE_BAND
    in_band = lo <= verdict.min_eigenvalue <= hi
    report.add_section("result", [
        ("similarity", "exp(-geodesic_distance^2)"),
        ("n", gram_matrix.n),
        ("min_eigenvalue", verdict.min_eigenvalue),
        ("max_eigenvalue", verdict.max_eigenvalue),
        ("expected_min_low", lo),
        ("expected_min_high", hi),
        ("indefinite", not verdict.passed),
        ("passed", in_band),
    ], label="counterexample")
    return in_band


# --- svm ----------------------------------------------------------------

def _fit_predict(gram_matrix, labels, train_idx, test_idx, c):
    """Train on the given split and predict labels on the test side.

    Two classes use a single machine, the second class against the
    first; more classes fall back to one-vs-rest, its machines trained
    together, with the largest decision value winning, ties to the lowest
    class id.  Returns the predicted labels and the trained SvmModels.
    """
    train_labels = labels[train_idx]
    classes = np.unique(train_labels)
    positive = classes[1:] if classes.size == 2 else classes
    trained = svm_train(
        gram_matrix.take(train_idx),
        np.where(train_labels == positive[:, None], 1.0, -1.0), c=c)
    rows = gram_matrix.values[np.ix_(test_idx, train_idx)]
    decisions = np.column_stack([svm_decision_from_rows(model, rows)
                                 for model in trained.models])
    if classes.size == 2:
        predicted = np.where(decisions[:, 0] >= 0.0, classes[1], classes[0])
    else:
        predicted = classes[np.argmax(decisions, axis=1)]
    return predicted, trained


def _candidate_specs(spec, config):
    """Parameter grid for tuning, restricted to valid combinations."""
    betas = [None]
    if spec.beta is not None:
        betas = list(config.beta_grid)
    alphas = [None]
    if spec.alpha is not None:
        alphas = [float(a) for a in config.alpha_grid]
    candidates = []
    for alpha in alphas:
        for beta in betas:
            try:
                candidates.append(dataclasses.replace(
                    spec, alpha=alpha, beta=beta))
            except InvalidKernelParameter:
                continue  # grid value invalid for this family
    if not candidates:
        raise InputError(
            f"no valid tuning candidate for kernel {spec.label()!r}")
    return candidates


def _tune_spec(spec, grams, dataset, train_idx, config, seed):
    """Pick grid parameters by stratified cross-validation on the train side.

    `grams` holds the Gram of `spec` and of each of its candidates over
    the whole dataset; each fold is fit and scored on its train points'
    entries of it, which equal take(train_idx)'s bit for bit.  Returns
    the winning spec and Gram, or spec and its own Gram for a
    parameterless spec, with the number of fold machines that stopped
    unconverged.  Raises InputError when no fold can be fit, since no
    candidate could then be scored.
    """
    if spec.alpha is None and spec.beta is None:
        return spec, grams[spec], 0
    labels = dataset.labels[train_idx]
    rng = np.random.default_rng([seed, 101])
    # stratified folds: each class dealt round-robin in shuffled order
    rank, _ = ds_mod.class_ranks(labels, rng)
    folds = rank % min(config.cv_folds, train_idx.size)
    # a fold can be fit when the other folds hold two or more classes
    splits = [(np.flatnonzero(folds != fold), np.flatnonzero(folds == fold))
              for fold in np.unique(folds)]
    splits = [(fit, held) for fit, held in splits
              if np.unique(labels[fit]).size >= 2]
    if not splits:
        raise InputError(
            f"cannot tune {spec.label()!r} on split seed {seed}: no "
            f"cross-validation fold of its {train_idx.size} training points "
            "leaves two classes to fit on")
    best = None
    unconverged = 0
    for candidate in _candidate_specs(spec, config):
        candidate_gram = grams[candidate]
        scores = []
        for fit, held in splits:
            predicted, trained = _fit_predict(
                candidate_gram, dataset.labels, train_idx[fit],
                train_idx[held], config.svm_c)
            scores.append(float(np.mean(predicted == labels[held])))
            unconverged += _unconverged(trained)
        score = float(np.mean(scores))
        if best is None or score > best[0]:
            best = (score, candidate, candidate_gram)
    return best[1], best[2], unconverged


def _unconverged(trained):
    return sum(not model.converged for model in trained.models)


def _run_svm(config, dataset, specs, grams, report):
    rows = []
    for spec in specs:
        accuracies, iterations, residuals, tuned = [], [], [], []
        unconverged, train_items = [], []
        for seed in config.seeds:
            train_idx, test_idx = _split(dataset, config, seed)
            used, gram_matrix, tuning_unconverged = spec, grams[spec], 0
            with _kernel_failures(f"svm with kernel {spec.label()!r} on "
                                  f"split seed {seed}"):
                if config.tune:
                    used, gram_matrix, tuning_unconverged = _tune_spec(
                        spec, grams, dataset, train_idx, config, seed)
                predicted, trained = _fit_predict(
                    gram_matrix, dataset.labels, train_idx, test_idx,
                    config.svm_c)
            accuracies.append(
                float(np.mean(predicted == dataset.labels[test_idx])))
            iterations.append(trained.iterations)
            residuals.append(format_float(
                max(model.kkt_residual for model in trained.models)))
            unconverged.append(tuning_unconverged + _unconverged(trained))
            tuned.append(used.label())
            train_items.append((f"train_indices_{seed}", _joined(train_idx)))
        extra = [("smo_iterations", _joined(iterations)),
                 ("max_kkt_residual", " ".join(residuals)),
                 ("unconverged_machines", _joined(unconverged))]
        if config.tune:
            extra.append(("tuned", " | ".join(tuned)))
        [(mean, std)] = _seeded_result(
            report, f"svm {spec.label()}",
            [("kernel", spec.label()), ("penalty", config.svm_c)],
            config.seeds, [("accuracy", "accuracies", accuracies)],
            extra + train_items)
        rows.append((spec.label(), f"{mean:.4f}", f"{std:.4f}"))
    report.add_table("svm accuracy", ("kernel", "mean", "std"), rows)
    return True


# --- cluster ----------------------------------------------------------------

def _run_cluster(config, dataset, specs, grams, report):
    cluster_count = config.clusters or dataset.class_count
    rows = []
    for spec in specs:
        runs = []
        for seed in config.seeds:
            with _kernel_failures(f"cluster with kernel {spec.label()!r} "
                                  f"on seed {seed}"):
                runs.append(kkmeans(grams[spec], cluster_count, seed=seed,
                                    restarts=config.restarts))
        series = [("inertia", "inertias", [r.inertia for r in runs])]
        if dataset.labels is not None:
            series += [
                ("nmi", "nmis", [normalized_mutual_information(
                    r.labels, dataset.labels) for r in runs]),
                ("accuracy", "accuracies", [clustering_accuracy(
                    r.labels, dataset.labels) for r in runs])]
        stats = _seeded_result(
            report, f"cluster {spec.label()}",
            [("kernel", spec.label()), ("clusters", cluster_count),
             ("restarts", config.restarts)], config.seeds, series,
            [("lloyd_iterations", _joined(r.iterations for r in runs)),
             ("unconverged_restarts",
              _joined(r.unconverged_restarts for r in runs))])
        scores = [f"{mean:.4f}" for mean, _ in stats[1:]] or ["-", "-"]
        rows.append((spec.label(), f"{stats[0][0]:.6g}", *scores))
    report.add_table("clustering", ("kernel", "mean_inertia", "mean_nmi",
                                    "mean_accuracy"), rows)
    return True


# --- sparse-code -----------------------------------------------------------

def _run_sparse(config, dataset, specs, grams, report):
    rows = []
    for spec in specs:
        gram_matrix = grams[spec]
        accuracies, sweeps, residuals, fallbacks = [], [], [], []
        unconverged, train_items = [], []
        for seed in config.seeds:
            train_idx, test_idx = _split(dataset, config, seed)
            columns = gram_matrix.values[test_idx[:, None], train_idx]
            with _kernel_failures(f"sparse-code with kernel "
                                  f"{spec.label()!r} on split seed {seed}"):
                coded = kernel_sparse_code(
                    gram_matrix.take(train_idx), columns,
                    gram_matrix.values[test_idx, test_idx], config.lam)
            predicted, fell_back = sparse_code_classify(
                coded.codes, dataset.labels[train_idx], columns)
            accuracies.append(np.mean(dataset.labels[test_idx] == predicted))
            sweeps.append(coded.sweeps)
            residuals.append(format_float(
                max(code.kkt_residual for code in coded.codes)))
            fallbacks.append(np.count_nonzero(fell_back))
            unconverged.append(sum(not code.converged
                                   for code in coded.codes))
            train_items.append((f"train_indices_{seed}", _joined(train_idx)))
        [(mean, std)] = _seeded_result(
            report, f"sparse-code {spec.label()}",
            [("kernel", spec.label()), ("lam", config.lam)], config.seeds,
            [("accuracy", "accuracies", accuracies)],
            [("feature_sign_sweeps", _joined(sweeps)),
             ("max_kkt_residual", " ".join(residuals)),
             ("zero_code_fallbacks", _joined(fallbacks)),
             ("unconverged_codes", _joined(unconverged))] + train_items)
        rows.append((spec.label(), f"{mean:.4f}", f"{std:.4f}"))
    report.add_table("sparse coding accuracy", ("kernel", "mean", "std"),
                     rows)
    return True


# --- hash --------------------------------------------------------------

def _exact_neighbours(gram_matrix, top_m):
    """Each point's top_m most similar other points, ties to lower index."""
    # each row ranks every other point, the query itself last
    similarity = -gram_matrix.values
    np.fill_diagonal(similarity, np.inf)
    return np.argsort(similarity, axis=1, kind="stable")[:, :top_m]


def _hash_cell(gram_matrix, labels, bits, anchors, seed, top_m, exact):
    """Recall@top_m and 1-NN label accuracy under one seed's hash family.

    `exact` is `_exact_neighbours(gram_matrix, top_m)`.
    """
    family = klsh_build(gram_matrix, bits=bits, anchors=anchors, seed=seed)
    # float64 products go through BLAS, and sums of at most `bits` ones
    # are exact
    keys = klsh_hash_gram(family, gram_matrix).astype(np.float64)
    # Hamming distances from the agreeing ones and zeros, without an
    # (n, n, bits) array
    distance = bits - (keys @ keys.T + (1.0 - keys) @ (1.0 - keys).T)
    np.fill_diagonal(distance, bits + 1)
    approx = np.argsort(distance, axis=1, kind="stable")[:, :top_m]
    # neither ranking repeats a point, so equal pairs count the overlap
    overlap = np.sum(exact[:, :, None] == approx[:, None, :], axis=(1, 2))
    recall = float(np.mean(overlap / top_m))
    nn_accuracy = None
    if labels is not None:
        nn_accuracy = float(np.mean(labels[approx[:, 0]] == labels))
    return recall, nn_accuracy


def _run_hash(config, dataset, specs, grams, report):
    rows = []
    for spec in specs:
        exact = _exact_neighbours(grams[spec], config.top_m)
        for bits in config.bits:
            recalls, nn_accuracies = zip(*(
                _hash_cell(grams[spec], dataset.labels, bits, config.anchors,
                           seed, config.top_m, exact)
                for seed in config.seeds))
            series = [("recall", "recalls", recalls)]
            if dataset.labels is not None:
                series.append(("nn_accuracy", "nn_accuracies",
                               nn_accuracies))
            stats = _seeded_result(
                report, f"hash {spec.label()} bits={bits}",
                [("kernel", spec.label()), ("bits", bits),
                 ("anchors", config.anchors), ("top_m", config.top_m)],
                config.seeds, series)
            scores = [f"{mean:.4f}" for mean, _ in stats[1:]] or ["-"]
            rows.append((spec.label(), str(bits), f"{stats[0][0]:.4f}",
                         *scores))
    report.add_table("hashing", ("kernel", "bits", "mean_recall",
                                 "mean_nn_accuracy"), rows)
    return True


# --- generate / bench -------------------------------------------------------

def _run_generate(config, report):
    dataset = _resolve_dataset(config)
    path = config.out or f"{dataset.name}.txt"
    ds_mod.save_dataset(dataset, path)
    report.add_section("result", _dataset_items(dataset) + [("file", path)],
                       label="generate")
    return True


def _run_bench(config, dataset, specs, grams, report):
    """A fixed composite workload exercising every machine once.

    The verdict tracks the counterexample regression alone.  The catalog
    certification is included for information, each row marked with
    what theory guarantees of it (`KernelSpec.theory`).
    """
    passed = _run_counterexample(report)
    _run_pd_check(config, dataset, kernels.catalog(dataset.p), grams, report)
    for runner in (_run_svm, _run_cluster, _run_sparse):
        runner(config, dataset, specs, grams, report)
    # small benchmark datasets cannot support the full anchor and
    # short-list defaults; each query ranks the other n - 1 points
    hash_config = dataclasses.replace(
        config, anchors=min(config.anchors, dataset.n),
        top_m=min(config.top_m, dataset.n - 1))
    _run_hash(hash_config, dataset, specs, grams, report)
    return passed


# runners of the tasks that work on a dataset; the catalog Grams that
# bench certifies and the candidates that svm tunes over are built along
# with the task's own kernels
_RUNNERS = {
    "gram": _run_gram,
    "pd-check": _run_pd_check,
    "svm": _run_svm,
    "cluster": _run_cluster,
    "sparse-code": _run_sparse,
    "hash": _run_hash,
    "bench": _run_bench,
}


def run_experiment(config):
    """Run one configured task and return its rendered report."""
    report = ReportBuilder(GENERATOR)
    report.add_section("config", config.resolved_items())

    if config.task == "generate":
        passed = _run_generate(config, report)
    elif config.task == "counterexample":
        passed = _run_counterexample(report)
    else:
        dataset = _resolve_dataset(config)
        _check_inputs(config, dataset)
        report.add_section("dataset", _dataset_items(dataset))
        default = "catalog" if config.task == "pd-check" else DEFAULT_KERNEL
        specs = kernels.parse_kernel_tokens(config.kernels or (default,),
                                            dataset.p)
        needed = specs
        if config.task == "bench":
            needed = kernels.catalog(dataset.p) + specs
        if config.tune and config.task in ("svm", "bench"):
            # each candidate's Gram is built once for all kernels and seeds
            needed = needed + [candidate for spec in specs
                               for candidate in _candidate_specs(spec, config)]
        with _kernel_failures(config.task):
            grams = kernels.grams(needed, dataset.subspaces)
        passed = _RUNNERS[config.task](config, dataset, specs, grams,
                                       report)

    report.add_section("verdict", [("passed", passed)])
    text = report.render()
    if config.out and config.task not in ("gram", "generate"):
        write_text(config.out, text)
    return ExperimentResult(text=text, passed=passed)
