"""Task runners behind the command line interface.

Every task resolves its dataset and kernels, takes the similarity
matrices its kernels need once and renders one report.  One runner runs
every per-kernel task (pd-check, gram, svm, sparse-code, cluster and
hash): each kernel's cells in order, a seeded task's cells from its step
on each configured seed in order.  The runner maps a kernel's Gram, with
its tuning candidates for `svm --tune`, at the start of that kernel's
turn, once for all its cells and seeds, and drops it before the next
kernel's, so a task run holds one kernel's Grams at a time.  Each seed's
randomness comes from generators seeded by the seed itself, never from
shared state, and a task runs on one BLAS thread, so the same
configuration gives the same report text.

Each runner imports the kernels and machines it calls, so a task run
loads only the layers it runs: without a bytecode cache, every module a
run imports is compiled from source.
"""

import contextlib
import dataclasses
import functools
import os
import re
from dataclasses import dataclass

import numpy as np

from .. import __version__, numerics
from ..exceptions import (InputError, InvalidKernelParameter,
                          NotPositiveSemidefinite, NumericalOverflow)
from . import datasets as ds_mod
from .reports import (ReportBuilder, format_float, format_value,
                      write_text)

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


def _joined(values, separator=" "):
    return separator.join(format_value(v) for v in values)


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


def _run_kernels(task, config, dataset, specs, grams, report):
    """Run `task` on each kernel; write one `[result]` section and one
    table row per cell, and return the verdict.

    `grams` is the task run's `kernels.grams` view.  Each kernel's turn
    first maps its Grams from it: its own and, for svm with `--tune`, its
    tuning candidates'.  A value that overflows ends the run in one
    InputError that names the task run's task (bench, inside bench).
    `cells(config, dataset, spec, grams)` then gets those Grams alone
    and yields the kernel's cells in order as `(suffix, items, passed)`:
    the section labeled `"<task> <kernel><suffix>"` lists the kernel,
    then `items`, and a cell that did not pass fails the verdict.  A
    table cell is its column's format of the section's value at the
    column's key, or `-` where it has none.
    """
    cells, title, columns = _TASKS[task]
    passed = True
    rows = []
    for spec in specs:
        used = [spec]
        if config.tune and task == "svm":
            used += _candidate_specs(spec, config)
        with _kernel_failures(config.task):
            held = {used_spec: grams[used_spec]
                    for used_spec in dict.fromkeys(used)}
        for suffix, items, cell_passed in cells(config, dataset, spec, held):
            items = [("kernel", spec.label()), *items]
            report.add_section("result", items,
                               label=f"{task} {spec.label()}{suffix}")
            section = dict(items)
            rows.append([form(section[key]) if key in section else "-"
                         for _, key, form in columns])
            passed = passed and cell_passed
        # dropped before the next kernel's Grams are mapped
        del held
    report.add_table(title, [header for header, _, _ in columns], rows)
    return passed


def _seeded(task, make):
    """The cells of a seeded task: `make(config, dataset, spec, grams)`
    gives a kernel's step, and `step(seed)` gives `{suffix: (settings,
    scores, record)}` in cell order.  A cell lists the settings, `seeds`,
    each score per seed with its `mean_` and sample `std_`, then each
    counter of the ordered record per seed, in record order."""
    where = "split seed" if task in _SPLIT_TASKS else "seed"

    def cells(config, dataset, spec, grams):
        step = make(config, dataset, spec, grams)
        outputs = []
        for seed in config.seeds:
            with _kernel_failures(f"{task} with kernel {spec.label()!r} on "
                                  f"{where} {seed}"):
                outputs.append(step(seed))
        for suffix, (settings, scores, _) in outputs[0].items():
            _, seed_scores, records = zip(*[o[suffix] for o in outputs])
            items = [*settings, ("seeds", _joined(config.seeds))]
            for name in scores:
                values = [scored[name] for scored in seed_scores]
                std = np.std(values, ddof=1) if len(values) > 1 else 0.0
                items += [(re.sub("y$", "ie", name) + "s", _joined(values)),
                          (f"mean_{name}", float(np.mean(values))),
                          (f"std_{name}", float(std))]
            items += [(key, _joined((r[key] for r in records if key in r),
                                    " | " if key == "tuned" else " "))
                      for key in dict.fromkeys(k for r in records for k in r)]
            yield suffix, items, True
    return cells


# --- gram and pd-check -----------------------------------------------------

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


def _gram_path(config, spec):
    return os.path.join(config.out or GRAM_DIR,
                        f"gram_{_safe_filename(spec.label())}.csv")


def _gram_cells(config, dataset, spec, grams):
    """A kernel's Gram CSV file, which `_run_gram` writes."""
    yield "", [("file", _gram_path(config, spec)), ("n", grams[spec].n),
               ("fingerprint", dataset.fingerprint)], True


def _run_gram(config, dataset, specs, grams, report):
    """Run the gram task, then write each kernel's Gram as CSV.

    The files are written once every kernel's Gram has been mapped, as
    the report is once it is whole, so a kernel whose values overflow
    leaves no file behind.  Each Gram is mapped again for its file.
    """
    passed = _run_kernels("gram", config, dataset, specs, grams, report)
    for spec in grams.specs:
        write_text(_gram_path(config, spec),
                   gram_csv_text(spec, grams[spec], dataset.fingerprint))
    return passed


def _pd_check_cells(config, dataset, spec, grams):
    """Certify a kernel; the verdict asks it only of a kernel that theory
    calls pd or cpd (`KernelSpec.theory`)."""
    from .. import kernels
    with _kernel_failures(f"pd-check with kernel {spec.label()!r}"):
        verdict = kernels.certify_pd(grams[spec],
                                     mode=spec.certification_mode)
    yield "", [("mode", verdict.mode), ("theory", spec.theory),
               ("min_eigenvalue", verdict.min_eigenvalue),
               ("max_eigenvalue", verdict.max_eigenvalue),
               ("tolerance", verdict.tolerance),
               ("passed", verdict.passed)], (
        verdict.passed or spec.theory not in ("pd", "cpd"))


# --- counterexample ---------------------------------------------------------

def _run_counterexample(report):
    from .. import kernels
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


# --- svm and sparse-code: the split tasks ---------------------------------

def _fit_predict(gram_matrix, labels, train_idx, test_idx, c):
    """Train on the given split and predict labels on the test side.

    Two classes use a single machine, the second class against the
    first; more classes fall back to one-vs-rest, its machines trained
    together, with the largest decision value winning, ties to the lowest
    class id.  Returns the predicted labels and the trained SvmModels.
    """
    from ..machines.svm import svm_decision_from_rows, svm_train
    train_labels = labels[train_idx]
    classes = numerics.distinct(train_labels)
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
    the whole dataset, mapped once for all of the kernel's split seeds;
    each fold is fit and scored on its train points' entries of it, which
    equal take(train_idx)'s bit for bit.  Returns the winning spec and
    Gram, or spec and its own Gram for a parameterless spec, with the
    number of fold machines that stopped unconverged.  Raises InputError
    when no fold can be fit, since no candidate could then be scored.
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
              for fold in numerics.distinct(folds)]
    splits = [(fit, held) for fit, held in splits
              if numerics.distinct(labels[fit]).size >= 2]
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


def _svm_fit(config, dataset, spec, grams, train_idx, test_idx, seed):
    """Fit one split's machines, tuned first with `--tune`; returns the
    predicted test labels and the split's counters."""
    used, gram_matrix, unconverged = spec, grams[spec], 0
    if config.tune:
        used, gram_matrix, unconverged = _tune_spec(
            spec, grams, dataset, train_idx, config, seed)
    predicted, trained = _fit_predict(gram_matrix, dataset.labels, train_idx,
                                      test_idx, config.svm_c)
    record = {"smo_iterations": trained.iterations,
              "max_kkt_residual": max(m.kkt_residual for m in trained.models),
              "unconverged_machines": unconverged + _unconverged(trained)}
    if config.tune:
        record["tuned"] = used.label()
    return predicted, record


def _sparse_fit(config, dataset, spec, grams, train_idx, test_idx, seed):
    """Code one split's test points over its training atoms and label
    them; returns the predicted test labels and the split's counters."""
    from ..machines.sparse import kernel_sparse_code, sparse_code_classify
    gram_matrix = grams[spec]
    columns = gram_matrix.values[test_idx[:, None], train_idx]
    coded = kernel_sparse_code(gram_matrix.take(train_idx), columns,
                               gram_matrix.values[test_idx, test_idx],
                               config.lam)
    predicted, fell_back = sparse_code_classify(
        coded.codes, dataset.labels[train_idx], columns)
    return predicted, {
        "feature_sign_sweeps": coded.sweeps,
        "max_kkt_residual": max(code.kkt_residual for code in coded.codes),
        "zero_code_fallbacks": np.count_nonzero(fell_back),
        "unconverged_codes": sum(not code.converged for code in coded.codes)}


def _split_step(fit, setting, field, config, dataset, spec, grams):
    """A split task's step: `fit` labels the test points of each seed's
    split and returns that seed's counters."""
    settings = [(setting, getattr(config, field))]

    def step(seed):
        train_idx, test_idx = _split(dataset, config, seed)
        predicted, record = fit(config, dataset, spec, grams, train_idx,
                                test_idx, seed)
        record[f"train_indices_{seed}"] = _joined(train_idx)
        accuracy = float(np.mean(predicted == dataset.labels[test_idx]))
        return {"": (settings, {"accuracy": accuracy}, record)}
    return step


# --- cluster ----------------------------------------------------------------

def _cluster_step(config, dataset, spec, grams):
    from ..machines.kkmeans import kkmeans
    from ..machines.metrics import (clustering_accuracy,
                                    normalized_mutual_information)
    cluster_count = config.clusters or dataset.class_count
    settings = [("clusters", cluster_count), ("restarts", config.restarts)]
    labels = dataset.labels

    def step(seed):
        run = kkmeans(grams[spec], cluster_count, seed=seed,
                      restarts=config.restarts)
        scores = {"inertia": run.inertia}
        if labels is not None:
            scores["nmi"] = normalized_mutual_information(run.labels, labels)
            scores["accuracy"] = clustering_accuracy(run.labels, labels)
        return {"": (settings, scores, {
            "lloyd_iterations": run.iterations,
            "unconverged_restarts": run.unconverged_restarts})}
    return step


# --- hash --------------------------------------------------------------

def _nearest(distance, top_m):
    """Each point's top_m nearest other points under the (n, n)
    `distance`, ties to lower index.  Each row ranks every other point,
    the query itself last: the diagonal of `distance` is set to +inf.

    The first top_m of each row's stable sort, by selection: every
    entry below the row's top_m-th smallest value, then the entries
    equal to it in index order until top_m are chosen, and a stable
    sort of those few.
    """
    np.fill_diagonal(distance, np.inf)
    # like a slice of the sort, a top_m past n keeps all n
    top_m = min(top_m, distance.shape[1])
    cut = np.partition(distance, top_m - 1, axis=1)[:, top_m - 1, None]
    below = distance < cut
    at = distance == cut
    wanted = top_m - np.count_nonzero(below, axis=1)
    chosen = below | (at & (np.cumsum(at, axis=1) <= wanted[:, None]))
    columns = np.nonzero(chosen)[1].reshape(-1, top_m)
    order = np.argsort(np.take_along_axis(distance, columns, axis=1),
                       axis=1, kind="stable")
    return np.take_along_axis(columns, order, axis=1)


def _hash_cell(keys, labels, top_m, exact):
    """The `recall` at top_m and, on labeled data, the 1-NN label
    `nn_accuracy` under one family's (n, bits) keys.

    `exact` is `_nearest(-gram_matrix.values, top_m)`, the exact
    neighbours.
    """
    bits = keys.shape[1]
    # as signs, agreeing bits add 1 to a product and differing ones
    # subtract 1; float64 products go through BLAS, and sums of at most
    # `bits` signs are exact
    signs = 2.0 * keys - 1.0
    distance = (bits - signs @ signs.T) / 2.0
    approx = _nearest(distance, top_m)
    # neither ranking repeats a point, so equal pairs count the overlap
    overlap = np.sum(exact[:, :, None] == approx[:, None, :], axis=(1, 2))
    scores = {"recall": float(np.mean(overlap / top_m))}
    if labels is not None:
        scores["nn_accuracy"] = float(np.mean(labels[approx[:, 0]] == labels))
    return scores


def _hash_step(config, dataset, spec, grams):
    from ..machines.klsh import klsh_build, klsh_hash_gram
    gram_matrix = grams[spec]
    exact = _nearest(-gram_matrix.values, config.top_m)

    def step(seed):
        # one family per seed; its first b bits are the b-bit family
        # (test_hash_family_prefix_is_the_shorter_family)
        keys = klsh_hash_gram(klsh_build(gram_matrix, bits=max(config.bits),
                                         anchors=config.anchors, seed=seed),
                              gram_matrix)
        return {f" bits={bits}": (
            [("bits", bits), ("anchors", config.anchors),
             ("top_m", config.top_m)],
            _hash_cell(keys[:, :bits], dataset.labels, config.top_m, exact),
            {}) for bits in config.bits}
    return step


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
    from .. import kernels
    passed = _run_counterexample(report)
    _run_kernels("pd-check", config, dataset, kernels.catalog(dataset.p),
                 grams, report)
    for task in ("svm", "cluster", "sparse-code"):
        _run_kernels(task, config, dataset, specs, grams, report)
    # small benchmark datasets cannot support the full anchor and
    # short-list defaults; each query ranks the other n - 1 points
    hash_config = dataclasses.replace(
        config, anchors=min(config.anchors, dataset.n),
        top_m=min(config.top_m, dataset.n - 1))
    _run_kernels("hash", hash_config, dataset, specs, grams, report)
    return passed


# each per-kernel task's cells, and its table's title and columns as
# (header, `[result]` key, format) triples
_KERNEL = ("kernel", "kernel", str)
_FOUR = "{:.4f}".format
_SIX = "{:.6g}".format
_ACCURACY = (_KERNEL, ("mean", "mean_accuracy", _FOUR),
             ("std", "std_accuracy", _FOUR))
_TASKS = {
    "gram": (_gram_cells, "gram files", (_KERNEL, ("file", "file", str))),
    "pd-check": (_pd_check_cells, "spectra", (
        _KERNEL, ("mode", "mode", str), ("theory", "theory", str),
        ("min_eig", "min_eigenvalue", _SIX),
        ("max_eig", "max_eigenvalue", _SIX),
        ("verdict", "passed", lambda passed: "pass" if passed else "FAIL"))),
    "svm": (_seeded("svm", functools.partial(_split_step, _svm_fit,
                                             "penalty", "svm_c")),
            "svm accuracy", _ACCURACY),
    "sparse-code": (_seeded("sparse-code", functools.partial(
        _split_step, _sparse_fit, "lam", "lam")),
        "sparse coding accuracy", _ACCURACY),
    "cluster": (_seeded("cluster", _cluster_step), "clustering", (
        _KERNEL, ("mean_inertia", "mean_inertia", _SIX),
        ("mean_nmi", "mean_nmi", _FOUR),
        ("mean_accuracy", "mean_accuracy", _FOUR))),
    "hash": (_seeded("hash", _hash_step), "hashing", (
        _KERNEL, ("bits", "bits", str),
        ("mean_recall", "mean_recall", _FOUR),
        ("mean_nn_accuracy", "mean_nn_accuracy", _FOUR))),
}


# runners of the tasks that work on a dataset
_RUNNERS = {**{task: functools.partial(_run_kernels, task) for task in _TASKS},
            "bench": _run_bench, "gram": _run_gram}


@numerics.one_blas_thread()
def run_experiment(config):
    """Run one configured task on one BLAS thread; return its report."""
    report = ReportBuilder(GENERATOR)
    report.add_section("config", config.resolved_items())

    if config.task == "generate":
        passed = _run_generate(config, report)
    elif config.task == "counterexample":
        passed = _run_counterexample(report)
    else:
        from .. import kernels
        dataset = _resolve_dataset(config)
        _check_inputs(config, dataset)
        report.add_section("dataset", _dataset_items(dataset))
        default = "catalog" if config.task == "pd-check" else DEFAULT_KERNEL
        specs = kernels.parse_kernel_tokens(config.kernels or (default,),
                                            dataset.p)
        # the view reads any kernel, and tuning candidate, on its specs'
        # embeddings, and bench's catalog holds both
        grams = kernels.grams(
            kernels.catalog(dataset.p) if config.task == "bench" else specs,
            dataset.subspaces)
        passed = _RUNNERS[config.task](config, dataset, specs, grams,
                                       report)

    report.add_section("verdict", [("passed", passed)])
    text = report.render()
    if config.out and config.task not in ("gram", "generate"):
        write_text(config.out, text)
    return ExperimentResult(text=text, passed=passed)
