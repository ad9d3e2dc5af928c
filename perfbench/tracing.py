"""Outside-in tracing of the grasskernels layers.

The tracer replaces public functions of each layer, wherever a
grasskernels module holds a reference to them, with wrappers that record
a span per call (spanned functions) or bump a counter (functions called
once per pair, where a span would cost more than the work).  It also
reads the counters that returned objects already carry: SMO iterations,
k-means iterations, sparse-coding sweeps, Gram sizes.  The program's
files are not touched; `installed()` puts every original back on exit.

Spans are kept in memory and written as JSON lines when the run ends.
The tracer keeps one span stack, so traced calls must all come from the
thread that opened the enclosing task span; the benchmark runs traced
repetitions at `--threads 1` for that reason.
"""

import contextlib
import importlib
import json
import sys
import time
from collections import Counter


def _gram_entries(result, args, kwargs):
    return {"kernels.gram_entries": result.n * (result.n + 1) // 2}


def _svm_iterations(result, args, kwargs):
    return {"machines.svm_iterations": result.iterations}


def _kkmeans_iterations(result, args, kwargs):
    return {"machines.kkmeans_iterations": result.iterations}


def _sparse_sweeps(result, args, kwargs):
    sparse = sys.modules["grasskernels.machines.sparse"]
    budget = kwargs.get("max_sweeps", sparse.MAX_SWEEPS)
    return {"machines.sparse_sweeps": result.sweeps,
            "machines.sparse_converged": int(result.sweeps < budget)}


# (module, function, span name, reader of the returned object's counters)
SPANNED = (
    ("grasskernels.numerics", "symmetric_eigenvalues", "numerics.eigvalsh",
     None),
    ("grasskernels.kernels", "gram", "kernels.gram", _gram_entries),
    ("grasskernels.kernels", "certify_pd", "kernels.certify", None),
    ("grasskernels.machines.svm", "svm_train", "machines.svm_train",
     _svm_iterations),
    ("grasskernels.machines.svm", "svm_decision_from_rows",
     "machines.svm_decision", None),
    ("grasskernels.machines.kkmeans", "kkmeans", "machines.kkmeans",
     _kkmeans_iterations),
    ("grasskernels.machines.sparse", "kernel_sparse_code",
     "machines.sparse_code", _sparse_sweeps),
    ("grasskernels.machines.klsh", "klsh_build", "machines.klsh_build", None),
    ("grasskernels.machines.klsh", "klsh_hash_gram", "machines.klsh_hash",
     None),
    ("grasskernels.harness.datasets", "load_dataset", "harness.load", None),
    ("grasskernels.harness.datasets", "serialize_dataset",
     "harness.fingerprint", None),
)

# (module, function, counter name); called once per matrix entry
COUNTED = (
    ("grasskernels.numerics", "determinant", "numerics.det"),
    ("grasskernels.grassmann", "bc_inner", "grassmann.similarity"),
    ("grasskernels.grassmann", "proj_inner", "grassmann.similarity"),
    ("grasskernels.kernels", "evaluate", "kernels.evaluate"),
)

# span name of each task run the benchmark opens around cli.main
TASK_SPAN = "harness.task"
RENDER_SPAN = "harness.render"


class Tracer:
    """Spans and counters of one benchmark process, grouped by run id."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []  # [id, name, start, end, parent, task, run]
        self.counts = {}  # run id -> Counter
        self._stack = []
        self._task = None
        self._run = None

    def begin_run(self, run_id):
        """Attribute the spans and counts that follow to `run_id`."""
        self._run = run_id
        self.counts[run_id] = Counter()

    @contextlib.contextmanager
    def span(self, name, task=None):
        """Record one span; a `task` also labels every span nested in it."""
        outer_task = self._task
        if task is not None:
            self._task = task
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self._task,
                  self._run]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            self._task = outer_task

    def _spanned(self, function, name, reader):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if reader is not None:
                self.counts[self._run].update(reader(result, args, kwargs))
            return result
        return wrapper

    def _counted(self, function, name):
        counts = self.counts[self._run]  # bound once: this is per-pair code

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block.

        Counts made inside the block go to the run begun last.
        """
        replacements = []
        for module_name, attr, name, reader in SPANNED:
            original = getattr(importlib.import_module(module_name), attr)
            replacements.append(
                (original, self._spanned(original, name, reader)))
        for module_name, attr, name in COUNTED:
            original = getattr(importlib.import_module(module_name), attr)
            replacements.append((original, self._counted(original, name)))
        reports = importlib.import_module("grasskernels.harness.reports")
        render = reports.ReportBuilder.render
        patched = [(reports.ReportBuilder, "render", render)]
        reports.ReportBuilder.render = self._spanned(render, RENDER_SPAN,
                                                     None)
        patched += _rebind_everywhere(replacements)
        try:
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, task, run in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "workload": self.workload,
                    "task": task, "run": run}) + "\n")


def _rebind_everywhere(replacements):
    """Point every grasskernels module reference at its wrapper.

    The harness imports some machine functions by name, so patching the
    defining module alone would miss those calls.
    """
    by_id = {id(original): wrapper for original, wrapper in replacements}
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "grasskernels":
            continue
        for attr, value in list(vars(module).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                patched.append((module, attr, value))
    return patched


def self_time(span, children):
    """Duration of `span` minus the part of it its children cover."""
    covered = 0.0
    edge = span[2]
    for child in sorted(children, key=lambda c: c[2]):
        start, end = max(child[2], edge), min(child[3], span[3])
        if end > start:
            covered += end - start
            edge = end
    return (span[3] - span[2]) - covered
