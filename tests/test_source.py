"""Checks on the source tree itself: the error rule, unused imports,
the tests that docstrings cite, the one module of file I/O, input files
read line by line, the numpy set routines that import `numpy.ma`, numpy's selection and unique code,
the order of the layers and the one loop over the seeds and over the
kernels."""

import ast
import inspect
import pathlib
import re

import pytest

from grasskernels import exceptions

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "grasskernels"
MODULES = sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _names_used(tree, skip=()):
    """Every name the module loads, outside nodes of the `skip` types."""
    used = set()

    def visit(node):
        if isinstance(node, skip):
            return
        if isinstance(node, ast.Name):
            used.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return used


def test_every_library_error_type_is_caught_by_name():
    """A bad argument raises ValueError or TypeError; a GrassError
    subclass exists only where a caller tells it apart, so each one is
    named outside `exceptions.py` other than where it is raised or
    imported: in an except clause, the task runners' failure table or
    the CLI's except tuple."""
    types = {name for name, value in vars(exceptions).items()
             if inspect.isclass(value) and issubclass(value, Exception)
             and value.__module__ == exceptions.__name__}
    assert "GrassError" in types
    caught = set()
    for path in SRC.rglob("*.py"):
        if path.name != "exceptions.py":
            caught |= _names_used(ast.parse(path.read_text()),
                                  skip=(ast.Raise, ast.ImportFrom))
    assert sorted(types - {"GrassError"} - caught) == []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unused_imports(tree):
    """(line, name) of each name an import binds and its scope never
    loads: the module for a module-level import, and for an import
    inside a function that function, the functions nested in it
    included."""
    unused = []

    def scan(scope):
        bound = []
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, _FUNCTIONS):
                scan(node)
                continue
            if isinstance(node, ast.Import):
                bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                          for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound += [(node.lineno, a.asname or a.name)
                          for a in node.names]
            stack += ast.iter_child_nodes(node)
        used = _names_used(scope)
        unused.extend((line, name) for line, name in bound
                      if name not in used)

    scan(tree)
    return sorted(unused)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    """No module under src/ or tests/ imports a name it never uses."""
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_sees_an_unused_name():
    """An import inside a function counts as used only where that
    function, or one nested in it, loads the name."""
    tree = ast.parse("import os\nimport numpy as np\nfrom a import b, c\n"
                     "np.zeros(c)\n"
                     "def f():\n"
                     "    from a import d, e\n"
                     "    return lambda: e\n"
                     "def g():\n"
                     "    return d\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "b"), (6, "d")]


def _docstrings(tree):
    """The module, class and function docstrings of a parsed module."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [ast.get_docstring(node) or "" for node in ast.walk(tree)
            if isinstance(node, kinds)]


def test_docstrings_cite_only_defined_tests():
    """Every `test_*` name a docstring under src/ cites, such as the
    indefiniteness witnesses in the kernels module, is a test function
    under tests/, so renaming a test cannot leave a citation dangling."""
    cited = {name for path in SRC.rglob("*.py")
             for text in _docstrings(ast.parse(path.read_text()))
             for name in re.findall(r"\btest_\w+", text)}
    defined = {node.name for path in (ROOT / "tests").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "test_four_lines_spectrum" in cited
    assert sorted(cited - defined) == []


def _file_io_calls(tree):
    """(line, name) of each call of `open` or `os.makedirs`."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            calls.append((node.lineno, "open"))
        elif (isinstance(func, ast.Attribute) and func.attr == "makedirs"
              and isinstance(func.value, ast.Name) and func.value.id == "os"):
            calls.append((node.lineno, "os.makedirs"))
    return calls


def test_files_are_opened_only_in_reports():
    """Every file is read through `reports.read_input` and written
    through `reports.write_text`, so each read or write error names its
    path the same way."""
    found = {path.relative_to(SRC).as_posix(): _file_io_calls(
                 ast.parse(path.read_text()))
             for path in sorted(SRC.rglob("*.py"))}
    assert len(found.pop("harness/reports.py")) == 3
    assert {path: calls for path, calls in found.items() if calls} == {}


def test_file_io_check_sees_each_call():
    tree = ast.parse("import os\nopen(p)\nos.makedirs(d)\nf.open()\n"
                     "makedirs(d)\n")
    assert _file_io_calls(tree) == [(2, "open"), (3, "os.makedirs")]


# methods that read a file's whole content at once
_WHOLE_READS = ("read", "readlines", "read_text", "read_bytes")


def _whole_reads(tree):
    """(line, name) of each call of a method named in _WHOLE_READS."""
    return sorted(
        (node.lineno, node.func.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _WHOLE_READS)


def test_no_input_file_is_read_whole():
    """`reports.read_input` hands each parser the open file, which reads
    it line by line, so no task run holds an input file's text: reading
    it whole, splitting it into lines and keeping each subspace line
    peaked at about three times the file's size
    (`test_loading_holds_less_than_the_file`)."""
    found = {path.relative_to(SRC).as_posix(): _whole_reads(
                 ast.parse(path.read_text()))
             for path in sorted(SRC.rglob("*.py"))}
    assert {path: calls for path, calls in found.items() if calls} == {}


def test_whole_read_check_sees_each_call():
    tree = ast.parse("handle.read()\nparse(f.read())\nf.readlines()\n"
                     "path.read_text()\npath.read_bytes()\nread(f)\n"
                     "handle.readline()\nfor line in handle:\n    pass\n")
    assert _whole_reads(tree) == [
        (1, "read"), (2, "read"), (3, "readlines"), (4, "read_text"),
        (5, "read_bytes")]


# numpy's set routines that reach plain `np.unique`, whose masked-array
# check imports numpy.ma; `np.unique` with one of _INDEX_FLAGS sorts
# without that check
_SET_ROUTINES = ("setdiff1d", "intersect1d", "union1d", "setxor1d")
_INDEX_FLAGS = ("return_index", "return_inverse", "return_counts")


def _masked_set_calls(tree):
    """(line, name) of each `np.unique` call without a keyword of
    _INDEX_FLAGS, and of each call of one of _SET_ROUTINES."""
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        name = node.func.attr
        flagged = any(k.arg in _INDEX_FLAGS for k in node.keywords)
        if name in _SET_ROUTINES or (name == "unique" and not flagged):
            calls.append((node.lineno, f"np.{name}"))
    return sorted(calls)


def test_no_call_imports_numpy_ma():
    """Distinct values come from `numerics.distinct`, so no task run
    imports `numpy.ma` (+1.3 MB resident).  The import probe of
    `test_task_run_imports_only_its_layers` runs the default data only
    and never reaches the `--tune` folds or k-means++'s coincident
    points, so this check covers every call site."""
    found = {path.relative_to(SRC).as_posix(): _masked_set_calls(
                 ast.parse(path.read_text()))
             for path in sorted(SRC.rglob("*.py"))}
    assert {path: calls for path, calls in found.items() if calls} == {}


def test_numpy_ma_check_sees_each_call():
    tree = ast.parse("np.unique(a)\nnp.unique(a, return_inverse=True)\n"
                     "numpy.setdiff1d(a, b)\nnp.intersect1d(a, b)\n"
                     "np.union1d(a, b)\nnp.setxor1d(a, b)\n"
                     "np.unique(a, return_counts=True, axis=0)\n"
                     "unique(a)\nnumerics.distinct(a)\n")
    assert _masked_set_calls(tree) == [
        (1, "np.unique"), (3, "np.setdiff1d"), (4, "np.intersect1d"),
        (5, "np.union1d"), (6, "np.setxor1d")]


# numpy's selection and every form of its `np.unique`
_SELECTION_AND_UNIQUE = ("partition", "argpartition", "unique",
                         "unique_all", "unique_counts", "unique_inverse",
                         "unique_values")


def _selection_unique_calls(tree):
    """(line, name) of each call of `np.<name>` for a name of
    _SELECTION_AND_UNIQUE."""
    return sorted(
        (node.lineno, f"np.{node.func.attr}") for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and node.func.attr in _SELECTION_AND_UNIQUE)


def test_no_call_of_selection_or_unique():
    """Top-m neighbours come from argmin rounds and contingency tables
    from `numerics.distinct`, `np.searchsorted` and `np.bincount`, so no
    task run pages in numpy's selection or `np.unique` code: after
    perfbench's imports, the first 40 x 40 `np.partition` in a fresh
    interpreter raised `ru_maxrss` by 128 KiB and the first
    `np.unique(..., return_inverse=True)` by 384 KiB, and the two
    together raised a fresh-process `bench --seeds 0` run's peak
    resident size by about 0.4 MB."""
    found = {path.relative_to(SRC).as_posix(): _selection_unique_calls(
                 ast.parse(path.read_text()))
             for path in sorted(SRC.rglob("*.py"))}
    assert {path: calls for path, calls in found.items() if calls} == {}


def test_selection_unique_check_sees_each_call():
    tree = ast.parse("np.partition(a, 3)\nnumpy.argpartition(a, 3)\n"
                     "np.unique(a, return_inverse=True)\n"
                     "np.unique_values(a)\nline.partition('=')\n"
                     "a.argmin(axis=1)\nnumerics.distinct(a)\n")
    assert _selection_unique_calls(tree) == [
        (1, "np.partition"), (2, "np.argpartition"), (3, "np.unique"),
        (4, "np.unique_values")]


# the package's layers, lowest first; a module imports only from its own
# layer or a lower one
LAYERS = ("exceptions", "numerics", "grassmann", "kernels", "machines",
          "harness")


def _layer(parts):
    """The layer of a module named by its parts below the root package,
    None for the root package itself or a name bound in it."""
    return LAYERS.index(parts[0]) if parts and parts[0] in LAYERS else None


def _upward_imports(relpath, tree):
    """(line, imported module) of each import in the module at `relpath`,
    a path below the root package, that reaches a higher layer.  The
    root package's own module sits in no layer and is not checked."""
    package = list(pathlib.PurePosixPath(relpath).parent.parts)
    own = _layer(list(pathlib.PurePosixPath(relpath).with_suffix("").parts))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module.split(".") if node.module else []
        if node.level:
            base = package[:len(package) - node.level + 1] + module
        elif module[0] == "grasskernels":
            base = module[1:]
        else:
            continue
        # `from pkg import name` may bind a submodule
        targets = ([base] if node.module
                   else [base + [alias.name] for alias in node.names])
        for target in targets:
            layer = _layer(target)
            if None not in (layer, own) and layer > own:
                found.append((node.lineno, ".".join(target)))
    return found


def test_imports_follow_the_layers():
    """Every import under src/ points down or sideways in the order
    exceptions < numerics < grassmann < kernels < machines < harness;
    the root package is open to all, for `__version__`."""
    found = {path.relative_to(SRC).as_posix(): _upward_imports(
                 path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
             for path in sorted(SRC.rglob("*.py"))}
    assert {path: hits for path, hits in found.items() if hits} == {}


def test_layer_check_sees_an_upward_import():
    tree = {
        "kernels.py": "from . import grassmann, numerics\n"
                      "from .machines.svm import svm_train\n"
                      "from .harness import cli\n",
        "machines/svm.py": "from .. import __version__, numerics\n"
                           "from ..machines import kkmeans\n"
                           "from . import klsh\n"
                           "from .. import harness\n"
                           "import numpy\n",
        "grassmann.py": "from grasskernels.kernels import gram\n"
                        "from numpy import linalg\n",
        "harness/cli.py": "from ..machines.svm import svm_train\n"
                          "from .experiments import run_experiment\n",
    }
    found = {path: _upward_imports(path, ast.parse(text))
             for path, text in tree.items()}
    assert found == {
        "kernels.py": [(2, "machines.svm"), (3, "harness")],
        "machines/svm.py": [(4, "harness")],
        "grassmann.py": [(1, "kernels")],
        "harness/cli.py": [],
    }


def _seed_loops(tree):
    """The line of each `for` loop or comprehension over a `.seeds`
    attribute, such as `config.seeds`."""
    return sorted(node.iter.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.For, ast.comprehension))
                  and isinstance(node.iter, ast.Attribute)
                  and node.iter.attr == "seeds")


def test_one_loop_runs_the_seeds():
    """Every seeded task runs through one runner, so the task runners
    iterate over the configured seeds in one place."""
    tree = ast.parse((SRC / "harness" / "experiments.py").read_text())
    assert len(_seed_loops(tree)) == 1


def test_seed_loop_check_sees_a_second_loop():
    tree = ast.parse("for seed in config.seeds:\n    run(seed)\n"
                     "keys = [build(seed) for seed in hash_config.seeds]\n"
                     "items = _joined(config.seeds)\n"
                     "for seed in seeds:\n    run(seed)\n")
    assert _seed_loops(tree) == [1, 3]


def _kernel_loops(tree):
    """The line of each `for` statement over a name `specs`."""
    return sorted(node.iter.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.For)
                  and isinstance(node.iter, ast.Name)
                  and node.iter.id == "specs")


def test_one_loop_runs_the_kernels():
    """Every per-kernel task (pd-check, gram and the seeded tasks) runs
    through one runner, so the task runners iterate over the kernels in
    one place."""
    tree = ast.parse((SRC / "harness" / "experiments.py").read_text())
    assert len(_kernel_loops(tree)) == 1


def test_kernel_loop_check_sees_a_second_loop():
    tree = ast.parse("for spec in specs:\n    run(spec)\n"
                     "needed = [c for spec in specs for c in grid(spec)]\n"
                     "for spec in config.specs:\n    run(spec)\n"
                     "for spec in specs:\n    write(spec)\n"
                     "for seed in seeds:\n    run(seed)\n")
    assert _kernel_loops(tree) == [1, 6]
