"""Checks on the source tree itself: the error rule, unused imports,
the tests that docstrings cite, the one module of file I/O and the
order of the layers."""

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


def _unused_imports(tree):
    """(line, name) of each name the module imports and never loads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = _names_used(tree)
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    """No module under src/ or tests/ imports a name it never uses."""
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nimport numpy as np\nfrom a import b, c\n"
                     "np.zeros(c)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "b")]


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
