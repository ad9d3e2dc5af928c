"""Experiment configuration: file parsing, CLI overrides and defaults.

Config files are plain text, one `key=value` per line, `#` comments and
blank lines ignored.  Command-line flags override file values.  Every
run embeds its fully resolved configuration in the report, so a report
never depends on implicit state.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Tuple, get_args, get_origin, get_type_hints

from ..exceptions import InputError
from .datasets import NAME_RULE, name_round_trips
from .reports import key_value_lines, read_input

# each task with its description in `grasskernels --help`
TASK_DESCRIPTIONS = {
    "gram": "write kernel matrices as CSV",
    "pd-check": "certify kernels (conditionally) positive definite",
    "counterexample": "show the geodesic Gaussian indefiniteness witness",
    "svm": "train and score support vector machines over splits",
    "cluster": "run kernel k-means and score against labels",
    "sparse-code": "classify by kernelized sparse coding",
    "hash": "build hash families and measure retrieval recall",
    "bench": "run a fixed composite workload",
    "generate": "synthesize a labeled dataset file",
}
TASKS = tuple(TASK_DESCRIPTIONS)

# the options only generating a dataset reads
_GENERATION_KEYS = ("name", "seed", "d", "p", "classes", "per_class",
                   "noise_angle")


def _unread_generation_keys(dataset):
    """The generation options a run leaves unread: all of them when it
    loads the dataset file `dataset`, none when it generates its data."""
    return _GENERATION_KEYS if dataset else ()


def _option(default, help, check=None):
    """A config field with its flag's help text and, when its values have
    a range, the (requirement, test) pair checked on the value or on each
    element of a list value."""
    return field(default=default, metadata={"help": help, "check": check})


def _at_least(low):
    return f"be at least {low}", lambda v: v >= low


_POSITIVE = ("be positive and finite", lambda v: 0.0 < v < math.inf)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for one harness run."""

    task: str
    dataset: str = _option(
        "", "dataset file to load instead of generating one")
    out: str = _option("", "output path (report file; directory for gram; "
                           "dataset file for generate)")
    name: str = _option("", "name for generated data",
                        (NAME_RULE, name_round_trips))
    seed: int = _option(0, "generation seed", _at_least(0))
    seeds: Tuple[int, ...] = _option(
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
        "split / repeat seeds, comma or space separated", _at_least(0))
    threads: int = _option(1, "accepted and has no effect", _at_least(1))
    kernels: Tuple[str, ...] = _option(
        (), "kernel tokens like rbf:projection:beta=0.5, comma separated; "
            "'catalog' expands to the full catalog")
    d: int = _option(8, "ambient dimension for generated data")
    p: int = _option(2, "subspace dimension for generated data",
                     _at_least(1))
    classes: int = _option(2, "class count for generated data", _at_least(1))
    per_class: int = _option(20, "members per generated class", _at_least(1))
    noise_angle: float = _option(
        0.1, "largest rotation angle within a generated class",
        ("lie in [0, pi/2)", lambda v: 0.0 <= v < math.pi / 2))
    train_fraction: float = _option(0.5, "training share per split",
                                    ("lie in (0, 1)",
                                     lambda v: 0.0 < v < 1.0))
    svm_c: float = _option(10.0, "soft margin penalty", _POSITIVE)
    clusters: int = _option(0, "cluster count, 0 means the label count",
                            _at_least(0))
    restarts: int = _option(5, "clustering restarts", _at_least(1))
    bits: Tuple[int, ...] = _option((60,), "hash lengths, comma separated",
                                    _at_least(1))
    anchors: int = _option(30, "anchor points per hash bit", _at_least(2))
    lam: float = _option(0.001, "sparse coding penalty", _POSITIVE)
    top_m: int = _option(10, "retrieval depth for hashing", _at_least(1))
    tune: bool = _option(False, "grid-search kernel parameters by "
                                "cross-validation on each training split")
    beta_grid: Tuple[float, ...] = _option(
        (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0),
        "candidate beta values for tuning")
    alpha_grid: Tuple[int, ...] = _option(
        (1, 2, 3), "candidate alpha values for tuning")
    cv_folds: int = _option(3, "folds used when tuning", _at_least(2))

    def __post_init__(self):
        if self.task not in TASKS:
            raise InputError(f"unknown task {self.task!r}; "
                             f"expected one of {sorted(TASKS)}")
        unread = _unread_generation_keys(self.dataset)
        for spec in fields(self):
            if spec.name not in unread:
                _check_field(spec, getattr(self, spec.name))
        if not self.dataset and self.p >= self.d:
            raise InputError(
                f"p must be less than d, got d={self.d}, p={self.p}")
        if self.task == "generate" and self.dataset:
            raise InputError("generate synthesizes data; "
                             "drop the dataset option")

    def resolved_items(self):
        """Ordered (key, rendered value) pairs of every option, for
        report embedding, whether or not the task reads it.

        The thread count is left out, since the option is accepted,
        checked to be at least 1 and has no effect, and so are the
        generation options when the run loads a dataset file.
        """
        unread = {"threads", *_unread_generation_keys(self.dataset)}
        return [(spec.name, _render(getattr(self, spec.name)))
                for spec in fields(self) if spec.name not in unread]


def _check_field(spec, value):
    """InputError unless `value` meets the range of the field `spec`, each
    element of a list value on its own; seeds and bits must also be
    nonempty and distinct."""
    if spec.name in ("seeds", "bits") and (
            not value or len(set(value)) < len(value)):
        raise InputError(f"{spec.name} must be nonempty and distinct, "
                         f"got {_render(value)!r}")
    if spec.metadata.get("check"):
        requirement, holds = spec.metadata["check"]
        for element in value if isinstance(value, tuple) else (value,):
            if not holds(element):
                raise InputError(
                    f"{spec.name} must {requirement}, got {element!r}")


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(_render(v) for v in value)
    return str(value)


def _parse_typed(key, value, kind):
    if kind is bool:
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise InputError(f"{key} must be true or false, got {value!r}")
    if kind not in (int, float):
        return value
    try:
        return kind(value)
    except ValueError as exc:
        raise InputError(f"{key} must be {'an' if kind is int else 'a'} "
                         f"{kind.__name__}: {exc}") from exc


_FIELD_TYPES = get_type_hints(ExperimentConfig)
_FIELDS = {spec.name: spec for spec in fields(ExperimentConfig)}

# keys whose values are lists, written space or comma separated
LIST_KEYS = tuple(key for key, kind in _FIELD_TYPES.items()
                  if get_origin(kind) is tuple)


def coerce_value(key, value):
    """Coerce one raw string to its field type."""
    if key not in _FIELD_TYPES:
        raise InputError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    if key in LIST_KEYS:
        element = get_args(kind)[0]
        return tuple(_parse_typed(key, part, element)
                     for part in value.replace(",", " ").split())
    return _parse_typed(key, value, kind)


def load_config_file(path, loads_dataset=False):
    """Read a config file, line by line, into a {key: typed value}
    mapping, each value checked against its field's range; errors name
    the file and line.

    The generation options go unchecked when the run loads a dataset
    file, named by the file's own `dataset` key or, with
    `loads_dataset`, by a flag.
    """
    def parse(source):
        values, lines = {}, {}
        for lineno, key, value in key_value_lines(source, _FIELD_TYPES):
            try:
                values[key] = coerce_value(key, value)
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
            lines[key] = lineno
        unread = _unread_generation_keys(loads_dataset
                                         or values.get("dataset"))
        for key, lineno in lines.items():
            if key in unread:
                continue
            try:
                _check_field(_FIELDS[key], values[key])
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
        return values
    return read_input(path, parse)


def build_config(task, file_values=None, overrides=None):
    """Merge file values and overrides into an ExperimentConfig.

    `file_values` are typed values from load_config_file; `overrides`
    (typically CLI flags) are raw strings, or None for unset, and win on
    conflict.  A task given in the file is ignored in favor of the
    explicit `task` argument.
    """
    merged = dict(file_values or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = coerce_value(key, value)
    merged.pop("task", None)
    return ExperimentConfig(task=task, **merged)
