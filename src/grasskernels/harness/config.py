"""Experiment configuration: file parsing, CLI overrides and defaults.

Config files are plain text, one `key=value` per line, `#` comments and
blank lines ignored.  Command-line flags override file values.  Every
run embeds its fully resolved configuration in the report, so a report
never depends on implicit state.
"""

import math
from dataclasses import dataclass, fields
from typing import Tuple, get_args, get_origin, get_type_hints

from ..exceptions import InputError

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for one harness run."""

    task: str
    dataset: str = ""
    out: str = ""
    name: str = ""
    seed: int = 0
    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    threads: int = 1
    kernels: Tuple[str, ...] = ()
    d: int = 8
    p: int = 2
    classes: int = 2
    per_class: int = 20
    noise_angle: float = 0.1
    train_fraction: float = 0.5
    svm_c: float = 10.0
    clusters: int = 0
    restarts: int = 5
    bits: Tuple[int, ...] = (60,)
    anchors: int = 30
    lam: float = 0.001
    top_m: int = 10
    tune: bool = False
    beta_grid: Tuple[float, ...] = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
    alpha_grid: Tuple[int, ...] = (1, 2, 3)
    cv_folds: int = 3

    def __post_init__(self):
        if self.task not in TASKS:
            raise InputError(f"unknown task {self.task!r}; "
                             f"expected one of {sorted(TASKS)}")
        for key in ("seeds", "bits"):
            value = getattr(self, key)
            if not value or len(set(value)) < len(value):
                raise InputError(f"{key} must be nonempty and distinct, "
                                 f"got {_render(value)!r}")
        for key, (requirement, holds) in _RANGES.items():
            value = getattr(self, key)
            for element in value if isinstance(value, tuple) else (value,):
                if not holds(element):
                    raise InputError(
                        f"{key} must {requirement}, got {element!r}")
        if self.p >= self.d:
            raise InputError(
                f"p must be less than d, got d={self.d}, p={self.p}")
        if self.task == "generate" and self.dataset:
            raise InputError("generate synthesizes data; "
                             "drop the dataset option")

    def resolved_items(self):
        """Ordered (key, rendered value) pairs for report embedding.

        The thread count is left out: the option is accepted, checked to
        be at least 1 and has no effect, so it is not part of the
        experiment.
        """
        items = []
        for spec in fields(self):
            if spec.name == "threads":
                continue
            items.append((spec.name, _render(getattr(self, spec.name))))
        return items


def _at_least(low):
    return f"be at least {low}", lambda v: v >= low


_POSITIVE = ("be positive and finite", lambda v: 0.0 < v < math.inf)

# (requirement, test) for a field's value, or each element of a list field
_RANGES = {
    "seed": _at_least(0), "seeds": _at_least(0), "threads": _at_least(1),
    "p": _at_least(1), "classes": _at_least(1), "per_class": _at_least(1),
    "clusters": _at_least(0), "restarts": _at_least(1),
    "bits": _at_least(1), "anchors": _at_least(2), "top_m": _at_least(1),
    "cv_folds": _at_least(2),
    "svm_c": _POSITIVE, "lam": _POSITIVE,
    "noise_angle": ("lie in [0, pi/2)", lambda v: 0.0 <= v < math.pi / 2),
    "train_fraction": ("lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    "name": ("be one line without '='",
             lambda v: "\n" not in v and "=" not in v),
}


TASKS = ("gram", "pd-check", "counterexample", "svm", "cluster",
         "sparse-code", "hash", "bench", "generate")


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
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
    except ValueError as exc:
        raise InputError(f"{key} must be a {kind.__name__}: {exc}") from exc
    return value


_FIELD_TYPES = get_type_hints(ExperimentConfig)

# keys whose values are lists, written space or comma separated
LIST_KEYS = tuple(key for key, kind in _FIELD_TYPES.items()
                  if get_origin(kind) is tuple)


def coerce_value(key, value):
    """Coerce one raw string (or already-typed value) to its field type."""
    if key not in _FIELD_TYPES:
        raise InputError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    if not isinstance(value, str):
        return value
    if key in LIST_KEYS:
        element = get_args(kind)[0]
        return tuple(_parse_typed(key, part, element)
                     for part in value.replace(",", " ").split())
    return _parse_typed(key, value, kind)


def load_config_file(path):
    """Read a config file into a raw {key: string} mapping."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise InputError(
                f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in values:
            raise InputError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def build_config(task, file_values=None, overrides=None):
    """Merge file values and overrides into an ExperimentConfig.

    `file_values` are raw strings from load_config_file; `overrides`
    (typically CLI flags) may be raw strings or typed values and win on
    conflict.  A task given in the file is ignored in favor of the
    explicit `task` argument.
    """
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key == "task":
                continue
            if value is None:
                continue
            merged[key] = coerce_value(key, value)
    return ExperimentConfig(task=task, **merged)
