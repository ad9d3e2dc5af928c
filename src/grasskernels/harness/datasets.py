"""Synthetic subspace collections and their plain-text file format.

A dataset file is line oriented:

    format_version=1
    name=planted_d8_p2_c2_m20
    d=8
    p=2
    n=40
    labels=0 0 1 1 ...
    subspace=<d*p floats, column major, 17 significant digits>
    ... one subspace line per point ...

The labels line is omitted for unlabeled data.  Serialization is
canonical, so the identical Dataset always produces byte-identical text.
The dataset fingerprint identifies what the text encodes, not its bytes:
it is a sha256 over the parsed name, sizes, labels and bases (see
`Dataset.fingerprint`), so two files that parse to the same arrays share
it, and a loaded file is fingerprinted without being written out again.
"""

import array
import functools
import hashlib
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import numerics
from ..exceptions import InputError
from ..grassmann import (Subspace, basis_problem, checked_subspaces,
                         tilted_bases)
from .reports import key_value_lines, read_input, write_text

FORMAT_VERSION = 1
_KEYS = ("format_version", "name", "d", "p", "n", "labels", "subspace")


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of subspaces on one manifold, maybe labeled."""

    subspaces: Tuple[Subspace, ...]
    labels: Optional[np.ndarray] = None
    name: str = "unnamed"

    def __post_init__(self):
        subspaces = tuple(self.subspaces)
        if not subspaces:
            raise ValueError("a dataset needs at least one subspace")
        shape = subspaces[0].basis.shape
        for x in subspaces:
            if x.basis.shape != shape:
                raise ValueError(
                    "all subspaces in a dataset must share (d, p)")
        object.__setattr__(self, "subspaces", subspaces)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (len(subspaces),):
                raise ValueError(
                    f"need {len(subspaces)} labels, got {labels.shape}")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)
        if not name_round_trips(self.name):
            raise ValueError(f"dataset names must {NAME_RULE}, "
                             f"got {self.name!r}")

    @property
    def n(self):
        return len(self.subspaces)

    @property
    def d(self):
        return self.subspaces[0].d

    @property
    def p(self):
        return self.subspaces[0].p

    @functools.cached_property
    def fingerprint(self):
        """sha256 of the parsed content, computed once.

        The hashed bytes are, in order: the UTF-8 name, preceded by its
        byte length; n, d, p and a labels-present flag; the labels, if
        present; then each basis in column-major order, the order of its
        subspace line.  Integers are little-endian int64 and basis
        entries little-endian float64.  The text format writes every
        float so that it parses back to the same bits, so a dataset keeps
        its fingerprint through `save_dataset` and `load_dataset`.
        """
        name = self.name.encode("utf-8")
        has_labels = self.labels is not None
        digest = hashlib.sha256(np.array([len(name)], "<i8").tobytes())
        digest.update(name)
        digest.update(np.array([self.n, self.d, self.p, has_labels],
                               "<i8").tobytes())
        if has_labels:
            digest.update(self.labels.astype("<i8", copy=False).tobytes())
        # transposed, each C-ordered (p, d) block is one basis in
        # column-major order
        bases = np.stack([x.basis.T for x in self.subspaces])
        digest.update(bases.astype("<f8", copy=False).tobytes())
        return digest.hexdigest()

    @property
    def class_count(self):
        if self.labels is None:
            return 0
        return int(numerics.distinct(self.labels).size)


NAME_RULE = "be one line without '=' or surrounding whitespace"


def name_round_trips(name):
    """Whether `parse_dataset` reads `name` back unchanged from its
    `name=` line, which it splits into lines and strips."""
    return ("=" not in name and name == name.strip()
            and len(name.splitlines()) <= 1)


def serialize_dataset(dataset):
    """Render a dataset to its canonical text form."""
    lines = [
        f"format_version={FORMAT_VERSION}",
        f"name={dataset.name}",
        f"d={dataset.d}",
        f"p={dataset.p}",
        f"n={dataset.n}",
    ]
    if dataset.labels is not None:
        lines.append("labels=" + " ".join(str(int(v))
                                          for v in dataset.labels))
    # "%.17g" renders a Python float as "{:.17g}" does, and one template
    # formats a whole line in a single call
    template = "subspace=" + " ".join(["%.17g"] * (dataset.d * dataset.p))
    for x in dataset.subspaces:
        lines.append(template % tuple(x.basis.flatten(order="F").tolist()))
    return "\n".join(lines) + "\n"


def parse_dataset(text):
    """Parse the canonical text form back into a Dataset: `parse_lines`
    of `text.splitlines()`."""
    return parse_lines(text.splitlines())


def parse_lines(source):
    """The Dataset of the lines of `source`, an open dataset file or a
    list of its lines, read one at a time by `key_value_lines`, as config
    files are; a bad line is named.

    Each subspace line's floats go, as the line is read, into one
    growing float64 buffer, and a line whose values do not convert keeps
    only its text, so no more than the parsed values and those lines are
    held.  Errors come in the order of the whole text's checks: a line
    that `key_value_lines` refuses, then the header fields, then the
    first bad subspace line, then the labels and the name."""
    fields, lines, subspace_lines = {}, {}, []
    values = array.array("d")
    for lineno, key, value in key_value_lines(source, _KEYS, ("subspace",)):
        if key != "subspace":
            fields[key], lines[key] = value, lineno
            continue
        try:
            floats = list(map(float, value.split()))
        except ValueError:
            subspace_lines.append((lineno, value))
        else:
            values.fromlist(floats)
            subspace_lines.append((lineno, len(floats)))

    def field(key, convert, problem):
        try:
            return convert(fields[key])
        except (ValueError, OverflowError) as exc:
            raise InputError(f"line {lines[key]}: {problem}: {exc}") from exc

    for key in ("format_version", "d", "p", "n"):
        if key not in fields:
            raise InputError(f"missing required field {key!r}")
    if fields["format_version"] != str(FORMAT_VERSION):
        raise InputError(f"line {lines['format_version']}: unsupported "
                         f"format_version {fields['format_version']!r}")
    d, p, n = (field(key, int, "dimension fields must be integers")
               for key in ("d", "p", "n"))
    if not 0 < p < d:
        raise InputError(f"line {lines['d' if d < 2 else 'p']}: subspace "
                         f"dimensions need 0 < p < d, got d={d}, p={p}")
    if n < 1:
        raise InputError(f"line {lines['n']}: a dataset needs at least "
                         f"one subspace, got n={n}")
    if len(subspace_lines) != n:
        raise InputError(f"line {lines['n']}: expected {n} subspace lines, "
                         f"found {len(subspace_lines)}")
    subspaces = _subspaces(subspace_lines, values, d, p)

    labels = None
    if "labels" in fields:
        labels = field("labels", lambda v: np.array(
            [int(s) for s in v.split()], dtype=np.int64),
            "labels must be int64 values")
        if labels.size != n:
            raise InputError(f"line {lines['labels']}: expected {n} labels, "
                             f"got {labels.size}")
    name = fields.get("name", "unnamed")
    if not name_round_trips(name):
        raise InputError(f"line {lines['name']}: dataset names must "
                         f"{NAME_RULE}, got {name!r}")
    return Dataset(subspaces=tuple(subspaces), labels=labels, name=name)


def _subspaces(subspace_lines, values, d, p):
    """The Subspaces of the subspace lines, each (lineno, count of its
    floats in `values`) or (lineno, text) for a line whose values did not
    convert.  The bases are copied out of `values` into one C-ordered
    (n, d, p) stack and checked in that stack.  A bad line is named: the
    first that does not hold d * p floats, or whose basis a Subspace
    refuses, whichever comes first."""
    size = d * p
    # a text entry never equals an int, so a line that did not convert
    # is bad too; every line before the first bad one holds d * p floats
    good = next((row for row, (_, entry) in enumerate(subspace_lines)
                 if entry != size), len(subspace_lines))
    # a line lists its basis column by column
    bases = np.ascontiguousarray(
        np.frombuffer(values, count=good * size).reshape(good, p, d)
        .swapaxes(1, 2))
    _check_bases(bases, subspace_lines)
    if good < len(subspace_lines):
        lineno, entry = subspace_lines[good]
        count = len(entry.split()) if isinstance(entry, str) else entry
        try:
            if count != size:
                raise ValueError(f"expected {size} values, got {count}")
            # the line's own conversion error
            list(map(float, entry.split()))
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    return checked_subspaces(bases)


def _check_bases(bases, subspace_lines):
    problem = basis_problem(bases)
    if problem is not None:
        index, reason = problem
        raise InputError(f"line {subspace_lines[index][0]}: {reason}")


def save_dataset(dataset, path):
    """Write the dataset's canonical text to `path`."""
    write_text(path, serialize_dataset(dataset))


def load_dataset(path):
    """parse_lines of the file at `path`, read line by line, its errors
    naming the file."""
    return read_input(path, parse_lines)


def generate_planted(d, p, classes, per_class, noise_angle, seed=0,
                     name=None):
    """Labeled classes scattered around well-separated prototype subspaces.

    When classes * p <= d the prototypes are carved out of one Haar frame
    and are therefore mutually orthogonal; otherwise they are independent
    uniform draws and a warning notes the lost separation.  Each class
    member is its prototype with its first min(p, d - p) basis directions
    rotated by independent angles drawn uniformly from [0, noise_angle],
    the others kept: on G(2, 3) one angle to the prototype stays 0.
    """
    if not 0 < p < d:
        raise ValueError(f"need 0 < p < d, got d={d}, p={p}")
    if classes < 1 or per_class < 1:
        raise ValueError("need at least one class and one member")
    if not 0.0 <= noise_angle < math.pi / 2:
        raise ValueError(
            f"noise_angle must lie in [0, pi/2), got {noise_angle}")
    rng = np.random.default_rng(seed)
    if classes * p <= d:
        frame = numerics.orthonormalize(rng.standard_normal((d, classes * p)))
        prototypes = frame.reshape(d, classes, p).swapaxes(0, 1)
    else:
        warnings.warn(
            f"classes * p = {classes * p} exceeds d = {d}; prototypes "
            "cannot be mutually orthogonal and are drawn independently",
            stacklevel=2)
        # one draw of the stack is the classes' consecutive (d, p) draws
        prototypes = numerics.orthonormalize(
            rng.standard_normal((classes, d, p)))
    # np.repeat copies into a C-ordered stack, the layout of a Subspace's
    # basis, so each member's products are those of its basis alone
    bases = np.repeat(prototypes, per_class, axis=0)
    n = classes * per_class
    if noise_angle != 0.0:
        # each member draws its angles, then its normals: one stream in
        # member order
        angles = np.empty((n, p))
        draws = np.empty((n, d, min(p, d - p)))
        for i in range(n):
            angles[i] = rng.uniform(0.0, noise_angle, size=p)
            rng.standard_normal(out=draws[i])
        bases = tilted_bases(bases, angles, draws)
    problem = basis_problem(bases)
    if problem is not None:
        raise ValueError(problem[1])
    if name is None:
        name = f"planted_d{d}_p{p}_c{classes}_m{per_class}_s{seed}"
    return Dataset(subspaces=tuple(checked_subspaces(bases)),
                   labels=np.repeat(np.arange(classes), per_class),
                   name=name)


def subspace_from_samples(samples, p):
    """Best-fit p-dimensional subspace for a matrix of sample columns.

    Takes the span of the top p left singular vectors.  Raises
    ValueError when the samples do not support p directions.
    """
    m = numerics.as_matrix(samples)
    if p < 1 or p >= m.shape[0]:
        raise ValueError(
            f"need 0 < p < {m.shape[0]}, got p={p}")
    if m.shape[1] < p:
        raise ValueError(
            f"{m.shape[1]} samples cannot span {p} directions")
    u, s, _ = numerics.svd(m)
    if s[0] == 0.0 or s[p - 1] < numerics.RANK_TOLERANCE * s[0]:
        raise ValueError(
            f"samples have numerical rank below {p}")
    return Subspace(u[:, :p])


def class_ranks(labels, rng):
    """Each point's rank in a seeded shuffle of its class, and the size of
    its class.

    Each class is shuffled by one `rng.permutation`, in ascending label
    order.
    """
    rank = np.empty(labels.size, dtype=np.intp)
    size = np.empty(labels.size, dtype=np.intp)
    for value in numerics.distinct(labels):
        members = np.flatnonzero(labels == value)
        rank[members[rng.permutation(members.size)]] = np.arange(members.size)
        size[members] = members.size
    return rank, size


def stratified_split(labels, train_fraction, rng):
    """Seeded train / test split preserving label proportions.

    Every class contributes at least one training point and, when it has
    more than one member, at least one test point.  Returns sorted index
    arrays (train, test).
    """
    y = np.asarray(labels)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("labels must form a nonempty vector")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(
            f"train_fraction must lie in (0, 1), got {train_fraction}")
    rank, size = class_ranks(y, rng)
    train = rank < np.clip(np.round(train_fraction * size), 1,
                           np.maximum(size - 1, 1))
    return np.flatnonzero(train), np.flatnonzero(~train)
