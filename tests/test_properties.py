"""Property tests: distinct integer values, principal angles and the
Pluecker embedding, the kernel token grammar, the Gram view, the config
parser, key=value lines over an open file, the dataset parser, the dataset fingerprint and the command line
as a whole.

Every draw is derandomized so the suite stays reproducible.
"""

import contextlib
import io
import math
import os
from dataclasses import fields
from typing import get_origin

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from grasskernels import grassmann, kernels, numerics
from grasskernels.exceptions import (InputError, InvalidKernelParameter,
                                     NumericalOverflow)
from grasskernels.grassmann import (Subspace, plucker_embed,
                                    principal_angles, random_subspace,
                                    subspace_pair_with_angles)
from grasskernels.harness import cli
from grasskernels.harness.config import (ExperimentConfig, build_config,
                                         load_config_file)
from grasskernels.harness.datasets import (Dataset, generate_planted,
                                           name_round_trips, parse_dataset,
                                           serialize_dataset)
from grasskernels.harness.reports import key_value_lines, read_input
from grasskernels.machines.metrics import _contingency

SETTINGS = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)

scales = st.floats(min_value=1e-3, max_value=1e3)


# arccos keeps only half the digits of a small angle (see
# principal_angles), so angles agree to about sqrt(eps)
ANGLE_TOL = 1e-7


INT64 = np.iinfo(np.int64)


@SETTINGS
@given(st.lists(st.integers(min_value=-3, max_value=3)
                | st.integers(min_value=INT64.min, max_value=INT64.max),
                max_size=40),
       st.sampled_from([np.int64, np.intp]))
@example([], np.int64)
@example([7], np.intp)
@example([2, 2, 2, 2], np.int64)
@example([INT64.max, INT64.min, 0, INT64.max, INT64.min], np.intp)
def test_distinct_equals_np_unique(values, dtype):
    """`numerics.distinct` gives `np.unique`'s values in its dtype, for
    an empty array too."""
    x = np.array(values, dtype=dtype)
    got, want = numerics.distinct(x), np.unique(x)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# labels as clusterings and classes give them, and some that they never
# do: negative, repeated, with gaps, at the int64 extremes
LABELS = (st.sampled_from([-9, -2, 0, 3, 40, 1000])
          | st.integers(min_value=INT64.min, max_value=INT64.max))


@SETTINGS
@given(st.lists(st.tuples(LABELS, LABELS), min_size=1, max_size=60))
@example([(-2, 3)])
@example([(5, -1), (5, -1), (-7, 9), (5, 9), (1000, -1)])
@example([(INT64.min, INT64.max), (INT64.max, INT64.min), (0, 0)])
def test_contingency_equals_unique_and_add_at(pairs):
    """`metrics._contingency` counts the table that `np.unique`'s
    inverse indices and `np.add.at` give."""
    predicted, truth = np.array(pairs, dtype=np.int64).T
    _, rows = np.unique(predicted, return_inverse=True)
    _, cols = np.unique(truth, return_inverse=True)
    want = np.zeros((rows.max() + 1, cols.max() + 1), dtype=np.int64)
    np.add.at(want, (rows, cols), 1)
    got = _contingency(predicted, truth)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@st.composite
def subspace_pairs(draw):
    """Two random subspaces of one small manifold."""
    d = draw(st.integers(min_value=2, max_value=7))
    p = draw(st.integers(min_value=1, max_value=d - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**32 - 1)))
    return random_subspace(d, p, rng), random_subspace(d, p, rng)


@SETTINGS
@given(subspace_pairs())
def test_principal_angles_ascend_in_range_and_are_symmetric(pair):
    x, y = pair
    angles = principal_angles(x, y)
    assert angles.shape == (x.p,)
    assert np.all(np.diff(angles) >= 0.0)
    assert np.all(angles >= 0.0) and np.all(angles <= math.pi / 2)
    np.testing.assert_allclose(principal_angles(y, x), angles, rtol=0.0,
                               atol=ANGLE_TOL)


@SETTINGS
@given(subspace_pairs())
def test_plucker_embedding_has_unit_norm(pair):
    x, _ = pair
    assert abs(np.linalg.norm(plucker_embed(x)) - 1.0) <= 1e-12


valid_angle = st.floats(min_value=0.0, max_value=math.pi / 2)
bad_angle = (st.floats(max_value=0.0, exclude_max=True)
             | st.floats(min_value=math.pi / 2 + 1e-11))


@SETTINGS
@given(st.lists(valid_angle, min_size=1, max_size=3),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0),
       st.data())
def test_pair_with_angles_takes_any_order_and_rejects_out_of_range(
        angles, spare, seed, data):
    p = len(angles)
    d = 2 * p + spare
    x, y = subspace_pair_with_angles(d, p, angles,
                                     np.random.default_rng(seed))
    np.testing.assert_allclose(principal_angles(x, y), np.sort(angles),
                               rtol=0.0, atol=ANGLE_TOL)
    angles[data.draw(st.integers(min_value=0, max_value=p - 1))] = \
        data.draw(bad_angle)
    with pytest.raises(ValueError, match="principal angles must lie"):
        subspace_pair_with_angles(d, p, angles, np.random.default_rng(seed))


@st.composite
def kernel_specs(draw, p=st.integers(min_value=1, max_value=6)):
    p = draw(p)
    family = draw(st.sampled_from(kernels.FAMILIES))
    embedding = draw(st.sampled_from(grassmann.EMBEDDINGS))
    alpha = beta = None
    if family == "polynomial":
        alpha = float(draw(st.integers(min_value=1, max_value=400)))
    elif family == "binomial":
        alpha = draw(scales)
    if family in ("polynomial", "rbf", "laplace"):
        beta = draw(scales)
    elif family == "binomial":
        smax = 1.0 if embedding == "bc" else float(p)
        beta = smax + draw(scales)
    try:
        return kernels.KernelSpec(embedding, family, p, alpha=alpha,
                                  beta=beta)
    except InvalidKernelParameter:
        reject()  # drawn parameters overflow a float


@SETTINGS
@given(kernel_specs())
def test_kernel_label_round_trips(spec):
    assert kernels.parse_kernel_token(spec.label(), spec.p) == spec


@SETTINGS
@given(st.data())
def test_gram_view_reads_any_kernel_on_its_embeddings(data):
    """A Gram view built from one kernel per embedding it holds reads
    each drawn kernel on those embeddings bit for bit as gram does, and
    raises KeyError for a kernel on another embedding and ValueError for
    one with another p."""
    p = data.draw(st.integers(min_value=1, max_value=4))
    d = data.draw(st.integers(min_value=p + 1, max_value=p + 3))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0,
                                                      max_value=2**32 - 1)))
    points = [random_subspace(d, p, rng)
              for _ in range(data.draw(st.integers(min_value=1,
                                                   max_value=6)))]
    held = data.draw(st.sampled_from([("bc",), ("projection",),
                                      grassmann.EMBEDDINGS]))
    view = kernels.grams([kernels.KernelSpec(embedding, "linear", p)
                          for embedding in held], points)
    for spec in data.draw(st.lists(kernel_specs(st.just(p)), min_size=1,
                                   max_size=3)):
        token = spec.label()
        if spec.embedding not in held:
            with pytest.raises(KeyError):
                view[spec]
            continue
        try:
            expected = kernels.gram(spec, points).values
        except NumericalOverflow:
            with pytest.raises(NumericalOverflow):
                view[spec]
            continue
        assert view[spec].values.tobytes() == expected.tobytes(), token
    for embedding in held:
        with pytest.raises(ValueError, match=f"configured for p={p + 1}"):
            view[kernels.KernelSpec(embedding, "linear", p + 1)]


token_parts = st.one_of(
    st.sampled_from(kernels.FAMILIES + ("bc", "proj", "projection",
                                        "alpha=2", "alpha=0.5", "beta=0.5",
                                        "beta=3", "beta=1e308", "beta=nan",
                                        "beta=-1", "gamma=1", "alpha=")),
    st.text(max_size=8))


@SETTINGS
@given(token=st.one_of(st.text(max_size=30),
                       st.lists(token_parts, max_size=5).map(":".join)),
       p=st.integers(min_value=1, max_value=5))
def test_kernel_tokens_parse_or_raise_invalid_parameter(token, p):
    try:
        spec = kernels.parse_kernel_token(token, p)
    except InvalidKernelParameter:
        return
    assert isinstance(spec, kernels.KernelSpec)


config_values = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "0", "1", "2", "-1", "0.5", "nan", "inf", "1e400",
                     "true", "no", "0 1", "1,2", "a=b"]),
    st.integers(min_value=-3, max_value=60).map(str),
    st.floats().map(repr))


@SETTINGS
@given(st.dictionaries(st.sampled_from([f.name
                                        for f in fields(ExperimentConfig)]),
                       config_values, max_size=4))
def test_build_config_returns_config_or_raises_input_error(overrides):
    try:
        config = build_config("svm", overrides=overrides)
    except InputError:
        return
    assert isinstance(config, ExperimentConfig)


# characters a UTF-8 file can hold
file_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)


@st.composite
def config_texts(draw):
    """Config file text: key=value lines of known and unknown keys, with
    comment, blank and other lines between them."""
    keys = st.sampled_from([f.name for f in fields(ExperimentConfig)]
                           + ["sedes", ""])
    line = st.one_of(st.builds("{}={}".format, keys, config_values),
                     st.builds(" {} = {} ".format, keys, config_values),
                     st.sampled_from(["", "# note", "seeds"]), file_text)
    return "\n".join(draw(st.lists(line, max_size=5)))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg") / "c.cfg"


@settings(SETTINGS, max_examples=500)
@given(config_texts())
def test_config_file_text_loads_or_raises_input_error(config_path, text):
    """Loading a config file raises only InputErrors that start with its
    path and the number of a line that is not blank or a comment, or
    gives values of their fields' types and ranges, which build an
    ExperimentConfig or fail the one rule across fields that an svm run
    has: p below d."""
    config_path.write_bytes(text.encode("utf-8"))
    try:
        values = load_config_file(str(config_path))
    except InputError as exc:
        head, lineno, _ = str(exc).split(": ", 2)
        assert head == str(config_path) and lineno.startswith("line ")
        line = text.splitlines()[int(lineno[5:]) - 1].strip()
        assert line and not line.startswith("#")
        return
    for spec in fields(ExperimentConfig):
        if spec.name in values:
            assert isinstance(values[spec.name],
                              get_origin(spec.type) or spec.type)
    try:
        config = build_config("svm", values)
    except InputError as exc:
        assert str(exc).startswith("p must be less than d, got ")
        return
    assert isinstance(config, ExperimentConfig)


# every line break of `str.splitlines()`; a file read in text mode turns
# "\r\n" and "\r" into "\n"
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
               "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def key_value_texts(draw):
    """Pieces of key=value, blank, comment and other lines, each ended
    by any line break or by none."""
    piece = st.sampled_from(["a=1", " b = x y ", "c=", "c=2", "# a=1",
                             "  #", "", "  ", "a", "d=3"]) | file_text
    ends = st.sampled_from(LINE_BREAKS + ("",))
    return "".join(a + b for a, b in draw(st.lists(st.tuples(piece, ends),
                                                   max_size=8)))


def key_value_outcome(lines):
    """What `key_value_lines` gives for `lines` with keys a, b and c (c
    repeatable): its items, then the message of the InputError that
    stopped it, if one did."""
    got = []
    try:
        got.extend(key_value_lines(lines, ("a", "b", "c"), ("c",)))
    except InputError as exc:
        got.append(str(exc))
    return got


@settings(SETTINGS, max_examples=500)
@given(key_value_texts())
# line breaks across the reader's first 8192-byte chunk: "\r\n" split
# between two chunks, and a 3-byte U+2028 over the chunk edge
@example("a=" + "x" * 8189 + "\r\nb=1\r\rc=2\n")
@example("# " + "x" * 8189 + "\u2028b=1\x85\x85c=\x0b")
def test_key_value_lines_read_a_file_as_its_splitlines(config_path, text):
    """Over an open file, `key_value_lines` gives the lines, line numbers
    and errors it gives over `text.splitlines()`, with or without the
    line ends, for every line break `str.splitlines()` knows."""
    config_path.write_bytes(text.encode("utf-8"))
    expected = key_value_outcome(text.splitlines())
    assert read_input(str(config_path), key_value_outcome) == expected
    assert key_value_outcome(text.splitlines(keepends=True)) == expected


# a small valid dataset file, one line per key, and what may replace each
# line ("" drops it)
VALID_DATASET = ("format_version=1", "name=a", "d=3", "p=1", "n=1",
                 "labels=0", "subspace=1 0 0")
DATASET_ALTERNATIVES = {
    "format_version": ["format_version=2", ""],
    "name": ["name=a=b", "name=", ""],
    "d": ["d=0", "d=-1", "d=x", "d=1", ""],
    "p": ["p=0", "p=3", "p=2", ""],
    "n": ["n=0", "n=2", "n=-1", ""],
    "labels": ["labels=", "labels=0 1", "labels=99999999999999999999",
               "labels=x", ""],
    "subspace": ["subspace=0 0 0", "subspace=nan 0 0", "subspace=1e400 0 0",
                 "subspace=1 0", "subspace=1 0 0\nsubspace=0 1 0", ""],
}


@st.composite
def dataset_texts(draw):
    """Text near a valid dataset file: each line kept or replaced."""
    lines = [draw(st.one_of(
        st.just(line),
        st.sampled_from(DATASET_ALTERNATIVES[line.partition("=")[0]])))
        for line in VALID_DATASET]
    lines += draw(st.lists(st.text(max_size=12), max_size=2))
    return "\n".join(lines)


@settings(SETTINGS, max_examples=1000)
@given(st.one_of(st.text(max_size=60), dataset_texts()))
def test_dataset_text_parses_or_raises_input_error(text):
    try:
        dataset = parse_dataset(text)
    except InputError:
        return
    assert isinstance(dataset, Dataset)


@st.composite
def datasets(draw):
    """A small dataset with random bases, any int64 labels or none, and
    any name its file can hold."""
    d = draw(st.integers(min_value=2, max_value=5))
    p = draw(st.integers(min_value=1, max_value=d - 1))
    n = draw(st.integers(min_value=2, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**32 - 1)))
    labels = draw(st.none() | st.lists(
        st.integers(min_value=-2**63, max_value=2**63 - 1),
        min_size=n, max_size=n))
    return Dataset(
        subspaces=tuple(random_subspace(d, p, rng) for _ in range(n)),
        labels=labels, name=draw(st.text(max_size=10).filter(
            name_round_trips)))


@st.composite
def loose_texts(draw, dataset):
    """Text that parses to `dataset`'s arrays but reads differently: the
    header lines in any order, comment and blank lines between lines,
    surrounding and repeated whitespace, and other exact float forms."""
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    header = ["format_version=1", f"name={dataset.name}",
              f"d={draw(space)}{dataset.d}", f"p={dataset.p}{draw(space)}",
              f"n={dataset.n}"]
    if dataset.labels is not None:
        header.append("labels=" + draw(space).join(
            str(v) for v in dataset.labels.tolist()))
    writer = draw(st.sampled_from([repr, "{:.16e}".format,
                                   "{:.17g}".format]))
    body = ["subspace=" + draw(space).join(
        writer(v) for v in x.basis.flatten(order="F").tolist())
        for x in dataset.subspaces]
    lines = []
    for line in draw(st.permutations(header)) + body:
        lines += draw(st.lists(st.sampled_from(["", "  ", "# a comment",
                                                "  #x=1"]), max_size=2))
        lines.append(draw(space) + line + draw(space))
    return "\n".join(lines)


@SETTINGS
@given(st.data())
def test_fingerprint_identifies_the_parsed_arrays(data):
    dataset = data.draw(datasets())
    fingerprint = dataset.fingerprint
    assert parse_dataset(serialize_dataset(dataset)).fingerprint \
        == fingerprint
    assert parse_dataset(data.draw(loose_texts(dataset))).fingerprint \
        == fingerprint

    def changed(subspaces=dataset.subspaces, labels=dataset.labels,
                name=dataset.name):
        return Dataset(subspaces=subspaces, labels=labels,
                       name=name).fingerprint

    # one ulp on one basis entry
    i = data.draw(st.integers(min_value=0, max_value=dataset.n - 1))
    basis = dataset.subspaces[i].basis.copy()
    row = data.draw(st.integers(min_value=0, max_value=dataset.d - 1))
    col = data.draw(st.integers(min_value=0, max_value=dataset.p - 1))
    basis[row, col] = np.nextafter(basis[row, col], np.inf)
    bumped = list(dataset.subspaces)
    bumped[i] = Subspace(basis)
    assert changed(subspaces=tuple(bumped)) != fingerprint
    # two subspaces swapped
    j = data.draw(st.integers(min_value=0, max_value=dataset.n - 1)
                  .filter(lambda j: j != i))
    swapped = list(dataset.subspaces)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert changed(subspaces=tuple(swapped)) != fingerprint
    # a changed name
    assert changed(name=dataset.name + "x") != fingerprint
    if dataset.labels is not None:
        # a changed label
        labels = dataset.labels.copy()
        labels[i] = labels[i] - 1 if labels[i] > 0 else labels[i] + 1
        assert changed(labels=labels) != fingerprint
        # the labels line dropped
        text = serialize_dataset(dataset)
        unlabeled = "".join(line for line in text.splitlines(True)
                            if not line.startswith("labels="))
        assert parse_dataset(unlabeled).fingerprint != fingerprint


# the CLI fuzz test's option values: valid ones, then out-of-range and
# malformed ones
CLI_VALUES = {
    "kernels": (["catalog", "linear:bc", "rbf:projection:beta=0.5",
                 "logarithm:projection,laplace:bc:beta=1",
                 "polynomial:projection:alpha=2:beta=0.5 "
                 "binomial:bc:alpha=1:beta=2",
                 # values past float range, alone and after a good kernel
                 "rbf:projection:beta=354.891356446692", "linear:projection,"
                 "binomial:projection:alpha=1.5:beta=2.0000000000000004",
                 "rbf:projection:beta=354"],
                ["linear:bc,linear:bc", "rbf:bc", "binomial:bc:alpha=1:beta=1",
                 "foo", ""]),
    "seeds": (["0", "0,1", "2 5"], ["", "-1", "0,0", "x"]),
    "svm_c": (["0.1", "10"], ["0", "-1", "nan", "inf"]),
    "lam": (["0.001", "1", "1e6"], ["0", "-1", "nan"]),
    "clusters": (["0", "1", "2", "5"], ["100", "-1", "x"]),
    "restarts": (["1", "2"], ["0"]),
    "bits": (["1", "5,20"], ["0", "1,1", ""]),
    "anchors": (["2", "5"], ["1", "30"]),
    "top_m": (["1", "3", "100"], ["0"]),
    "train_fraction": (["0.5", "0.1", "0.9"], ["0", "1"]),
    "cv_folds": (["2", "5"], ["1"]),
    "beta_grid": (["0.5", "0.1,354.891356446692"], ["", "-1", "x"]),
    "alpha_grid": (["1", "2,3"], ["0", "1.5"]),
    "threads": (["1", "2"], ["0"]),
    "noise_angle": (["0", "0.5"], ["1.6", "nan"]),
    "seed": (["0", "7"], ["-1"]),
    "name": (["tiny", "café"], ["", "a=b"]),
    "out": (["out.txt", "sub/dir/file.txt"], ["."]),
    "config": (["seeds.cfg"], ["missing.cfg"]),
}


def _cli_flag(key, value):
    return f"--{key.replace('_', '-')}={value}"


@st.composite
def cli_argvs(draw):
    """A task on tiny data with up to four valid options, then in one run
    of three an out-of-range or malformed option, and in one of five
    `--tune`.  The data are generated, n = classes * per_class <= 24,
    with p = d at times, or a file: a valid one with n = 12, one with a
    NaN entry, an empty one or a missing one."""
    argv = [draw(st.sampled_from(
        ["gram", "pd-check", "counterexample", "svm", "cluster",
         "sparse-code", "hash", "bench", "generate"]))]
    dataset = draw(st.one_of(st.none(), st.just("tiny.txt"), st.sampled_from(
        ["nan.txt", "empty.txt", "missing.txt"])))
    if dataset is None:
        d = draw(st.integers(2, 6))
        argv += [_cli_flag("d", d), _cli_flag("p", draw(st.integers(1, d))),
                 _cli_flag("classes", draw(st.integers(1, 4))),
                 _cli_flag("per_class", draw(st.integers(1, 6)))]
    else:
        argv.append(_cli_flag("dataset", dataset))
    for key in draw(st.lists(st.sampled_from(sorted(CLI_VALUES)),
                             max_size=4, unique=True)):
        argv.append(_cli_flag(key, draw(st.sampled_from(CLI_VALUES[key][0]))))
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(sorted(CLI_VALUES)))
        argv.append(_cli_flag(key, draw(st.sampled_from(CLI_VALUES[key][1]))))
    if draw(st.integers(0, 4)) == 0:
        argv.append("--tune")
    return argv


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A working directory holding the fuzz test's input files."""
    root = tmp_path_factory.mktemp("cli")
    text = serialize_dataset(generate_planted(
        d=6, p=2, classes=3, per_class=4, noise_angle=0.1, seed=1))
    (root / "tiny.txt").write_text(text)
    # the first basis entry made NaN
    head, _, rest = text.partition("\nsubspace=")
    (root / "nan.txt").write_text(
        head + "\nsubspace=nan " + rest.partition(" ")[2])
    (root / "empty.txt").write_text("")
    (root / "seeds.cfg").write_text("seeds=0,1\n")
    return root


@settings(SETTINGS, max_examples=200)
@given(cli_argvs())
def test_cli_exits_0_1_or_2_and_never_raises(cli_dir, argv):
    """Any run of drawn options on tiny data exits 0 (passed), 1 (verdict
    failed) or 2 (bad input), with one `error:` line on stderr and
    nothing on stdout for 2, and a report and no error line otherwise;
    `warning:` lines may come with any of them.  Kernel values that
    overflow surface in a kernel's turn of the runner, so the pools hold
    such kernels, alone and after a good one, and as tuning candidates.
    The pools leave out values that only make a run slow, not wrong: a
    huge `--svm-c`, which runs the full SMO budget, a tiny `--lam`, long
    seed lists and more than 24 points."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(cli_dir)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv
    lines = [line for line in stderr.getvalue().splitlines()
             if not line.startswith("warning: ")]
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
        assert stdout.getvalue() == "", argv
    else:
        assert lines == [] and stdout.getvalue(), argv
