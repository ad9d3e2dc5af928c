"""Property tests: principal angles and the Pluecker embedding, the
kernel token grammar, the config parser, the dataset parser and the
dataset fingerprint.

Every draw is derandomized so the suite stays reproducible.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from grasskernels import grassmann, kernels
from grasskernels.exceptions import InputError, InvalidKernelParameter
from grasskernels.grassmann import (Subspace, plucker_embed,
                                    principal_angles, random_subspace,
                                    subspace_pair_with_angles)
from grasskernels.harness.config import ExperimentConfig, build_config
from grasskernels.harness.datasets import (Dataset, name_round_trips,
                                           parse_dataset, serialize_dataset)

SETTINGS = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)

scales = st.floats(min_value=1e-3, max_value=1e3)


# arccos keeps only half the digits of a small angle (see
# principal_angles), so angles agree to about sqrt(eps)
ANGLE_TOL = 1e-7


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
    with pytest.raises(ValueError):
        subspace_pair_with_angles(d, p, angles, np.random.default_rng(seed))


@st.composite
def kernel_specs(draw):
    p = draw(st.integers(min_value=1, max_value=6))
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
