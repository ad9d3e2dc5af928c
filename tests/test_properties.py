"""Property tests: the kernel token grammar, the config parser and the
dataset parser.

Every draw is derandomized so the suite stays reproducible.
"""

from dataclasses import fields

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from grasskernels import kernels
from grasskernels.exceptions import InputError, InvalidKernelParameter
from grasskernels.harness.config import ExperimentConfig, build_config
from grasskernels.harness.datasets import Dataset, parse_dataset

SETTINGS = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)

scales = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def kernel_specs(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    family = draw(st.sampled_from(kernels.FAMILIES))
    embedding = draw(st.sampled_from(kernels.EMBEDDINGS))
    alpha = beta = None
    if family == "polynomial":
        alpha = float(draw(st.integers(min_value=1, max_value=400)))
    elif family == "binomial":
        alpha = draw(scales)
    if family in ("polynomial", "rbf", "laplace"):
        beta = draw(scales)
    elif family == "binomial":
        smax = 1.0 if embedding == "binet_cauchy" else float(p)
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
