"""Property tests: the kernel token grammar and the config parser.

Every draw is derandomized so the suite stays reproducible.
"""

from dataclasses import fields

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from grasskernels import kernels
from grasskernels.exceptions import InputError, InvalidKernelParameter
from grasskernels.harness.config import ExperimentConfig, build_config

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
