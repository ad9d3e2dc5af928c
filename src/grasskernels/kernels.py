"""The kernel catalog on subspaces, Gram assembly and spectral certification.

Every kernel is a scalar function of one of two basis-invariant
similarities between subspaces x and y, named by its embedding:

* "bc" (Binet-Cauchy), the determinant similarity |det(x.T @ y)|,
  written s below, with s in [0, 1];
* "projection", the projection similarity ||x.T @ y||_F^2, with s in
  [0, p].

Families, the mode certify_pd checks each in, and what theory
guarantees on each embedding:

===========  ===================================  ====  ==========  ===========
family       value                                mode  projection  determinant
===========  ===================================  ====  ==========  ===========
baseline     s^2 (determinant) or s (projection)  pd    pd          pd
linear       s                                    pd    pd          indefinite
polynomial   (beta + s)^alpha                     pd    pd          indefinite
rbf          exp(beta * s)                        pd    pd          indefinite
laplace      exp(-beta * sqrt(smax - s))          pd    pd          indefinite
binomial     (beta - s)^-alpha                    pd    pd          indefinite
logarithm    -log(smax + 1 - s)                   cpd   cpd         indefinite
===========  ===================================  ====  ==========  ===========

where smax is 1 for the determinant embedding and p for the projection
embedding.  Parameter constraints are enforced eagerly by KernelSpec,
including a finite value at s = smax, the largest, since every family
is nondecreasing in s.

The mode column is what KernelSpec.certification_mode returns and what
the pd-check task tests; it names a check, not a guarantee.  The last two
columns are what KernelSpec.theory returns, and the pd-check verdict
requires only the kernels it calls pd or cpd to certify.

On the projection embedding s = <x x.T, y y.T>_F is an inner product of
projectors and smax - s is half the squared distance between them, so
every family is positive definite (Schoenberg) and the logarithm,
-log(1 + half that squared distance), is conditionally pd.

On the determinant embedding only the baseline is guaranteed:
det(x.T @ y)^2 = <P(x), P(y)>^2 is the square of an inner product of
Pluecker vectors.  The absolute value in s = |det(x.T @ y)| is not
bilinear: for lines in R^3, s = |cos theta|, whose Legendre expansion
has the coefficient -3/16 at degree 4, so by Schoenberg's theorem s is
not positive definite.  "indefinite" marks a family with a recorded
witness, a sampled Gram matrix (at some parameters) with a negative
eigenvalue far outside roundoff; for the logarithm the witness is in
the conditional mode.  The witnesses are test_four_lines_spectrum
(linear, rbf), test_certification_regression_on_sampled_subspaces
(linear, logarithm), acceptance criterion 02 (polynomial, binomial,
logarithm), `grasskernels pd-check --seed 0` (linear, polynomial,
rbf at beta=0.5, binomial at alpha=1, beta=2, logarithm) and
test_laplace_bc_witness (laplace at beta=0.5).  The laplace kernel
certifies on many samples, among them that pd-check run at beta=1.

Run the pd-check task to see the verdicts on any dataset.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grassmann, numerics
from .exceptions import InvalidKernelParameter

FAMILIES = ("baseline", "linear", "polynomial", "rbf", "laplace",
            "binomial", "logarithm")

PD_TOLERANCE = 1e-8

_NEEDS_BETA = ("polynomial", "rbf", "laplace", "binomial")
_NEEDS_ALPHA = ("polynomial", "binomial")

# the catalog's (alpha, beta) of each family that takes parameters; the
# binomial beta is set one past smax, its lower bound, by catalog()
_CATALOG_PARAMETERS = {"polynomial": (2, 0.5), "rbf": (None, 0.5),
                       "laplace": (None, 1), "binomial": (1, None)}


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family with parameters, validated on construction.

    Parameters
    ----------
    embedding : str
        One of grassmann.EMBEDDINGS: "bc" for the determinant
        (Binet-Cauchy) similarity or "projection".
    family : str
        One of FAMILIES.
    p : int
        Subspace dimension the kernel will be evaluated on.  Needed up
        front because the binomial projection constraint depends on it.
    alpha : float, optional
        Exponent; integer >= 1 for polynomial, any positive real for
        binomial, disallowed elsewhere.
    beta : float, optional
        Scale; positive for polynomial / rbf / laplace, > 1 for binomial
        on the determinant embedding and > p on the projection embedding,
        disallowed elsewhere.

    Parameters at which the kernel's largest value, its value at
    s = similarity_max, overflows a float are rejected too.
    """

    embedding: str
    family: str
    p: int
    alpha: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.embedding not in grassmann.EMBEDDINGS:
            raise InvalidKernelParameter(
                f"unknown embedding {self.embedding!r}; "
                f"pick one of {grassmann.EMBEDDINGS}")
        if self.family not in FAMILIES:
            raise InvalidKernelParameter(
                f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 1):
            raise InvalidKernelParameter(
                f"subspace dimension must be a positive integer, "
                f"got {self.p!r}")
        object.__setattr__(self, "p", int(self.p))
        self._check_param("alpha", self.alpha, self.family in _NEEDS_ALPHA)
        self._check_param("beta", self.beta, self.family in _NEEDS_BETA)
        self._check_ranges()

    def _check_param(self, name, value, needed):
        if needed and value is None:
            raise InvalidKernelParameter(
                f"family {self.family!r} requires {name}")
        if not needed and value is not None:
            raise InvalidKernelParameter(
                f"family {self.family!r} takes no {name}")
        if value is not None:
            if not math.isfinite(float(value)):
                raise InvalidKernelParameter(f"{name} must be finite")
            object.__setattr__(self, name, float(value))

    def _check_ranges(self):
        a, b, family = self.alpha, self.beta, self.family
        smax = self.similarity_max
        if family in ("polynomial", "rbf", "laplace") and b <= 0.0:
            raise InvalidKernelParameter(
                f"{family} kernel needs beta > 0, got {b}")
        if family == "polynomial" and (a < 1.0 or not a.is_integer()):
            raise InvalidKernelParameter(
                f"polynomial kernel needs an integer alpha >= 1, got {a}")
        if family == "binomial" and a <= 0.0:
            raise InvalidKernelParameter(
                f"binomial kernel needs alpha > 0, got {a}")
        if family == "binomial" and b <= smax:
            raise InvalidKernelParameter(
                f"binomial kernel on the {self.embedding} embedding "
                f"needs beta > {smax:g}, got {b}")
        # every family is nondecreasing in s, so this is its largest value
        with np.errstate(over="ignore"):
            top = _apply(self, np.float64(smax))
        if not np.isfinite(top):
            raise InvalidKernelParameter(
                f"kernel {self.label()} overflows a float at s = {smax:g}")

    @property
    def similarity_max(self):
        """Largest value the underlying similarity can take."""
        return _similarity_max(self.embedding, self.p)

    @property
    def certification_mode(self):
        """The mode certify_pd checks this kernel in: 'cpd' or 'pd'.

        'cpd' for families that are only conditionally pd (the
        logarithm), else 'pd'.  This names a check, not a guarantee: on
        the determinant embedding most families fail it (see the module
        docstring for what theory guarantees).
        """
        return "cpd" if self.family == "logarithm" else "pd"

    @property
    def theory(self):
        """What theory guarantees: 'pd', 'cpd' or 'indefinite'.

        The last two columns of the module docstring's table.
        """
        if self.embedding == "projection" or self.family == "baseline":
            return self.certification_mode
        return "indefinite"

    def label(self):
        """Compact token, e.g. 'rbf:projection:beta=0.5' or 'linear:bc'."""
        parts = [self.family, self.embedding]
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha!r}")
        if self.beta is not None:
            parts.append(f"beta={self.beta!r}")
        return ":".join(parts)


def _similarity_max(embedding, p):
    return 1.0 if embedding == "bc" else float(p)


def catalog(p):
    """Every family of FAMILIES on each embedding of grassmann.EMBEDDINGS,
    in that order, at subspace dimension p, with _CATALOG_PARAMETERS: the
    14 KernelSpecs that the token 'catalog' names.  A new family or
    embedding joins them, and so the pd-check rows that the benchmark
    reference pins: re-record it, or leave the newcomer out explicitly.
    """
    specs = []
    for family in FAMILIES:
        for embedding in grassmann.EMBEDDINGS:
            alpha, beta = _CATALOG_PARAMETERS.get(family, (None, None))
            if family == "binomial":
                beta = _similarity_max(embedding, p) + 1.0
            specs.append(KernelSpec(embedding=embedding, family=family, p=p,
                                    alpha=alpha, beta=beta))
    return specs


def parse_kernel_tokens(tokens, p):
    """KernelSpecs of a sequence of tokens, in order, the token 'catalog'
    standing for catalog(p).  A kernel given twice, also through
    'catalog', raises InvalidKernelParameter."""
    specs = []
    for token in tokens:
        specs += (catalog(p) if token == "catalog"
                  else [parse_kernel_token(token, p)])
    for index, spec in enumerate(specs):
        if spec in specs[:index]:
            raise InvalidKernelParameter(
                f"kernel {spec.label()!r} is given twice")
    return specs


def parse_kernel_token(token, p):
    """Parse a compact token like 'rbf:projection:beta=0.5'.

    Grammar: family:embedding[:alpha=A][:beta=B], each parameter given at
    most once; the embedding is "bc" or "projection".
    """
    parts = [part.strip() for part in str(token).split(":")]
    if len(parts) < 2:
        raise InvalidKernelParameter(
            f"kernel token {token!r} needs at least family:embedding")
    family, embedding = parts[0], parts[1]
    params = {}
    for part in parts[2:]:
        key, eq, value = part.partition("=")
        if not eq:
            raise InvalidKernelParameter(
                f"kernel token parameter {part!r} must look like key=value")
        try:
            value = float(value)
        except ValueError:
            raise InvalidKernelParameter(
                f"kernel token parameter {part!r} has a non-numeric value")
        if key not in ("alpha", "beta"):
            raise InvalidKernelParameter(
                f"kernel token parameter {key!r} not recognized")
        if key in params:
            raise InvalidKernelParameter(
                f"kernel token parameter {key!r} is given twice")
        params[key] = value
    return KernelSpec(embedding=embedding, family=family, p=p, **params)


def cross_gram(spec, queries, refs):
    """Kernel values of every query against every ref, a 2-D array.

    One similarity matrix on the spec's embedding (grassmann.similarity)
    mapped elementwise by the family, so an entry depends only on its own
    pair.  Raises ValueError unless both sides are nonempty and
    share one manifold with the spec's p, and NumericalOverflow when a
    value overflows a float.
    """
    queries = list(queries)
    s = grassmann.similarity(spec.embedding, queries, refs)
    _check_p(spec, queries[0].p)
    return _mapped(spec, s)


def _check_p(spec, p):
    if p != spec.p:
        raise ValueError(
            f"kernel was configured for p={spec.p}, data has p={p}")


def evaluate(spec, x, y):
    """The kernel on one pair of subspaces: the 1 x 1 case of cross_gram."""
    return float(cross_gram(spec, [x], [y])[0, 0])


def _mapped(spec, s):
    """_apply, or NumericalOverflow naming the kernel where a value is
    not finite, as it can be where roundoff puts s a few ulp past smax
    (for binomial, up to or past beta)."""
    with np.errstate(all="ignore"):
        return numerics.require_finite(_apply(spec, s),
                                       f"values of kernel {spec.label()!r}")


def _apply(spec, s):
    """The family's value at similarity s, elementwise over an array."""
    family = spec.family
    if family == "baseline":
        return s * s if spec.embedding == "bc" else s
    if family == "linear":
        return s
    if family == "polynomial":
        return (spec.beta + s) ** spec.alpha
    if family == "rbf":
        return np.exp(spec.beta * s)
    if family == "laplace":
        # roundoff can push s a hair past its maximum; clamp the radicand
        return np.exp(-spec.beta * np.sqrt(np.maximum(
            spec.similarity_max - s, 0.0)))
    if family == "binomial":
        return (spec.beta - s) ** -spec.alpha
    return -np.log(spec.similarity_max + 1.0 - s)


@dataclass(frozen=True)
class GramMatrix:
    """A kernel matrix, nothing more: square, exactly symmetric, frozen."""

    values: np.ndarray

    def __post_init__(self):
        v = numerics.as_matrix(self.values)
        if v.shape[0] != v.shape[1]:
            raise ValueError(
                f"a Gram matrix must be square, got {v.shape}")
        if not np.array_equal(v, v.T):
            raise ValueError("Gram matrix entries must be exactly symmetric")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.shape[0]

    def take(self, indices):
        """Principal submatrix over the given point indices, order kept."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("indices must form a nonempty vector")
        return GramMatrix(self.values[np.ix_(idx, idx)])


def _mirror_upper(values):
    """Copy the upper triangle onto the lower one, in place, and return it."""
    np.copyto(values, values.T, where=np.tri(len(values), k=-1, dtype=bool))
    return values


class _Grams:
    """The read-only Gram view that grams returns.

    It holds the mirrored similarity matrices, read-only, and maps any
    kernel on their embeddings each time the kernel is read; it keeps no
    Gram.  A caller that reads each Gram once and drops it holds one
    Gram at a time.
    """

    def __init__(self, specs, similarities, p):
        self.specs = specs
        self._similarities = similarities
        self._p = p

    def __getitem__(self, spec):
        if spec.embedding not in self._similarities:
            raise KeyError(spec)
        _check_p(spec, self._p)
        return GramMatrix(_mapped(spec, self._similarities[spec.embedding]))


def grams(specs, data):
    """A read-only view of the GramMatrix over one sequence of subspaces
    of any kernel on the embeddings of the given specs.

    The view lists the specs, in first-seen order with duplicates
    collapsed, as `specs`, and maps a kernel's GramMatrix anew each time
    the kernel is read.  Every kernel is a map of one of the two
    similarities, so the call takes one grassmann.similarities call for
    the embeddings its specs use, and the view holds one similarity
    matrix per embedding.  Each similarity matrix is mirrored once, its
    upper triangle copied onto the lower, and a kernel's Gram is its map
    of the mirrored matrix; every map is elementwise, so symmetry is
    exact: entry (i, j) with i <= j is exactly evaluate(spec, data[i],
    data[j]), and the Gram of an increasing subset of indices is take()
    of the full matrix bit for bit.  Nothing is kept between calls.
    Reading a kernel raises KeyError when the view holds no similarity
    on its embedding, ValueError when its p is not the data's and
    NumericalOverflow when one of its values overflows a float.
    """
    data = list(data)
    specs = list(dict.fromkeys(specs))
    if not specs:
        return _Grams(specs, {}, None)
    similarities = grassmann.similarities(
        [spec.embedding for spec in specs], data, data)
    for values in similarities.values():
        _mirror_upper(values).setflags(write=False)
    return _Grams(specs, similarities, data[0].p)


def gram(spec, data):
    """The GramMatrix of a sequence of subspaces: grams of one spec."""
    return grams([spec], data)[spec]


@dataclass(frozen=True)
class CertificationReport:
    """Spectral verdict for a Gram matrix.

    For mode "cpd" the eigenvalues are those of J K J with
    J = I - ones/n, i.e. the kernel restricted to zero-sum weights.
    """

    mode: str
    min_eigenvalue: float
    max_eigenvalue: float
    tolerance: float
    passed: bool


def certify_pd(gram_matrix, mode="pd"):
    """Check a Gram matrix for (conditional) positive definiteness.

    Passes when the smallest eigenvalue is at least -(PD_TOLERANCE times
    the largest + n eps max|K|), K the uncentered Gram, which treats tiny
    negative eigenvalues commensurate with roundoff as zero, also in a
    matrix of roundoff alone, such as coincident points give in cpd mode.
    """
    if mode not in ("pd", "cpd"):
        raise ValueError(f"mode must be 'pd' or 'cpd', got {mode!r}")
    k = gram_matrix.values
    n = k.shape[0]
    roundoff = n * np.finfo(np.float64).eps * max(k.max(), -k.min())
    if mode == "cpd":
        centering = np.eye(n) - np.full((n, n), 1.0 / n)
        k = centering @ k @ centering
    eigenvalues = numerics.symmetric_eigenvalues(k)
    lo = float(eigenvalues[0])
    hi = float(eigenvalues[-1])
    return CertificationReport(mode=mode, min_eigenvalue=lo,
                               max_eigenvalue=hi, tolerance=PD_TOLERANCE,
                               passed=bool(lo >= -(PD_TOLERANCE * hi
                                                   + roundoff)))


# Four bases on the manifold of 2-planes in R^3, printed to four decimal
# places.  Re-orthonormalized on use, they witness the indefiniteness of
# the geodesic Gaussian exp(-geodesic^2) (see counterexample_gram).
COUNTEREXAMPLE_BASES = (
    ((1.0, 0.0),
     (0.0, 1.0),
     (0.0, 0.0)),
    ((-0.0996, -0.3085),
     (-0.4967, -0.8084),
     (-0.8622, 0.5014)),
    ((-0.9868, 0.1259),
     (-0.1221, -0.9916),
     (-0.1065, -0.0293)),
    ((0.1736, 0.0835),
     (0.7116, 0.6782),
     (0.6808, -0.7301)),
)


def counterexample_subspaces():
    """The four witness subspaces, re-orthonormalized from their printed
    form."""
    return [grassmann.Subspace(numerics.orthonormalize(np.array(b)))
            for b in COUNTEREXAMPLE_BASES]


def counterexample_gram():
    """The matrix of exp(-geodesic^2) on the four witness subspaces.

    Its smallest eigenvalue is about -0.0038, proving the geodesic
    Gaussian indefinite.
    """
    points = counterexample_subspaces()
    distances = grassmann.geodesic_distances(points, points)
    return GramMatrix(_mirror_upper(np.exp(-distances ** 2)))
