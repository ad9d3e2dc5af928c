"""Kernel catalog, Gram assembly, and spectral certification tests.

Closed-form expectations come from elementary trigonometry on pairs with
known principal angles, and from exact circulant eigenvalues for four
equally spaced lines in the plane.  The batched similarity path is held
to a per-pair loop with scalar `math` maps, kept here as the reference.
"""

import math
import tracemalloc

import numpy as np
import pytest

from grasskernels import grassmann, kernels, numerics
from grasskernels.exceptions import InvalidKernelParameter, NumericalOverflow
from grasskernels.grassmann import Subspace, subspace_pair_with_angles
from grasskernels.harness.datasets import generate_planted
from grasskernels.harness.experiments import gram_csv_text
from grasskernels.kernels import (GramMatrix, KernelSpec, certify_pd,
                                  counterexample_gram,
                                  counterexample_subspaces, cross_gram,
                                  evaluate, gram, grams, parse_kernel_token)

CATALOG = (
    "baseline:bc", "linear:bc", "polynomial:bc:alpha=2:beta=0.5",
    "rbf:bc:beta=1.0", "laplace:bc:beta=1.0",
    "binomial:bc:alpha=1.0:beta=2.0", "logarithm:bc",
    "baseline:projection", "linear:projection",
    "polynomial:projection:alpha=2:beta=0.5", "rbf:projection:beta=0.5",
    "laplace:projection:beta=0.5",
    "binomial:projection:alpha=1.0:beta=3.0", "logarithm:projection",
)


def line(t):
    return Subspace([[math.cos(t)], [math.sin(t)]])


def geodesic_gaussian(x, y):
    """exp(-geodesic^2), the map counterexample_gram applies."""
    return math.exp(-grassmann.geodesic_distance(x, y) ** 2)


def four_lines():
    # equally spaced lines in the plane; |cos| gram is circulant
    return [line(k * math.pi / 4.0) for k in range(4)]


def random_points(n, d, p, key):
    rng = np.random.default_rng(key)
    return [grassmann.random_subspace(d, p, rng) for _ in range(n)]


def pair_similarity(embedding, x, y):
    """Reference similarity of one pair, from its own p x p product and,
    for "bc", its own determinant."""
    m = x.basis.T @ y.basis
    if embedding == "bc":
        return abs(numerics.determinant(m))
    return float(np.sum(m ** 2))


def pair_value(spec, s):
    """Reference kernel value at similarity s, with scalar math maps."""
    family, smax = spec.family, spec.similarity_max
    if family == "baseline":
        return s * s if spec.embedding == "bc" else s
    if family == "linear":
        return s
    if family == "polynomial":
        return (spec.beta + s) ** spec.alpha
    if family == "rbf":
        return math.exp(spec.beta * s)
    if family == "laplace":
        return math.exp(-spec.beta * math.sqrt(max(smax - s, 0.0)))
    if family == "binomial":
        return (spec.beta - s) ** -spec.alpha
    return -math.log(smax + 1.0 - s)


def pair_loop_gram(spec, pts):
    """Reference Gram: the upper triangle pair by pair, mirrored."""
    n = len(pts)
    values = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            v = pair_value(spec, pair_similarity(spec.embedding,
                                                 pts[i], pts[j]))
            values[i, j] = values[j, i] = v
    return values


# manifolds and sizes the batched path is checked on, p = 1 to 3
SHAPES = ((8, 2, 40), (100, 2, 100), (10, 3, 30), (5, 1, 20))


# ---------------------------------------------------------------- spec


def test_embedding_aliases():
    """Each embedding has one spelling, the one labels and tokens use;
    the short and long aliases once accepted are unknown names."""
    assert KernelSpec("bc", "linear", 2).embedding == "bc"
    assert KernelSpec("projection", "linear", 2).embedding == "projection"
    for alias in ("proj", "binet_" + "cauchy", "binet-" + "cauchy"):
        with pytest.raises(InvalidKernelParameter, match="unknown embedding"):
            KernelSpec(alias, "linear", 2)
        with pytest.raises(InvalidKernelParameter, match="unknown embedding"):
            parse_kernel_token(f"linear:{alias}", 2)


def test_unknown_names_rejected():
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("chordal", "linear", 2)
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "sigmoid", 2)


def test_p_must_be_positive_integer():
    for bad in (0, -2, 2.5, "2"):
        with pytest.raises(InvalidKernelParameter):
            KernelSpec("bc", "linear", bad)


def test_parameter_presence():
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "rbf", 2)  # needs beta
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "polynomial", 2, beta=1.0)  # needs alpha too
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "rbf", 2, alpha=1.0, beta=1.0)  # no alpha slot
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "linear", 2, beta=1.0)
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("projection", "baseline", 2, alpha=2.0)


def test_parameter_ranges():
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "polynomial", 2, alpha=2.0, beta=0.0)
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "polynomial", 2, alpha=1.5, beta=1.0)
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "polynomial", 2, alpha=0.0, beta=1.0)
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "rbf", 2, beta=0.0)
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("projection", "laplace", 2, beta=-0.5)
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "binomial", 2, alpha=0.0, beta=2.0)
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "rbf", 2, beta=math.inf)
    # integer-valued float exponents are fine
    assert KernelSpec("bc", "polynomial", 2, alpha=3.0, beta=0.5).alpha == 3.0


def test_binomial_scale_floor_tracks_embedding():
    # determinant similarity tops out at 1, projection at p
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("bc", "binomial", 2, alpha=1.0, beta=1.0)
    assert KernelSpec("bc", "binomial", 2, alpha=1.0, beta=1.5).beta == 1.5
    with pytest.raises(InvalidKernelParameter):
        KernelSpec("projection", "binomial", 2, alpha=1.0, beta=2.0)
    assert KernelSpec("projection", "binomial", 2, alpha=1.0,
                      beta=2.5).beta == 2.5


def test_overflowing_parameters_rejected():
    # the largest value, at s = smax, overflows a float: the log of it,
    # beta*smax (rbf), alpha*log(beta+smax) (polynomial) or
    # -alpha*log(beta-smax) (binomial), is past about 709.78
    for token in ("rbf:projection:beta=1000",
                  "polynomial:projection:alpha=400:beta=5",
                  "binomial:bc:alpha=400:beta=1.0001"):
        with pytest.raises(InvalidKernelParameter, match="overflows"):
            parse_kernel_token(token, 2)
    # 221 * log(24.82...) computes to the log of the largest float, but
    # the power itself overflows
    with pytest.raises(InvalidKernelParameter, match="overflows"):
        parse_kernel_token(
            "polynomial:projection:alpha=221:beta=21.820911007616182", 3)
    # just under the bound (logs 708, 703.1 and 643.8) the largest value,
    # reached at x == y, is finite
    x = random_points(1, 4, 2, 3)[0]
    for token in ("rbf:projection:beta=354",
                  "polynomial:projection:alpha=400:beta=3.8",
                  "binomial:bc:alpha=400:beta=1.2"):
        value = evaluate(parse_kernel_token(token, 2), x, x)
        assert math.isfinite(value) and value > 1e270


def test_gram_overflow_past_smax_raises():
    """A kernel finite at s = smax can still overflow where roundoff puts
    a similarity past smax: 14 of the 40 subspaces of the CLI's default
    data have projection self-similarities above 2, by up to 8.9e-16.
    No float warning escapes (the suite makes them errors)."""
    data = generate_planted(8, 2, 2, 20, 0.1, seed=0).subspaces
    # the binomial's pole at s = beta lies within roundoff of smax, so
    # some values divide by zero or take a power of a negative number
    for token in ("rbf:projection:beta=354.891356446692",
                  "binomial:projection:alpha=1.5:beta=2.0000000000000004"):
        spec = parse_kernel_token(token, 2)
        assert math.isfinite(evaluate(spec, data[0], data[0]))
        with pytest.raises(NumericalOverflow, match=spec.label()):
            gram(spec, data)
        with pytest.raises(NumericalOverflow):
            cross_gram(spec, data, data)


def test_similarity_max_and_mode():
    assert KernelSpec("bc", "linear", 3).similarity_max == 1.0
    assert KernelSpec("projection", "linear", 3).similarity_max == 3.0
    assert KernelSpec("bc", "logarithm", 2).certification_mode == "cpd"
    assert KernelSpec("projection", "rbf", 2,
                      beta=1.0).certification_mode == "pd"


def test_label_round_trip():
    for token in CATALOG:
        spec = parse_kernel_token(token, 2)
        assert parse_kernel_token(spec.label(), 2) == spec
    assert KernelSpec("projection", "rbf", 2, beta=0.5).label() == \
        "rbf:projection:beta=0.5"
    assert KernelSpec("bc", "linear", 2).label() == "linear:bc"
    assert KernelSpec("bc", "polynomial", 2, alpha=2, beta=0.5).label() == \
        "polynomial:bc:alpha=2.0:beta=0.5"


def test_parse_token_errors():
    for bad in ("linear", "rbf:bc:beta", "rbf:bc:beta=abc", "rbf:bc:gamma=1"):
        with pytest.raises(InvalidKernelParameter):
            parse_kernel_token(bad, 2)
    with pytest.raises(InvalidKernelParameter, match="'beta' is given twice"):
        parse_kernel_token("rbf:projection:beta=0.5:beta=2", 2)


def test_catalog_pins_the_fourteen_kernels():
    """The catalog is every family on both embeddings, family by family,
    with the parameters these tokens give; `pd-check --kernels catalog`
    and `bench` print its labels in this order."""
    for p in (2, 3):
        tokens = (
            "baseline:bc", "baseline:projection",
            "linear:bc", "linear:projection",
            "polynomial:bc:alpha=2:beta=0.5",
            "polynomial:projection:alpha=2:beta=0.5",
            "rbf:bc:beta=0.5", "rbf:projection:beta=0.5",
            "laplace:bc:beta=1", "laplace:projection:beta=1",
            "binomial:bc:alpha=1:beta=2",
            f"binomial:projection:alpha=1:beta={p + 1}",
            "logarithm:bc", "logarithm:projection",
        )
        specs = kernels.catalog(p)
        assert specs == [parse_kernel_token(token, p) for token in tokens]
        assert [spec.label() for spec in specs] == [
            parse_kernel_token(token, p).label() for token in tokens]
        assert specs[11].label() == \
            f"binomial:projection:alpha=1.0:beta={p + 1.0!r}"


def test_parse_kernel_tokens_expands_the_catalog_and_rejects_repeats():
    specs = kernels.parse_kernel_tokens(["linear:bc"], 2)
    assert specs == [KernelSpec("bc", "linear", 2)]
    specs = kernels.parse_kernel_tokens(["rbf:bc:beta=3", "catalog"], 2)
    assert specs[1:] == kernels.catalog(2)
    for tokens in (["catalog", "linear:bc"], ["linear:bc", "linear:bc"],
                   ["catalog", "catalog"],
                   ["rbf:bc:beta=1", "rbf:bc:beta=1.0"]):
        with pytest.raises(InvalidKernelParameter, match="is given twice"):
            kernels.parse_kernel_tokens(tokens, 2)


def _docstring_table():
    """{family: (mode, projection, determinant)} from the rows of the
    table in the kernels module docstring."""
    lines = kernels.__doc__.splitlines()
    rules = [i for i, text in enumerate(lines) if text.startswith("====")]
    rows = {}
    for text in lines[rules[1] + 1:rules[2]]:
        cells = text.split()
        rows[cells[0]] = tuple(cells[-3:])
    return rows


def test_docstring_table_matches_the_code():
    """The mode column is `certification_mode` and the projection and
    determinant columns are `theory`, for every kernel of the catalog."""
    table = _docstring_table()
    assert sorted(table) == sorted(kernels.FAMILIES)
    for spec in kernels.catalog(2):
        mode, projection, determinant = table[spec.family]
        assert spec.certification_mode == mode, spec.label()
        expected = projection if spec.embedding == "projection" \
            else determinant
        assert spec.theory == expected, spec.label()


def test_kv_round_trip():
    """A Gram CSV header names the kernel's fields, empty when unset."""
    spec = KernelSpec("projection", "rbf", 2, beta=0.5)
    text = gram_csv_text(spec, GramMatrix(np.eye(2)), "f")
    assert text.splitlines()[0] == ("# format_version=1 embedding=projection "
                                    "family=rbf alpha= beta=0.5 fingerprint=f")


# ---------------------------------------------------------- evaluation


def test_planar_closed_forms():
    """Every family, checked against trigonometry on a pair of lines."""
    t = 0.7
    x, y = line(0.0), line(t)
    sb = math.cos(t)       # determinant similarity
    sp = math.cos(t) ** 2  # projection similarity
    cases = (
        ("baseline:bc", sb * sb),
        ("baseline:projection", sp),
        ("linear:bc", sb),
        ("linear:projection", sp),
        ("polynomial:bc:alpha=2:beta=0.5", (0.5 + sb) ** 2),
        ("polynomial:projection:alpha=3:beta=0.25", (0.25 + sp) ** 3),
        ("rbf:bc:beta=1.3", math.exp(1.3 * sb)),
        ("rbf:projection:beta=1.3", math.exp(1.3 * sp)),
        ("laplace:bc:beta=0.9", math.exp(-0.9 * math.sqrt(1.0 - sb))),
        ("laplace:projection:beta=0.9", math.exp(-0.9 * abs(math.sin(t)))),
        ("binomial:bc:alpha=1.5:beta=2", (2.0 - sb) ** -1.5),
        ("binomial:projection:alpha=1.5:beta=2", (2.0 - sp) ** -1.5),
        ("logarithm:bc", -math.log(2.0 - sb)),
        ("logarithm:projection", -math.log(2.0 - sp)),
    )
    for token, expected in cases:
        spec = parse_kernel_token(token, 1)
        np.testing.assert_allclose(evaluate(spec, x, y), expected,
                                   rtol=1e-13, err_msg=token)


def test_two_angle_closed_forms():
    rng = np.random.default_rng(11)
    t1, t2 = 0.4, 1.1
    x, y = subspace_pair_with_angles(4, 2, [t1, t2], rng)
    sb = math.cos(t1) * math.cos(t2)
    sp = math.cos(t1) ** 2 + math.cos(t2) ** 2
    checks = (
        ("rbf:bc:beta=2.0", math.exp(2.0 * sb)),
        ("laplace:projection:beta=0.7",
         math.exp(-0.7 * math.sqrt(2.0 - sp))),
        ("logarithm:bc", -math.log(2.0 - sb)),
        ("logarithm:projection", -math.log(3.0 - sp)),
    )
    for token, expected in checks:
        spec = parse_kernel_token(token, 2)
        np.testing.assert_allclose(evaluate(spec, x, y), expected,
                                   rtol=0, atol=1e-9, err_msg=token)


def test_evaluate_dimension_guards():
    spec = parse_kernel_token("linear:bc", 1)
    a = line(0.3)
    b = Subspace(np.eye(3)[:, :1])
    with pytest.raises(ValueError, match="different manifolds"):
        evaluate(spec, a, b)
    wide = parse_kernel_token("linear:bc", 2)
    with pytest.raises(ValueError, match="configured for p=2"):
        evaluate(wide, a, line(0.5))


def test_basis_invariance_across_catalog():
    """Kernel values must not depend on which basis represents a subspace."""
    rng = np.random.default_rng(42)
    pairs = [(grassmann.random_subspace(6, 2, rng),
              grassmann.random_subspace(6, 2, rng)) for _ in range(5)]
    for token in CATALOG:
        spec = parse_kernel_token(token, 2)
        for x, y in pairs:
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            y2 = Subspace(y.basis @ q)
            np.testing.assert_allclose(evaluate(spec, x, y2),
                                       evaluate(spec, x, y),
                                       rtol=0, atol=1e-10, err_msg=token)


def test_baseline_matches_squared_linear():
    """The determinant baseline is exactly the squared linear value."""
    pts = random_points(10, 6, 2, 5)
    gb = gram(parse_kernel_token("baseline:bc", 2), pts)
    gl = gram(parse_kernel_token("linear:bc", 2), pts)
    assert np.array_equal(gb.values, np.square(gl.values))
    gbp = gram(parse_kernel_token("baseline:projection", 2), pts)
    glp = gram(parse_kernel_token("linear:projection", 2), pts)
    assert np.array_equal(gbp.values, glp.values)


# ---------------------------------------------------------------- gram


def test_gram_symmetry_and_diagonal():
    pts = random_points(8, 5, 2, 7)
    g = gram(parse_kernel_token("rbf:projection:beta=0.5", 2), pts)
    assert np.array_equal(g.values, g.values.T)
    np.testing.assert_allclose(np.diag(g.values), math.exp(1.0), rtol=1e-12)
    g2 = gram(parse_kernel_token("linear:bc", 2), pts)
    np.testing.assert_allclose(np.diag(g2.values), 1.0, rtol=1e-12)
    assert g.n == 8


def test_gram_input_guards():
    spec = parse_kernel_token("linear:bc", 2)
    with pytest.raises(ValueError, match="at least one subspace"):
        gram(spec, [])
    mixed = [grassmann.random_subspace(5, 2, np.random.default_rng(0)),
             grassmann.random_subspace(6, 2, np.random.default_rng(1))]
    with pytest.raises(ValueError, match="different manifolds"):
        gram(spec, mixed)


def test_cross_gram_guards():
    spec = parse_kernel_token("rbf:projection:beta=0.5", 2)
    pts = random_points(3, 5, 2, 4)
    other = random_points(2, 6, 2, 5)
    for queries, refs, message in (
            (pts, other, "different manifolds"),
            (pts + other, pts, "different manifolds"),
            ([], pts, "at least one subspace"),
            (pts, [], "at least one subspace")):
        with pytest.raises(ValueError, match=message):
            cross_gram(spec, queries, refs)
    with pytest.raises(ValueError, match="configured for p=3"):
        cross_gram(parse_kernel_token("linear:bc", 3), pts, pts)
    assert cross_gram(spec, pts[:1], pts).shape == (1, 3)


def test_similarity_matches_pair_products(monkeypatch):
    """Each batched entry is bit for bit the product of its pair alone."""
    for d, p, n in SHAPES:
        pts = random_points(n, d, p, [d, p, n])
        queries = pts[::3]
        for embedding in grassmann.EMBEDDINGS:
            expected = np.array([[pair_similarity(embedding, x, y)
                                  for y in pts] for x in queries])
            got = grassmann.similarity(embedding, queries, pts)
            assert np.array_equal(got, expected), (d, p, n, embedding)
            inner = {"bc": grassmann.bc_inner,
                     "projection": grassmann.proj_inner}[embedding]
            assert inner(queries[-1], pts[1]) == expected[-1, 1]
    with pytest.raises(ValueError):
        grassmann.similarity("chordal", pts, pts)
    # queries and refs of different lengths: 90 rows against 100 or 97
    # refs make an uneven last row block (22 and 21 rows per block at
    # p=2, d=100, since no block outgrows the 90-row result), 97 refs at p=2 and 31 at p=4 make column counts that are no
    # multiple of the padding width, then lines and the 1 x 1 case; each
    # again with a cap of a row or two per block
    cases = ((100, 2, 90, 100), (100, 2, 90, 97), (12, 4, 25, 31),
             (100, 1, 30, 37), (7, 3, 1, 1))
    for cap in (grassmann._BLOCK_ENTRIES, 1000):
        monkeypatch.setattr(grassmann, "_BLOCK_ENTRIES", cap)
        for d, p, n, m in cases:
            pts = random_points(n + m, d, p, [d, p, n, m])
            queries, refs = pts[:n], pts[n:]
            for embedding in grassmann.EMBEDDINGS:
                expected = np.array([[pair_similarity(embedding, x, y)
                                      for y in refs] for x in queries])
                got = grassmann.similarity(embedding, queries, refs)
                assert np.array_equal(got, expected), (cap, d, p, n, m)


def test_similarities_share_one_product_stack(monkeypatch):
    """Both embeddings from one call are bit for bit the one-embedding
    calls, from one product stack, in the order first named."""
    products = grassmann._products
    stacks = []

    def counting(xs, ys):
        stacks.append(len(xs))
        return products(xs, ys)

    monkeypatch.setattr(grassmann, "_products", counting)
    for d, p, n in SHAPES:
        pts = random_points(n, d, p, [d, p, n, 2])
        queries = pts[::2]
        stacks.clear()
        both = grassmann.similarities(("projection", "bc", "projection"),
                                      queries, pts)
        assert stacks == [len(queries)]
        assert list(both) == ["projection", "bc"]
        for embedding in grassmann.EMBEDDINGS:
            alone = grassmann.similarity(embedding, queries, pts)
            assert np.array_equal(both[embedding], alone), (d, p, embedding)
    with pytest.raises(ValueError, match="unknown embedding"):
        grassmann.similarities(("bc", "chordal"), pts, pts)


def test_geodesic_distances_match_pair_angles(monkeypatch):
    """Each arc length is bit for bit the norm of its pair's principal
    angles, across uneven row blocks, for lines and for p = 2 and 3."""
    for cap in (grassmann._BLOCK_ENTRIES, 100):
        monkeypatch.setattr(grassmann, "_BLOCK_ENTRIES", cap)
        for d, p, n, m in ((100, 2, 13, 30), (10, 3, 9, 14), (6, 1, 5, 7)):
            pts = random_points(n + m, d, p, [d, p, n, m, 1])
            queries, refs = pts[:n], pts[n:]
            expected = np.array([[np.linalg.norm(
                grassmann.principal_angles(x, y), axis=-1) for y in refs]
                for x in queries])
            got = grassmann.geodesic_distances(queries, refs)
            assert np.array_equal(got, expected), (cap, d, p)


def test_similarity_peak_allocation():
    """Products of a few rows at a time, each row block reduced to its
    similarity rows before the next, keep one n=500, p=2 similarity
    under 4 MiB of peak allocation: the 1.9 MiB result array, the 0.8
    MiB side-by-side ys bases, and one block's 0.25 MiB product and
    0.25 MiB reordered copy.  The peak measured 3.24 MiB, so the bound
    leaves about 0.75 MiB.  Holding the whole 7.6 MiB product stack took
    11.7 MiB, and one product for all rows 16.8 MB."""
    data = generate_planted(d=100, p=2, classes=50, per_class=10,
                            noise_angle=0.1, seed=0)
    for embedding in grassmann.EMBEDDINGS:
        tracemalloc.start()
        try:
            grassmann.similarity(embedding, data.subspaces, data.subspaces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, embedding


def test_product_blocks_never_outgrow_the_result():
    """Each row block of `_products`, and the matrix product behind it,
    holds at most the len(xs) len(ys) entries of the similarity matrix it
    fills, as well as at most _BLOCK_ENTRIES (or one row), on the lines
    path and the p > 1 path; the blocks cover the rows in order."""
    cap = grassmann._BLOCK_ENTRIES
    for d, p, n, m in ((100, 2, 100, 100), (100, 2, 40, 40),
                       (100, 2, 300, 300), (12, 4, 25, 31),
                       (100, 1, 30, 37), (100, 1, 300, 200), (7, 3, 1, 1)):
        pts = random_points(n + m, d, p, [d, p, n, m, 2])
        width = -(-m * p // grassmann._COLUMN_MULTIPLE) \
            * grassmann._COLUMN_MULTIPLE
        per_row = m if p == 1 else width * p
        rows = [block.shape[0]
                for block in grassmann._products(pts[:n], pts[n:])]
        assert sum(rows) == n, (d, p, n, m)
        for count in rows:
            assert count == 1 or count * per_row <= min(cap, n * m), \
                (d, p, n, m, rows)
        # and no smaller than the caps make them
        assert rows[0] == min(n, max(1, min(cap, n * m) // per_row))


def test_mirror_matches_the_index_copy():
    """The masked mirror gives the bits of the lower-triangle index copy
    it replaced, signed zeros included."""
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 40):
        values = rng.standard_normal((n, n))
        values[rng.random((n, n)) < 0.2] = -0.0
        reference = values.copy()
        lower = np.tril_indices(n, -1)
        reference[lower] = reference.T[lower]
        got = kernels._mirror_upper(values)
        assert got is values
        assert np.array_equal(got.view(np.uint64),
                              reference.view(np.uint64)), n


def test_catalog_gram_matches_pair_loop():
    """Vectorized maps stay within 1e-15 of the scalar math loop.

    The similarities are bit-identical; numpy's array exp, log and power
    may differ from math's by an ulp (about 2.2e-16 relative).
    """
    for d, p, n in SHAPES:
        pts = random_points(n, d, p, [d, p, n])
        for spec in kernels.catalog(p):
            np.testing.assert_allclose(gram(spec, pts).values,
                                       pair_loop_gram(spec, pts),
                                       rtol=1e-15, atol=0,
                                       err_msg=spec.label())


def test_gram_entries_equal_evaluate():
    pts = random_points(12, 6, 2, 8)
    for token in CATALOG:
        spec = parse_kernel_token(token, 2)
        values = gram(spec, pts).values
        for i in range(12):
            for j in range(i, 12):
                assert values[i, j] == evaluate(spec, pts[i], pts[j]), token


def test_grams_share_one_similarity_per_embedding(monkeypatch):
    """The grouped path matches the one-spec path and the mirrored
    cross_gram bit for bit, from one similarities call that covers both
    embeddings."""
    pts = random_points(40, 8, 2, 11)
    catalog = kernels.catalog(2)
    calls = []
    similarities = grassmann.similarities

    def counting(embeddings, xs, ys):
        calls.append(set(embeddings))
        return similarities(embeddings, xs, ys)

    monkeypatch.setattr(grassmann, "similarities", counting)
    # duplicates collapse, first-seen order is kept
    got = grams(catalog + catalog[::-1], pts)
    assert calls == [{"bc", "projection"}]
    assert got.specs == catalog
    upper = np.triu(np.ones((40, 40), dtype=bool))
    for spec in catalog:
        c = cross_gram(spec, pts, pts)
        assert np.array_equal(got[spec].values, np.where(upper, c, c.T))
        assert np.array_equal(got[spec].values, gram(spec, pts).values)
    for a in catalog:
        for b in catalog:
            if a != b:
                assert not np.shares_memory(got[a].values, got[b].values)
    assert grams([], pts).specs == []
    with pytest.raises(ValueError, match="configured for p=3"):
        grams(catalog[:1], pts)[parse_kernel_token("linear:bc", 3)]


def test_take_submatrix_contract():
    spec = parse_kernel_token("rbf:projection:beta=0.5", 2)
    for n, idx in ((6, [0, 2, 5]), (40, [1, 2, 7, 8, 9, 20, 33, 39])):
        pts = random_points(n, 5, 2, 9)
        idx = np.array(idx)
        full = gram(spec, pts)
        sub = full.take(idx)
        assert np.array_equal(sub.values, full.values[np.ix_(idx, idx)])
        # bitwise identical to assembling the subset from scratch
        direct = gram(spec, [pts[i] for i in idx])
        assert np.array_equal(sub.values, direct.values)
    with pytest.raises(ValueError, match="nonempty vector"):
        full.take(np.array([], dtype=np.intp))
    with pytest.raises(ValueError, match="nonempty vector"):
        full.take(np.array([[0, 1]]))


def test_gram_matrix_guards():
    with pytest.raises(ValueError, match="exactly symmetric"):
        GramMatrix(np.array([[1.0, 0.1], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="must be square"):
        GramMatrix(np.zeros((2, 3)))
    g = GramMatrix(np.eye(2))
    with pytest.raises(ValueError):
        g.values[0, 0] = 2.0  # stored entries are frozen


# -------------------------------------------------------- certification


def test_certify_pd_fixtures():
    ident = GramMatrix(np.eye(3))
    rep = certify_pd(ident)
    assert rep.passed and rep.mode == "pd"
    np.testing.assert_allclose([rep.min_eigenvalue, rep.max_eigenvalue],
                               [1.0, 1.0], rtol=1e-12)
    flipped = certify_pd(GramMatrix(np.diag([1.0, -1.0])))
    assert not flipped.passed
    with pytest.raises(ValueError):
        certify_pd(ident, mode="positive")


def test_certify_cpd_accepts_negative_squared_distances():
    # -(squared distances of points 0, 1, 2 on a line): conditionally pd
    # on zero-sum weights but indefinite as a plain matrix
    m = -np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
    g = GramMatrix(m)
    assert certify_pd(g, mode="cpd").passed
    assert not certify_pd(g, mode="pd").passed


def test_four_lines_spectrum():
    """Exact circulant eigenvalues for |cos| on four equally spaced lines.

    The absolute-cosine matrix has first row (1, c, 0, c) with
    c = sqrt(2)/2, hence eigenvalues 1 + 2c, 1, 1, 1 - 2c; the smallest
    is 1 - sqrt(2) < 0, so the determinant-similarity linear kernel is
    not positive definite.  Exponentiating does not repair it at scale 1:
    the alternating eigenvalue of exp(|cos|) is e - 2 exp(c) + 1 < 0.
    """
    pts = four_lines()
    g = gram(parse_kernel_token("linear:bc", 1), pts)
    lo = float(np.linalg.eigvalsh(g.values)[0])
    np.testing.assert_allclose(lo, 1.0 - math.sqrt(2.0), rtol=0, atol=1e-12)
    assert not certify_pd(g).passed
    g2 = gram(parse_kernel_token("rbf:bc:beta=1.0", 1), pts)
    lo2 = float(np.linalg.eigvalsh(g2.values)[0])
    expected = math.e - 2.0 * math.exp(math.sqrt(2.0) / 2.0) + 1.0
    np.testing.assert_allclose(lo2, expected, rtol=0, atol=1e-12)
    assert not certify_pd(g2).passed


def test_laplace_bc_witness():
    """The laplace kernel on the determinant embedding is not positive
    definite: at beta=0.5, 400 uniform points of G(2, 4) give a Gram whose
    smallest eigenvalue is about -1.25e-3 of its largest, far below
    roundoff."""
    rng = np.random.default_rng([4, 2, 7])
    pts = [grassmann.random_subspace(4, 2, rng) for _ in range(400)]
    spec = parse_kernel_token("laplace:bc:beta=0.5", 2)
    assert spec.theory == "indefinite"
    report = certify_pd(gram(spec, pts))
    assert report.min_eigenvalue < -1e-6 * report.max_eigenvalue
    assert not report.passed


def test_certification_regression_on_sampled_subspaces():
    """Certification verdicts on a fixed 60-point sample.

    Projection-side kernels certify in their natural mode; on the
    determinant side the linear kernel is indefinite and the logarithm
    fails even conditionally, while the laplace and squared-baseline
    forms survive this sample.
    """
    pts = [grassmann.random_subspace(8, 2, np.random.default_rng([3, i]))
           for i in range(60)]
    grams = {}

    def verdict(token):
        spec = parse_kernel_token(token, 2)
        grams[token] = gram(spec, pts)
        return certify_pd(grams[token], mode=spec.certification_mode)

    assert not verdict("linear:bc").passed
    assert not verdict("logarithm:bc").passed
    assert verdict("laplace:bc:beta=1.0").passed
    assert verdict("baseline:bc").passed
    for token in ("baseline:projection", "linear:projection",
                  "polynomial:projection:alpha=2:beta=0.5",
                  "rbf:projection:beta=0.5", "laplace:projection:beta=0.5",
                  "binomial:projection:alpha=1.0:beta=3.0",
                  "logarithm:projection"):
        assert verdict(token).passed, token
    # the indefinite sample is far outside roundoff
    rep = certify_pd(grams["linear:bc"])
    assert rep.min_eigenvalue < -1e-3 * rep.max_eigenvalue


def test_geodesic_pseudo_kernel():
    x, y = line(0.0), line(0.6)
    assert geodesic_gaussian(x, x) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(geodesic_gaussian(x, y),
                               geodesic_gaussian(y, x), rtol=1e-12)
    np.testing.assert_allclose(geodesic_gaussian(x, y), math.exp(-0.36),
                               rtol=1e-10)


def test_counterexample_gram():
    """Four subspaces witness the geodesic Gaussian's indefiniteness."""
    g = counterexample_gram()
    assert g.n == 4
    rep = certify_pd(g)
    assert not rep.passed
    assert -0.0043 < rep.min_eigenvalue < -0.0033
    assert rep.max_eigenvalue > 0.0
    np.testing.assert_allclose(rep.min_eigenvalue, -0.0038326472116467537,
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.diag(g.values), 1.0, rtol=1e-12)
    # the batched arc lengths are the pairwise ones bit for bit
    pts = counterexample_subspaces()
    distances = grassmann.geodesic_distances(pts, pts)
    assert all(distances[i, j] == grassmann.geodesic_distance(x, y)
               for i, x in enumerate(pts) for j, y in enumerate(pts))
    np.testing.assert_allclose(
        g.values, [[geodesic_gaussian(x, y) for y in pts] for x in pts],
        rtol=1e-15, atol=0)
