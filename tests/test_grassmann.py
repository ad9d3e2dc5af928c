"""Subspace geometry checks.

Planar pairs (one-dimensional subspaces of the plane) give closed-form
values for every quantity, so most expected numbers here come straight
from trigonometry.  Higher-dimensional identities are checked against
constructions with known principal angles.
"""

import math

import numpy as np
import pytest

from grasskernels import numerics
from grasskernels.grassmann import (Subspace, bc_inner, compound_matrix,
                                    curve_length_ratio, geodesic_distance,
                                    plucker_embed, principal_angles,
                                    proj_inner, random_subspace,
                                    subspace_pair_with_angles, tilt_subspace,
                                    tilted_bases)


def line(t):
    """The span of (cos t, sin t) in the plane."""
    return Subspace([[math.cos(t)], [math.sin(t)]])


def bc_distance_sq(x, y):
    """Squared chordal distance of the determinant similarity."""
    return 2.0 - 2.0 * bc_inner(x, y)


def proj_distance_sq(x, y):
    """Squared distance between orthogonal projectors."""
    return 2.0 * x.p - 2.0 * proj_inner(x, y)


def haar_rotation(p, rng):
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


class TestSubspace:
    def test_copies_and_freezes_basis(self):
        source = np.eye(3)[:, :2]
        x = Subspace(source)
        source[0, 0] = 7.0
        assert x.basis[0, 0] == 1.0
        with pytest.raises(ValueError):
            x.basis[0, 0] = 5.0

    def test_dimension_bounds(self):
        with pytest.raises(ValueError, match="subspace dimensions need"):
            Subspace(np.eye(3))  # p == d
        with pytest.raises(ValueError, match="subspace dimensions need"):
            Subspace(np.eye(3, 4))  # p > d

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace([[1.0], [1.0]])
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace([[2.0], [0.0]])

    def test_equality_is_span_equality(self):
        rng = np.random.default_rng(5)
        x = random_subspace(6, 2, rng)
        assert x == Subspace(x.basis @ haar_rotation(2, rng))
        assert x != random_subspace(6, 2, rng)
        assert x != random_subspace(7, 2, rng)  # different manifold
        assert x.__hash__ is None

    def test_projector(self):
        rng = np.random.default_rng(6)
        x = random_subspace(5, 2, rng)
        pi = x.projector()
        np.testing.assert_allclose(pi, pi.T, atol=1e-14)
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)
        np.testing.assert_allclose(np.trace(pi), 2.0, atol=1e-12)

    def test_axis_span_projector(self):
        x = Subspace([[1.0], [0.0]])
        np.testing.assert_allclose(x.projector(), [[1.0, 0.0], [0.0, 0.0]],
                                   atol=1e-15)


class TestPrincipalAngles:
    def test_planar_angle_recovered(self):
        for t in (0.0, 0.1, math.pi / 6, math.pi / 3, math.pi / 2):
            angles = principal_angles(line(0.0), line(t))
            np.testing.assert_allclose(angles, [t], atol=1e-12)

    def test_constructed_pair_recovers_angles(self):
        rng = np.random.default_rng(7)
        target = np.array([0.2, 0.9])
        x, y = subspace_pair_with_angles(6, 2, target, rng)
        got = principal_angles(x, y)
        np.testing.assert_allclose(got, target, atol=1e-10)

    def test_identical_subspaces_give_zeros(self):
        rng = np.random.default_rng(8)
        x = random_subspace(5, 2, rng)
        np.testing.assert_allclose(principal_angles(x, x), 0.0,
                                   atol=1e-7)

    def test_self_angles_show_arccos_roundoff(self):
        """The sample the `principal_angles` docstring cites: roundoff in
        the cosines of a subspace against itself becomes angles of order
        1e-8 under arccos."""
        rng = np.random.default_rng(0)
        largest = np.array([principal_angles(x, x).max() for x in
                            (random_subspace(10, 3, rng) for _ in range(200))])
        assert np.count_nonzero(largest) == 151
        assert f"{largest.max():.2g}" == "4.2e-08"

    def test_orthogonal_lines(self):
        x = Subspace([[1.0], [0.0], [0.0]])
        y = Subspace([[0.0], [1.0], [0.0]])
        np.testing.assert_allclose(principal_angles(x, y),
                                   [math.pi / 2], atol=1e-12)

    def test_manifold_mismatch_raises(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="different manifolds"):
            principal_angles(random_subspace(5, 2, rng),
                             random_subspace(6, 2, rng))
        with pytest.raises(TypeError):
            principal_angles(np.eye(3)[:, :1], np.eye(3)[:, :1])


class TestInnerProductsAndDistances:
    def test_planar_closed_forms(self):
        t = 0.7
        x, y = line(0.0), line(t)
        np.testing.assert_allclose(bc_inner(x, y), math.cos(t), atol=1e-14)
        np.testing.assert_allclose(proj_inner(x, y), math.cos(t) ** 2,
                                   atol=1e-14)
        np.testing.assert_allclose(bc_distance_sq(x, y),
                                   2.0 - 2.0 * math.cos(t), atol=1e-14)
        np.testing.assert_allclose(proj_distance_sq(x, y),
                                   2.0 - 2.0 * math.cos(t) ** 2, atol=1e-14)
        np.testing.assert_allclose(geodesic_distance(x, y), t, atol=1e-12)

    def test_angle_identities(self):
        # sum of squared cosines and squared product of cosines
        rng = np.random.default_rng(17)
        for _ in range(200):
            x = random_subspace(7, 3, rng)
            y = random_subspace(7, 3, rng)
            cosines = np.cos(principal_angles(x, y))
            np.testing.assert_allclose(proj_inner(x, y),
                                       float(np.sum(cosines ** 2)),
                                       atol=1e-10)
            np.testing.assert_allclose(bc_inner(x, y) ** 2,
                                       float(np.prod(cosines ** 2)),
                                       atol=1e-10)

    def test_basis_invariance(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            x = random_subspace(6, 2, rng)
            y = random_subspace(6, 2, rng)
            xr = Subspace(x.basis @ haar_rotation(2, rng))
            yr = Subspace(y.basis @ haar_rotation(2, rng))
            np.testing.assert_allclose(bc_inner(xr, yr), bc_inner(x, y),
                                       atol=1e-10)
            np.testing.assert_allclose(proj_inner(xr, yr), proj_inner(x, y),
                                       atol=1e-10)

    def test_projector_distance_oracle(self):
        rng = np.random.default_rng(19)
        x = random_subspace(6, 2, rng)
        y = random_subspace(6, 2, rng)
        explicit = np.sum((x.projector() - y.projector()) ** 2)
        np.testing.assert_allclose(proj_distance_sq(x, y), explicit,
                                   atol=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            x, y, z = (random_subspace(5, 2, rng) for _ in range(3))
            for dist in (bc_distance_sq, proj_distance_sq):
                dxy = math.sqrt(max(dist(x, y), 0.0))
                dxz = math.sqrt(max(dist(x, z), 0.0))
                dzy = math.sqrt(max(dist(z, y), 0.0))
                assert dxy <= dxz + dzy + 1e-10


class TestPluckerEmbedding:
    def test_standard_plane_coordinates(self):
        x = Subspace(np.eye(4)[:, :2])
        # row pairs in lexicographic order: (0,1) is the only unit minor
        np.testing.assert_allclose(plucker_embed(x),
                                   [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                                   atol=1e-15)

    def test_inner_product_matches_determinant(self):
        rng = np.random.default_rng(27)
        for d, p in ((4, 2), (6, 2), (6, 3)):
            for _ in range(20):
                x = random_subspace(d, p, rng)
                y = random_subspace(d, p, rng)
                px = plucker_embed(x)
                py = plucker_embed(y)
                np.testing.assert_allclose(abs(float(px @ py)),
                                           bc_inner(x, y), atol=1e-10)

    def test_cap_enforced(self):
        rng = np.random.default_rng(28)
        x = random_subspace(20, 10, rng)  # C(20,10) = 184756 coordinates
        with pytest.raises(ValueError, match="cap is"):
            plucker_embed(x)
        with pytest.raises(TypeError):
            plucker_embed(np.eye(3)[:, :1])


class TestCompoundMatrix:
    def test_order_one_is_the_matrix(self):
        rng = np.random.default_rng(33)
        m = rng.standard_normal((3, 4))
        np.testing.assert_allclose(compound_matrix(m, 1), m, atol=1e-15)

    def test_product_identity(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            a = rng.standard_normal((5, 4))
            b = rng.standard_normal((5, 4))
            left = compound_matrix(a.T @ b, 2)
            right = compound_matrix(a, 2).T @ compound_matrix(b, 2)
            np.testing.assert_allclose(left, right, atol=1e-10)

    def test_full_order_is_determinant(self):
        rng = np.random.default_rng(35)
        m = rng.standard_normal((3, 3))
        np.testing.assert_allclose(compound_matrix(m, 3),
                                   [[numerics.determinant(m)]], atol=1e-12)

    def test_column_of_minors_matches_embedding(self):
        rng = np.random.default_rng(36)
        x = random_subspace(5, 2, rng)
        column = compound_matrix(x.basis, 2)[:, 0]
        embedded = plucker_embed(x)
        np.testing.assert_allclose(column / np.linalg.norm(column), embedded,
                                   atol=1e-12)

    def test_bad_order_raises(self):
        with pytest.raises(ValueError, match="minor order"):
            compound_matrix(np.eye(3), 0)
        with pytest.raises(ValueError, match="minor order"):
            compound_matrix(np.eye(3), 4)
        with pytest.raises(ValueError, match="cap is"):
            compound_matrix(np.eye(30), 15)


class TestCurveLengthRatio:
    def test_planar_closed_form(self):
        t = math.pi / 3
        expected = (2.0 - 2.0 * math.cos(t) ** 2) / t ** 2  # 13.5 / pi^2
        got = curve_length_ratio(line(0.0), line(t))
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, 13.5 / math.pi ** 2, atol=1e-12)

    def test_small_angle_limit_planar(self):
        got = curve_length_ratio(line(0.0), line(1e-4))
        assert abs(got - 2.0) <= 1e-7

    def test_small_angle_limit_two_angles(self):
        rng = np.random.default_rng(44)
        x, y = subspace_pair_with_angles(4, 2, np.array([1e-4, 1e-4]), rng)
        got = curve_length_ratio(x, y)
        assert abs(got - 2.0) <= 1e-6

    def test_identical_subspaces_raise(self):
        rng = np.random.default_rng(45)
        x = random_subspace(5, 2, rng)
        with pytest.raises(ValueError, match="undefined for identical"):
            curve_length_ratio(x, x)


class TestConstructions:
    def test_random_subspace_is_valid_and_seeded(self):
        a = random_subspace(6, 2, np.random.default_rng(50))
        b = random_subspace(6, 2, np.random.default_rng(50))
        assert np.array_equal(a.basis, b.basis)
        with pytest.raises(ValueError, match="subspace dimensions need"):
            random_subspace(3, 3, np.random.default_rng(0))

    def test_pair_construction_guards(self):
        rng = np.random.default_rng(51)
        with pytest.raises(ValueError, match="need d >= 2p"):
            subspace_pair_with_angles(3, 2, np.array([0.1, 0.2]), rng)
        with pytest.raises(ValueError, match="need 2 angles"):
            subspace_pair_with_angles(6, 2, np.array([0.1]), rng)

    def test_tilt_realizes_angles(self):
        rng = np.random.default_rng(52)
        x = random_subspace(8, 2, rng)
        target = np.array([0.15, 0.3])
        y = tilt_subspace(x, target, rng)
        got = principal_angles(x, y)
        np.testing.assert_allclose(got, np.sort(target), atol=1e-10)

    def test_tilt_in_narrow_complement(self):
        # on 2-planes in R^3 only one direction can move
        rng = np.random.default_rng(53)
        x = random_subspace(3, 2, rng)
        y = tilt_subspace(x, np.array([0.2, 0.4]), rng)
        got = principal_angles(x, y)
        np.testing.assert_allclose(got, [0.0, 0.2], atol=1e-7)

    def test_tilt_matches_the_one_basis_maths(self):
        """tilt_subspace, the stack-of-one call of tilted_bases, gives
        bit for bit the basis of the 2-D steps it replaced."""
        for d, p, seed in ((8, 2, 55), (3, 2, 56), (4, 3, 57), (6, 1, 58)):
            rng = np.random.default_rng(seed)
            x = random_subspace(d, p, rng)
            angles = rng.uniform(0.0, 0.5, size=p)
            state = rng.bit_generator.state
            k = min(p, d - p)
            raw = rng.standard_normal((d, k))
            raw -= x.basis @ (x.basis.T @ raw)
            normals = numerics.orthonormalize(raw)
            expected = x.basis.copy()
            expected[:, :k] = (expected[:, :k] * np.cos(angles[:k])
                               + normals * np.sin(angles[:k]))
            rng.bit_generator.state = state
            assert np.array_equal(tilt_subspace(x, angles, rng).basis,
                                  expected), (d, p)

    def test_tilted_stack_matches_each_basis_alone(self):
        rng = np.random.default_rng(59)
        for d, p in ((8, 2), (3, 2), (4, 3), (9, 4)):
            k = min(p, d - p)
            bases = np.stack([random_subspace(d, p, rng).basis
                              for _ in range(6)])
            angles = rng.uniform(0.0, 1.0, size=(6, p))
            draws = rng.standard_normal((6, d, k))
            tilted = tilted_bases(bases, angles, draws)
            for i in range(6):
                assert np.array_equal(tilted[i], tilted_bases(
                    bases[i:i + 1], angles[i:i + 1], draws[i:i + 1])[0])
            # the columns past k keep their prototype's values
            assert np.array_equal(tilted[:, :, k:], bases[:, :, k:])

    def test_tilt_guards(self):
        rng = np.random.default_rng(54)
        x = random_subspace(5, 2, rng)
        with pytest.raises(ValueError, match="need 2 angles"):
            tilt_subspace(x, np.array([0.1]), rng)
        with pytest.raises(TypeError):
            tilt_subspace(np.eye(3)[:, :1], np.array([0.1]), rng)
