import importlib.util
import itertools
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from conelab import polytopes
from conelab.cones import Status
from conelab.polytopes import (
    LP_BLOCKS,
    LP_TOL,
    Polytope,
    TensorFunctional,
    _block_lps,
    _distance_rows,
    _exact_distances,
    _min_distance_lp,
    _simplex,
    _start_bases,
    affine_dimension,
    barker_gap,
    double_description,
    functional_from_flat,
    gap_among,
    max_tensor_membership,
    max_tensor_polytope,
    min_tensor,
    min_tensor_membership,
    non_vertices,
    positive_ray_generators,
    relative_bound,
    simplex,
    square,
)
from conelab.serialize import to_json


def ray_values_at_vertices(rays, k):
    aug = np.hstack([k.vertices, np.ones((k.n_vertices, 1))])
    return rays @ aug.T  # (n_rays, n_vertices)


def in_conic_hull(ray, others, tol=1e-9):
    """LP feasibility: ray = sum_j lam_j others_j with lam >= 0."""
    if len(others) == 0:
        return False
    res = linprog(
        np.zeros(len(others)),
        A_eq=np.array(others).T,
        b_eq=ray,
        bounds=[(0, None)] * len(others),
        method="highs",
    )
    return res.status == 0


class TestElementary:
    def test_simplex_zero_is_a_point(self):
        s = simplex(0)
        assert s.n_vertices == 1
        assert affine_dimension(s) == 0

    def test_simplex_counts(self):
        assert simplex(1).n_vertices == 2
        assert simplex(2).n_vertices == 3
        assert affine_dimension(simplex(2)) == 2

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Polytope(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_affine_dimension_examples(self):
        assert affine_dimension(square()) == 2
        assert affine_dimension(simplex(3)) == 3

    def test_affine_dimension_of_square_tensor(self):
        assert affine_dimension(min_tensor(square(), square())) == 8


class TestMinTensor:
    def test_simplex_pair_counts(self):
        t = min_tensor(simplex(1), simplex(2))
        assert t.n_vertices == 6
        assert affine_dimension(t) == 5  # affinely independent

    def test_point_factor_is_neutral(self):
        for k in (square(), simplex(2)):
            t = min_tensor(k, simplex(0))
            assert t.n_vertices == k.n_vertices

    def test_square_pair(self):
        t = min_tensor(square(), square())
        assert t.n_vertices == 16
        assert affine_dimension(t) == 8

    @pytest.mark.parametrize(
        "k1,k2,d1,d2",
        [
            (simplex(1), simplex(1), 1, 1),
            (simplex(1), simplex(2), 1, 2),
            (square(), simplex(1), 2, 1),
            (square(), square(), 2, 2),
        ],
    )
    def test_dimension_formula(self, k1, k2, d1, d2):
        t = min_tensor(k1, k2)
        assert affine_dimension(t) == (d1 + 1) * (d2 + 1) - 1

    def test_affinely_independent_products_of_simplexes(self):
        for n, m in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            t = min_tensor(simplex(n), simplex(m))
            assert affine_dimension(t) == t.n_vertices - 1

    def test_normalization_entry(self):
        t = min_tensor(square(), simplex(1))
        for flat in t.vertices:
            phi = functional_from_flat(flat, square(), simplex(1))
            assert phi.matrix[-1, -1] == pytest.approx(1.0, abs=1e-15)


def to_e_last(u):
    """The Householder reflection Q (orthogonal and symmetric) with
    Q u = |u| e_last: the change of variables y -> Q y takes a cone
    {y : A y >= 0} with interior point u to {y : A Q y >= 0}, whose
    interior holds e_last as double_description requires."""
    w = u / np.linalg.norm(u) - np.eye(len(u))[-1]
    ww = w @ w
    return np.eye(len(u)) - 2 * np.outer(w, w) / ww if ww > 1e-30 else np.eye(len(u))


class TestDoubleDescription:
    def test_orthant(self):
        q = to_e_last(np.ones(3))
        rays = double_description(np.eye(3) @ q)
        assert len(rays) == 3
        got = {tuple(np.round(r, 9)) for r in rays}
        assert got == {tuple(np.round(q @ e, 9)) for e in np.eye(3)}

    def test_redundant_inequality_ignored(self):
        a = np.vstack([np.eye(2), [[1.0, 1.0]]])
        rays = double_description(a @ to_e_last(np.ones(2)))
        assert len(rays) == 2

    def test_not_pointed_raises(self):
        with pytest.raises(ValueError, match="not pointed"):
            double_description(np.array([[1.0, 0.0]]) @ to_e_last(np.array([1.0, 0.0])))

    # Kronecker products of polygon cones are degenerate: many rows meet at
    # each ray.  Up to 16 rows, so that the brute force stays quick in 9-D.
    @pytest.mark.parametrize("k1,k2", [(3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (5, 3)])
    def test_kronecker_product_of_polygon_cones(self, k1, k2):
        rng = np.random.default_rng([32, k1, k2])
        a = np.kron(polygon_cone(k1, rng), polygon_cone(k2, rng))
        assert_same_rays(double_description(a), brute_force_rays(a))

    @pytest.mark.parametrize("seed", range(4))
    def test_two_dimensional_cone_has_two_rays(self, seed):
        # each added row cuts one ray or none; _adjacent's general test joins
        # the cut ray to the kept one, as its shared set is empty
        a = random_pointed_cone(np.random.default_rng([2, seed]), 2, 12)
        rays = double_description(a)
        assert len(rays) == 2
        assert_same_rays(rays, brute_force_rays(a))

    def test_more_rows_than_one_bitset_word(self):
        a = random_pointed_cone(np.random.default_rng(64), 3, 70)
        assert_same_rays(double_description(a), brute_force_rays(a))


def random_pointed_cone(rng, d, k):
    """k random rows in R^d, each with a.u >= 0.2 for one unit vector u: u is
    interior, and k >= d generic rows span, so the cone is pointed.  The rows
    are returned after the change of variables to_e_last(u), so e_last is
    the interior point."""
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    rows = rng.normal(size=(k, d))
    rows *= np.where(rows @ u < 0, -1.0, 1.0)[:, None]
    return (rows + 0.2 * u) @ to_e_last(u)


def brute_force_rays(a, tol=1e-9):
    """Unit null vectors of the rank-(d-1) row subsets that satisfy every
    inequality, de-duplicated."""
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    d = a.shape[1]
    found = []
    for rows in itertools.combinations(range(len(a)), d - 1):
        sub = a[list(rows)]
        if np.linalg.matrix_rank(sub, tol=1e-9) < d - 1:
            continue
        null = np.linalg.svd(sub)[2][-1]
        for r in (null, -null):
            if np.all(a @ r >= -tol) and not any(np.linalg.norm(r - f) < 1e-8 for f in found):
                found.append(r)
    return np.array(found)


def assert_same_rays(got, want):
    assert got.shape == want.shape
    for r in want:
        assert np.min(np.linalg.norm(got - r, axis=1)) < 1e-9


def polygon_cone(k, rng):
    """Rows (v, 1) of k random points v on the unit circle, no two arcs
    between them of pi or more: the cone of affine functions that are
    nonnegative on a k-gon around 0."""
    while True:
        t = np.sort(rng.uniform(0, 2 * np.pi, k))
        if np.diff(np.append(t, t[0] + 2 * np.pi)).max() < np.pi:
            return np.column_stack([np.cos(t), np.sin(t), np.ones(k)])


def regular_polygon(k):
    angles = 2 * np.pi * np.arange(k) / k
    return Polytope(np.column_stack([np.cos(angles), np.sin(angles)]))


def affine_polygon(k, rng):
    """Regular k-gon under a seeded rotation, axis scaling and shift."""
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    m = q @ np.diag(rng.uniform(0.7, 1.4, size=2))
    return Polytope(regular_polygon(k).vertices @ m.T + rng.uniform(-1, 1, size=2))


class TestQhullDoubleDescription:
    """Brute-force checks on generic cones.  The name is that of the Qhull
    enumerator double_description once wrapped, kept so that the test ids
    stay stable."""

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        d = 2 + seed % 3
        a = random_pointed_cone(rng, d, int(rng.integers(d, 11)))
        got = double_description(a)
        want = brute_force_rays(a)
        assert got.shape == want.shape
        for r in want:
            assert np.min(np.linalg.norm(got - r, axis=1)) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_rays_are_extreme(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = 2 + seed % 3
        a = random_pointed_cone(rng, d, 10)
        unit = a / np.linalg.norm(a, axis=1, keepdims=True)
        rays = double_description(a)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)
        for r in rays:
            vals = unit @ r
            assert vals.min() >= -1e-9
            assert np.linalg.matrix_rank(unit[np.abs(vals) <= 1e-9], tol=1e-9) == d - 1

    def test_lexsorted(self):
        rays = double_description(random_pointed_cone(np.random.default_rng(7), 4, 9))
        order = np.lexsort(np.round(rays, 9).T[::-1])
        assert np.array_equal(order, np.arange(len(rays)))

    def test_one_dimensional_cone_is_a_sign(self):
        assert double_description(np.array([[2.0], [0.5]])).tolist() == [[1.0]]

    @pytest.mark.parametrize(
        "a",
        [
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
            [[1.0], [-1.0]],
        ],
    )
    def test_empty_interior_raises(self, a):
        with pytest.raises(ValueError, match="e_last is not interior"):
            double_description(np.array(a))

    def test_zero_row_raises(self):
        with pytest.raises(ValueError, match="e_last is not interior"):
            double_description(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("a", [np.eye(3), [[-3.0]]], ids=["orthant-boundary", "negative-1d"])
    def test_e_last_outside_the_interior_raises(self, a):
        with pytest.raises(ValueError, match="e_last is not interior"):
            double_description(np.array(a))


class TestPolygonTensorCounts:
    @pytest.mark.parametrize("k,count", [(4, 24), (5, 135), (6, 552)])
    def test_polygon_pair_max_vertices(self, k, count):
        rng = np.random.default_rng(k)
        k1, k2 = affine_polygon(k, rng), affine_polygon(k, rng)
        assert max_tensor_polytope(k1, k2).n_vertices == count

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_triangle_factor_max_equals_min(self, k):
        rng = np.random.default_rng(10 + k)
        tri, other = affine_polygon(3, rng), affine_polygon(k, rng)
        assert max_tensor_polytope(tri, other).n_vertices == 3 * k


def random_affine_image(k, rng):
    """The regular k-gon under x |-> s R diag(d) R' x + b: R and R' random
    rotations or reflections, s = 10^U(-3, 3), diag(d) of condition number
    at most 100, and |b| <= 10^3 s."""
    r, r2 = (np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in range(2))
    s = 10.0 ** rng.uniform(-3, 3)
    m = s * r @ np.diag(10.0 ** rng.uniform(-1, 1, size=2)) @ r2
    b = 1e3 * s * rng.uniform(-1, 1, size=2) / np.sqrt(2)
    return Polytope(regular_polygon(k).vertices @ m.T + b)


class TestAffineInvariance:
    """Both tensor products, and so their vertex counts, do not depend on
    the factors' affine coordinates."""

    REGULAR_PAIR_COUNT = {3: 9, 4: 24, 5: 135, 6: 552}

    # draws 6 and 19 have degenerate maximal vertices at which Qhull, the
    # former enumerator, returned copies, and 195 and 211 ones at which it
    # returned points on edges
    @pytest.mark.parametrize("seed", [*range(24), 195, 211])
    def test_random_affine_images_of_regular_polygons(self, seed):
        k = 3 + seed % 4
        rng = np.random.default_rng([18, seed])
        k1, k2 = random_affine_image(k, rng), random_affine_image(k, rng)
        assert len(positive_ray_generators(k1)) == len(positive_ray_generators(k2)) == k
        assert max_tensor_polytope(k1, k2).n_vertices == self.REGULAR_PAIR_COUNT[k]

    @pytest.mark.parametrize("name", ["x1e3", "x8e-5", "x1e6", "+100", "+1000", "+1e4"])
    def test_scaled_and_shifted_squares(self, name):
        k1, k2 = screening_pair(name)
        assert max_tensor_polytope(k1, k2).n_vertices == 24

    @pytest.mark.parametrize("scale", [
        1.0, 1e-3,
        pytest.param(8e-5, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5")),
    ])
    def test_scaled_square_gap_agrees_with_relative_bound(self, scale):
        # r = 0.5 at every scale; barker_gap's absolute LP tolerance reads every
        # distance of the 8e-5 square as <= LP_TOL, so it raises ValueError
        # ("membership LP failed ...") since the vertex counts prove a gap
        k = Polytope(square().vertices * scale)
        gap = barker_gap(k, k)
        r = relative_bound(min_tensor(k, k), max_tensor_polytope(k, k))
        assert (gap is None) == (r == 0.0)

    @pytest.mark.parametrize("scale, shift", [
        pytest.param(1e-2, 1000.0, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5")),
        (1e-3, 100.0),
        pytest.param(1e-4, 10.0, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5")),
        pytest.param(0.1, 3000.0, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5")),
    ])
    def test_small_far_shifted_square_relative_bound(self, scale, shift):
        # both minimal products have dimension 8 and r = 1/2; the chart LP
        # answers 0.50000000001 at x1e-3 +100 and 0.49999942 at x1e-2 +1000,
        # where the minimal product's own chart rounds off too much, and
        # 0.5000043 at x1e-4 +10 and 0.50000055 at x0.1 +3000, near the r of
        # the rounded minimal vertices
        k = Polytope(square().vertices * scale + shift)
        mn = min_tensor(k, k)
        assert affine_dimension(mn) == 8
        assert relative_bound(mn, max_tensor_polytope(k, k)) == pytest.approx(0.5, abs=1e-7)

    def test_small_shifted_square_gap_is_refused(self):
        # the square x1e-3 shifted by (100, 100): the maximal product has 24
        # vertices and the minimal 16, but every distance LP reads <= LP_TOL
        k = Polytope(square().vertices * 1e-3 + 100)
        with pytest.raises(ValueError, match="membership LP failed"):
            barker_gap(k, k)

    def test_far_shifted_min_tensor_dimension(self):
        # three genuine directions of the 16 vertices have relative singular
        # values near 7.5e-10 from a vertex, below the 1e-9 cut, and near
        # 1.2e-9 from the centroid, where affine_dimension anchors its chart
        k, _ = screening_pair("+1e4")
        assert affine_dimension(min_tensor(k, k)) == 8

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
    def test_small_far_shifted_min_tensor_dimension(self):
        # the square x1e-3 shifted by (1000, 1000): from the centroid the
        # three directions are near 1.2e-10, so affine_dimension says 5
        k = Polytope(square().vertices * 1e-3 + 1000)
        assert affine_dimension(min_tensor(k, k)) == 8

    def test_degenerate_factor_raises(self):
        # the unit square scaled by (1e-6, 1e6): an SVD at relative
        # precision 1e-9 sees a segment, on which the vertices pair up
        thin = Polytope(square().vertices * [1e-6, 1e6])
        with pytest.raises(ValueError, match="coincide in the unit chart"):
            positive_ray_generators(thin)
        with pytest.raises(ValueError, match="coincide in the unit chart"):
            max_tensor_polytope(thin, square())


class TestDuplicateDetection:
    def test_planted_duplicate_among_many(self):
        v = np.random.default_rng(3).normal(size=(500, 3))
        v[411] = v[42]
        with pytest.raises(ValueError, match="duplicate vertices at indices 42, 411"):
            Polytope(v)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="vertex coordinates must be finite"):
            Polytope([[0.0, 1.0], [bad, 0.0]])

    def test_overflowing_min_tensor_rejected(self):
        k = Polytope([[0.0, 1e200, 3.0]])
        with pytest.raises(ValueError, match="vertex coordinates must be finite"):
            min_tensor(k, k)

    def test_distinct_many_accepted(self):
        v = np.random.default_rng(3).normal(size=(500, 3))
        assert Polytope(v).n_vertices == 500


class TestRayGenerators:
    def test_segment(self):
        seg = Polytope(np.array([[0.0], [1.0]]))
        rays = positive_ray_generators(seg)
        # the functions x and 1 - x, as values at the two vertices
        vals = ray_values_at_vertices(rays, seg)
        assert sorted(tuple(np.round(v, 9)) for v in vals) == [(0.0, 1.0), (1.0, 0.0)]

    def test_square(self):
        rays = positive_ray_generators(square())
        assert len(rays) == 4
        want = {(-1.0, 0.0, 1.0), (0.0, -1.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)}
        got = {tuple(np.round(r, 9)) for r in rays}
        assert got == want

    def test_triangle_barycentric(self):
        rays = positive_ray_generators(simplex(2))
        assert len(rays) == 3
        vals = ray_values_at_vertices(rays, simplex(2))
        # each barycentric coordinate vanishes at two vertices, positive at one
        for row in vals:
            assert int(np.sum(np.abs(row) < 1e-9)) == 2
            assert int(np.sum(row > 1e-9)) == 1

    def test_rays_nonnegative_at_vertices(self):
        for k in (square(), simplex(1), simplex(2), simplex(3)):
            vals = ray_values_at_vertices(positive_ray_generators(k), k)
            assert vals.min() >= -1e-10

    def test_rays_are_extreme(self):
        for k in (square(), simplex(2)):
            rays = positive_ray_generators(k)
            vals = ray_values_at_vertices(rays, k)
            for i in range(len(rays)):
                others = [vals[j] for j in range(len(rays)) if j != i]
                assert not in_conic_hull(vals[i], others)

    def test_scale_limits(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            positive_ray_generators(Polytope(np.eye(5)))
        many = np.array([[np.cos(t), np.sin(t)] for t in np.linspace(0, 5, 13)])
        with pytest.raises(ValueError, match="vertex count"):
            positive_ray_generators(Polytope(many))


class TestMembership:
    def test_min_vertices_pass_both(self):
        k1, k2 = square(), square()
        t = min_tensor(k1, k2)
        for flat in t.vertices[:4]:
            phi = functional_from_flat(flat, k1, k2)
            assert max_tensor_membership(phi, k1, k2).status is Status.IN
            verdict = min_tensor_membership(phi, k1, k2)
            assert verdict.status is Status.IN
            # extreme points have a unique representation: the indicator
            w = verdict.certificate.weights
            assert np.max(w) == pytest.approx(1.0, abs=1e-7)

    def test_barycenter_in(self):
        k1, k2 = square(), simplex(1)
        t = min_tensor(k1, k2)
        phi = functional_from_flat(t.vertices.mean(axis=0), k1, k2)
        assert min_tensor_membership(phi, k1, k2).status is Status.IN
        assert max_tensor_membership(phi, k1, k2).status is Status.IN

    def test_negative_functional_out_of_max(self):
        k1, k2 = square(), square()
        t = min_tensor(k1, k2)
        v0, v1 = t.vertices[0], t.vertices[5]
        phi = functional_from_flat(2 * v0 - v1, k1, k2)  # affine, outside
        verdict = max_tensor_membership(phi, k1, k2)
        assert verdict.status is Status.OUT
        c = verdict.certificate
        assert c.value < -1e-9
        assert c.ray_left @ phi.matrix @ c.ray_right == pytest.approx(c.value, abs=1e-12)

    def test_out_of_min_gives_hyperplane(self):
        k1, k2 = square(), square()
        gap = barker_gap(k1, k2)
        hyp = gap.min_verdict.certificate
        mv = min_tensor(k1, k2).vertices
        assert (mv @ hyp.normal).max() <= hyp.offset + 1e-9
        assert hyp.normal @ gap.functional.flat - hyp.offset == pytest.approx(
            hyp.margin, abs=1e-9
        )
        assert hyp.margin > 1e-6


class TestMaxSideTieRule:
    """The square x square gap functional has eight ray pairs tied at 0
    (exactly, as the unit chart computes the rays); the certificate is the
    first of them in row-major order."""

    @pytest.fixture
    def square_gap(self):
        k1, k2 = square(), square()
        return barker_gap(k1, k2).functional, k1, k2

    def test_first_tied_pair_is_reported(self, square_gap):
        phi, k1, k2 = square_gap
        r1, r2 = positive_ray_generators(k1), positive_ray_generators(k2)
        vals = r1 @ phi.matrix @ r2.T
        assert np.sum(np.abs(vals) <= 1e-15) == 8 and vals.min() <= 0
        cert = max_tensor_membership(phi, k1, k2).certificate
        assert np.array_equal(cert.ray_left, r1[0]) and np.array_equal(cert.ray_right, r2[0])
        assert cert.value == vals[0, 0]

    def test_rays_moved_by_1e_15_keep_the_pair(self, square_gap, monkeypatch):
        phi, k1, k2 = square_gap
        r1, r2 = positive_ray_generators(k1), positive_ray_generators(k2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            m1 = r1 + 1e-15 * rng.choice([-1.0, 1.0], size=r1.shape)
            m2 = r2 + 1e-15 * rng.choice([-1.0, 1.0], size=r2.shape)
            monkeypatch.setattr(polytopes, "positive_ray_generators",
                                lambda k: m1 if k is k1 else m2)
            verdict = max_tensor_membership(phi, k1, k2)
            assert verdict.status is Status.IN
            cert = verdict.certificate
            assert np.array_equal(cert.ray_left, m1[0]) and np.array_equal(cert.ray_right, m2[0])

    def test_out_certificate_still_certifies_out(self):
        k1, k2 = square(), square()
        t = min_tensor(k1, k2)
        phi = functional_from_flat(2 * t.vertices[0] - t.vertices[5], k1, k2)
        r1, r2 = positive_ray_generators(k1), positive_ray_generators(k2)
        vals = r1 @ phi.matrix @ r2.T
        cert = max_tensor_membership(phi, k1, k2).certificate
        i, j = np.argwhere(vals <= vals.min() + LP_TOL)[0]
        assert cert.value == vals[i, j] < -LP_TOL


class TestMaxTensorPolytope:
    def test_square_square_counts(self):
        mx = max_tensor_polytope(square(), square())
        assert mx.n_vertices == 24

    def test_simplex_factor_collapses_to_min(self):
        for k1, k2 in [(simplex(1), simplex(1)), (simplex(2), square())]:
            mx = max_tensor_polytope(k1, k2)
            mn = min_tensor(k1, k2)
            assert mx.n_vertices == mn.n_vertices
            for flat in mx.vertices:
                phi = functional_from_flat(flat, k1, k2)
                assert min_tensor_membership(phi, k1, k2).status is Status.IN


def cube():
    return Polytope(np.array(list(itertools.product([0.0, 1.0], repeat=3))))


def octahedron():
    return Polytope(np.vstack([np.eye(3), -np.eye(3)]))


def triangular_prism():
    triangle = regular_polygon(3).vertices
    return Polytope(np.vstack([np.hstack([triangle, np.zeros((3, 1))]), np.hstack([triangle, np.ones((3, 1))])]))


def square_pyramid():
    return Polytope(np.vstack([square().vertices @ np.eye(2, 3), [0.5, 0.5, 1.0]]))


class TestSolidFactorCounts:
    @pytest.mark.parametrize("k1,k2,count", [
        (cube, square, 128),
        (octahedron, square, 48),
        (octahedron, lambda: regular_polygon(5), 390),
        (cube, lambda: regular_polygon(6), 2688),
        (square_pyramid, square, 28),
    ], ids=["cube-square", "octahedron-square", "octahedron-5gon", "cube-6gon", "pyramid-square"])
    def test_max_vertex_count(self, k1, k2, count):
        assert max_tensor_polytope(k1(), k2()).n_vertices == count


class TestNearDegenerateHexagon:
    """The hexagon on the angles sorted(default_rng(5).uniform(0, 2 pi, 6))
    of (cos t, 1.3 sin t), two of whose vertices are 0.018 rad apart, and
    the second 6-gon perfbench draws from default_rng([0, 206])."""

    HEXAGON = Polytope([
        [0.9431353593852195, 0.43213160339491336],
        [-0.2230544105008146, 1.2672477948790706],
        [-0.7432942580834515, 0.8696539895678567],
        [-0.995367377629595, -0.12498797622500903],
        [0.33875520457621455, -1.2231369098427087],
        [0.35606425654052465, -1.2147999153819824],
    ])
    PARTNER = Polytope([
        [1.4104050464766509, -1.1969966228180269],
        [2.249568663584682, -0.2926416972575839],
        [1.7643855305250586, 0.49194089154236376],
        [0.440038780357404, 0.3721685547818685],
        [-0.39912483675062704, -0.5321863707785743],
        [0.08605829630899653, -1.3167689595785226],
    ])

    def test_max_vertex_count(self):
        assert max_tensor_polytope(self.HEXAGON, self.PARTNER).n_vertices == 1620

    def test_paired_with_itself_no_vertex_is_split(self):
        # slacks of about 5e-9 sit near the tightness tolerance here; an
        # enumeration that split one vertex into two 1.5e-8 apart gave 1423
        verts = max_tensor_polytope(self.HEXAGON, self.HEXAGON).vertices
        assert len(verts) == 1422
        assert not cKDTree(verts).query_pairs(1e-6)

    def test_gap_certificates_verify(self):
        k1, k2 = self.HEXAGON, self.PARTNER
        gap = barker_gap(k1, k2)
        m = gap.functional.matrix
        r1, r2 = positive_ray_generators(k1), positive_ray_generators(k2)
        assert (r1 @ m @ r2.T).min() >= -LP_TOL
        ray = gap.max_verdict.certificate
        assert gap.max_verdict.status is Status.IN and ray.value >= -LP_TOL
        assert ray.ray_left @ m @ ray.ray_right == pytest.approx(ray.value, abs=1e-12)
        plane = gap.min_verdict.certificate
        assert gap.min_verdict.status is Status.OUT
        assert (min_tensor(k1, k2).vertices @ plane.normal).max() <= plane.offset + 1e-9
        assert plane.normal @ gap.functional.flat - plane.offset == pytest.approx(plane.margin, abs=1e-9)
        assert plane.margin > 1e-6


class TestBarkerGap:
    def test_square_square_gap(self):
        gap = barker_gap(square(), square())
        assert gap is not None
        assert gap.max_verdict.status is Status.IN
        assert gap.min_verdict.status is Status.OUT
        assert gap.margin > 1e-6

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("other", ["s1", "s2", "sq"])
    def test_simplex_factor_gives_none(self, k, other):
        partner = {"s1": simplex(1), "s2": simplex(2), "sq": square()}[other]
        assert barker_gap(simplex(k), partner) is None

    def test_gap_point_reproducible(self):
        a = barker_gap(square(), square())
        b = barker_gap(square(), square())
        assert np.array_equal(a.functional.matrix, b.functional.matrix)

    def test_square_square_tie_goes_to_first_vertex(self):
        mv = min_tensor(square(), square()).vertices
        verts = max_tensor_polytope(square(), square()).vertices
        dist = np.array([inf_norm_distance(v, mv) for v in verts])
        assert dist.max() == pytest.approx(1 / 12, abs=1e-9)
        tied = np.flatnonzero(np.abs(dist - 1 / 12) <= 1e-9)
        assert tied.tolist() == [8, 9, 12, 13, 16, 17, 18, 19]
        gap = barker_gap(square(), square())
        assert np.array_equal(gap.functional.flat, verts[8])

    def test_min_side_certificate_is_the_batched_row(self, monkeypatch):
        def resolve(*args, **kwargs):
            raise AssertionError("the gap vertex's distance LP was solved again")

        monkeypatch.setattr(polytopes, "min_tensor_membership", resolve)
        verts = max_tensor_polytope(square(), square()).vertices
        mv = min_tensor(square(), square()).vertices
        gap = barker_gap(square(), square())
        assert np.array_equal(gap.functional.flat, verts[8])
        assert gap.margin == pytest.approx(_min_distance_lp(verts, mv)[0].max(), abs=1e-12)

    @pytest.mark.parametrize("pair", ["square", "5-gon", "simplex"])
    def test_gap_among_prebuilt_max_is_barker_gap(self, pair):
        k1, k2 = {"square": (square(), square()),
                  "5-gon": (regular_polygon(5), regular_polygon(5)),
                  "simplex": (simplex(2), simplex(1))}[pair]
        got = gap_among(max_tensor_polytope(k1, k2), k1, k2)
        want = barker_gap(k1, k2)
        if pair == "simplex":
            assert got is None and want is None
        else:
            assert json.dumps(to_json(got)) == json.dumps(to_json(want))


class TestRelativeBound:
    def test_self_bound_zero(self):
        for k in (square(), min_tensor(simplex(1), simplex(1))):
            assert relative_bound(k, k) == pytest.approx(0.0, abs=1e-9)

    def test_square_pair_bound(self):
        mn = min_tensor(square(), square())
        mx = max_tensor_polytope(square(), square())
        r = relative_bound(mn, mx)
        assert 0.0 < r < 10.0
        assert r == pytest.approx(0.5, abs=1e-7)

    @pytest.mark.parametrize("k, want", [(5, (3 - np.sqrt(5)) / np.sqrt(5)), (6, 0.5)])
    def test_regular_polygon_pair_bound(self, k, want):
        kk = regular_polygon(k)
        assert relative_bound(min_tensor(kk, kk), max_tensor_polytope(kk, kk)) == pytest.approx(
            want, abs=1e-7)

    def test_one_svd_of_the_inner_vertices(self, monkeypatch):
        # the containment test reads the unit chart that the bounds build
        mn = min_tensor(square(), square())
        mx = max_tensor_polytope(square(), square())
        svd, calls = np.linalg.svd, [0]

        def counted(a, *args, **kwargs):
            calls[0] += np.shape(a) == mn.vertices.shape
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        relative_bound(mn, mx)
        assert calls[0] == 1

    def test_relative_bound_reads_the_inner_unit_chart(self, monkeypatch):
        # affine_dimension and the bounds read the one chart mn keeps
        mn = min_tensor(square(), square())
        mx = max_tensor_polytope(square(), square())
        chart, calls = polytopes._affine_chart, [0]

        def counted(*args):
            calls[0] += 1
            return chart(*args)

        monkeypatch.setattr(polytopes, "_affine_chart", counted)
        assert affine_dimension(mn) == 8
        assert relative_bound(mn, mx) == pytest.approx(0.5, abs=1e-9)
        assert calls[0] == 1

    def test_differing_hulls_error(self):
        seg = Polytope(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="affine hull"):
            relative_bound(seg, square())


class TestNesting:
    def test_min_vertices_inside_max(self):
        for k1, k2 in [(square(), square()), (simplex(2), square())]:
            t = min_tensor(k1, k2)
            for flat in t.vertices:
                phi = functional_from_flat(flat, k1, k2)
                assert max_tensor_membership(phi, k1, k2).status is Status.IN


class TestTensorFunctional:
    def test_requires_normalization(self):
        m = np.zeros((3, 3))
        with pytest.raises(ValueError, match="normalization"):
            TensorFunctional(m)


class TestArgumentGuards:
    @pytest.mark.parametrize("call, match", [
        (lambda: Polytope(np.empty((0, 2))), "nonempty 2-d array"),
        (lambda: Polytope([0.0, 1.0]), "nonempty 2-d array"),
        (lambda: TensorFunctional(np.array([0.0, 1.0])), "2-d coefficient matrix"),
        (lambda: simplex(-1), "n must be >= 0"),
        (lambda: affine_dimension(np.empty((0, 2))), "nonempty point list"),
    ], ids=["empty-vertex-list", "1-d-vertex-list", "1-d-functional", "simplex-minus-one",
            "affine-dimension-of-no-points"])
    def test_rejects_bad_arguments(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


def inf_norm_distance(flat, vertices):
    """min t with |V^T lam - phi|_inf <= t over the simplex, solved afresh."""
    p, dim = vertices.shape
    a_ub = np.block([[vertices.T, -np.ones((dim, 1))], [-vertices.T, -np.ones((dim, 1))]])
    res = linprog(np.r_[np.zeros(p), 1.0], A_ub=a_ub, b_ub=np.r_[flat, -flat],
                  A_eq=np.r_[np.ones(p), 0.0][None, :], b_eq=[1.0],
                  bounds=[(0, None)] * (p + 1), method="highs")
    assert res.success
    return res.fun


class TestSeparatingHyperplaneFromDuals:
    @pytest.mark.parametrize("pair", ["square", "pentagon"])
    def test_out_certificate_is_the_distance(self, pair):
        rng = np.random.default_rng(17)
        if pair == "square":
            k1, k2 = square(), square()
        else:
            k1, k2 = affine_polygon(5, rng), affine_polygon(5, rng)
        mv = min_tensor(k1, k2).vertices
        outs = 0
        for _ in range(30):
            w = rng.normal(size=len(mv))
            flat = (w - w.mean() + 1 / len(mv)) @ mv  # affine combination of vertices
            phi = functional_from_flat(flat, k1, k2)
            verdict = min_tensor_membership(phi, k1, k2)
            if verdict.status is not Status.OUT:
                continue
            outs += 1
            hyp = verdict.certificate
            assert hyp.offset >= (mv @ hyp.normal).max()
            assert np.abs(hyp.normal).sum() <= 1 + 1e-12
            assert hyp.margin == pytest.approx(inf_norm_distance(phi.flat, mv), abs=1e-12)
        assert outs >= 20


class TestBatchedDistanceLP:
    """The block-diagonal distance LPs against one dense LP per row."""

    @pytest.mark.parametrize("pair", ["square", "4-gon", "5-gon", "one row"])
    def test_matches_per_row_lps(self, pair):
        rng = np.random.default_rng(23)
        if pair in ("square", "one row"):
            k1, k2 = square(), square()
        else:
            k = int(pair[0])
            k1, k2 = affine_polygon(k, rng), affine_polygon(k, rng)
        mv = min_tensor(k1, k2).vertices
        phis = max_tensor_polytope(k1, k2).vertices
        if pair == "one row":
            phis = phis[12:13]
        dist, weights, normals = _min_distance_lp(phis, mv)
        assert dist.shape == (len(phis),)
        assert weights.shape == (len(phis), len(mv))
        assert normals.shape == phis.shape
        for phi, t, lam, y in zip(phis, dist, weights, normals):
            assert t == pytest.approx(inf_norm_distance(phi, mv), abs=1e-9)
            assert np.abs(lam @ mv - phi).max() <= t + 1e-9
            assert np.abs(y).sum() <= 1 + 1e-12
            assert y @ phi - (mv @ y).max() >= t - 1e-9

    def test_non_vertices_lists_every_inner_point(self):
        # a hexagon with its centre, an edge midpoint and a copy of vertex 0
        t = 2 * np.pi * np.arange(6) / 6
        hexagon = np.column_stack([np.cos(t), np.sin(t)])
        points = np.vstack([hexagon[:3], [[0.0, 0.0]], hexagon[3:],
                            (hexagon[4] + hexagon[5]) / 2, hexagon[:1]])
        want = [i for i in range(len(points))
                if inf_norm_distance(points[i], np.delete(points, i, axis=0)) <= LP_TOL]
        assert want == [0, 3, 7, 8]
        assert non_vertices(points).tolist() == want
        assert non_vertices(hexagon).tolist() == non_vertices(hexagon[:1]).tolist() == []


@pytest.fixture
def calls(monkeypatch):
    """Count the linprog calls made by the polytopes module."""
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return linprog(*args, **kwargs)

    monkeypatch.setattr(polytopes, "linprog", counted)
    return count


class TestLinprogCalls:
    def test_gap_and_bound_batch_their_lps(self, calls):
        pent = regular_polygon(5)
        mn, mx = min_tensor(pent, pent), max_tensor_polytope(pent, pent)
        assert mx.n_vertices == 135
        limit = math.ceil(135 / LP_BLOCKS) + 8
        calls[0] = 0
        assert barker_gap(pent, pent) is not None
        assert calls[0] <= limit
        calls[0] = 0
        relative_bound(mn, mx)
        assert calls[0] <= limit

    def test_enumeration_solves_no_lp(self, calls):
        for k in (square(), regular_polygon(5), affine_polygon(6, np.random.default_rng(6))):
            positive_ray_generators(k)
            max_tensor_polytope(k, k)
        assert calls[0] == 0


class TestSimplexFactor:
    PAIRS = {
        "simplex x square": (simplex(2), square()),
        "square x simplex": (square(), simplex(2)),
        "triangle x 6-gon": (regular_polygon(3), regular_polygon(6)),
        "point x square": (simplex(0), square()),
        "segment x segment": (simplex(1), simplex(1)),
    }

    @pytest.mark.parametrize("name", PAIRS)
    def test_max_is_min_with_no_enumeration_and_no_lp(self, calls, monkeypatch, name):
        k1, k2 = self.PAIRS[name]
        dd = [0]

        def counted(a):
            dd[0] += 1
            return double_description(a)

        monkeypatch.setattr(polytopes, "double_description", counted)
        mx = max_tensor_polytope(k1, k2)
        assert dd[0] == 0 and calls[0] == 0
        assert sorted(map(tuple, mx.vertices)) == sorted(map(tuple, min_tensor(k1, k2).vertices))

    @pytest.mark.parametrize("name", PAIRS)
    def test_matches_the_enumeration(self, monkeypatch, name):
        k1, k2 = self.PAIRS[name]
        mx = max_tensor_polytope(k1, k2)
        monkeypatch.setattr(polytopes, "affine_dimension", lambda k: -2)  # no factor is a simplex
        enumerated = max_tensor_polytope(k1, k2)
        assert enumerated.vertices.shape == mx.vertices.shape
        assert np.max(np.abs(enumerated.vertices - mx.vertices)) <= 1e-9


def unscreened_gap(mx, k1, k2):
    """gap_among with a distance LP on every maximal vertex, as it was before
    the screen: (index of the gap vertex, margin), or None."""
    mv = min_tensor(k1, k2).vertices
    dist, _, normals = _min_distance_lp(mx.vertices, mv)
    if dist.max() <= LP_TOL:
        return None
    i = int(np.argmax(dist >= dist.max() - LP_TOL))
    return i, float(normals[i] @ mx.vertices[i] - np.max(mv @ normals[i]))


def relative_bound_lps(inner, outer):
    """The relative-bound LP value at every outer vertex, unscreened."""
    iv, p = inner.vertices, inner.n_vertices
    c, ones = np.append(np.zeros(p), np.ones(p)), np.ones((1, p))
    b_eq = np.hstack([outer.vertices, np.ones((outer.n_vertices, 1))])
    x = _block_lps(c, np.zeros((0, 2 * p)), np.zeros((len(b_eq), 0)),
                   np.block([[iv.T, -iv.T], [ones, -ones]]), b_eq, "relative-bound")[0]
    return x @ c


def screening_pair(name):
    """Factor pairs: seeded affine k-gons "k-gon/seed", perfbench's
    tensor-gap pairs "perfbench/seed/k1xk2", regular polygons
    "regular/k1xk2", the mixed pairs "mixed/k1xk2/seed", the 3-D pairs
    "octahedron^2", "cube^2", "prism^2" (the triangular prism) and "hexagon
    x cube" (the regular hexagon and the unit cube), or the unit square
    scaled ("x1", "x8e-5", "x1e3") or shifted ("+1000", "+1e4")."""
    solids = {"octahedron^2": (octahedron, octahedron), "cube^2": (cube, cube),
              "prism^2": (triangular_prism, triangular_prism), "hexagon x cube": (lambda: regular_polygon(6), cube)}
    if name in solids:
        return tuple(f() for f in solids[name])
    if name.startswith("regular/"):
        return tuple(regular_polygon(int(k)) for k in name[8:].split("x"))
    if name.startswith("mixed/"):
        (k1, k2), seed = name.split("/")[1].split("x"), int(name.split("/")[2])
        return mixed_pair(int(k1), int(k2), seed)
    if name.startswith("perfbench/"):
        _, seed, pair = name.split("/")
        i = ("4x4", "5x5", "6x6", "3x5", "3x6").index(pair)
        return tuple(perfbench_polygons((int(seed),))[2 * i:2 * i + 2])
    if "gon/" in name:
        k, seed = int(name[0]), int(name.split("/")[1])
        rng = np.random.default_rng([k, seed])
        return affine_polygon(k, rng), affine_polygon(k, rng)
    v = square().vertices
    v = v * float(name[1:]) if name[0] == "x" else v + float(name[1:])
    return Polytope(v), Polytope(v)


POLYGON_PAIRS = [f"{k}-gon/{seed}" for k in (3, 4, 5, 6) for seed in (0, 1)]
# in perfbench_polygons' order: k-gon x k-gon for k = 4, 5, 6, then triangle
# x 5-gon and triangle x 6-gon, at seed 0 and then 1000
PERFBENCH_PAIRS = [f"perfbench/{seed}/{pair}" for seed in (0, 1000)
                   for pair in ("4x4", "5x5", "6x6", "3x5", "3x6")]
PERFBENCH_PAIRS_30 = PERFBENCH_PAIRS + [f"perfbench/30/{pair}" for pair in ("4x4", "5x5", "6x6", "3x5", "3x6")]
MIXED_PAIRS = [f"mixed/{k1}x{k2}/{seed}" for k1 in (3, 4, 5, 6) for k2 in (4, 5, 6) for seed in (0, 1)]
SOLID_PAIRS = ["hexagon x cube", "cube^2", "octahedron^2", "prism^2"]


class TestScreening:
    """The LP screens of gap_among and relative_bound: certified brackets
    decide which maximal vertices get a HiGHS LP (gap_among) or keep
    pivoting, without changing the answer."""

    @pytest.mark.parametrize("name", POLYGON_PAIRS + ["x8e-5", "x1e3", "+1000", "+1e4"] + MIXED_PAIRS
                             + PERFBENCH_PAIRS_30 + SOLID_PAIRS)
    def test_bounds_are_upper_bounds(self, name, calls, monkeypatch):
        # relative_bound with its _simplex call recorded: no linprog call, a
        # value within 1e-9 (relative) of the LPs' maximum, a feasible start
        # basis given with its inverse, and a bracket [lower, objective]
        # around each row's LP value that closes unless the row was pruned
        k1, k2 = screening_pair(name)
        inner, outer = min_tensor(k1, k2), max_tensor_polytope(k1, k2)
        recorded = []

        def recording(a, c, rhs, start, bound):
            recorded.append((a, c, rhs, start(np.arange(len(rhs))), _simplex(a, c, rhs, start, bound)))
            return recorded[-1][-1]

        monkeypatch.setattr(polytopes, "_simplex", recording)
        calls[0] = 0
        r = relative_bound(inner, outer)
        assert calls[0] == 0
        monkeypatch.undo()
        want = relative_bound_lps(inner, outer)
        assert r == pytest.approx(max(0.0, float(want.max())), rel=1e-9, abs=1e-12)
        ((a, c, rhs, (basis, inv), (last, xb, _, lower, unsettled)),) = recorded
        # an outer vertex that is an exact copy of an inner vertex gets no row
        copies = cKDTree(inner.vertices).query(outer.vertices)[0] == 0
        assert len(rhs) == np.count_nonzero(~copies) and np.all(want[copies] <= 1e-12)
        assert not unsettled.any()
        assert np.max(np.abs(inv @ np.moveaxis(a[:, basis], 0, 1) - np.eye(len(a))), initial=0.0) <= 1e-12
        assert np.all((inv @ rhs[:, :, None])[:, :, 0] >= -1e-12)
        # the rows are the outer vertices in the chart: match them to the LPs
        center, q, scale, _ = inner.unit_chart
        row_want = want[cKDTree((outer.vertices - center) @ q / scale).query(rhs[:, :-1])[1]]
        upper = np.sum(c[last] * xb, axis=1)
        if np.max(np.abs(outer.vertices)) > 100:
            # HiGHS meets its constraints to 1e-7; on the shifted squares, whose
            # functionals have entries near 1e6 and 1e8, its rows are that far
            # off or worse: at +1e4 it reads 0.25 for six rows whose r is 1/2 by
            # the square's symmetry, though its maximum is right
            assert np.all(upper >= row_want - 1e-7) and np.all(lower <= want.max() + 1e-7)
        else:
            assert np.all(upper >= row_want - 1e-12) and np.all(lower <= row_want + 1e-12)
        kept = upper >= lower.max(initial=-np.inf) - LP_TOL
        assert np.all(upper[kept] - lower[kept] <= 1e-12)

    @pytest.mark.parametrize("name", POLYGON_PAIRS + ["x1", "x8e-5", "x1e3"] + PERFBENCH_PAIRS)
    def test_screened_matches_unscreened(self, name):
        k1, k2 = screening_pair(name)
        mx, mn = max_tensor_polytope(k1, k2), min_tensor(k1, k2)
        want = unscreened_gap(mx, k1, k2)
        if name == "x8e-5":
            # the unscreened LPs read every distance <= LP_TOL, yet 8 of the
            # 24 maximal vertices are not product vertices: the LPs failed
            assert want is None and mx.n_vertices - mn.n_vertices == 8
            with pytest.raises(ValueError, match="membership LP failed"):
                gap_among(mx, k1, k2)
        elif want is None:
            assert gap_among(mx, k1, k2) is None
        else:
            gap = gap_among(mx, k1, k2)
            (index,) = np.flatnonzero(np.all(mx.vertices == gap.functional.flat, axis=1))
            assert index == want[0]
            assert gap.margin == pytest.approx(want[1], rel=1e-9)
        r = max(0.0, float(relative_bound_lps(mn, mx).max()))
        assert relative_bound(mn, mx) == pytest.approx(r, rel=1e-9, abs=1e-12)
        if name == "x1":  # square x square: eight vertices tie at 1/12, the first is 8
            assert want == (8, pytest.approx(1 / 12, abs=1e-12))

    @pytest.mark.parametrize("k", [5, 6])
    def test_no_gap_pairs_run_no_distance_lp(self, k, calls):
        rng = np.random.default_rng(10 + k)
        tri, other = affine_polygon(3, rng), affine_polygon(k, rng)
        mx = max_tensor_polytope(tri, other)
        calls[0] = 0
        assert gap_among(mx, tri, other) is None
        assert calls[0] == 0

    def test_square_gap_solves_only_its_open_vertices(self, monkeypatch):
        # 16 of the 24 maximal vertices are product vertices, at distance 0
        k = square()
        mx, copies = max_tensor_polytope(k, k), []

        def counted(*args, **kwargs):
            copies.append(len(kwargs["b_eq"]))  # one equality row per distance LP
            return linprog(*args, **kwargs)

        monkeypatch.setattr(polytopes, "linprog", counted)
        assert gap_among(mx, k, k).margin == pytest.approx(1 / 12, abs=1e-12)
        assert copies == [8]

    def test_hexagon_relative_bound_in_two_lp_calls(self, calls):
        rng = np.random.default_rng(6)
        k1, k2 = affine_polygon(6, rng), affine_polygon(6, rng)
        mn, mx = min_tensor(k1, k2), max_tensor_polytope(k1, k2)
        assert mx.n_vertices == 552  # 16 LP calls of LP_BLOCKS without the screen
        calls[0] = 0
        assert relative_bound(mn, mx) == pytest.approx(0.5, abs=1e-9)
        assert calls[0] <= 2


GAP_PAIRS = [f"{k}-gon/{seed}" for k in (4, 5, 6) for seed in (0, 1)]
PERFBENCH_GAP_PAIRS = [name for name in PERFBENCH_PAIRS if name.endswith(("4x4", "5x5", "6x6"))]


class TestExactDistances:
    """_exact_distances, the batched simplex that screens the gap rows:
    certified brackets on every row, closed on the rows it does not prune,
    and the lone open row's certificate in place of HiGHS."""

    @pytest.mark.parametrize("name", POLYGON_PAIRS + PERFBENCH_PAIRS + ["x1", "x8e-5", "x1e3", "+1000", "+1e4"])
    def test_brackets_contain_the_lp_distance(self, name):
        k1, k2 = screening_pair(name)
        mx, mv = max_tensor_polytope(k1, k2), min_tensor(k1, k2).vertices
        dist = _min_distance_lp(mx.vertices, mv)[0]
        rows, upper, lower, weights, normals = _exact_distances(mx.vertices, mv)
        tol = 1e-12 * max(1.0, dist.max())
        assert np.all(upper >= dist[rows] - tol)
        assert np.all(np.delete(dist, rows) <= LP_TOL + tol)  # the rows dropped near a vertex
        assert np.all(lower <= dist.max() + tol)
        # there HiGHS's own row is the inexact one: at x1e3 it reads 0 for a
        # maximal vertex 4.7e-10 from its product vertex, and at +1e4 6.2e-6
        # for one of the eight gap vertices that the square's symmetry ties
        if name not in ("x1e3", "+1e4"):
            assert np.all(lower <= dist[rows] + tol)
        assert np.allclose(weights.sum(axis=1), 1.0) and np.all(weights >= 0)
        assert np.all(np.abs(normals).sum(axis=1) <= 1.0 + 1e-12)

    # the regular pairs tie rows within rounding of the largest distance
    @pytest.mark.parametrize("name", GAP_PAIRS + PERFBENCH_GAP_PAIRS + ["regular/5x5", "regular/4x6"])
    def test_brackets_close_on_the_open_rows(self, name):
        k1, k2 = screening_pair(name)
        mx, mv = max_tensor_polytope(k1, k2), min_tensor(k1, k2).vertices
        rows, upper, lower, _, _ = _exact_distances(mx.vertices, mv)
        assert len(rows) >= 8
        # a row closes, or its bracket (still open if the row was pruned) lies
        # more than LP_TOL below the largest lower bound, so gap_among drops it
        excluded = upper < lower.max() - LP_TOL
        assert np.all(upper[~excluded] - lower[~excluded] <= 1e-12 * lower[~excluded])

    @pytest.mark.parametrize("name", PERFBENCH_GAP_PAIRS)
    def test_perfbench_polygon_pairs_solve_no_lp(self, name, calls):
        k1, k2 = screening_pair(name)
        mx = max_tensor_polytope(k1, k2)
        calls[0] = 0
        assert gap_among(mx, k1, k2) is not None
        assert calls[0] == 0

    @pytest.mark.parametrize("name", GAP_PAIRS + PERFBENCH_GAP_PAIRS)
    def test_lone_row_certificate_matches_highs(self, name, calls):
        k1, k2 = screening_pair(name)
        mx, mv = max_tensor_polytope(k1, k2), min_tensor(k1, k2).vertices
        index, margin = unscreened_gap(mx, k1, k2)
        normal = _min_distance_lp(mx.vertices[index][None, :], mv)[2][0]
        calls[0] = 0
        gap = gap_among(mx, k1, k2)
        assert calls[0] == 0
        assert np.array_equal(gap.functional.flat, mx.vertices[index])
        cert = gap.min_verdict.certificate
        assert cert.margin == pytest.approx(margin, abs=1e-12)
        assert np.max(np.abs(cert.normal - normal)) <= 1e-12

    @pytest.mark.parametrize("name", GAP_PAIRS + PERFBENCH_GAP_PAIRS)
    def test_unsettled_rows_fall_back_to_highs(self, name, calls, monkeypatch):
        k1, k2 = screening_pair(name)
        mx = max_tensor_polytope(k1, k2)
        settled = gap_among(mx, k1, k2)
        monkeypatch.setattr(polytopes, "SIMPLEX_PIVOTS", 0)
        calls[0] = 0
        gap = gap_among(mx, k1, k2)
        assert calls[0] >= 1
        assert np.array_equal(gap.functional.flat, settled.functional.flat)
        assert gap.margin == pytest.approx(settled.margin, abs=1e-12)


class TestScreenBlocks:
    """_exact_distances pivots its rows in blocks of SIMPLEX_ROWS from the
    closed-form start bases of _start_bases, so its memory does not grow
    with the number of rows, and the block size changes no answer."""

    @pytest.mark.parametrize("name", PERFBENCH_GAP_PAIRS + ["x1", "octahedron^2", "hexagon x cube"])
    def test_block_size_changes_no_answer(self, name, monkeypatch):
        k1, k2 = screening_pair(name)
        mx, mv = max_tensor_polytope(k1, k2), min_tensor(k1, k2).vertices
        dist = _min_distance_lp(mx.vertices, mv)[0]
        tol = 1e-12 * max(1.0, dist.max())
        screens, gaps = [], []

        def recorded(z, vertices):
            screens.append(_exact_distances(z, vertices))
            return screens[-1]

        monkeypatch.setattr(polytopes, "_exact_distances", recorded)
        for size in (polytopes.SIMPLEX_ROWS, 1, 7, 10**6):
            monkeypatch.setattr(polytopes, "SIMPLEX_ROWS", size)
            gaps.append(gap_among(mx, k1, k2))
            rows, upper, lower, _, _ = screens[-1]
            assert np.all(upper >= dist[rows] - tol) and np.all(lower <= dist[rows] + tol)
            assert np.all(np.delete(dist, rows) <= LP_TOL + tol)
        for gap in gaps[1:]:
            assert np.array_equal(gap.functional.flat, gaps[0].functional.flat)
            assert gap.margin == pytest.approx(gaps[0].margin, abs=1e-12)

    def test_no_kept_row_gives_empty_arrays(self):
        mv = min_tensor(regular_polygon(3), regular_polygon(5)).vertices  # (15, 9)
        out = _exact_distances(mv, mv)
        assert [a.shape for a in out] == [(0,), (0,), (0,), (0, 15), (0, 9)]

    @pytest.mark.parametrize("name", PERFBENCH_PAIRS + ["hexagon x cube"])
    def test_start_inverse_is_the_inverse(self, name):
        k1, k2 = screening_pair(name)
        mx, mv = max_tensor_polytope(k1, k2), min_tensor(k1, k2).vertices
        v, z = mv - mv.mean(axis=0), mx.vertices - mv.mean(axis=0)
        nearest = cKDTree(v).query(z, p=np.inf)[1]
        basis, inv = _start_bases(v, z, nearest)
        _, a_ub, a_eq = _distance_rows(v)
        a = np.block([[a_ub, np.eye(len(a_ub))], [a_eq, np.zeros((1, len(a_ub)))]])
        assert np.max(np.abs(inv - np.linalg.inv(np.moveaxis(a[:, basis], 0, 1)))) <= 1e-12
        # the start is feasible, and t is the inf-norm distance to the nearest vertex
        xb = (inv @ np.hstack([z, -z, np.ones((len(z), 1))])[:, :, None])[:, :, 0]
        assert np.all(xb >= -1e-12)
        assert np.allclose(xb[:, 1], np.abs(v[nearest] - z).max(axis=1), rtol=0, atol=1e-12)

    def test_screen_memory_is_bounded(self):
        # one B^-1 stack for all 2,640 rows took 34 MB at its peak
        k1, k2 = screening_pair("hexagon x cube")
        mx, mv = max_tensor_polytope(k1, k2), min_tensor(k1, k2).vertices
        tracemalloc.start()
        try:
            rows = _exact_distances(mx.vertices, mv)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 2640
        assert peak < 10e6


def mixed_pair(k1, k2, seed):
    rng = np.random.default_rng([k1, k2, seed])
    return affine_polygon(k1, rng), affine_polygon(k2, rng)


class TestRelativeBoundWithoutLP:
    """relative_bound solves its LPs by _simplex in the unit chart of the
    inner polytope, from closed-form start bases, and calls no linprog."""

    @pytest.mark.parametrize("name", [f"{k}-gon/{seed}" for k in (4, 5, 6) for seed in (0, 1)])
    def test_equal_k_pairs_solve_no_lp(self, name, calls):
        k1, k2 = screening_pair(name)
        mn, mx = min_tensor(k1, k2), max_tensor_polytope(k1, k2)
        calls[0] = 0
        r = relative_bound(mn, mx)
        assert calls[0] == 0
        assert r == pytest.approx(float(relative_bound_lps(mn, mx).max()), rel=1e-9)

    @pytest.mark.parametrize("k1, k2", [(3, 6), (4, 5), (4, 6), (5, 6)])
    def test_mixed_pairs_match_the_lps(self, k1, k2):
        mn, mx = min_tensor(*mixed_pair(k1, k2, 0)), max_tensor_polytope(*mixed_pair(k1, k2, 0))
        want = max(0.0, float(relative_bound_lps(mn, mx).max()))
        assert relative_bound(mn, mx) == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_simplex_factor_gives_exactly_zero(self, k, calls):
        tri, other = mixed_pair(3, k, 1)
        assert relative_bound(min_tensor(tri, other), max_tensor_polytope(tri, other)) == 0.0
        assert calls[0] == 0

    def test_rows_open_at_the_pivot_cap_are_refused(self, monkeypatch):
        sq = square()
        mn, mx = min_tensor(sq, sq), max_tensor_polytope(sq, sq)
        monkeypatch.setattr(polytopes, "SIMPLEX_PIVOTS", 0)
        with pytest.raises(ValueError, match="relative-bound LP failed: .* rows are still open"):
            relative_bound(mn, mx)

    @pytest.mark.parametrize("fault", ["drift", "negative weight"])
    def test_faulty_simplex_result_is_refused(self, fault, monkeypatch):
        # a weight moved 1e-6 off the constraints, or the largest weight of
        # row 0 moved to its negated column and negated, which keeps B x_B
        sq = square()
        mn, mx = min_tensor(sq, sq), max_tensor_polytope(sq, sq)

        def faulty(a, c, rhs, start, bound):
            basis, xb, pi, lower, unsettled = _simplex(a, c, rhs, start, bound)
            if fault == "drift":
                xb[:, 0] += 1e-6
            else:
                k = np.argmax(xb[0])
                basis[0, k], xb[0, k] = (basis[0, k] + len(c) // 2) % len(c), -xb[0, k]
            return basis, xb, pi, lower, unsettled

        assert relative_bound(mn, mx) == pytest.approx(0.5, abs=1e-12)
        monkeypatch.setattr(polytopes, "_simplex", faulty)
        with pytest.raises(ValueError, match="relative-bound LP failed: .* off their constraints"):
            relative_bound(mn, mx)

    def test_lp_below_the_certified_lower_bound_is_refused(self, monkeypatch):
        # a lower bound 1e-6 above the LPs' maximum 1/2 contradicts it
        sq = square()
        mn, mx = min_tensor(sq, sq), max_tensor_polytope(sq, sq)

        def raised(*args):
            basis, xb, pi, lower, unsettled = _simplex(*args)
            lower[0] = 0.5 + 1e-6
            return basis, xb, pi, lower, unsettled

        monkeypatch.setattr(polytopes, "_simplex", raised)
        with pytest.raises(ValueError, match="relative-bound LP failed: its maximum .* is below the certified"):
            relative_bound(mn, mx)

    @pytest.mark.parametrize("shift, scale", [(10.0, 1e-3), (100.0, 1e-2)])
    def test_small_shifted_square_is_answered(self, shift, scale, calls):
        # HiGHS, on the LP in ambient coordinates, answered 0.0 and
        # 0.4999999977; the chart LP answers 0.500000028 and 0.5000000000003
        k = Polytope(square().vertices * scale + shift)
        assert relative_bound(min_tensor(k, k), max_tensor_polytope(k, k)) == pytest.approx(0.5, abs=1e-7)
        assert calls[0] == 0

    def test_inexact_chart_is_refused(self, calls):
        # three genuine directions of the minimal vertices have relative
        # singular values near 1.2e-10, below the chart's 1e-9 cut, so the
        # chart has rank 5, not 8: the chart LP would answer 2.9e-5 for r = 1/2
        k = Polytope(square().vertices * 1e-3 + 1000)
        mn, mx = min_tensor(k, k), max_tensor_polytope(k, k)
        with pytest.raises(ValueError, match="relative-bound LP failed: the unit chart of inner drops"):
            relative_bound(mn, mx)
        assert calls[0] == 0


class TestSharedChartRays:
    def test_barker_gap_enumerates_each_cone_once(self, monkeypatch):
        k1, k2 = mixed_pair(5, 5, 0)
        dd = [0]

        def counted(a):
            dd[0] += 1
            return double_description(a)

        monkeypatch.setattr(polytopes, "double_description", counted)
        gap = barker_gap(k1, k2)
        # one per factor, one for the tensor cone: the max-side verdict's
        # positive_ray_generators read the factors' kept chart rays
        assert dd[0] == 3
        monkeypatch.undo()
        want = gap_among(max_tensor_polytope(k1, k2), k1, k2)
        assert json.dumps(to_json(gap)) == json.dumps(to_json(want))
        max_side = max_tensor_membership(gap.functional, k1, k2)
        assert json.dumps(to_json(gap.max_verdict)) == json.dumps(to_json(max_side))

    def test_a_second_barker_gap_enumerates_only_the_tensor_cone(self, monkeypatch):
        k1, k2 = mixed_pair(5, 5, 0)
        first = json.dumps(to_json(barker_gap(k1, k2)))
        dd = [0]

        def counted(a):
            dd[0] += 1
            return double_description(a)

        monkeypatch.setattr(polytopes, "double_description", counted)
        second = json.dumps(to_json(barker_gap(k1, k2)))
        assert dd[0] == 1  # the factors' chart rays are kept on k1 and k2
        fresh = json.dumps(to_json(barker_gap(Polytope(k1.vertices.copy()), Polytope(k2.vertices.copy()))))
        assert second == first == fresh

    @pytest.mark.parametrize("name", ["13-gon", "thin"])
    def test_a_refused_factor_is_refused_again(self, name):
        # the 13-gon exceeds MAX_RAY_VERTICES; the square scaled by
        # (1e-6, 1e6) has vertices that coincide in its unit chart
        k, match = {"13-gon": (regular_polygon(13), "vertex count 13 exceeds"),
                    "thin": (Polytope(square().vertices * [1e-6, 1e6]), "coincide in the unit chart")}[name]
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                positive_ray_generators(k)
            with pytest.raises(ValueError, match=match):
                barker_gap(k, square())
        assert "chart_rays" not in vars(k)

    def test_kept_arrays_are_read_only(self):
        k = regular_polygon(5)
        center, q, _, s = k.unit_chart
        for a in (center, q, s, *k.chart_rays):
            assert not a.flags.writeable

    def test_affine_dimension_reads_the_unit_chart(self):
        squares = [screening_pair(name)[0] for name in ("x1e3", "x8e-5", "x1e6", "+100", "+1000", "+1e4")]
        squares.append(Polytope(square().vertices * 1e-3 + 1000))
        factors = perfbench_polygons() + squares
        for k in factors + [min_tensor(k, k) for k in factors]:
            assert affine_dimension(k) == affine_dimension(k.vertices)


class TestPivotColumns:
    """_pivot_columns picks the start rows of double_description and the
    start simplex of relative_bound as LAPACK's pivoted QR would, in numpy."""

    @pytest.mark.parametrize("d", range(3, 17))
    def test_pivots_match_lapack(self, d):
        rng = np.random.default_rng([53, d])
        for m in range(d, 61):
            a = rng.normal(size=(d, m))
            for k in (1, d // 2, d):
                want = scipy.linalg.qr(a, mode="r", pivoting=True)[1][:k]
                assert polytopes._pivot_columns(a, k).tolist() == want.tolist()

    # the triangle pairs take max_tensor_polytope's simplex shortcut, no DD
    @pytest.mark.parametrize("name", PERFBENCH_GAP_PAIRS + SOLID_PAIRS)
    def test_double_description_start_rows_are_independent(self, name, monkeypatch):
        # exact ties (unit rows, symmetric factors) may be broken otherwise
        # than by LAPACK, so only the conditioning of the pick is checked
        picks, pivot = [], polytopes._pivot_columns

        def recorded(a, k):
            picked = pivot(a, k)
            picks.append(np.linalg.svd(a[:, picked], compute_uv=False).min())
            return picked

        monkeypatch.setattr(polytopes, "_pivot_columns", recorded)
        max_tensor_polytope(*screening_pair(name))
        assert picks and min(picks) >= 1e-9

    @pytest.mark.parametrize("name", PERFBENCH_GAP_PAIRS + ["hexagon x cube"])
    def test_the_polytope_layer_calls_no_scipy_qr(self, name, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("scipy.linalg.qr called")

        monkeypatch.setattr(scipy.linalg, "qr", refused)
        k1, k2 = screening_pair(name)
        mx = max_tensor_polytope(k1, k2)
        barker_gap(k1, k2)
        relative_bound(min_tensor(k1, k2), mx)


def perfbench_polygons(seeds=(0, 1000)):
    """The factors of perfbench's tensor-gap workload at the given seeds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"
    spec = importlib.util.spec_from_file_location("perfbench_generators", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(gen)
    factors = []
    for seed in seeds:
        for k in (4, 5, 6):
            r = np.random.default_rng([seed, 200 + k])
            factors += [gen.polygon(k, r), gen.polygon(k, r)]
        for k in (5, 6):
            r = np.random.default_rng([seed, 210 + k])
            factors += [gen.polygon(3, r), gen.polygon(k, r)]
    return factors
