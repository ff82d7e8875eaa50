import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from conelab.cones import Status
from conelab.polytopes import (
    Polytope,
    TensorFunctional,
    affine_dimension,
    barker_gap,
    double_description,
    functional_from_flat,
    max_tensor_membership,
    max_tensor_polytope,
    min_tensor,
    min_tensor_membership,
    positive_ray_generators,
    product_functional,
    relative_bound,
    simplex,
    square,
)


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

    def test_slices_recover_factors(self):
        k1, k2 = square(), simplex(2)
        for v in k1.vertices:
            for w in k2.vertices:
                phi = product_functional(v, w)
                assert np.allclose(phi.slice_left(), v, atol=1e-14)
                assert np.allclose(phi.slice_right(), w, atol=1e-14)


class TestDoubleDescription:
    def test_orthant(self):
        rays = double_description(np.eye(3))
        assert len(rays) == 3
        got = {tuple(np.round(r, 9)) for r in rays}
        assert got == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}

    def test_redundant_inequality_ignored(self):
        a = np.vstack([np.eye(2), [[1.0, 1.0]]])
        rays = double_description(a)
        assert len(rays) == 2

    def test_not_pointed_raises(self):
        with pytest.raises(ValueError, match="not pointed"):
            double_description(np.array([[1.0, 0.0]]))


def random_pointed_cone(rng, d, k):
    """k random rows in R^d, each with a.u >= 0.2 for one unit vector u: u is
    interior, and k >= d generic rows span, so the cone is pointed."""
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    rows = rng.normal(size=(k, d))
    rows *= np.where(rows @ u < 0, -1.0, 1.0)[:, None]
    return rows + 0.2 * u


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


def affine_polygon(k, rng):
    """Regular k-gon under a seeded rotation, axis scaling and shift."""
    angles = 2 * np.pi * np.arange(k) / k
    regular = np.column_stack([np.cos(angles), np.sin(angles)])
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    m = q @ np.diag(rng.uniform(0.7, 1.4, size=2))
    return Polytope(regular @ m.T + rng.uniform(-1, 1, size=2))


class TestQhullDoubleDescription:
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
        assert double_description(np.array([[-3.0]])).tolist() == [[-1.0]]

    @pytest.mark.parametrize(
        "a",
        [
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
            [[1.0], [-1.0]],
        ],
    )
    def test_empty_interior_raises(self, a):
        with pytest.raises(ValueError, match="empty interior"):
            double_description(np.array(a))

    def test_zero_row_raises(self):
        with pytest.raises(ValueError, match="zero inequality row"):
            double_description(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))


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


class TestDuplicateDetection:
    def test_planted_duplicate_among_many(self):
        v = np.random.default_rng(3).normal(size=(500, 3))
        v[411] = v[42]
        with pytest.raises(ValueError, match="duplicate vertices at indices 42, 411"):
            Polytope(v)

    def test_distinct_many_accepted(self):
        v = np.random.default_rng(3).normal(size=(500, 3))
        assert Polytope(v).n_vertices == 500


class TestRayGenerators:
    def test_segment(self):
        seg = Polytope(np.array([[0.0], [1.0]]))
        rays = positive_ray_generators(seg).rays
        # the functions x and 1 - x, as values at the two vertices
        vals = ray_values_at_vertices(rays, seg)
        assert sorted(tuple(np.round(v, 9)) for v in vals) == [(0.0, 1.0), (1.0, 0.0)]

    def test_square(self):
        rays = positive_ray_generators(square()).rays
        assert len(rays) == 4
        want = {(-1.0, 0.0, 1.0), (0.0, -1.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)}
        got = {tuple(np.round(r, 9)) for r in rays}
        assert got == want

    def test_triangle_barycentric(self):
        rays = positive_ray_generators(simplex(2)).rays
        assert len(rays) == 3
        vals = ray_values_at_vertices(rays, simplex(2))
        # each barycentric coordinate vanishes at two vertices, positive at one
        for row in vals:
            assert int(np.sum(np.abs(row) < 1e-9)) == 2
            assert int(np.sum(row > 1e-9)) == 1

    def test_rays_nonnegative_at_vertices(self):
        for k in (square(), simplex(1), simplex(2), simplex(3)):
            vals = ray_values_at_vertices(positive_ray_generators(k).rays, k)
            assert vals.min() >= -1e-10

    def test_rays_are_extreme(self):
        for k in (square(), simplex(2)):
            cone = positive_ray_generators(k)
            vals = ray_values_at_vertices(cone.rays, k)
            for i in range(len(cone.rays)):
                others = [vals[j] for j in range(len(cone.rays)) if j != i]
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
