import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import cones
from conelab.cones import OptimizerConfig, Status, is_psd
from conelab.maps import (
    BipartiteFunctional,
    MatrixMap,
    adjoint_map,
    apply_to_left_factor,
    choi,
    hermitian_basis,
    is_positive_map,
    jamiolkowski,
    map_from_choi,
    normalize_positive_map,
    random_map,
    random_positive_map,
    unitality_report,
)
from conelab.operators import (
    bipartite,
    h_operator,
    partial_transpose,
    random_hermitian,
    rho0_apply,
    swap_operator,
    tensor,
)

FAST = OptimizerConfig(starts=40, steps=120, seed=0)


@st.composite
def map_dims(draw):
    return draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))


def cp_or_co_cp(phi):
    """(Choi matrix PSD, Jamiolkowski matrix PSD): Phi is CP, Phi is co-CP."""
    return is_psd(choi(phi)).is_in, is_psd(jamiolkowski(phi)).is_in


def choi_map():
    """Choi's map Phi[2, 0, 1]/2 on M_3: unital and positive, neither CP nor co-CP."""

    def action(a):
        d = np.diag(a)
        return (np.diag(2 * d + np.roll(d, 1)) - a) / 2

    return MatrixMap.from_function(3, 3, action)


class TestHermitianBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthonormal(self, n):
        b = hermitian_basis(n)
        gram = np.einsum("kpq,lqp->kl", b, b)
        assert np.allclose(gram, np.eye(n * n), atol=1e-14)

    def test_roundtrip_complex_matrix(self):
        # the identity map writes a complex matrix in the basis and reads it back
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.max(np.abs(MatrixMap.identity(3).apply(m) - m)) <= 1e-13


class TestChoiJamiolkowski:
    def test_identity_map(self):
        assert np.allclose(choi(MatrixMap.identity(2)).matrix, h_operator(2).matrix, atol=1e-14)
        assert np.allclose(
            jamiolkowski(MatrixMap.identity(2)).matrix, swap_operator(2).matrix, atol=1e-14
        )

    def test_transpose_map(self):
        t2 = MatrixMap.transpose(2)
        assert np.allclose(choi(t2).matrix, swap_operator(2).matrix, atol=1e-14)
        assert np.allclose(jamiolkowski(t2).matrix, h_operator(2).matrix, atol=1e-14)

    @given(map_dims(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_pt_identity_and_roundtrip(self, dims, seed):
        out_dim, in_dim = dims
        psi = random_map(in_dim, out_dim, np.random.default_rng(seed))
        c = choi(psi)
        j = jamiolkowski(psi)
        assert np.max(np.abs(partial_transpose(j, "right").matrix - c.matrix)) < 1e-12
        back = map_from_choi(c)
        assert np.max(np.abs(back.coeffs - psi.coeffs)) < 1e-12

    def test_map_from_choi_examples(self):
        assert np.allclose(
            map_from_choi(h_operator(2)).coeffs, MatrixMap.identity(2).coeffs, atol=1e-13
        )
        assert np.allclose(
            map_from_choi(swap_operator(2)).coeffs, MatrixMap.transpose(2).coeffs, atol=1e-13
        )

    def test_choi_shape_records_direction(self):
        psi = random_map(3, 2, np.random.default_rng(1))  # M_3 -> M_2
        c = choi(psi)
        assert (c.n, c.m) == (2, 3)

    @pytest.mark.parametrize("a, b", [(1, 3), (3, 1), (2, 3), (2, 4), (4, 2)])
    def test_matches_the_defining_sums(self, a, b):
        # The non-Hermitian units E_ij pin the index convention; the real H and S cannot.
        phi = random_map(a, b, np.random.default_rng(10 * a + b))
        units = np.eye(a * a).reshape(a, a, a, a)  # units[i, j] = E_ij
        c = sum(np.kron(phi.apply(units[i, j]), units[i, j]) for i in range(a) for j in range(a))
        j_ = sum(np.kron(phi.apply(units[i, j]), units[j, i]) for i in range(a) for j in range(a))
        assert np.max(np.abs(choi(phi).matrix - c)) < 1e-13
        assert np.max(np.abs(jamiolkowski(phi).matrix - j_)) < 1e-13
        assert np.max(np.abs(map_from_choi(choi(phi)).coeffs - phi.coeffs)) < 1e-13


class TestPositivity:
    def test_transpose_positive(self):
        assert is_positive_map(MatrixMap.transpose(2), cfg=FAST).status is Status.IN

    def test_negative_choi_out(self):
        bad = map_from_choi(bipartite(-np.eye(4), 2, 2))
        assert is_positive_map(bad, cfg=FAST).status is Status.OUT

    def test_reduction_positive(self):
        v = is_positive_map(MatrixMap.reduction(2), cfg=FAST)
        assert v.status is Status.IN
        assert v.certificate.best_value >= -1e-9

    def test_transpose_not_completely_positive(self):
        # positive map whose Choi matrix fails PSD: the canonical example
        t2 = MatrixMap.transpose(2)
        assert np.linalg.eigvalsh(choi(t2).matrix)[0] == pytest.approx(-1.0, abs=1e-12)
        ident = MatrixMap.identity(2)
        assert np.linalg.eigvalsh(choi(ident).matrix)[0] >= -1e-12


class TestAdjoint:
    def test_transpose_self_adjoint(self):
        t = MatrixMap.transpose(3)
        assert np.allclose(adjoint_map(t).coeffs, t.coeffs, atol=0)

    def test_involution(self):
        psi = random_map(2, 3, np.random.default_rng(5))
        assert np.array_equal(adjoint_map(adjoint_map(psi)).coeffs, psi.coeffs)

    def test_pairing_identity(self):
        rng = np.random.default_rng(6)
        psi = random_map(2, 3, rng)
        for _ in range(20):
            a = random_hermitian(2, rng).matrix
            b = random_hermitian(3, rng).matrix
            lhs = np.trace(psi.apply(a) @ b)
            rhs = np.trace(a @ adjoint_map(psi).apply(b))
            assert lhs.real == pytest.approx(rhs.real, abs=1e-12)

    def test_adjoint_of_unital_positive_is_trace_preserving(self):
        rng = np.random.default_rng(7)
        phi = MatrixMap.reduction(2)
        adj = adjoint_map(phi)
        for _ in range(10):
            b = random_hermitian(2, rng).matrix
            assert np.trace(adj.apply(b)).real == pytest.approx(
                np.trace(phi.apply(np.eye(2)) @ b).real, abs=1e-12
            )


class TestNormalizeConstruction:
    @pytest.fixture
    def no_search(self, monkeypatch):
        """Fail the test if a product-vector search runs."""

        def refuse(*args, **kwargs):
            raise AssertionError("block_positive_min called")

        monkeypatch.setattr(cones, "block_positive_min", refuse)

    def test_already_unital_is_fixed_point(self, no_search):
        phi = MatrixMap.reduction(2)  # unital: Tr(A) I - A maps I to I
        assert cp_or_co_cp(phi) == (False, True)
        psi, rho = normalize_positive_map(phi)
        assert np.allclose(psi.coeffs, phi.coeffs, atol=1e-10)
        assert np.allclose(rho.density.matrix, h_operator(2).matrix / 2, atol=1e-12)

    def test_rank_deficient_example(self, no_search):
        # Phi(A) = diag(2 A_00, 0): CP, tr(Phi(I)) = 1, singular image
        phi = MatrixMap.from_function(2, 2, lambda a: np.diag([2 * a[0, 0], 0.0]))
        assert cp_or_co_cp(phi)[0]
        psi, rho = normalize_positive_map(phi)
        # construction routes the complement through sigma(A) = A_00: Psi(A) = A_00 I
        assert np.allclose(psi.apply(np.diag([1.0, 0.0])), np.eye(2), atol=1e-10)
        assert np.allclose(psi.apply(np.diag([0.0, 1.0])), np.zeros((2, 2)), atol=1e-10)
        rep = unitality_report(psi)
        assert rep.is_unital

    def test_agreement_on_random_maps(self):
        rng = np.random.default_rng(12)
        for singular in (False, True):
            phi = random_positive_map(2, 2, rng, singular_image=singular)
            psi, rho = normalize_positive_map(phi)
            assert unitality_report(psi).is_unital
            assert is_positive_map(psi, cfg=FAST).status is Status.IN
            # Psi = R Phi R + A_00 (I - P) is CP, or co-CP, whenever Phi is
            assert any(a and b for a, b in zip(cp_or_co_cp(phi), cp_or_co_cp(psi)))
            for _ in range(50):
                x = bipartite(random_hermitian(4, rng).matrix, 2, 2)
                lhs = rho0_apply(2, apply_to_left_factor(phi, x))
                rhs = rho(apply_to_left_factor(psi, x))
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rejects_wrong_trace(self):
        phi = MatrixMap(2, 2, 2 * MatrixMap.identity(2).coeffs)
        with pytest.raises(ValueError, match="must equal 1"):
            normalize_positive_map(phi)

    def test_refuses_choi_map(self, no_search):
        # positive, but neither spectral proof covers it
        phi = choi_map()
        assert cp_or_co_cp(phi) == (False, False)
        with pytest.raises(ValueError, match="neither CP nor co-CP"):
            normalize_positive_map(phi)

    @given(map_dims(), st.booleans(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_positive_map_is_cp_or_co_cp(self, dims, singular, seed):
        # the invariant the map-normalization check rests on: the three
        # congruences share one transpose coin
        out_dim, in_dim = dims
        phi = random_positive_map(in_dim, out_dim, np.random.default_rng(seed), singular)
        assert any(cp_or_co_cp(phi))

    def test_rejects_negative_image_of_identity(self, no_search):
        # the Choi matrix of A -> V A V*, V = sqrt(2) e0 e0^T, with its
        # ((1, 1), (1, 1)) entry lowered by 5e-10: is_psd passes it at 1e-9,
        # but Phi(I) has eigenvalues -5e-10 and 2
        v = np.sqrt(2) * np.diag([1.0, 0.0])
        c = choi(MatrixMap.from_function(2, 2, lambda a: v @ a @ v.T)).matrix.copy()
        c[3, 3] -= 5e-10
        phi = map_from_choi(bipartite(c, 2, 2))
        assert is_psd(choi(phi)).is_in
        with pytest.raises(ValueError, match=r"Phi\(I\) is not positive semidefinite"):
            normalize_positive_map(phi)

    def test_rejects_nonpositive_map(self):
        bad = random_map(2, 2, np.random.default_rng(10))
        rep = unitality_report(bad)
        scaled = MatrixMap(2, 2, bad.coeffs / rep.normalized_trace_of_image)
        with pytest.raises(ValueError, match="not certified positive"):
            normalize_positive_map(scaled)


class TestBipartiteFunctional:
    def test_rejects_operator_of_another_factorization(self):
        rho = BipartiteFunctional(bipartite(np.eye(6) / 6, 2, 3))
        assert rho(bipartite(np.eye(6), 2, 3)) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ValueError, match="factorization does not match"):
            rho(bipartite(np.eye(6), 3, 2))


class TestUnitImages:
    @pytest.mark.parametrize("a, b", [(2, 2), (2, 3), (3, 2), (3, 4)])
    def test_matches_images_of_matrix_units(self, a, b):
        phi = random_map(a, b, np.random.default_rng(10 * a + b))
        want = np.empty((b, b, a, a), dtype=complex)
        for i in range(a):
            for j in range(a):
                e = np.zeros((a, a), dtype=complex)
                e[i, j] = 1.0
                want[:, :, i, j] = phi.apply(e)
        np.testing.assert_allclose(phi.unit_images(), want, rtol=0, atol=1e-13)


class TestApplyToLeftFactor:
    def test_product_action(self):
        rng = np.random.default_rng(13)
        phi = random_map(2, 3, rng)
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        got = apply_to_left_factor(phi, tensor(a, b))
        want = np.kron(phi.apply(a.matrix), b.matrix)
        assert np.allclose(got.matrix, want, atol=1e-12)
        assert (got.n, got.m) == (3, 2)

    def test_dimension_check(self):
        phi = MatrixMap.identity(3)
        with pytest.raises(ValueError, match="input dim"):
            apply_to_left_factor(phi, bipartite(np.eye(4), 2, 2))
