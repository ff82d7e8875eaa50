import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.operators import (
    BipartiteOperator,
    HermitianOperator,
    ProductVector,
    bipartite,
    embedded_swap,
    h_operator,
    kron_rows,
    maximally_entangled_vector,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    product_values,
    random_hermitian,
    random_unit_rows,
    rho0_apply,
    swap_operator,
    tensor,
    trace_norm,
)


def _e(i, j, n=2):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


@st.composite
def hermitians(draw, max_dim=3):
    dim = draw(st.integers(1, max_dim))
    vals = draw(
        st.lists(
            st.floats(-2, 2, allow_nan=False, allow_infinity=False),
            min_size=2 * dim * dim,
            max_size=2 * dim * dim,
        )
    )
    re = np.array(vals[: dim * dim]).reshape(dim, dim)
    im = np.array(vals[dim * dim :]).reshape(dim, dim)
    g = re + 1j * im
    return HermitianOperator((g + g.conj().T) / 2)


class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_symmetrizes_benign_rounding(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 3e-14j, 2.0]])
        op = HermitianOperator(a)
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_bipartite_dimension_mismatch(self):
        with pytest.raises(ValueError, match="n\\*m"):
            BipartiteOperator(2, 3, HermitianOperator(np.eye(4)))

    def test_product_vector_requires_unit_norm(self):
        with pytest.raises(ValueError, match="unit vector"):
            ProductVector(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_matrices_are_immutable(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("call, match", [
        (lambda: partial_transpose(bipartite(np.eye(4), 2, 2), "middle"), "side must be"),
        (lambda: partial_trace(bipartite(np.eye(4), 2, 2), "up"), "side must be"),
        (lambda: swap_operator(0), "m must be >= 1"),
        (lambda: h_operator(0), "m must be >= 1"),
    ], ids=["partial_transpose-side", "partial_trace-side", "swap_operator-0", "h_operator-0"])
    def test_rejects_bad_arguments(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestTensor:
    def test_identity(self):
        t = tensor(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(2)))
        assert np.array_equal(t.matrix, np.eye(4))
        assert (t.n, t.m) == (2, 2)

    def test_matrix_units(self):
        t = tensor(HermitianOperator(_e(0, 0)), HermitianOperator(_e(1, 1)))
        assert np.array_equal(t.matrix, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_diagonal_signs(self):
        z = HermitianOperator(np.diag([1.0, -1.0]))
        assert np.array_equal(tensor(z, z).matrix, np.diag([1.0, -1.0, -1.0, 1.0]))


class TestPartialTranspose:
    def test_swap_becomes_h(self):
        assert np.array_equal(
            partial_transpose(swap_operator(2), "right").matrix, h_operator(2).matrix
        )

    def test_identity_fixed(self):
        i4 = bipartite(np.eye(4), 2, 2)
        assert np.array_equal(partial_transpose(i4, "right").matrix, np.eye(4))

    @given(hermitians(max_dim=6), st.sampled_from(["left", "right"]))
    @settings(max_examples=40, deadline=None)
    def test_involution_and_exact_trace(self, op, side):
        dim = op.dim
        n = 2 if dim % 2 == 0 else 1
        if dim % n:
            return
        x = BipartiteOperator(n, dim // n, op)
        pt = partial_transpose(x, side)
        assert np.array_equal(partial_transpose(pt, side).matrix, x.matrix)
        assert np.trace(pt.matrix) == np.trace(x.matrix)
        assert np.array_equal(pt.matrix, pt.matrix.conj().T)

    def test_left_right_compose_to_full_transpose(self):
        rng = np.random.default_rng(3)
        x = bipartite(random_hermitian(6, rng).matrix, 2, 3)
        both = partial_transpose(partial_transpose(x, "left"), "right")
        assert np.allclose(both.matrix, x.matrix.T, atol=0)


class TestPartialTrace:
    def test_product_case(self):
        rng = np.random.default_rng(0)
        a, b = random_hermitian(2, rng), random_hermitian(3, rng)
        left = partial_trace(tensor(a, b), "right")
        assert np.allclose(left.matrix, np.trace(b.matrix) * a.matrix, atol=1e-12)

    def test_h_right_marginal_is_identity(self):
        assert np.allclose(partial_trace(h_operator(2), "right").matrix, np.eye(2), atol=0)

    def test_swap_left_marginal_is_identity(self):
        assert np.allclose(partial_trace(swap_operator(2), "left").matrix, np.eye(2), atol=0)

    def test_preserves_trace(self):
        rng = np.random.default_rng(1)
        x = bipartite(random_hermitian(6, rng).matrix, 3, 2)
        for side in ("left", "right"):
            assert partial_trace(x, side).trace() == pytest.approx(x.op.trace(), abs=1e-12)


class TestSpectralQuantities:
    def test_trace_norm_identity(self):
        assert trace_norm(HermitianOperator(np.eye(2))) == pytest.approx(2.0, abs=1e-12)

    def test_trace_norm_swap(self):
        # eigenvalues of the 2x2 swap: {1, 1, 1, -1}
        assert trace_norm(swap_operator(2)) == pytest.approx(4.0, abs=1e-12)

    def test_trace_norm_normalized_swap(self):
        s = swap_operator(3)
        assert trace_norm(bipartite(s.matrix / 3, 3, 3)) == pytest.approx(3.0, abs=1e-11)

    def test_min_eigenvalue_examples(self):
        assert min_eigenvalue(HermitianOperator(np.eye(3))) == pytest.approx(1.0, abs=1e-12)
        assert min_eigenvalue(swap_operator(2)) == pytest.approx(-1.0, abs=1e-12)
        # H has eigenvalues {2, 0, 0, 0}
        assert min_eigenvalue(h_operator(2)) == pytest.approx(0.0, abs=1e-12)

    @given(hermitians(max_dim=2), hermitians(max_dim=2))
    @settings(max_examples=50, deadline=None)
    def test_trace_norm_multiplicative(self, a, b):
        lhs = trace_norm(tensor(a, b))
        rhs = trace_norm(a) * trace_norm(b)
        assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)


class TestCanonicalOperators:
    def test_swap_scalar(self):
        assert np.array_equal(swap_operator(1).matrix, [[1.0]])

    def test_swap_matrix(self):
        want = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.array_equal(swap_operator(2).matrix, want)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_swap_is_involution(self, m):
        s = swap_operator(m).matrix
        assert np.array_equal(s @ s, np.eye(m * m))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_swap_eigenvalue_multiplicities(self, m):
        w = np.linalg.eigvalsh(swap_operator(m).matrix)
        assert int(np.sum(np.abs(w - 1) < 1e-9)) == m * (m + 1) // 2
        assert int(np.sum(np.abs(w + 1) < 1e-9)) == m * (m - 1) // 2

    def test_h_matrix(self):
        want = np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=float
        )
        assert np.array_equal(h_operator(2).matrix, want)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_h_rank_one_and_trace(self, m):
        w = np.linalg.eigvalsh(h_operator(m).matrix)
        assert int(np.sum(w > 1e-9)) == 1
        assert w[-1] == pytest.approx(m, abs=1e-12)
        assert np.trace(h_operator(m).matrix).real == pytest.approx(m, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_h_is_partial_transpose_of_swap(self, m):
        assert np.array_equal(
            h_operator(m).matrix, partial_transpose(swap_operator(m), "right").matrix
        )


class TestMaximallyEntangledFunctional:
    def test_on_tensor_with_identity(self):
        rng = np.random.default_rng(7)
        for m in (2, 3):
            a = random_hermitian(m, rng)
            got = rho0_apply(m, tensor(a, HermitianOperator(np.eye(m))))
            assert got == pytest.approx(np.trace(a.matrix).real / m, abs=1e-12)

    def test_on_h(self):
        assert rho0_apply(2, h_operator(2)) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unital(self, m):
        assert rho0_apply(m, bipartite(np.eye(m * m), m, m)) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            rho0_apply(3, bipartite(np.eye(4), 2, 2))

    @given(hermitians(max_dim=2))
    @settings(max_examples=30, deadline=None)
    def test_equals_h_pairing(self, op):
        m = op.dim
        x = tensor(op, op)
        via_omega = rho0_apply(m, x)
        via_h = np.trace(h_operator(m).matrix @ x.matrix).real / m
        assert via_omega == pytest.approx(via_h, abs=1e-12)

    def test_omega_is_unit(self):
        for m in (1, 2, 5):
            assert np.linalg.norm(maximally_entangled_vector(m)) == pytest.approx(1.0, abs=1e-12)


factor_dims = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


class TestProductKernel:
    @given(st.integers(1, 6), factor_dims, factor_dims, seeds)
    @settings(max_examples=40, deadline=None)
    def test_kron_rows_is_rowwise_kron(self, k, n, m, seed):
        rng = np.random.default_rng(seed)
        left, right = random_unit_rows(k, n, rng), random_unit_rows(k, m, rng)
        rows = kron_rows(left, right)
        assert rows.shape == (k, n * m)
        for i in range(k):
            np.testing.assert_allclose(rows[i], np.kron(left[i], right[i]), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2)])
    def test_kron_rows_of_no_rows(self, n, m):
        rows = kron_rows(np.empty((0, n), complex), np.empty((0, m), complex))
        assert rows.shape == (0, n * m)

    @given(st.integers(1, 6), factor_dims, factor_dims, seeds)
    @settings(max_examples=40, deadline=None)
    def test_product_values_are_expectations(self, k, n, m, seed):
        rng = np.random.default_rng(seed)
        x = random_hermitian(n * m, rng).matrix
        phi, psi = random_unit_rows(k, n, rng), random_unit_rows(k, m, rng)
        got = product_values(x, phi, psi)
        for i in range(k):
            v = np.kron(phi[i], psi[i])
            assert got[i] == pytest.approx(np.vdot(v, x @ v).real, abs=1e-12)

    @given(st.integers(0, 8), factor_dims, seeds)
    @settings(max_examples=40, deadline=None)
    def test_random_unit_rows_draws_two_normal_arrays(self, k, dim, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = random_unit_rows(k, dim, rng)
        v = ref.normal(size=(k, dim)) + 1j * ref.normal(size=(k, dim))
        assert np.array_equal(rows, v / np.linalg.norm(v, axis=1, keepdims=True))
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-12)
        assert rng.normal() == ref.normal()  # no draw more or less


class TestSwapFamily:
    @given(factor_dims, factor_dims)
    @settings(max_examples=20, deadline=None)
    def test_embedded_swap_index_convention(self, n, m):
        want = np.zeros((n * m, n * m))
        for i in range(min(n, m)):
            for j in range(min(n, m)):
                want[i * m + j, j * m + i] = 1.0
        s = embedded_swap(n, m)
        assert (s.n, s.m) == (n, m)
        assert np.array_equal(s.matrix, want)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_embedded_swap_square_is_swap_and_involution(self, m):
        s = embedded_swap(m, m).matrix
        assert np.array_equal(s, swap_operator(m).matrix)
        assert np.array_equal(s @ s, np.eye(m * m))

    @given(factor_dims, factor_dims)
    @settings(max_examples=20, deadline=None)
    def test_normalized_embedded_swap_has_trace_norm_min(self, n, m):
        k = min(n, m)
        assert trace_norm(embedded_swap(n, m).matrix / k) == pytest.approx(k, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_h_is_m_times_omega_projector(self, m):
        omega = maximally_entangled_vector(m)
        np.testing.assert_allclose(h_operator(m).matrix, m * np.outer(omega, omega.conj()),
                                   rtol=0, atol=1e-15)
