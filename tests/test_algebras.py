from dataclasses import fields

import numpy as np
import pytest

from conelab.algebras import (
    MultiMatrixAlgebra,
    algebra_tensor,
    riesz_counterexample_check,
    trace_simplex,
    verify_trace_tensor,
    verify_X_separating,
)
from conelab.operators import h_operator, min_eigenvalue, swap_operator
from conelab.polytopes import affine_dimension


class TestTraceSimplex:
    def test_single_block(self):
        s = trace_simplex(MultiMatrixAlgebra((5,)))
        assert s.n_vertices == 1

    def test_two_blocks(self):
        s = trace_simplex(MultiMatrixAlgebra((2, 3)))
        assert s.n_vertices == 2
        assert affine_dimension(s) == 1

    def test_commutative_three(self):
        s = trace_simplex(MultiMatrixAlgebra((1, 1, 1)))
        assert s.n_vertices == 3
        assert affine_dimension(s) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MultiMatrixAlgebra(())
        for blocks in [(2.5,), (float("inf"),), (float("nan"),), (True,), (np.True_,)]:
            with pytest.raises(ValueError, match="integers"):
                MultiMatrixAlgebra(blocks)
        assert MultiMatrixAlgebra((2.0,)).blocks == (2,)
        assert MultiMatrixAlgebra((10**400,)).blocks == (10**400,)


class TestAlgebraTensor:
    def test_examples(self):
        assert algebra_tensor(MultiMatrixAlgebra((2, 3)), MultiMatrixAlgebra((2,))).blocks == (4, 6)
        assert algebra_tensor(
            MultiMatrixAlgebra((2, 3)), MultiMatrixAlgebra((2, 5))
        ).blocks == (4, 10, 6, 15)
        assert algebra_tensor(MultiMatrixAlgebra((1,)), MultiMatrixAlgebra((7,))).blocks == (7,)


class TestVerifyTraceTensor:
    POOL = [(1,), (2,), (2, 3), (1, 1), (2, 2, 2)]

    def test_two_by_two_blocks(self):
        rep = verify_trace_tensor(MultiMatrixAlgebra((2, 3)), MultiMatrixAlgebra((2, 5)))
        assert rep.passes
        assert rep.blocks_product == (4, 10, 6, 15)
        assert rep.tensor_vertex_count == 4
        assert rep.tensor_dimension == 3

    def test_mono_tracial(self):
        rep = verify_trace_tensor(MultiMatrixAlgebra((4,)), MultiMatrixAlgebra((6,)))
        assert rep.passes
        assert rep.tensor_vertex_count == 1

    def test_all_pool_pairs(self):
        for a in self.POOL:
            for b in self.POOL:
                rep = verify_trace_tensor(MultiMatrixAlgebra(a), MultiMatrixAlgebra(b))
                assert rep.passes, (a, b)

    def test_report_states_only_the_dimension_check(self):
        # passes is the one computed fact: the n_a n_b product vertices are
        # affinely independent
        for a in self.POOL:
            for b in self.POOL:
                rep = verify_trace_tensor(MultiMatrixAlgebra(a), MultiMatrixAlgebra(b))
                assert [f.name for f in fields(rep)] == ["blocks_a", "blocks_b", "blocks_product",
                                                         "tensor_vertex_count", "tensor_dimension", "passes"]
                assert rep.tensor_vertex_count == len(a) * len(b) == len(rep.blocks_product)
                assert rep.passes == (rep.tensor_dimension == rep.tensor_vertex_count - 1)


class TestWitnessX:
    def test_endpoint_is_swap(self):
        # X(1, 1) = S gives the most negative eigenvalue
        for n in range(2, 7):
            rep = verify_X_separating(n)
            assert rep.passes
            assert rep.most_negative_eigenvalue == min_eigenvalue(swap_operator(n))

    def test_zero_boundary(self):
        # X(0, t) = 0 for every t, so the s t = 0 corner caps the least
        # separable value at 0
        for n in range(2, 7):
            swap = swap_operator(n).matrix
            for t in np.linspace(0.0, 1.0, 11):
                assert np.array_equal((0.0 * t) * swap, np.zeros((n * n, n * n)))
            assert verify_X_separating(n).separable_min <= 0.0

    def test_bilinear_scaling_exact(self):
        # numerical cross-check of the corners: on the (s, t) grid at step 0.1
        # the least eigenvalue of s t S and the least s t v are the report's
        axis = np.linspace(0.0, 1.0, 11)
        for n in range(2, 7):
            rep = verify_X_separating(n)
            swap = swap_operator(n).matrix
            eigs = [np.linalg.eigvalsh((s * t) * swap)[0] for s in axis for t in axis]
            assert min(eigs) == pytest.approx(rep.most_negative_eigenvalue, abs=1e-15)
            assert min(s * t * rep.certificate.value for s in axis for t in axis) == rep.separable_min

    def test_min_eigenvalue_formula(self):
        # eigenvalues of s t S are {-st, +st}, so the least one is -1 at s = t = 1
        for n in range(2, 7):
            eigs = np.linalg.eigvalsh(swap_operator(n).matrix)
            assert np.allclose(np.abs(eigs), 1.0, atol=1e-12)
            assert verify_X_separating(n).most_negative_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 2"):
            verify_X_separating(1)


class TestVerifyXSeparating:
    def test_standard_grid_passes(self):
        # the corners s t = 0, 1 stand in for the old default grid (0, 0.5, 1)
        rep = verify_X_separating(2)
        assert rep.passes
        assert rep.most_negative_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        assert rep.separable_min >= -1e-9

    def test_endpoint_grid_n3(self):
        assert verify_X_separating(3).passes

    def test_separable_minimum_approaches_zero_from_above(self):
        # s t v over s t in [0, 1] is least at s t = 0 or 1, so the minimum is
        # min(0, v), v the bound certified by Q = S^Gamma = H(n)
        for n in range(2, 7):
            rep = verify_X_separating(n)
            assert rep.separable_min == min(0.0, rep.certificate.value)
            assert rep.separable_min >= -1e-15
            assert np.array_equal(rep.certificate.q.matrix, h_operator(n).matrix)

    def test_reproducible(self):
        assert verify_X_separating(2) == verify_X_separating(2)


class TestRieszCounterexample:
    def test_passes_and_deterministic(self):
        rep = riesz_counterexample_check()
        assert rep.passes
        assert rep == riesz_counterexample_check()

    def test_domination_eigenvalues(self):
        # trace/determinant oracle for E11 - F: trace 7/3, det 1/9
        rep = riesz_counterexample_check()
        tr, det = 7.0 / 3.0, 1.0 / 9.0
        lo = (tr - np.sqrt(tr * tr - 4 * det)) / 2
        hi = (tr + np.sqrt(tr * tr - 4 * det)) / 2
        assert rep.eigs_e11_minus_f[0] == pytest.approx(lo, abs=1e-12)
        assert rep.eigs_e11_minus_f[1] == pytest.approx(hi, abs=1e-12)
        assert rep.eigs_e22_minus_f == rep.eigs_e11_minus_f

    def test_f_eigenvalues(self):
        rep = riesz_counterexample_check()
        assert rep.eigs_f[0] == pytest.approx(-5.0 / 3.0, abs=1e-12)
        assert rep.eigs_f[1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_interpolation_sweep_finds_only_zero(self):
        # the proof's two facts: <E11, E22> = 0 exactly and E11 + E22 = I
        rep = riesz_counterexample_check()
        assert rep.interpolation_ok
        assert rep.e11_e22_pairing == 0.0

    def test_coarse_grid_sweep_finds_only_zero(self):
        # numerical cross-check of the proof: on the Bloch grid at step 0.1
        # (2x2 PSD C with trace tau <= 2), 0 <= C <= E11, E22 only at C = 0
        axis = np.linspace(-1.0, 1.0, 21)
        x, y, z = (v.ravel() for v in np.meshgrid(axis, axis, axis, indexing="ij"))
        r2 = x * x + y * y
        bloch = np.sqrt(r2 + z * z)
        need = np.maximum(np.sqrt(r2 + (z - 1.0) ** 2), np.sqrt(r2 + (z + 1.0) ** 2))
        hits = [(tau, i) for tau in np.linspace(0.0, 2.0, 21)
                for i in np.flatnonzero((bloch <= tau + 1e-12) & (need <= 1.0 - tau + 1e-12))]
        assert hits == [(0.0, len(axis) ** 3 // 2)]  # tau = 0 at (x, y, z) = 0

    def test_bloch_closed_form_matches_eigen_oracle(self):
        # sample grid points, compare the closed-form PSD tests with eigvalsh
        rng = np.random.default_rng(3)
        e11 = np.diag([1.0, 0.0])
        e22 = np.diag([0.0, 1.0])
        for _ in range(200):
            tau = rng.uniform(0, 2)
            x, y, z = rng.uniform(-1, 1, size=3)
            c = 0.5 * np.array([[tau + z, x - 1j * y], [x + 1j * y, tau - z]])
            psd_closed = np.sqrt(x * x + y * y + z * z) <= tau
            psd_eig = np.linalg.eigvalsh(c)[0] >= -1e-12
            if abs(np.sqrt(x * x + y * y + z * z) - tau) > 1e-9:
                assert psd_closed == psd_eig
            dom_closed = np.sqrt(x * x + y * y + (z - 1.0) ** 2) <= 1.0 - tau
            dom_eig = np.linalg.eigvalsh(e11 - c)[0] >= -1e-12
            if abs(np.sqrt(x * x + y * y + (z - 1.0) ** 2) - (1.0 - tau)) > 1e-9:
                assert dom_closed == dom_eig
