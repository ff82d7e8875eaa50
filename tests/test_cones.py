import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from conelab import cones
from conelab.cones import (
    ENSEMBLE_ITERS,
    LM_MAX_NFEV,
    RESIDUAL_TOL,
    OptimizerConfig,
    SeparableDecomposition,
    SpectralCertificate,
    Status,
    Verdict,
    WitnessCertificate,
    _atoms_jacobian,
    _atoms_residual,
    _canonical_decomposition,
    _canonical_phase,
    _ensemble_rotate,
    _ppt_distance,
    _sqrt_factor,
    block_positive_min,
    is_block_positive,
    is_psd,
    is_separable,
    lower_bound,
    ppt_check,
    random_product_state,
    separable_decompose,
    witness_value,
)
from conelab.operators import (
    bipartite,
    embedded_swap,
    h_operator,
    kron_rows,
    min_eigenvalue,
    partial_transpose,
    product_values,
    random_density,
    random_hermitian,
    random_unit_rows,
    swap_operator,
    tensor,
)

FAST = OptimizerConfig(starts=40, steps=120, seed=0)


def projector(pv):
    v = pv.kron
    return bipartite(np.outer(v, v.conj()), len(pv.left), len(pv.right))


def random_bipartite(n, m, rng):
    return bipartite(random_hermitian(n * m, rng).matrix, n, m)


def random_separable_state(n, m, rng, terms=3):
    weights = rng.dirichlet(np.ones(terms))
    acc = np.zeros((n * m, n * m), dtype=complex)
    vecs = []
    for w in weights:
        pv = random_product_state(n, m, rng)
        v = pv.kron
        acc += w * np.outer(v, v.conj())
        vecs.append((w, pv))
    return bipartite(acc, n, m), vecs


class TestIsPsd:
    def test_h_is_psd(self):
        v = is_psd(h_operator(2), 1e-9)
        assert v.status is Status.IN

    def test_swap_is_not(self):
        v = is_psd(swap_operator(2), 1e-9)
        assert v.status is Status.OUT
        assert v.certificate.eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_zero_at_zero_tolerance(self):
        assert is_psd(bipartite(np.zeros((4, 4)), 2, 2), 0.0).status is Status.IN

    def test_certificate_is_eigenpair(self):
        v = is_psd(swap_operator(2), 1e-9)
        s = swap_operator(2).matrix
        vec = v.certificate.eigenvector
        assert np.allclose(s @ vec, v.certificate.eigenvalue * vec, atol=1e-10)


class TestBlockPositiveMin:
    def test_swap_min_is_zero(self):
        val, _ = block_positive_min(swap_operator(2), FAST)
        assert abs(val) <= 1e-9

    def test_negative_identity(self):
        val, _ = block_positive_min(bipartite(-np.eye(4), 2, 2), FAST)
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_h_min_is_zero(self):
        val, _ = block_positive_min(h_operator(2), FAST)
        assert abs(val) <= 1e-9

    def test_trace_matches_reported_vector(self):
        x = bipartite(-h_operator(2).matrix, 2, 2)
        val, trace = block_positive_min(x, FAST)
        v = trace.best_vector
        assert product_values(x.matrix, v.left[None], v.right[None])[0] == pytest.approx(
            val, abs=1e-12
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_above_min_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        x = random_bipartite(2, 3, rng)
        val, _ = block_positive_min(x, OptimizerConfig(starts=20, steps=60, seed=0))
        assert val >= min_eigenvalue(x) - 1e-9

    def test_positively_homogeneous(self):
        rng = np.random.default_rng(5)
        x = random_bipartite(2, 2, rng)
        cfg = OptimizerConfig(starts=30, steps=100, seed=0)
        base, _ = block_positive_min(x, cfg)
        for c in (0.5, 3.0, 17.25):
            scaled, _ = block_positive_min(bipartite(c * x.matrix, 2, 2), cfg)
            assert scaled == pytest.approx(c * base, abs=1e-9, rel=1e-9)

    def test_zero_operator(self):
        val, trace = block_positive_min(bipartite(np.zeros((4, 4)), 2, 2), FAST)
        assert val == 0.0

    def test_no_starts_is_rejected(self):
        with pytest.raises(ValueError, match="at least one start"):
            block_positive_min(swap_operator(2), OptimizerConfig(starts=0))

    def test_steps_caps_the_rounds(self):
        _, trace = block_positive_min(swap_operator(2), OptimizerConfig(starts=4, steps=1))
        assert (trace.rounds, trace.steps) == (1, 1)

    def test_swap_converges_before_round_cap(self):
        _, trace = block_positive_min(swap_operator(2), FAST)
        assert trace.converged
        assert trace.rounds < FAST.steps
        assert 1 <= trace.agreeing <= FAST.starts

    @pytest.mark.parametrize("n,m,starts",
                             [pytest.param(n, m, 200, id=f"{n}-{m}")
                              for n, m in [(2, 2), (2, 3), (3, 3), (4, 4)]]
                             + [pytest.param(4, 4, 8, id="4-4-8starts")])
    @pytest.mark.parametrize("eps", [1e-5, -1e-5])
    def test_planted_minimum(self, n, m, eps, starts):
        # X = P^Gamma / ||P^Gamma|| + eps I with P = g g* and g orthogonal to
        # a (x) conj(b): every product vector gives P^Gamma the value
        # |<g, phi (x) conj(psi)>|^2 >= 0, and a (x) b gives it 0, so the
        # minimum over product vectors is exactly eps.
        rng = np.random.default_rng([n, m])
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        zero = np.kron(a, b.conj()) / (np.linalg.norm(a) * np.linalg.norm(b))
        g = rng.normal(size=n * m) + 1j * rng.normal(size=n * m)
        g -= zero * np.vdot(zero, g)
        pt = partial_transpose(bipartite(np.outer(g, g.conj()), n, m), "right").matrix
        x = bipartite(pt / np.max(np.abs(np.linalg.eigvalsh(pt))) + eps * np.eye(n * m), n, m)
        val, _ = block_positive_min(x, OptimizerConfig(starts=starts))
        assert val == pytest.approx(eps, abs=1e-9)


class TestIsBlockPositive:
    @pytest.mark.parametrize("m", [2, 3])
    def test_swap_is_block_positive(self, m):
        v = is_block_positive(swap_operator(m), 1e-6, FAST)
        assert v.status is Status.IN
        assert v.certificate.best_value >= -1e-6

    def test_negative_h_is_out_at_product_vector(self):
        v = is_block_positive(bipartite(-h_operator(2).matrix, 2, 2), 1e-6, FAST)
        assert v.status is Status.OUT
        # minimum -1, witnessed by a product vector the certificate reproduces
        assert v.certificate.best_value == pytest.approx(-1.0, abs=1e-9)
        x = bipartite(-h_operator(2).matrix, 2, 2)
        pv = v.certificate.best_vector
        assert product_values(x.matrix, pv.left[None], pv.right[None])[0] == pytest.approx(
            v.certificate.best_value, abs=1e-12
        )

    def test_identity_in(self):
        v = is_block_positive(bipartite(np.eye(6), 2, 3), 1e-6, FAST)
        assert v.status is Status.IN

    def test_determinism(self):
        x = bipartite(-h_operator(2).matrix, 2, 2)
        a = is_block_positive(x, 1e-6, FAST)
        b = is_block_positive(x, 1e-6, FAST)
        assert a.certificate.best_value == b.certificate.best_value
        assert np.array_equal(a.certificate.best_vector.left, b.certificate.best_vector.left)


class TestLowerBound:
    @given(st.integers(0, 10_000), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    @settings(max_examples=20, deadline=None)
    def test_below_product_values_and_the_seesaw(self, seed, size):
        n, m = size
        rng = np.random.default_rng(seed)
        x, q = random_bipartite(n, m, rng), random_bipartite(n, m, rng)
        value = lower_bound(x, q).value
        a, b = random_unit_rows(100, n, rng), random_unit_rows(100, m, rng)
        assert np.all(value <= product_values(x.matrix, a, b))
        assert value <= block_positive_min(x)[0] + 1e-12

    @pytest.mark.parametrize("x", [swap_operator(m) for m in range(2, 6)]
                             + [embedded_swap(n, m) for n, m in [(2, 3), (3, 2), (2, 4)]],
                             ids=lambda x: f"{x.n}x{x.m}")
    def test_swap_family_is_certified_by_its_partial_transpose(self, x):
        assert lower_bound(x, partial_transpose(x, "right")).value >= -1e-12

    def test_factorizations_must_match(self):
        with pytest.raises(ValueError, match="factorizations differ"):
            lower_bound(embedded_swap(2, 3), embedded_swap(3, 2))


class TestPptCheck:
    def test_h_half_is_out_with_witness(self):
        state = bipartite(h_operator(2).matrix / 2, 2, 2)
        v = ppt_check(state, 1e-9)
        assert v.status is Status.OUT
        w = v.certificate
        assert w.value < 0
        assert w.value == pytest.approx(-0.5, abs=1e-9)
        # the witness is block positive and reproduces the pairing value
        assert is_block_positive(w.witness, 1e-6, FAST).status is Status.IN
        assert witness_value(w.witness, state) == pytest.approx(w.value, abs=1e-12)

    def test_maximally_mixed_in(self):
        assert ppt_check(bipartite(np.eye(4) / 4, 2, 2), 1e-9).status is Status.IN

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_product_states_are_in_at_2x2(self, seed):
        rng = np.random.default_rng(seed)
        t = tensor(random_density(2, rng), random_density(2, rng))
        assert ppt_check(t, 1e-9).status is Status.IN

    def test_unknown_beyond_exact_sizes(self):
        state = bipartite(np.eye(9) / 9, 3, 3)
        assert ppt_check(state, 1e-9).status is Status.UNKNOWN

    def test_out_requires_psd_for_in(self):
        # swap passes PPT (its partial transpose H is PSD) but is not PSD itself
        assert ppt_check(swap_operator(2), 1e-9).status is Status.UNKNOWN

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (3, 1)])
    def test_in_at_a_one_dimensional_factor(self, n, m):
        # a PSD operator on C^1 (x) C^m is 1 (x) X_B: separable
        state = bipartite(random_density(n * m, np.random.default_rng(n + m)).matrix, n, m)
        v = ppt_check(state, 1e-9)
        assert v.status is Status.IN
        assert v.certificate.eigenvalue >= -1e-9

    @pytest.mark.parametrize("n, m", [(1, 3), (3, 1)])
    def test_out_at_a_one_dimensional_factor(self, n, m):
        x = bipartite(np.diag([1.0, -0.5, 0.25]), n, m)
        v = ppt_check(x, 1e-9)
        assert v.status is Status.OUT
        assert v.certificate.value == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("n, m, status", [(2, 3, Status.IN), (3, 2, Status.IN),
                                              (2, 4, Status.UNKNOWN)])
    def test_product_mixture_is_in_only_at_exact_sizes(self, n, m, status):
        rng = np.random.default_rng([n, m, 5])
        v = kron_rows(random_unit_rows(5, n, rng), random_unit_rows(5, m, rng))
        state = bipartite((v.T * rng.dirichlet(np.ones(5))) @ v.conj(), n, m)
        assert ppt_check(state).status is status


class TestSeparableDecompose:
    def test_pure_product_single_term(self):
        rng = np.random.default_rng(2)
        pv = random_product_state(2, 2, rng)
        v = separable_decompose(projector(pv))
        assert v.status is Status.IN
        assert len(v.certificate.weights) == 1
        assert v.certificate.residual < 1e-10

    def test_maximally_mixed_few_terms(self):
        v = separable_decompose(bipartite(np.eye(4) / 4, 2, 2))
        assert v.status is Status.IN
        assert len(v.certificate.weights) <= 4

    def test_entangled_never_in(self):
        state = bipartite(h_operator(2).matrix / 2, 2, 2)
        assert ppt_check(state).status is Status.OUT
        v = separable_decompose(state)
        assert v.status is Status.UNKNOWN

    @pytest.mark.parametrize("make", [
        lambda rng: random_separable_state(2, 2, rng, terms=2)[0],
        lambda rng: bipartite(0.7 * random_separable_state(2, 2, rng, terms=2)[0].matrix
                              + 0.3 * np.eye(4) / 4, 2, 2),
    ], ids=["rank-2", "full-rank"])
    def test_random_mixture_reconstructs(self, make):
        rng = np.random.default_rng(11)
        state = make(rng)
        v = separable_decompose(state)
        assert v.status is Status.IN
        recon = v.certificate.reconstruct()
        assert np.linalg.norm(recon - state.matrix) == pytest.approx(
            v.certificate.residual, abs=1e-12
        )

    def test_3x3_rank4_mixture(self):
        state, _ = random_separable_state(3, 3, np.random.default_rng(29), terms=4)
        v = separable_decompose(state)
        assert v.status is Status.IN
        assert v.certificate.residual < RESIDUAL_TOL
        recon = v.certificate.reconstruct()
        assert np.linalg.norm(recon - state.matrix) == pytest.approx(
            v.certificate.residual, abs=1e-12
        )

    def test_full_rank_4x4_runs_the_ensemble(self):
        # rank 16: the first ensemble batch has 2 * 16 + 2 = 34 atoms
        mix, _ = random_separable_state(4, 4, np.random.default_rng(0), terms=8)
        state = bipartite(0.7 * mix.matrix + 0.3 * np.eye(16) / 16, 4, 4)
        v = separable_decompose(state)
        assert v.status is Status.IN
        assert len(v.certificate.weights) == 34
        assert np.linalg.norm(v.certificate.reconstruct() - state.matrix) == pytest.approx(
            v.certificate.residual, abs=1e-12
        )

    @pytest.mark.parametrize("state, rotations", [
        (random_separable_state(2, 3, np.random.default_rng(3), terms=3)[0], 0),
        (bipartite(0.7 * random_separable_state(2, 2, np.random.default_rng(11), terms=2)[0].matrix
                   + 0.3 * np.eye(4) / 4, 2, 2), 0),
        (random_separable_state(2, 2, np.random.default_rng(5), terms=3)[0], 1),
    ], ids=["2x3 rank-3", "2x2 full-rank", "2x2 rank-3 ensemble"])
    def test_one_eigendecomposition_of_the_state(self, monkeypatch, state, rotations):
        # the PSD check, the square-root factor and every ensemble attempt
        # share one eigh of the state; the range closed form adds at most
        # one of its partial transpose
        calls, rotated = [], [0]
        eigh, rotate = np.linalg.eigh, cones._ensemble_rotate
        pt = partial_transpose(state, "right").matrix

        def counted_eigh(g):
            calls.append((np.array_equal(g, state.matrix), np.array_equal(g, pt)))
            return eigh(g)

        def counted_rotate(*args):
            rotated[0] += 1
            return rotate(*args)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(cones, "_ensemble_rotate", counted_rotate)
        assert separable_decompose(state).status is Status.IN
        of_state, of_pt = np.sum(calls, axis=0)
        assert of_state == 1
        assert of_pt <= 1
        assert rotated[0] == rotations

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            separable_decompose(swap_operator(2))

    def test_a_failed_polish_is_a_failed_attempt(self, monkeypatch):
        # the polish's Cholesky raises LinAlgError when its damped matrix
        # is not positive definite: that attempt is dropped, like an empty
        # polish
        calls = [0]

        def fail(*args, **kwargs):
            calls[0] += 1
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(cones, "least_squares", fail)
        state, _ = random_separable_state(2, 2, np.random.default_rng(5), terms=3)
        v = separable_decompose(state)
        assert calls[0] >= 1
        assert v.status is Status.UNKNOWN
        assert np.linalg.norm(v.certificate.reconstruct() - state.matrix) == pytest.approx(
            v.certificate.residual, abs=1e-12
        )

    def test_polish_settles_a_five_term_2x3_mixture(self):
        # past the range closed form's bound at 2x3, so only the polish can
        # reach RESIDUAL_TOL
        rng = np.random.default_rng([2, 3, 5, 0])
        v = kron_rows(random_unit_rows(5, 2, rng), random_unit_rows(5, 3, rng))
        state = bipartite((v.T * rng.dirichlet(np.ones(5))) @ v.conj(), 2, 3)
        verdict = separable_decompose(state)
        assert verdict.status is Status.IN
        assert len(verdict.certificate.weights) == 16
        assert verdict.certificate.residual < RESIDUAL_TOL

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            separable_decompose(bipartite(np.eye(4), 2, 2))


def _ensemble_rotate_by_column(a, n, m, k, seed):
    """Reference: the rotation with one SVD and one kron per column."""
    r = a.shape[1]
    k = max(k, r)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
    q, _ = np.linalg.qr(z.conj().T)
    c = a @ q.conj().T
    best_err, best_atoms, prev, since_improved = np.inf, None, None, 0
    for _ in range(ENSEMBLE_ITERS):
        proj = np.empty_like(c)
        atoms, err = [], 0.0
        for i in range(k):
            u, _, vt = np.linalg.svd(c[:, i].reshape(n, m), full_matrices=False)
            atoms.append((u[:, 0], vt[0]))
            qv = np.kron(u[:, 0], vt[0])
            proj[:, i] = np.vdot(qv, c[:, i]) * qv
            err += float(np.linalg.norm(c[:, i] - proj[:, i]) ** 2)
        if err < best_err * (1.0 - 1e-9):
            best_err, best_atoms, since_improved = err, atoms, 0
        else:
            since_improved += 1
            if since_improved > 150:
                break
        if err < 1e-22:
            break
        accel = proj if prev is None else proj + 0.95 * (proj - prev)
        prev = proj
        u2, _, vt2 = np.linalg.svd(a.conj().T @ accel, full_matrices=False)
        c = a @ (u2 @ vt2)
    return best_atoms, best_err


def _atom_projectors(pairs):
    vs = [np.kron(p, q) for p, q in pairs]
    return np.array([np.outer(v, v.conj()) for v in vs])


class TestCanonicalCertificate:
    def test_phase_is_fixed_by_the_first_largest_entry(self):
        rows = np.array([[0.6j, -0.8], [1.0, 1j], [-3.0, 4j]])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        want = np.array([[-0.6j, 0.8], [2 ** -0.5, 2 ** -0.5 * 1j], [0.6j, 0.8]])
        got = _canonical_phase(rows)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert np.all(got[[0, 1, 2], [1, 0, 1]].imag == 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_removes_the_phase_freedom(self, seed):
        rng = np.random.default_rng(seed)
        rows = random_unit_rows(6, 3, rng)
        phases = np.exp(2j * np.pi * rng.random((6, 1)))
        np.testing.assert_allclose(_canonical_phase(phases * rows), _canonical_phase(rows),
                                   rtol=0, atol=1e-15)

    def test_atoms_by_descending_weight_ties_in_search_order(self):
        rng = np.random.default_rng(0)
        left, right = random_unit_rows(5, 2, rng), random_unit_rows(5, 3, rng)
        weights = np.array([0.1, 0.3, 0.0, 0.3 + 1e-14, 0.3])
        cert = _canonical_decomposition(0.0, left, right, weights)
        assert cert.weights.tolist() == [0.3, 0.3 + 1e-14, 0.3, 0.1]
        order = [1, 3, 4, 0]
        for f, a, b in zip(cert.factors, _canonical_phase(left[order]),
                           _canonical_phase(right[order])):
            assert np.array_equal(f.left, a) and np.array_equal(f.right, b)


class TestEnsembleRotate:
    @pytest.mark.parametrize("n, m, terms, k", [(2, 3, 3, 8), (3, 3, 4, 10), (2, 2, 0, 10)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_per_column_loop(self, n, m, terms, k, seed):
        if terms:
            state, _ = random_separable_state(n, m, np.random.default_rng(5), terms=terms)
        else:  # PPT-violating: the rotation stalls at its floor
            state = bipartite(0.6 * h_operator(2).matrix / 2 + 0.1 * np.eye(4), 2, 2)
        a = _sqrt_factor(*np.linalg.eigh(state.matrix))
        left, right, err = _ensemble_rotate(a, n, m, k, seed)
        atoms, ref_err = _ensemble_rotate_by_column(a, n, m, k, seed)
        assert left.shape == (k, n) and right.shape == (k, m)
        assert err == pytest.approx(ref_err, rel=1e-9, abs=1e-20)
        got = _atom_projectors(zip(left, right))
        assert np.max(np.abs(got - _atom_projectors(atoms))) <= 1e-9


def _ensemble_rotate_svd_step(a, n, m, k, seed):
    """Reference: the rotation projecting through one batched SVD of the
    n x m blocks per step.  Also returns the number of steps."""
    r = a.shape[1]
    k = max(k, r)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
    q, _ = np.linalg.qr(z.conj().T)
    c = a @ q.conj().T
    best_err, best, prev, since_improved = np.inf, None, None, 0
    for steps in range(1, ENSEMBLE_ITERS + 1):
        u, _, vt = np.linalg.svd(c.T.reshape(k, n, m), full_matrices=False)
        left, right = u[:, :, 0], vt[:, 0]
        qv = kron_rows(left, right)
        proj = (qv * np.einsum("id,di->i", qv.conj(), c)[:, None]).T
        err = float(np.linalg.norm(c - proj) ** 2)
        if err < best_err * (1.0 - 1e-9):
            best_err, best, since_improved = err, (left, right), 0
        else:
            since_improved += 1
            if since_improved > 150:
                break
        if err < 1e-22:
            break
        accel = proj if prev is None else proj + 0.95 * (proj - prev)
        prev = proj
        u2, _, vt2 = np.linalg.svd(a.conj().T @ accel, full_matrices=False)
        c = a @ (u2 @ vt2)
    return (*best, best_err, steps)


class TestGramStep:
    """The Gram-eigensolve step of ``_ensemble_rotate`` against the SVD
    step it replaced, on both sides of n = m.

    Separable states mix n + m - 2 <= (n - 1)(m - 1) + 1 product states,
    so their range holds finitely many product vectors.  Where the
    certificate has that many atoms it is the unique decomposition, and
    both steps must find it; with more atoms the decompositions form a
    continuum, and the steps' 1e-6 drift in raw phase can move weights.
    """

    @pytest.fixture
    def steps(self, monkeypatch):
        """Counts the rotation's steps: one batched (3-d) eigh each."""
        count = [0]
        eigh = np.linalg.eigh

        def counted(g):
            count[0] += g.ndim == 3
            return eigh(g)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return count

    @staticmethod
    def separable(n, m, seed):
        return random_separable_state(n, m, np.random.default_rng([n, m, seed]),
                                      terms=n + m - 2)[0]

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("separable", [True, False], ids=["separable", "ppt-violating"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_steps_and_error_as_the_svd_step(self, steps, n, m, separable, seed):
        if separable:
            x = self.separable(n, m, seed).matrix
        else:
            x = noisy_entangled(n, m, 0.3, np.random.default_rng([n, m, seed])).matrix
        a = _sqrt_factor(*np.linalg.eigh(x))
        k = 2 * a.shape[1] + 2
        _, _, err = _ensemble_rotate(a, n, m, k, seed)
        _, _, ref_err, ref_steps = _ensemble_rotate_svd_step(a, n, m, k, seed)
        assert steps[0] == ref_steps
        assert err == pytest.approx(ref_err, rel=1e-12, abs=1e-20)
        assert (err < 1e-20) if separable else (err > 5e-4)

    @pytest.mark.parametrize("n, m, seed", [(2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 1), (4, 2, 2)])
    def test_same_canonical_certificate_as_the_svd_step(self, monkeypatch, n, m, seed):
        state = self.separable(n, m, seed)
        calls = [0]

        def reference(*args):
            calls[0] += 1
            return _ensemble_rotate_svd_step(*args)[:3]

        # every state here is decided by the range closed form: keep it out of the way
        monkeypatch.setattr(cones, "_range_atoms", lambda *args: None)
        got = separable_decompose(state).certificate
        monkeypatch.setattr(cones, "_ensemble_rotate", reference)
        ref = separable_decompose(state).certificate
        assert calls[0] >= 1
        assert len(got.weights) == len(ref.weights) == n + m - 2
        assert np.max(np.abs(got.weights - ref.weights)) <= 1e-9
        assert np.max(np.abs(_atom_projectors((f.left, f.right) for f in got.factors)
                             - _atom_projectors((f.left, f.right) for f in ref.factors))) <= 1e-9


def noisy_entangled(n, m, noise, rng=None):
    """(1 - noise) psi psi* + noise sigma, psi maximally entangled of Schmidt
    rank min(n, m); sigma is I / nm, or a random state drawn from rng."""
    psi = np.eye(n, m).ravel() / np.sqrt(min(n, m))
    sigma = np.eye(n * m) / (n * m) if rng is None else random_density(n * m, rng).matrix
    return bipartite((1 - noise) * np.outer(psi, psi) + noise * sigma, n, m)


def ppt_floor(state):
    """``_ppt_distance`` of a state, from the spectrum of its partial transpose."""
    return _ppt_distance(np.linalg.eigvalsh(partial_transpose(state, "right").matrix))


class TestRotationFloor:
    """The floor ``_ppt_distance`` puts under every separable fit, and the
    screen that skips the ensemble phase when the floor reaches
    ``RESIDUAL_TOL``."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
           noise=st.floats(0.0, 1.0), atoms=st.integers(1, 6), trace=st.floats(0.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_no_separable_operator_is_nearer_than_the_floor(self, size, noise, atoms, trace,
                                                            seed):
        n, m = size
        rng = np.random.default_rng(seed)
        state = noisy_entangled(n, m, noise, rng)
        v = kron_rows(random_unit_rows(atoms, n, rng), random_unit_rows(atoms, m, rng))
        y = (v.T * (trace * rng.dirichlet(np.ones(atoms)))) @ v.conj()
        assert np.linalg.norm(state.matrix - y) >= ppt_floor(state)

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]),
           terms=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_floor_is_zero_on_separable_states(self, size, terms, seed):
        state, _ = random_separable_state(*size, np.random.default_rng(seed), terms=terms)
        assert ppt_floor(state) == 0.0

    @pytest.fixture
    def rotations(self, monkeypatch):
        count = [0]

        def counted(*args):
            count[0] += 1
            return _ensemble_rotate(*args)

        monkeypatch.setattr(cones, "_ensemble_rotate", counted)
        return count

    @pytest.mark.parametrize("state, status, attempts", [
        (noisy_entangled(3, 3, 0.2), Status.UNKNOWN, 0),
        (bipartite(h_operator(2).matrix / 2, 2, 2), Status.UNKNOWN, 0),
        (noisy_entangled(2, 2, 0.6), Status.UNKNOWN, 0),
        (random_separable_state(2, 2, np.random.default_rng(11), terms=2)[0], Status.IN, 1),
    ], ids=["3x3 noise 0.2", "h/2", "2x2 noise 0.6", "separable 2x2"])
    def test_ensemble_attempts_run_only_below_the_floor(self, monkeypatch, rotations, state,
                                                        status, attempts):
        if attempts:  # the separable 2x2 state has rank 2: keep the range closed form out of the way
            monkeypatch.setattr(cones, "_range_atoms", lambda *args: None)
        assert separable_decompose(state).status is status
        assert rotations[0] == attempts

    def test_every_rotation_batch_is_polished(self, monkeypatch):
        # a batch far from any product ensemble is still polished: the
        # screen is the only guard in front of the ensemble phase
        polished = [0]

        def far(*args):
            left, right, _ = _ensemble_rotate(*args)
            return left, right, 1.0

        def counted(*args):
            polished[0] += 1
            return polish(*args)

        polish = cones._polish_atoms
        monkeypatch.setattr(cones, "_range_atoms", lambda *args: None)
        monkeypatch.setattr(cones, "_ensemble_rotate", far)
        monkeypatch.setattr(cones, "_polish_atoms", counted)
        state = random_separable_state(2, 2, np.random.default_rng(11), terms=2)[0]
        assert separable_decompose(state).status is Status.IN
        assert polished[0] == 1

    @pytest.mark.parametrize("state, identical", [
        (noisy_entangled(3, 3, 0.2), False),
        (noisy_entangled(2, 3, 0.3, np.random.default_rng(4)), False),
        (bipartite(h_operator(2).matrix / 2, 2, 2), True),
        (noisy_entangled(2, 2, 0.6), False),
        (random_separable_state(2, 2, np.random.default_rng(11), terms=2)[0], True),
    ], ids=["3x3 noise 0.2", "2x3 mixture", "h/2", "2x2 noise 0.6", "separable 2x2"])
    def test_screen_leaves_every_certificate_unchanged(self, monkeypatch, state, identical):
        screened = separable_decompose(state)
        monkeypatch.setattr(cones, "_ppt_distance", lambda lam: 0.0)
        unscreened = separable_decompose(state)
        assert screened.status is unscreened.status
        a, b = screened.certificate, unscreened.certificate
        if not identical:
            assert min(a.residual, b.residual) >= ppt_floor(state)
            return
        assert np.float64(a.residual).tobytes() == np.float64(b.residual).tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()
        assert len(a.factors) == len(b.factors)
        for f, g in zip(a.factors, b.factors):
            assert f.left.tobytes() == g.left.tobytes() and f.right.tobytes() == g.right.tobytes()

    @pytest.mark.parametrize("state", [
        noisy_entangled(3, 3, 0.2),
        bipartite(h_operator(2).matrix / 2, 2, 2),
        noisy_entangled(2, 2, 0.6),
    ], ids=["3x3 noise 0.2", "h/2", "2x2 noise 0.6"])
    def test_screened_certificates_reconstruct(self, state):
        cert = separable_decompose(state).certificate
        assert len(cert.weights) >= 1
        assert np.all(cert.weights >= 0)
        assert np.linalg.norm(cert.reconstruct() - state.matrix) == pytest.approx(
            cert.residual, abs=1e-12
        )

    def test_screen_reads_the_range_atoms_spectrum(self, monkeypatch):
        count = [0]

        def counted(*args):
            count[0] += 1
            return partial_transpose(*args)

        monkeypatch.setattr(cones, "partial_transpose", counted)
        assert separable_decompose(noisy_entangled(3, 3, 0.2)).status is Status.UNKNOWN
        assert count[0] == 1


class TestFirstFit:
    """``separable_decompose`` runs no product-vector search: the closed-form
    first fit and the ensemble phase decide every input."""

    @pytest.mark.parametrize("state, status", [
        (projector(random_product_state(2, 2, np.random.default_rng(2))), Status.IN),
        (projector(random_product_state(3, 3, np.random.default_rng(3))), Status.IN),
        (random_separable_state(2, 3, np.random.default_rng(4), terms=3)[0], Status.IN),
        (bipartite(0.7 * random_separable_state(2, 2, np.random.default_rng(11), terms=2)[0].matrix
                   + 0.3 * np.eye(4) / 4, 2, 2), Status.IN),
        (noisy_entangled(3, 3, 0.2), Status.UNKNOWN),
        (bipartite(h_operator(2).matrix / 2, 2, 2), Status.UNKNOWN),
    ], ids=["2x2 product", "3x3 product", "2x3 rank-3", "2x2 full-rank", "3x3 noise 0.2",
            "h/2"])
    def test_no_block_positive_min_call(self, monkeypatch, state, status):
        def refuse(*args, **kwargs):
            raise AssertionError("block_positive_min called")

        monkeypatch.setattr(cones, "block_positive_min", refuse)
        v = separable_decompose(state)
        assert v.status is status
        assert np.linalg.norm(v.certificate.reconstruct() - state.matrix) == pytest.approx(
            v.certificate.residual, abs=1e-12
        )


class TestNnls:
    """``cones.nnls`` against ``scipy.optimize.nnls``, which runs the same
    active set: the same optimum, without calling scipy."""

    @pytest.fixture
    def scipy_calls(self, monkeypatch):
        """Counts the calls that reach ``scipy.optimize.nnls``."""
        count = [0]

        def counted(a, b):
            count[0] += 1
            return scipy_nnls(a, b)

        monkeypatch.setattr(scipy.optimize, "nnls", counted)
        return count

    @staticmethod
    def system(seed, active):
        """A random 40 x 8 system.  With ``active`` the right-hand side is
        random and some weights are 0 at the optimum; otherwise it is a
        positive mix of the columns plus noise, and none is."""
        rng = np.random.default_rng([seed, 49])
        a = rng.normal(size=(40, 8))
        b = rng.normal(size=40) if active else a @ rng.uniform(0.5, 1.5, 8) + 0.1 * rng.normal(size=40)
        return a, b

    @pytest.mark.parametrize("active", [True, False], ids=["active", "interior"])
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_scipy(self, scipy_calls, seed, active):
        a, b = self.system(seed, active)
        ref = scipy_nnls(a, b)[0]
        assert bool(np.any(ref == 0)) is active
        assert bool(np.any(np.linalg.lstsq(a, b, rcond=None)[0] <= 0)) is active
        x = cones.nnls(a, b)
        assert scipy_calls[0] == 0
        assert np.all(x >= 0)
        assert np.max(np.abs(x - ref)) <= 1e-11

    def test_agrees_with_scipy_on_a_benchmark_fit(self, scipy_calls, monkeypatch):
        # The first fit of perfbench's decompose seed 6, entangled 3x3 (request
        # 107): one atom's unconstrained weight is negative.
        systems = []
        with monkeypatch.context() as m:
            m.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
            import generators

            m.setattr(cones, "nnls", lambda a, b: systems.append((a, b)) or scipy_nnls(a, b)[0])
            separable_decompose(generators.entangled_state(3, 3, 0.2, np.random.default_rng([6, 107])))
        a, b = systems[0]
        assert np.sum(np.linalg.lstsq(a, b, rcond=None)[0] <= 0) == 1
        ref = scipy_nnls(a, b)[0]
        x = cones.nnls(a, b)
        assert scipy_calls[0] == 0
        assert np.sum(ref == 0) == np.sum(x == 0) == 1
        assert np.max(np.abs(x - ref)) <= 1e-11

    @pytest.mark.parametrize("how", ["duplicate column", "cond 1e8"])
    def test_degenerate_systems_agree_with_scipy(self, scipy_calls, how):
        a, b = self.system(0, active=False)
        if how == "duplicate column":
            a[:, 1] = a[:, 0]
            assert np.linalg.matrix_rank(a) == 7
        else:
            a[:, 1] = a[:, 0] + 1e-8 * a[:, 1]
            assert np.linalg.matrix_rank(a) == 8 and np.linalg.cond(a) > 1e6
        ref = scipy_nnls(a, b)[0]
        x = cones.nnls(a, b)
        assert scipy_calls[0] == 0
        assert np.array_equal(x == 0, ref == 0)
        assert np.max(np.abs(x - ref)) <= 1e-12
        assert np.linalg.norm(a @ x - b) <= np.linalg.norm(a @ ref - b) + 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", range(3))
    def test_near_duplicate_atoms_fit_as_well_as_scipy(self, scipy_calls, monkeypatch, seed):
        # A 3x3 seven-term mixture fitted on its atoms and two copies of each,
        # nudged by 1e-4 (condition number about 1e9).  Many weights are
        # optimal there, so only the residual is compared.
        rng = np.random.default_rng([seed, 54])
        left, right = random_unit_rows(7, 3, rng), random_unit_rows(7, 3, rng)
        v = kron_rows(left, right)
        x = (v.T * rng.dirichlet(np.ones(7))) @ v.conj() + 1e-7 * np.eye(9)

        def copies(f):
            g = np.vstack([f] + [f + 1e-4 * random_unit_rows(7, 3, rng) for _ in range(2)])
            return g / np.linalg.norm(g, axis=1, keepdims=True)

        systems = []
        with monkeypatch.context() as m:
            m.setattr(cones, "nnls", lambda a, b: systems.append((a, b)) or scipy_nnls(a, b)[0])
            cones._fit_state(copies(left), copies(right), x)
        (a, b), = systems
        ref = scipy_nnls(a, b)[0]
        got = cones.nnls(a, b)
        assert scipy_calls[0] == 0
        assert np.all(got >= 0)
        assert np.linalg.norm(a @ got - b) <= np.linalg.norm(a @ ref - b) + 1e-12 * np.linalg.norm(b)

    def test_ensemble_fits_need_no_scipy(self, monkeypatch):
        # With the range closed form out of the way, the search's near-duplicate
        # atoms make rank-deficient fits.
        systems = []
        nnls = cones.nnls

        def recorded(a, b):
            systems.append(a)
            return nnls(a, b)

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.optimize.nnls called")

        monkeypatch.setattr(scipy.optimize, "nnls", refuse)
        monkeypatch.setattr(cones, "nnls", recorded)
        monkeypatch.setattr(cones, "_range_atoms", lambda *args: None)
        v = separable_decompose(TestGramStep.separable(3, 2, 3))
        assert v.status is Status.IN
        assert len(v.certificate.weights) == 3 + 2 - 2
        assert any(np.linalg.matrix_rank(a) < a.shape[1] for a in systems)


class TestWootters:
    """The closed-form phase of ``separable_decompose`` on full-rank 2x2 states."""

    rotations = TestRotationFloor.rotations

    # The counter is shared by all examples; each reads only its own increment.
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cols=st.integers(4, 6), seed=st.integers(0, 2**32 - 1))
    def test_full_rank_states(self, rotations, cols, seed):
        before = rotations[0]
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, cols)) + 1j * rng.normal(size=(4, cols))
        rho = g @ g.conj().T
        state = bipartite(rho / np.trace(rho).real, 2, 2)
        v = separable_decompose(state)
        if min_eigenvalue(partial_transpose(state, "right")) >= 1e-9:
            assert v.status is Status.IN
            assert len(v.certificate.weights) == 4
            assert v.certificate.residual <= 1e-10
            assert rotations[0] == before
        if ppt_floor(state) >= RESIDUAL_TOL:
            assert v.status is not Status.IN

    @staticmethod
    def werner(p):
        phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        return bipartite(p * np.outer(phi, phi) + (1 - p) * np.eye(4) / 4, 2, 2)

    def test_werner_boundary(self, rotations):
        v = separable_decompose(self.werner(1 / 3))
        assert v.status is Status.IN
        assert len(v.certificate.weights) == 4
        assert rotations[0] == 0
        assert separable_decompose(self.werner(1 / 3 + 1e-6)).status is Status.UNKNOWN


class TestRangeAtoms:
    """The closed-form phase of ``separable_decompose`` on states of rank r
    with r (r - 1) <= n^2 C(m, 2), the larger factor on the right."""

    @pytest.fixture
    def searches(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("search called")

        monkeypatch.setattr(cones, "_ensemble_rotate", refuse)
        monkeypatch.setattr(cones, "least_squares", refuse)

    @staticmethod
    def factors(x):
        """Square-root factors of the state and of its right partial transpose."""
        return (_sqrt_factor(*np.linalg.eigh(x.matrix)),
                _sqrt_factor(*np.linalg.eigh(partial_transpose(x, "right").matrix)))

    @pytest.mark.parametrize("n, m, rank", [(2, 2, 2), (2, 3, 3), (3, 2, 3), (2, 4, 4), (4, 2, 4),
                                            (3, 3, 3), (3, 4, 4), (4, 3, 4), (2, 3, 2), (3, 3, 4),
                                            (2, 4, 3), (3, 4, 5), (3, 4, 6), (4, 4, 5), (4, 4, 9),
                                            (2, 5, 4), (2, 3, 4), (3, 2, 4), (2, 4, 5), (3, 3, 5),
                                            (4, 2, 5), (4, 4, 10), (1, 3, 3), (3, 1, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_generic_mixtures_need_no_search(self, searches, n, m, rank, seed):
        state, _ = random_separable_state(n, m, np.random.default_rng([n, m, rank, seed]),
                                          terms=rank)
        v = separable_decompose(state)
        assert v.status is Status.IN
        assert len(v.certificate.weights) == rank
        assert np.linalg.norm(v.certificate.reconstruct() - state.matrix) <= 1e-9

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5),
                                      (3, 4), (4, 3), (4, 4)])
    def test_settles_every_rank_of_the_minors_bound(self, n, m):
        # C(n, 2) C(m, 2) >= r (r - 1) / 2 bounded the 2x2-minors form this
        # one replaced: every generic mixture there keeps exactly r atoms
        ranks = [r for r in range(1, n * m) if r * (r - 1) <= n * (n - 1) * m * (m - 1) // 2]
        for rank in ranks:
            for seed in range(5):
                x, _ = random_separable_state(n, m, np.random.default_rng([n, m, rank, seed, 7]),
                                              terms=rank)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    fit = cones._range_atoms(*self.factors(x), n, m)
                assert fit is not None, (rank, seed)
                weights, residual = cones._fit_state(*fit, x.matrix)
                assert residual < RESIDUAL_TOL
                assert np.sum(weights > 1e-12) == rank

    @pytest.mark.parametrize("n, m", [(1, 3), (3, 1)])
    def test_a_factor_of_dimension_one(self, searches, n, m):
        # every vector is product: rank 1 is one atom, and a larger range
        # holds a continuum, which the columns of A decompose instead
        for rank in (1, 2, 3):
            x, _ = random_separable_state(n, m, np.random.default_rng([n, m, rank]), terms=rank)
            a, b = self.factors(x)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = cones._range_atoms(a, b, n, m)
            assert (fit is None) == (rank > 1)
            v = separable_decompose(x)
            assert v.status is Status.IN
            assert len(v.certificate.weights) == rank

    @pytest.mark.parametrize("state", [
        *(TestGramStep.separable(n, m, seed) for n, m, seed in
          [(2, 2, 1), (2, 3, 2), (3, 2, 3), (4, 2, 2), (3, 3, 1)]),
        random_separable_state(2, 2, np.random.default_rng(11), terms=2)[0],
    ], ids=["2-2-1", "2-3-2", "3-2-3", "4-2-2", "3-3-1", "separable 2x2"])
    def test_same_certificate_as_the_ensemble(self, monkeypatch, state):
        got = separable_decompose(state).certificate
        monkeypatch.setattr(cones, "_range_atoms", lambda *args: None)
        ref = separable_decompose(state).certificate
        assert len(got.weights) == len(ref.weights)
        assert np.max(np.abs(got.weights - ref.weights)) <= 1e-9
        assert np.max(np.abs(_atom_projectors((f.left, f.right) for f in got.factors)
                             - _atom_projectors((f.left, f.right) for f in ref.factors))) <= 1e-9

    def test_none_on_a_conic_of_product_vectors(self):
        # right factors in span(e_0, e_1): the range is a 3-dimensional
        # subspace of C^2 (x) C^2, which holds a conic of product vectors, so
        # the solutions of the range equations outnumber the rank
        rng = np.random.default_rng(3)
        right = np.zeros((3, 3), dtype=complex)
        right[:, :2] = random_unit_rows(3, 2, rng)
        v = kron_rows(random_unit_rows(3, 2, rng), right)
        x = bipartite((v.T * rng.dirichlet(np.ones(3))) @ v.conj(), 2, 3)
        a, b = self.factors(x)
        assert a.shape[1] == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cones._range_atoms(a, b, 2, 3) is None
        assert separable_decompose(x).status is Status.IN  # by the ensemble

    @pytest.fixture
    def unpolished(self, monkeypatch):
        """Counts the ensemble attempts and makes each polish keep no atom,
        so a state past the bound returns its first fit."""
        count = [0]

        def dropped(x, n, m, left, right, weights):
            count[0] += 1
            return left[:0], right[:0]

        monkeypatch.setattr(cones, "_polish_atoms", dropped)
        return count

    @pytest.mark.parametrize("n, m, rank", [pytest.param(n, m, r, id=f"{n}-{m}")
                                            for n, m, r in [(2, 3, 5), (2, 4, 6), (3, 3, 6)]])
    def test_none_one_rank_past_the_bound(self, unpolished, n, m, rank):
        state, _ = random_separable_state(n, m, np.random.default_rng([n, m, rank]), terms=rank)
        a, b = self.factors(state)
        assert a.shape[1] == b.shape[1] == rank
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cones._range_atoms(a, b, n, m) is None
        assert separable_decompose(state).status is Status.UNKNOWN
        assert unpolished[0] == cones.ENSEMBLE_ATTEMPTS

    def test_tiles_state_stays_unknown(self):
        # its range holds no product vector
        state = tiles_state()
        a, b = self.factors(state)
        assert a.shape[1] == 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cones._range_atoms(a, b, 3, 3) is None
        verdict = separable_decompose(state)
        assert verdict.status is Status.UNKNOWN
        assert np.linalg.norm(verdict.certificate.reconstruct() - state.matrix) == pytest.approx(
            verdict.certificate.residual, abs=1e-12
        )

    def test_ppt_violating_state_of_rank_n_stays_unknown(self):
        psi = np.eye(2, 3).ravel() / np.sqrt(2)
        e00 = np.eye(6)[0]
        state = bipartite((np.outer(psi, psi) + np.outer(e00, e00)) / 2, 2, 3)
        assert _sqrt_factor(*np.linalg.eigh(state.matrix)).shape[1] == 2
        v = separable_decompose(state)
        assert v.status is Status.UNKNOWN
        assert np.linalg.norm(v.certificate.reconstruct() - state.matrix) == pytest.approx(
            v.certificate.residual, abs=1e-12
        )


def tiles_state():
    """(I - P) / 4 over the Tiles unextendible product basis (Bennett et al.,
    PRL 82, 5385, 1999): PPT and entangled."""
    e = np.eye(3)
    tiles = [(e[0], e[0] - e[1]), (e[0] - e[1], e[2]), (e[2], e[1] - e[2]),
             (e[1] - e[2], e[0]), (e.sum(axis=0), e.sum(axis=0))]
    v = np.array([np.kron(p, q) / np.linalg.norm(np.kron(p, q)) for p, q in tiles])
    return bipartite((np.eye(9) - v.T @ v) / 4, 3, 3)


class TestIsSeparable:
    def test_ppt_violation_is_out_with_witness(self):
        v = is_separable(bipartite(h_operator(2).matrix / 2, 2, 2))
        assert v.status is Status.OUT
        assert isinstance(v.certificate, WitnessCertificate)
        assert v.certificate.value == pytest.approx(-0.5, abs=1e-9)

    def test_decomposition_is_in(self):
        state, _ = random_separable_state(2, 3, np.random.default_rng(4), terms=3)
        v = is_separable(state)
        assert v.status is Status.IN
        assert isinstance(v.certificate, SeparableDecomposition)
        assert v.certificate.residual < RESIDUAL_TOL

    def test_exact_ppt_is_in_when_the_search_misses(self, monkeypatch):
        search = cones.separable_decompose
        monkeypatch.setattr(cones, "separable_decompose",
                            lambda x, seed: Verdict(Status.UNKNOWN, search(x, seed).certificate))
        state, _ = random_separable_state(2, 3, np.random.default_rng(4), terms=3)
        v = is_separable(state)
        assert v.status is Status.IN
        assert isinstance(v.certificate, SpectralCertificate)

    def test_ppt_entangled_state_is_unknown(self):
        v = is_separable(tiles_state())
        assert v.status is Status.UNKNOWN
        assert v.certificate.residual >= RESIDUAL_TOL

    def test_rejects_a_non_state(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            is_separable(swap_operator(2))


class TestPolishJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        n, m, k = 2, 3, 4
        state, _ = random_separable_state(n, m, rng, terms=k)
        atoms = [random_product_state(n, m, rng) for _ in range(k)]
        params = np.concatenate([
            np.concatenate([p.left.real, p.left.imag, p.right.real, p.right.imag])
            for p in atoms
        ])
        jac = _atoms_jacobian(params, state.matrix, n, m)
        h = 1e-7
        numeric = np.stack([
            (_atoms_residual(params + h * e, state.matrix, n, m)
             - _atoms_residual(params - h * e, state.matrix, n, m)) / (2 * h)
            for e in np.eye(len(params))
        ], axis=1)
        assert jac.shape == numeric.shape
        assert np.max(np.abs(jac - numeric)) <= 1e-6


class TestLeastSquares:
    def test_solves_a_consistent_underdetermined_system(self):
        rng = np.random.default_rng(3)
        a, x = rng.normal(size=(6, 10)), rng.normal(size=10)
        b = a @ x

        def solve():
            return cones.least_squares(lambda z: a @ z - b, np.zeros(10), lambda z: a)

        first, second = solve(), solve()
        assert np.linalg.norm(a @ first.x - b) <= 1e-12
        assert isinstance(first.nfev, int)
        assert 1 <= first.nfev <= LM_MAX_NFEV
        assert np.array_equal(first.x, second.x)


class TestWitnessValue:
    def test_swap_against_h_half(self):
        # Tr(S H) = 2, so <H/2, S> = 1
        got = witness_value(swap_operator(2), bipartite(h_operator(2).matrix / 2, 2, 2))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_identity_witness_gives_trace(self):
        rng = np.random.default_rng(4)
        t = random_bipartite(2, 2, rng)
        got = witness_value(bipartite(np.eye(4), 2, 2), t)
        assert got == pytest.approx(np.trace(t.matrix).real, abs=1e-12)

    def test_nonnegative_on_product_states(self):
        rng = np.random.default_rng(9)
        s = swap_operator(2)
        for _ in range(200):
            t = projector(random_product_state(2, 2, rng))
            assert witness_value(s, t) >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="factorizations differ"):
            witness_value(swap_operator(2), swap_operator(3))


class TestConeNesting:
    def test_separable_implies_psd_implies_block_positive(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            state, _ = random_separable_state(2, 2, rng)
            assert is_psd(state, 1e-9).status is Status.IN
            assert is_block_positive(state, 1e-6 + 1e-9, FAST).status is Status.IN

    def test_psd_implies_block_positive(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            rho = random_density(6, rng)
            assert is_block_positive(bipartite(rho.matrix, 2, 3), 1e-6, FAST).status is Status.IN


class TestDualitySampling:
    def test_certified_pairings_nonnegative(self):
        rng = np.random.default_rng(33)
        ts = []
        for _ in range(6):
            state, _ = random_separable_state(2, 2, rng, terms=2)
            verdict = separable_decompose(state)
            assert verdict.status is Status.IN
            ts.append(state.matrix)
        ws = []
        cfg = OptimizerConfig(starts=20, steps=80, seed=0)
        while len(ws) < 25:
            p = random_density(4, rng).matrix
            q = partial_transpose(bipartite(random_density(4, rng).matrix, 2, 2), "right").matrix
            lam = rng.uniform(0.0, 1.0)
            w = bipartite(lam * p + (1 - lam) * q, 2, 2)
            if is_block_positive(w, 1e-6, cfg).status is Status.IN:
                ws.append(w.matrix)
        idx_t = rng.integers(0, len(ts), size=10_000)
        idx_w = rng.integers(0, len(ws), size=10_000)
        tarr, warr = np.array(ts), np.array(ws)
        vals = np.einsum("aij,aji->a", tarr[idx_t], warr[idx_w]).real
        assert vals.min() >= -1e-9
