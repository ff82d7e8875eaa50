import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conelab import cones
from conelab.cones import (
    ENSEMBLE_ITERS,
    POLISH_ROUNDS,
    RESIDUAL_TOL,
    ROTATION_GATE,
    OptimizerConfig,
    Status,
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
    lower_bound,
    ppt_check,
    product_expectation,
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
        assert product_expectation(x, trace.best_vector) == pytest.approx(val, abs=1e-12)

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

    def test_no_starts_returns_the_best_grid_point(self):
        val, trace = block_positive_min(swap_operator(2), OptimizerConfig(starts=0))
        assert val == 0.0 and trace.grid_points == 36
        assert (trace.best_value, trace.agreeing) == (0.0, 0)
        assert product_expectation(swap_operator(2), trace.best_vector) == 0.0

    def test_swap_converges_before_round_cap(self):
        _, trace = block_positive_min(swap_operator(2), FAST)
        assert trace.converged
        assert trace.rounds < FAST.steps + POLISH_ROUNDS
        assert 1 <= trace.agreeing <= FAST.starts

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3), (4, 4)])
    @pytest.mark.parametrize("eps", [1e-5, -1e-5])
    def test_planted_minimum(self, n, m, eps):
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
        val, _ = block_positive_min(x)
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
        assert product_expectation(x, v.certificate.best_vector) == pytest.approx(
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


class TestSeparableDecompose:
    def test_pure_product_single_term(self):
        rng = np.random.default_rng(2)
        pv = random_product_state(2, 2, rng)
        v = separable_decompose(pv.projector())
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

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            separable_decompose(swap_operator(2))

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            separable_decompose(bipartite(np.eye(4), 2, 2))


def _ensemble_rotate_by_column(x, n, m, k, seed):
    """Reference: the rotation with one SVD and one kron per column."""
    a = _sqrt_factor(x)
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
        left, right, err = _ensemble_rotate(state.matrix, n, m, k, seed)
        atoms, ref_err = _ensemble_rotate_by_column(state.matrix, n, m, k, seed)
        assert left.shape == (k, n) and right.shape == (k, m)
        assert err == pytest.approx(ref_err, rel=1e-9, abs=1e-20)
        got = _atom_projectors(zip(left, right))
        assert np.max(np.abs(got - _atom_projectors(atoms))) <= 1e-9


def _ensemble_rotate_svd_step(x, n, m, k, seed):
    """Reference: the rotation projecting through one batched SVD of the
    n x m blocks per step.  Also returns the number of steps."""
    a = _sqrt_factor(x)
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
        k = 2 * _sqrt_factor(x).shape[1] + 2
        _, _, err = _ensemble_rotate(x, n, m, k, seed)
        _, _, ref_err, ref_steps = _ensemble_rotate_svd_step(x, n, m, k, seed)
        assert steps[0] == ref_steps
        assert err == pytest.approx(ref_err, rel=1e-12, abs=1e-20)
        assert (err < 1e-20) if separable else (err > ROTATION_GATE / 100)

    @pytest.mark.parametrize("n, m, seed", [(2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 1), (4, 2, 2)])
    def test_same_canonical_certificate_as_the_svd_step(self, monkeypatch, n, m, seed):
        state = self.separable(n, m, seed)
        calls = [0]

        def reference(*args):
            calls[0] += 1
            return _ensemble_rotate_svd_step(*args)[:3]

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
        assert np.linalg.norm(state.matrix - y) >= _ppt_distance(state)

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]),
           terms=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_floor_is_zero_on_separable_states(self, size, terms, seed):
        state, _ = random_separable_state(*size, np.random.default_rng(seed), terms=terms)
        assert _ppt_distance(state) == 0.0

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
    def test_ensemble_attempts_run_only_below_the_gate(self, rotations, state, status, attempts):
        assert separable_decompose(state).status is status
        assert rotations[0] == attempts

    @pytest.mark.parametrize("state, identical", [
        (noisy_entangled(3, 3, 0.2), True),
        (noisy_entangled(2, 3, 0.3, np.random.default_rng(4)), True),
        (bipartite(h_operator(2).matrix / 2, 2, 2), True),
        (noisy_entangled(2, 2, 0.6), False),
        (random_separable_state(2, 2, np.random.default_rng(11), terms=2)[0], True),
    ], ids=["3x3 noise 0.2", "2x3 mixture", "h/2", "2x2 noise 0.6", "separable 2x2"])
    def test_screen_leaves_every_certificate_unchanged(self, monkeypatch, state, identical):
        screened = separable_decompose(state)
        monkeypatch.setattr(cones, "_ppt_distance", lambda x: 0.0)
        unscreened = separable_decompose(state)
        assert screened.status is unscreened.status
        a, b = screened.certificate, unscreened.certificate
        if not identical:
            assert min(a.residual, b.residual) >= _ppt_distance(state)
            return
        assert np.float64(a.residual).tobytes() == np.float64(b.residual).tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()
        assert len(a.factors) == len(b.factors)
        for f, g in zip(a.factors, b.factors):
            assert f.left.tobytes() == g.left.tobytes() and f.right.tobytes() == g.right.tobytes()


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
        if _ppt_distance(state) >= RESIDUAL_TOL:
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
            t = random_product_state(2, 2, rng).projector()
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
        budget = OptimizerConfig(starts=16, steps=60, seed=0)
        ts = []
        for _ in range(6):
            state, _ = random_separable_state(2, 2, rng, terms=2)
            verdict = separable_decompose(state, budget)
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
