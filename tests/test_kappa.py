import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import kappa
from conelab.cones import OptimizerConfig
from conelab.kappa import (
    CB_GAIN,
    cb_norm_estimate,
    cb_upper_bound,
    embedded_swap,
    extremal_positive_map,
    kappa_exact,
    kappa_witness,
    normalized_swap,
)
from conelab.maps import (
    MatrixMap,
    adjoint_map,
    apply_left,
    apply_to_left_factor,
    choi,
    random_map,
    random_positive_map,
    unitality_report,
)
from conelab.operators import bipartite, kron_rows, random_density, swap_operator, trace_norm

CB_FAST = OptimizerConfig(starts=30, steps=120, seed=0)


class TestClosedForm:
    def test_examples(self):
        assert kappa_exact(3, 7) == 3.0
        assert kappa_exact(1, 5) == 1.0
        assert kappa_exact(4, 4) == 4.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            kappa_exact(0, 2)


class TestMaxNorm:
    def test_states_have_norm_one(self):
        rng = np.random.default_rng(0)
        for n, m in [(2, 2), (2, 3)]:
            t = bipartite(random_density(n * m, rng).matrix, n, m)
            assert trace_norm(t) == pytest.approx(1.0, abs=1e-9)

    def test_normalized_swap(self):
        s = swap_operator(2)
        assert trace_norm(bipartite(s.matrix / 2, 2, 2)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_sign_invariance(self):
        s = swap_operator(3)
        assert trace_norm(bipartite(-s.matrix / 3, 3, 3)) == pytest.approx(
            3.0, abs=1e-11
        )

    def test_embedded_swap_norm_one(self):
        assert np.linalg.norm(embedded_swap(2, 3).matrix, 2) == pytest.approx(1.0, abs=1e-12)


class TestWitness:
    def test_scalar_case(self):
        w = kappa_witness(1, 1)
        assert np.array_equal(w.functional.matrix, [[1.0]])
        assert w.value == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two(self):
        w = kappa_witness(2, 2)
        assert np.allclose(w.functional.matrix, swap_operator(2).matrix / 2, atol=0)
        assert w.value == pytest.approx(2.0, abs=1e-12)
        assert w.lower_bound.value >= -1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_closed_form(self, n):
        w = kappa_witness(n, n)
        assert w.value == pytest.approx(kappa_exact(n, n), abs=1e-9)
        assert abs(w.functional.op.trace() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rectangular_witness_is_block_positive(self, n, m):
        w = kappa_witness(n, m)
        assert w.value == pytest.approx(min(n, m), abs=1e-9)
        assert w.lower_bound.value >= -1e-9
        assert np.array_equal(w.functional.matrix, normalized_swap(n, m).matrix)


class TestCbEstimate:
    def test_identity_map(self):
        est = cb_norm_estimate(MatrixMap.identity(3), CB_FAST)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_transpose_map(self, n):
        est = cb_norm_estimate(MatrixMap.transpose(n), CB_FAST)
        assert n * 0.95 <= est.value <= n + 1e-9
        # reported maximizer is an admissible certificate
        assert np.linalg.norm(est.argmax.matrix, 2) <= 1.0 + 1e-9
        out = apply_to_left_factor(MatrixMap.transpose(n), est.argmax)
        assert np.linalg.norm(out.matrix, 2) == pytest.approx(est.value, abs=1e-9)

    def test_unital_positive_maps_below_closed_form(self):
        rng = np.random.default_rng(1)
        n = m = 2
        for trial in range(20):
            phi = _random_unital_positive(n, rng)
            est = cb_norm_estimate(phi, OptimizerConfig(starts=10, steps=60, seed=trial))
            assert est.value <= kappa_exact(n, m) + 1e-6

    def test_extremal_map_attains(self):
        for n, m in [(2, 3), (3, 2)]:
            phi = extremal_positive_map(n, m)
            assert unitality_report(phi).is_unital
            est = cb_norm_estimate(phi, CB_FAST)
            assert est.value == pytest.approx(kappa_exact(n, m), abs=1e-6)

    @pytest.mark.parametrize("phi", [MatrixMap.transpose(3), extremal_positive_map(3, 4)],
                             ids=["transpose(3)", "extremal(3,4)"])
    def test_seesaw_converges_before_round_cap(self, phi):
        # the embedded swap meets the upper bound, so no round runs
        cfg = OptimizerConfig(starts=100, steps=300, seed=0)
        est = cb_norm_estimate(phi, cfg)
        assert est.converged
        assert est.rounds == 0
        assert est.value >= est.upper.value - CB_GAIN * max(1.0, est.upper.value)
        assert est.value == pytest.approx(3.0, abs=1e-9)

    def test_seesaw_converges_before_round_cap_on_a_loose_bound(self):
        cfg = OptimizerConfig(starts=100, steps=300, seed=0)
        est = cb_norm_estimate(random_map(2, 3, np.random.default_rng(8)), cfg)
        assert est.converged
        assert 1 <= est.rounds < cfg.steps
        assert est.value < 0.9 * est.upper.value

    def test_estimate_non_decreasing_in_rounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            phi = random_positive_map(2, 3, rng)
            vals = [cb_norm_estimate(phi, OptimizerConfig(starts=10, steps=s, seed=5)).value
                    for s in (0, 1, 2, 5, 20)]
            assert vals == sorted(vals)

    @pytest.mark.parametrize("starts", [0, 1, 2, 10])
    def test_never_below_deterministic_candidates(self, starts):
        rng = np.random.default_rng(6)
        for n, m in [(2, 2), (2, 3), (3, 2)]:
            phi = random_map(n, m, rng)
            floor = max(
                np.linalg.norm(apply_to_left_factor(phi, x).matrix, 2)
                for x in (bipartite(np.eye(n * m), n, m), embedded_swap(n, m))
            )
            est = cb_norm_estimate(phi, OptimizerConfig(starts=starts, steps=30, seed=7))
            assert est.value >= floor * (1 - 1e-12)


def _dual_bound(j, y, n, m):
    """Watrous's dual bound lambda_max(tr_1 Y) + n delta for a Hermitian Y on
    C^n (x) C^m, delta the shortfall of -Y <= J <= Y.  Returns (bound, delta)."""
    delta = max(0.0, -np.linalg.eigvalsh(y - j)[0], -np.linalg.eigvalsh(y + j)[0])
    trace_1 = np.einsum("ikil->kl", y.reshape(n, m, n, m))
    return np.linalg.eigvalsh(trace_1)[-1] + n * delta, delta


def _cb_seesaw_full_batch(phi, cfg):
    """Reference: the seesaw that re-evaluates every start in every round,
    with the random starts built one by one, and stops once the best value
    meets the bound of Y = |J|, J the Choi matrix of the adjoint.  Returns
    (value, argmax matrix, rounds, converged)."""
    n, m = phi.input_dim, phi.output_dim
    dim = n * m
    l4, l4adj = phi.unit_images(), adjoint_map(phi).unit_images()
    rng = np.random.default_rng(cfg.seed)
    j = choi(adjoint_map(phi)).matrix
    w, u = np.linalg.eigh(j)
    y = (u * np.abs(w)) @ u.conj().T
    upper, _ = _dual_bound(j, (y + y.conj().T) / 2, n, m)
    target = upper - CB_GAIN * max(1.0, upper)

    def sign_project(xb):
        w, u = np.linalg.eigh(xb)
        return np.einsum("bik,bk,bjk->bij", u, np.where(w >= 0, 1.0, -1.0), u.conj())

    def top_eigenpair(xb):
        w, v = np.linalg.eigh(apply_left(l4, xb, m))
        idx = np.where(np.abs(w[:, -1]) >= np.abs(w[:, 0]), w.shape[1] - 1, 0)
        rows = np.arange(len(xb))
        top = w[rows, idx]
        return np.abs(top), v[rows, :, idx], np.where(top >= 0, 1.0, -1.0)

    det = np.array([np.eye(dim, dtype=complex), embedded_swap(n, m).matrix.astype(complex)])
    det_vals, _, _ = top_eigenpair(det)
    if det_vals.max() >= target:
        best = int(np.argmax(det_vals))
        return float(det_vals[best]), bipartite(det[best], n, m).matrix, 0, True
    x = np.empty((cfg.starts, dim, dim), dtype=complex)
    n_det = min(len(det), cfg.starts)
    x[:n_det] = sign_project(det[:n_det])
    for i in range(n_det, cfg.starts):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        _, u = np.linalg.eigh((g + g.conj().T) / 2)
        signs = rng.choice([-1.0, 1.0], size=dim)
        x[i] = (u * signs) @ u.conj().T

    f, vecs, signs = top_eigenpair(x)
    rounds, converged = 0, False
    while rounds < cfg.steps and not converged:
        d = vecs.shape[1]
        proj = kron_rows(vecs * signs[:, None], vecs.conj()).reshape(len(vecs), d, d)
        cand = sign_project(apply_left(l4adj, proj, m))
        fc, vc, sc = top_eigenpair(cand)
        ok = fc > f + CB_GAIN
        x[ok], f[ok], vecs[ok], signs[ok] = cand[ok], fc[ok], vc[ok], sc[ok]
        rounds += 1
        converged = not ok.any() or f.max() >= target

    all_vals = np.concatenate([det_vals, f])
    best = int(np.argmax(all_vals))
    arg = det[best] if best < len(det) else x[best - len(det)]
    return float(all_vals[best]), bipartite(arg, n, m).matrix, rounds, converged


class TestCbActiveSet:
    # transpose(3) and extremal(3,4) stop on the swap before any round;
    # reduction(3) meets its bound inside the loop; random(2,3) never does
    @pytest.mark.parametrize("phi", [
        MatrixMap.transpose(3),
        extremal_positive_map(3, 4),
        MatrixMap.reduction(3),
        random_map(2, 3, np.random.default_rng(8)),
    ], ids=["transpose(3)", "extremal(3,4)", "reduction(3)", "random(2,3)"])
    @pytest.mark.parametrize("starts", [0, 1, 2, 10, 100])
    @pytest.mark.parametrize("steps", [0, 1, 300])
    def test_bit_identical_to_full_batch(self, phi, starts, steps):
        cfg = OptimizerConfig(starts=starts, steps=steps, seed=3)
        est = cb_norm_estimate(phi, cfg)
        value, arg, rounds, converged = _cb_seesaw_full_batch(phi, cfg)
        assert est.value == value
        assert np.array_equal(est.argmax.matrix, arg)
        assert (est.rounds, est.converged) == (rounds, converged)

    def test_only_improved_starts_are_evaluated_again(self, monkeypatch):
        sizes = []
        project = kappa._sign_project

        def recorded(x):
            sizes.append(len(x))
            return project(x)

        monkeypatch.setattr(kappa, "_sign_project", recorded)
        cfg = OptimizerConfig(starts=100, steps=300, seed=0)
        # the bound of this map is loose, so the search runs until no start improves
        est = cb_norm_estimate(random_map(2, 3, np.random.default_rng(8)), cfg)
        # the deterministic candidates, then the 100 starts shrinking
        assert sizes == ([2, 100] + [83] * 12 + [81, 78, 76, 67, 43, 13, 4]
                         + [2] * 27 + [1])
        assert (est.rounds, est.converged) == (48, True)


# name: (map, whether the bound of Y = |J| equals its cb norm)
BOUNDED_MAPS = {
    "transpose(3)": (MatrixMap.transpose(3), True),
    "extremal(3,4)": (extremal_positive_map(3, 4), True),
    "reduction(3)": (MatrixMap.reduction(3), True),
    "random(2,3)": (random_map(2, 3, np.random.default_rng(8)), False),
}


@functools.cache
def _bounded_map_estimate(name):
    return cb_norm_estimate(BOUNDED_MAPS[name][0]).value


class TestCbUpperBound:
    @pytest.mark.parametrize("phi, exact", [
        (MatrixMap.identity(3), 1.0),
        (MatrixMap.transpose(2), 2.0),
        (MatrixMap.transpose(3), 3.0),
        (MatrixMap.transpose(4), 4.0),
        (extremal_positive_map(3, 4), 3.0),
        (MatrixMap.reduction(3), 10 / 3),
    ], ids=["identity(3)", "transpose(2)", "transpose(3)", "transpose(4)", "extremal(3,4)",
            "reduction(3)"])
    def test_exact_values(self, phi, exact):
        up = cb_upper_bound(phi)
        assert abs(up.value - exact) <= 1e-12 * phi.input_dim
        assert (up.y.n, up.y.m) == (phi.input_dim, phi.output_dim)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_bounds_the_estimate_and_pays_for_rounding(self, seed):
        phi = random_map(2, 3, np.random.default_rng(seed))
        up = cb_upper_bound(phi)
        j = choi(adjoint_map(phi)).matrix
        value, delta = _dual_bound(j, up.y.matrix, 2, 3)
        assert up.value == value
        # Y = |J| is feasible up to rounding
        assert delta <= 1e-12 * max(1.0, np.abs(j).max())
        # the estimate's own eigenvalue carries rounding of the same order
        est = cb_norm_estimate(phi, CB_FAST)
        assert up.value >= est.value - 1e-12 * max(1.0, est.value)

    @given(st.sampled_from(sorted(BOUNDED_MAPS)), st.integers(0, 80), st.integers(0, 80),
           st.floats(1e-9, 1.0), st.floats(0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_perturbed_y_never_bounds_below_the_estimate(self, name, a, b, size, angle):
        phi, tight = BOUNDED_MAPS[name]
        n, m = phi.input_dim, phi.output_dim
        up = cb_upper_bound(phi)
        i, k = a % (n * m), b % (n * m)
        y = up.y.matrix.copy()
        y[i, k] += size * np.exp(1j * angle) if i != k else size * np.cos(angle)
        y[k, i] = np.conj(y[i, k])
        moved, _ = _dual_bound(choi(adjoint_map(phi)).matrix, y, n, m)
        est = _bounded_map_estimate(name)
        assert moved >= est - 1e-12 * max(1.0, est)
        if tight:
            # the bound is the cb norm itself: no Y can lower it
            assert moved >= up.value - 1e-12 * n


def _random_unital_positive(n, rng):
    """Convex combination of unital positive maps: unitary conjugations,
    transpose-twisted conjugations, and the diagonal pinching."""
    def haar_unitary():
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(g)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    u1, u2 = haar_unitary(), haar_unitary()
    w = rng.dirichlet(np.ones(3))

    def action(a):
        conj = u1 @ a @ u1.conj().T
        twist = u2 @ a.T @ u2.conj().T
        pinch = np.diag(np.diagonal(a))
        return w[0] * conj + w[1] * twist + w[2] * pinch

    return MatrixMap.from_function(n, n, action)
