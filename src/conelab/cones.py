"""Membership oracles with certificates for the three nested operator cones.

For bipartite Hermitian operators there are three cones, each strictly
inside the next: the separable cone (conic hull of products of PSD
matrices), the PSD cone, and the block-positive cone (operators with
nonnegative expectation on every product vector).  The separable and
block-positive cones are dual to each other under the trace pairing; the
PSD cone is self-dual.

Exact membership in the outer cones is hard in general, so the oracles
return honest verdicts: ``In``/``Out`` only with a machine-checkable
certificate, ``Unknown`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import least_squares, nnls

from .operators import (
    BipartiteOperator,
    HermitianOperator,
    ProductVector,
    bipartite,
    hilbert_schmidt,
    min_eigenpair,
    partial_transpose,
    random_unit_vector,
)

SPECTRAL_TOL = 1e-9
OPTIMIZER_TOL = 1e-6
SEESAW_DROP = 1e-15  # per-round decrease, in spectral-norm units, that ends the seesaw
AGREE_TOL = 1e-9  # starts this close to the best value, in the same units, agree


class Status(str, Enum):
    IN = "in"
    OUT = "out"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SpectralCertificate:
    """Extremal eigenpair backing a PSD verdict."""

    eigenvalue: float
    eigenvector: np.ndarray


@dataclass(frozen=True)
class WitnessCertificate:
    """Block-positive W with <T, W> < 0, certifying T is not separable."""

    witness: BipartiteOperator
    value: float


@dataclass(frozen=True)
class SeparableDecomposition:
    """Nonnegative mixture of pure product states reconstructing the input."""

    weights: np.ndarray
    factors: tuple[ProductVector, ...]
    residual: float

    def reconstruct(self) -> np.ndarray:
        acc = 0.0
        for w, f in zip(self.weights, self.factors):
            v = f.kron
            acc = acc + w * np.outer(v, v.conj())
        return acc


@dataclass(frozen=True)
class OptimizerTrace:
    """Deterministic record of a multistart product-vector optimization.

    ``rounds`` counts the seesaw rounds run, ``converged`` says whether the
    last of them left every start's value unchanged to within
    ``SEESAW_DROP``, and ``agreeing`` counts the starts whose value came
    within ``AGREE_TOL`` of the best (both in spectral-norm units).
    """

    seed: int
    starts: int
    steps: int
    grid_points: int
    best_value: float
    best_index: int
    best_vector: ProductVector
    rounds: int
    converged: bool
    agreeing: int


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: object = None

    @property
    def is_in(self) -> bool:
        return self.status is Status.IN


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget for the block-positivity optimizer (multistart seesaw).

    The seesaw runs at most ``steps + polish_rounds`` rounds from ``starts``
    seeded random starts, the first of them taken from a deterministic grid
    when ``use_grid`` is set.
    """

    starts: int = 200
    steps: int = 500
    seed: int = 0
    polish_rounds: int = 8
    use_grid: bool = True


@dataclass(frozen=True)
class DecomposeBudget:
    """Budget for the separable-decomposition search.

    ``greedy_terms`` column-generation rounds run first; if the residual
    target is not reached, up to ``ensemble_attempts`` rotation passes
    propose whole batches of product columns, each polished by a local
    least-squares fit before the simplex weight refit.
    """

    max_terms: int = 32
    greedy_terms: int = 6
    ensemble_attempts: int = 4
    ensemble_iters: int = 3000
    lm_max_nfev: int = 500
    residual_tol: float = 1e-7
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(starts=16, steps=60, seed=0)
    )


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _product_grid(n: int) -> np.ndarray:
    """Coarse deterministic grid on the unit sphere of C^n.

    Standard basis vectors plus all two-coordinate combinations with
    phases {1, -1, i, -i}.
    """
    eye = np.eye(n, dtype=complex)
    vecs = [eye[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for ph in (1.0, -1.0, 1j, -1j):
                vecs.append((eye[i] + ph * eye[j]) / np.sqrt(2))
    return np.array(vecs)


def _batched_objective(a: np.ndarray, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    v = (phi[:, :, None] * psi[:, None, :]).reshape(len(phi), -1)
    return np.einsum("bi,bi->b", v.conj(), v @ a.T).real


def product_expectation(x: BipartiteOperator, vec: ProductVector) -> float:
    """<phi (x) psi, X (phi (x) psi)>."""
    v = vec.kron
    return float((v.conj() @ x.matrix @ v).real)


def block_positive_min(
    x: BipartiteOperator, cfg: OptimizerConfig | None = None
) -> tuple[float, OptimizerTrace]:
    """Best-found minimum of <phi (x) psi, X (phi (x) psi)> over product vectors.

    Batched seesaw from seeded random starts, the first few taken from the
    best points of a coarse deterministic grid: each round sets phi to the
    lowest eigenvector of the reduced matrix <psi| X |psi>, then psi to that
    of <phi| X |phi>.  Rounds stop after ``steps + polish_rounds`` or once no
    start's value drops by more than ``SEESAW_DROP``.  The result is an upper
    bound on the true minimum; grid points and starts are merged by minimum
    value with the lowest index winning ties, so the output is independent
    of evaluation order.

    The operator is rescaled by its spectral norm before optimizing, which
    makes the result exactly positively homogeneous in X.
    """
    cfg = cfg or OptimizerConfig()
    n, m = x.n, x.m
    scale = float(np.max(np.abs(np.linalg.eigvalsh(x.matrix)))) or 1.0
    a = x.matrix / scale
    # a_lr[(i, j), (k, l)] = X[(i, k), (j, l)]: either factor's reduced
    # matrix is one GEMM of this with the other factor's outer products.
    a_lr = a.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
    rng = np.random.default_rng(cfg.seed)

    phi = _normalize_rows(rng.normal(size=(cfg.starts, n)) + 1j * rng.normal(size=(cfg.starts, n)))
    psi = _normalize_rows(rng.normal(size=(cfg.starts, m)) + 1j * rng.normal(size=(cfg.starts, m)))
    gphi, gpsi, gvals = phi[:0], psi[:0], np.empty(0)
    if cfg.use_grid:
        gl, gr = _product_grid(n), _product_grid(m)
        gphi, gpsi = np.repeat(gl, len(gr), axis=0), np.tile(gr, (len(gl), 1))
        gvals = _batched_objective(a, gphi, gpsi)
        seeds = np.argsort(gvals, kind="stable")[: min(8, cfg.starts)]
        phi[: len(seeds)], psi[: len(seeds)] = gphi[seeds], gpsi[seeds]

    prev = np.full(cfg.starts, np.inf)
    rounds, converged = 0, False
    while rounds < cfg.steps + cfg.polish_rounds and not converged:
        outer = (psi.conj()[:, :, None] * psi[:, None, :]).reshape(-1, m * m)
        phi = np.linalg.eigh((outer @ a_lr.T).reshape(-1, n, n))[1][:, :, 0]
        outer = (phi.conj()[:, :, None] * phi[:, None, :]).reshape(-1, n * n)
        low, vecs = np.linalg.eigh((outer @ a_lr).reshape(-1, m, m))
        psi = vecs[:, :, 0]
        rounds += 1
        converged = bool(np.all(prev - low[:, 0] <= SEESAW_DROP))
        prev = low[:, 0]
    f = _batched_objective(a, phi, psi)

    all_vals = np.concatenate([gvals, f])
    best = int(np.argmin(all_vals))
    best_vec = ProductVector(np.concatenate([gphi, phi])[best], np.concatenate([gpsi, psi])[best])
    value = float(all_vals[best] * scale)
    agreeing = int(np.sum(f <= all_vals[best] + AGREE_TOL))
    return value, OptimizerTrace(cfg.seed, cfg.starts, cfg.steps, len(gvals), value, best,
                                 best_vec, rounds, converged, agreeing)


def is_psd(x: BipartiteOperator, tol: float = SPECTRAL_TOL) -> Verdict:
    """In iff the minimum eigenvalue is >= -tol; certificate is the extremal eigenpair."""
    val, vec = min_eigenpair(x)
    cert = SpectralCertificate(val, vec)
    return Verdict(Status.IN if val >= -tol else Status.OUT, cert)


def is_block_positive(
    x: BipartiteOperator, tol: float = OPTIMIZER_TOL, cfg: OptimizerConfig | None = None
) -> Verdict:
    """Optimization-based block-positivity test.

    In if the best-found product-vector minimum is >= -tol (certificate:
    the optimizer trace); Out if a product vector with value < -tol is
    found (that vector is the certificate).  With default budgets this is
    reliable for n*m <= 16 and best-effort beyond.
    """
    value, trace = block_positive_min(x, cfg)
    if value >= -tol:
        return Verdict(Status.IN, trace)
    return Verdict(Status.OUT, trace)


def ppt_check(x: BipartiteOperator, tol: float = SPECTRAL_TOL) -> Verdict:
    """Positive-partial-transpose criterion.

    Out (certified non-separable) if the partial transpose has an
    eigenvalue < -tol; the certificate is the decomposable witness
    W = (v v*)^{T_right} built from the violating eigenvector v, which is
    block positive and pairs negatively with the input.  In is returned
    only at 2x2 / 2x3 sizes, where PPT is exact, and only when the input
    itself is PSD.  Elsewhere a passing PPT test yields Unknown.
    """
    pt = partial_transpose(x, "right")
    val, vec = min_eigenpair(pt)
    if val < -tol:
        w = partial_transpose(
            BipartiteOperator(x.n, x.m, HermitianOperator(np.outer(vec, vec.conj()))),
            "right",
        )
        return Verdict(Status.OUT, WitnessCertificate(w, hilbert_schmidt(x.matrix, w.matrix)))
    exact = (x.n, x.m) in {(2, 2), (2, 3), (3, 2)}
    if exact and min_eigenpair(x)[0] >= -tol:
        return Verdict(Status.IN, SpectralCertificate(val, vec))
    return Verdict(Status.UNKNOWN, SpectralCertificate(val, vec))


def _refit_weights(columns: list[np.ndarray], target: np.ndarray) -> np.ndarray:
    """Nonnegative least squares on the simplex (soft sum-to-one row)."""
    mu = 1e4
    a = np.vstack([np.stack(columns, axis=1), mu * np.ones((1, len(columns)))])
    b = np.concatenate([target, [mu]])
    weights, _ = nnls(a, b)
    return weights


def _column_of(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    v = np.kron(left, right)
    p = np.outer(v, v.conj()).ravel()
    return np.concatenate([p.real, p.imag])


def _fit_state(columns: list[np.ndarray], target: np.ndarray):
    weights = _refit_weights(columns, target)
    diff = target - sum(w * c for w, c in zip(weights, columns))
    return weights, float(np.linalg.norm(diff)), diff


def _sqrt_factor(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(x)
    keep = w > 1e-12 * max(float(w[-1]), 1e-300)
    return v[:, keep] * np.sqrt(w[keep])


def _ensemble_rotate(x: np.ndarray, n: int, m: int, k: int, seed: int, iters: int):
    """Rotate a square-root ensemble of the state toward product columns.

    Any decomposition X = sum_i c_i c_i* arises as C = A R with A a square
    root factor and R a co-isometry, so alternate between projecting each
    column onto its leading product direction and re-solving the rotation
    (orthogonal Procrustes), with over-relaxation to speed up the
    tangential tail.  Returns the atom pairs of the best configuration.
    """
    a = _sqrt_factor(x)
    r = a.shape[1]
    k = max(k, r)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
    q, _ = np.linalg.qr(z.conj().T)
    c = a @ q.conj().T
    beta = 0.95
    best_err, best_atoms = np.inf, None
    prev = None
    since_improved = 0
    for _ in range(iters):
        proj = np.empty_like(c)
        atoms = []
        err = 0.0
        for i in range(k):
            u, _, vt = np.linalg.svd(c[:, i].reshape(n, m), full_matrices=False)
            atoms.append((u[:, 0], vt[0]))
            qv = np.kron(u[:, 0], vt[0])
            proj[:, i] = np.vdot(qv, c[:, i]) * qv
            err += float(np.linalg.norm(c[:, i] - proj[:, i]) ** 2)
        if err < best_err * (1.0 - 1e-9):
            best_err, best_atoms = err, atoms
            since_improved = 0
        else:
            since_improved += 1
            if since_improved > 150:  # stalled at its floor (entangled input)
                break
        if err < 1e-22:
            break
        accel = proj if prev is None else proj + beta * (proj - prev)
        prev = proj
        u2, _, vt2 = np.linalg.svd(a.conj().T @ accel, full_matrices=False)
        c = a @ (u2 @ vt2)
    return best_atoms, best_err


def _unpack_atoms(params: np.ndarray, n: int, m: int):
    """Factor rows (a_t, b_t) from per-atom blocks [Re a, Im a, Re b, Im b]."""
    p = params.reshape(-1, 2 * (n + m))
    a = p[:, :n] + 1j * p[:, n : 2 * n]
    b = p[:, 2 * n : 2 * n + m] + 1j * p[:, 2 * n + m :]
    return a, b


def _atoms_residual(params: np.ndarray, x: np.ndarray, n: int, m: int) -> np.ndarray:
    """X - sum_t v_t v_t* with v_t = a_t (x) b_t, as stacked real and imaginary parts."""
    a, b = _unpack_atoms(params, n, m)
    v = (a[:, :, None] * b[:, None, :]).reshape(len(a), n * m)
    d = (x - v.T @ v.conj()).ravel()
    return np.concatenate([d.real, d.imag])


def _atoms_jacobian(params: np.ndarray, x: np.ndarray, n: int, m: int) -> np.ndarray:
    """Closed-form Jacobian of ``_atoms_residual``.

    Moving one real parameter moves v_t along u, so the residual moves by
    -(u v_t* + v_t u*); u is e_j (x) b_t, i e_j (x) b_t, a_t (x) e_j or
    i a_t (x) e_j for the four parameter blocks of atom t.
    """
    a, b = _unpack_atoms(params, n, m)
    k, d = len(a), n * m
    v = (a[:, :, None] * b[:, None, :]).reshape(k, d)
    ua = np.einsum("ij,tl->tilj", np.eye(n), b).reshape(k, d, n)
    ub = np.einsum("ti,lj->tilj", a, np.eye(m)).reshape(k, d, m)
    u = np.concatenate([ua, 1j * ua, ub, 1j * ub], axis=2)
    dv = u[:, :, None, :] * v.conj()[:, None, :, None]
    dv = dv + dv.conj().transpose(0, 2, 1, 3)
    cols = -dv.transpose(1, 2, 0, 3).reshape(d * d, -1)
    return np.concatenate([cols.real, cols.imag])


def _polish_atoms(x: np.ndarray, n: int, m: int, atoms, weights, max_nfev: int):
    """Local least-squares fit over unnormalized product factors.

    Each term is |a (x) b><a (x) b| with the weight folded into the factor
    norms, so nonnegativity is automatic and the fit is smooth.
    """
    items = [(p, q, w) for (p, q), w in zip(atoms, weights) if w > 1e-12]
    if not items:
        return [], np.empty(0)
    x0 = np.concatenate(
        [
            np.concatenate([np.sqrt(w) * p.real, np.sqrt(w) * p.imag, q.real, q.imag])
            for p, q, w in items
        ]
    )
    sol = least_squares(_atoms_residual, x0, jac=_atoms_jacobian, method="trf",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=max_nfev,
                        args=(x, n, m))
    out_atoms, out_w = [], []
    for a, b in zip(*_unpack_atoms(sol.x, n, m)):
        na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        if na * nb < 1e-10:
            continue
        out_atoms.append((a / na, b / nb))
        out_w.append((na * nb) ** 2)
    return out_atoms, np.array(out_w)


def separable_decompose(x: BipartiteOperator, budget: DecomposeBudget | None = None) -> Verdict:
    """Column-generation search for a separable decomposition of a state.

    The greedy phase repeatedly adds the pure product state with the
    largest overlap with the current residual and refits nonnegative
    weights by least squares on the simplex.  When that stalls above the
    residual target, whole batches of candidate columns are proposed by
    rotating a square-root ensemble of the state toward product vectors
    and polishing locally; weights are again refit on the simplex.  In
    (with the certificate) once the Frobenius residual drops below the
    budget tolerance, Unknown on budget exhaustion.  Only defined for
    states: PSD with unit trace.
    """
    budget = budget or DecomposeBudget()
    if min_eigenpair(x)[0] < -SPECTRAL_TOL:
        raise ValueError("input is not positive semidefinite")
    if abs(x.op.trace() - 1.0) > 1e-9:
        raise ValueError("input does not have unit trace")

    n, m = x.n, x.m
    size = x.matrix.size
    target = np.concatenate([x.matrix.ravel().real, x.matrix.ravel().imag])
    seed = budget.optimizer.seed

    def verdict_of(atoms, weights, residual):
        keep = weights > 1e-12
        cert = SeparableDecomposition(
            weights=weights[keep],
            factors=tuple(
                ProductVector(p, q) for (p, q), kp in zip(atoms, keep) if kp
            ),
            residual=residual,
        )
        status = Status.IN if residual < budget.residual_tol else Status.UNKNOWN
        return Verdict(status, cert)

    atoms: list[tuple[np.ndarray, np.ndarray]] = []
    columns: list[np.ndarray] = []
    weights = np.empty(0)
    residual = float(np.linalg.norm(target))
    residual_mat = x.matrix.copy()

    for term in range(min(budget.greedy_terms, budget.max_terms)):
        opt_cfg = OptimizerConfig(
            starts=budget.optimizer.starts,
            steps=budget.optimizer.steps,
            seed=seed + term,
            polish_rounds=max(budget.optimizer.polish_rounds, 8),
            use_grid=budget.optimizer.use_grid,
        )
        _, trace = block_positive_min(bipartite(-residual_mat, n, m), opt_cfg)
        vec = trace.best_vector
        atoms.append((vec.left, vec.right))
        columns.append(_column_of(vec.left, vec.right))
        weights, residual, diff = _fit_state(columns, target)
        residual_mat = (diff[:size] + 1j * diff[size:]).reshape(x.dim, x.dim)
        if residual < budget.residual_tol:
            return verdict_of(atoms, weights, residual)

    best = (residual, atoms, weights)
    rank = _sqrt_factor(x.matrix).shape[1]
    for attempt in range(budget.ensemble_attempts):
        k = 2 * rank + 2 + 2 * attempt
        if k > budget.max_terms:
            break
        batch, batch_err = _ensemble_rotate(
            x.matrix, n, m, k, seed * 131 + attempt + 1, budget.ensemble_iters
        )
        if batch is None or batch_err > 0.05:  # far from any product ensemble
            continue
        cols = [_column_of(p, q) for p, q in batch]
        w, _, _ = _fit_state(cols, target)
        polished, w = _polish_atoms(x.matrix, n, m, batch, w, budget.lm_max_nfev)
        if not polished:
            continue
        cols = [_column_of(p, q) for p, q in polished]
        w, res, _ = _fit_state(cols, target)
        if res < best[0]:
            best = (res, polished, w)
        if res < budget.residual_tol:
            break

    return verdict_of(best[1], best[2], best[0])


def witness_value(w: BipartiteOperator, t: BipartiteOperator) -> float:
    """Real trace inner product <T, W>."""
    if (w.n, w.m) != (t.n, t.m):
        raise ValueError(f"factorizations differ: ({w.n},{w.m}) vs ({t.n},{t.m})")
    return hilbert_schmidt(t.matrix, w.matrix)


def random_product_state(n: int, m: int, rng: np.random.Generator) -> ProductVector:
    return ProductVector(random_unit_vector(n, rng), random_unit_vector(m, rng))
