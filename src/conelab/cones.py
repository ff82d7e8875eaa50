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

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.optimize import least_squares, nnls

from .operators import (
    BipartiteOperator,
    HermitianOperator,
    ProductVector,
    bipartite,
    hilbert_schmidt,
    kron_rows,
    min_eigenpair,
    min_eigenvalue,
    partial_transpose,
    product_values,
    random_unit_rows,
    random_unit_vector,
)

SPECTRAL_TOL = 1e-9
OPTIMIZER_TOL = 1e-6
SEESAW_DROP = 1e-15  # per-round decrease, in spectral-norm units, that ends the seesaw
AGREE_TOL = 1e-9  # starts this close to the best value, in the same units, agree
POLISH_ROUNDS = 8  # seesaw rounds allowed past ``steps`` in block_positive_min

# Fixed budget of separable_decompose (see its docstring).
MAX_TERMS = 32
GREEDY_TERMS = 6
ENSEMBLE_ATTEMPTS = 4
ENSEMBLE_ITERS = 3000
LM_MAX_NFEV = 500
RESIDUAL_TOL = 1e-7
# Squared projection error of _ensemble_rotate above which its atoms are
# dropped unpolished: the configuration is far from any product ensemble.
ROTATION_GATE = 0.05


class Status(str, Enum):
    IN = "in"
    OUT = "out"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class SpectralCertificate:
    """Extremal eigenpair backing a PSD verdict."""

    eigenvalue: float
    eigenvector: np.ndarray


@dataclass(frozen=True, eq=False)
class WitnessCertificate:
    """Block-positive W with <T, W> < 0, certifying T is not separable."""

    witness: BipartiteOperator
    value: float


@dataclass(frozen=True, eq=False)
class LowerBoundCertificate:
    """Hermitian Q and the lower bound on X that ``lower_bound`` derives from it."""

    q: BipartiteOperator
    value: float


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """Nonnegative mixture of pure product states reconstructing the input.

    ``separable_decompose`` lists the atoms by descending weight, each factor
    phased so that its first entry within 1e-9 of its largest modulus is
    real and positive.
    """

    weights: np.ndarray
    factors: tuple[ProductVector, ...]
    residual: float

    def reconstruct(self) -> np.ndarray:
        v = kron_rows(np.array([f.left for f in self.factors]),
                      np.array([f.right for f in self.factors]))
        return (v.T * self.weights) @ v.conj()


@dataclass(frozen=True, eq=False)
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
    """Budget of a seeded multistart search: ``starts`` starts from ``seed``.

    ``steps`` bounds the rounds of each search that takes this budget:
    ``block_positive_min`` runs at most ``steps + POLISH_ROUNDS`` seesaw
    rounds over product vectors; ``separable_decompose`` gives the budget
    to the product-vector search of each greedy term (its seed offset by
    the term index) and seeds the ensemble rotation from ``seed``;
    ``kappa.cb_norm_estimate`` runs at most ``steps`` seesaw rounds over
    Hermitian symmetries.
    """

    starts: int = 200
    steps: int = 500
    seed: int = 0


# Budget of separable_decompose when none is given.
DECOMPOSE_CFG = OptimizerConfig(starts=16, steps=60, seed=0)


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


def product_expectation(x: BipartiteOperator, vec: ProductVector) -> float:
    """<phi (x) psi, X (phi (x) psi)>."""
    return float(product_values(x.matrix, vec.left[None], vec.right[None])[0])


def block_positive_min(
    x: BipartiteOperator, cfg: OptimizerConfig | None = None
) -> tuple[float, OptimizerTrace]:
    """Best-found minimum of <phi (x) psi, X (phi (x) psi)> over product vectors.

    Batched seesaw from seeded random starts, the first few taken from the
    best points of a coarse deterministic grid: each round sets phi to the
    lowest eigenvector of the reduced matrix <psi| X |psi>, then psi to that
    of <phi| X |phi>.  Rounds stop after ``steps + POLISH_ROUNDS`` or once no
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

    phi = random_unit_rows(cfg.starts, n, rng)
    psi = random_unit_rows(cfg.starts, m, rng)
    gl, gr = _product_grid(n), _product_grid(m)
    gphi, gpsi = np.repeat(gl, len(gr), axis=0), np.tile(gr, (len(gl), 1))
    gvals = product_values(a, gphi, gpsi)
    seeds = np.argsort(gvals, kind="stable")[: min(8, cfg.starts)]
    phi[: len(seeds)], psi[: len(seeds)] = gphi[seeds], gpsi[seeds]

    prev = np.full(cfg.starts, np.inf)
    rounds, converged = 0, False
    while rounds < cfg.steps + POLISH_ROUNDS and not converged:
        phi = np.linalg.eigh((kron_rows(psi.conj(), psi) @ a_lr.T).reshape(-1, n, n))[1][:, :, 0]
        low, vecs = np.linalg.eigh((kron_rows(phi.conj(), phi) @ a_lr).reshape(-1, m, m))
        psi = vecs[:, :, 0]
        rounds += 1
        converged = bool(np.all(prev - low[:, 0] <= SEESAW_DROP))
        prev = low[:, 0]
    f = product_values(a, phi, psi)

    all_vals = np.concatenate([gvals, f])
    best = int(np.argmin(all_vals))
    best_vec = ProductVector(np.concatenate([gphi, phi])[best], np.concatenate([gpsi, psi])[best])
    value = float(all_vals[best] * scale)
    agreeing = int(np.sum(f <= all_vals[best] + AGREE_TOL))
    return value, OptimizerTrace(cfg.seed, cfg.starts, cfg.steps, len(gvals), value, best,
                                 best_vec, rounds, converged, agreeing)


def lower_bound(x: BipartiteOperator, q: BipartiteOperator) -> LowerBoundCertificate:
    """Level-1 certificate of Doherty, Parrilo and Spedalieri (PRA 69, 022308,
    2004): for every Hermitian Q and unit a, b, <a (x) b, X a (x) b> >= value =
    lambda_min(X - Q^Gamma) + lambda_min(Q), Gamma the right partial transpose,
    since <a (x) b, Q^Gamma a (x) b> = <a (x) conj(b), Q a (x) conj(b)>."""
    if (q.n, q.m) != (x.n, x.m):
        raise ValueError(f"factorizations differ: ({q.n},{q.m}) vs ({x.n},{x.m})")
    value = min_eigenvalue(x.matrix - partial_transpose(q, "right").matrix) + min_eigenvalue(q)
    return LowerBoundCertificate(q, value)


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
    only at 2x2 / 2x3 sizes and when a factor is C^1 (a PSD X is then
    1 (x) X_B or X_A (x) 1), where PPT is exact, and only when the input
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
    exact = min(x.n, x.m) == 1 or (x.n, x.m) in {(2, 2), (2, 3), (3, 2)}
    if exact and min_eigenpair(x)[0] >= -tol:
        return Verdict(Status.IN, SpectralCertificate(val, vec))
    return Verdict(Status.UNKNOWN, SpectralCertificate(val, vec))


def _fit_state(left: np.ndarray, right: np.ndarray, x: np.ndarray):
    """Nonnegative weights on the simplex (soft sum-to-one row) for the atoms.

    Returns the weights, the Frobenius residual and the residual matrix
    X - sum_t w_t v_t v_t* with v_t = left_t (x) right_t.
    """
    mu = 1e4
    v = kron_rows(left, right)
    p = kron_rows(v, v.conj())
    a = np.vstack([np.concatenate([p.real, p.imag], axis=1).T, mu * np.ones((1, len(v)))])
    b = np.concatenate([x.ravel().real, x.ravel().imag, [mu]])
    weights, _ = nnls(a, b)
    diff = x - (v.T * weights) @ v.conj()
    return weights, float(np.linalg.norm(diff)), diff


def _sqrt_factor(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(x)
    keep = w > 1e-12 * max(float(w[-1]), 1e-300)
    return v[:, keep] * np.sqrt(w[keep])


def _ppt_distance(x: BipartiteOperator) -> float:
    """Lower bound max(N - slack, 0) on ||X - Y||_F over separable Y, with
    N = ||(X^Gamma)_-||_F the Frobenius norm of the negative part of the
    right partial transpose (the proof is in ``separable_decompose``).

    The slack, 1e-8 * dim, covers rounding: ``eigvalsh`` is backward stable,
    and on a state N and a fit's residual round by O(dim^1.5 eps), far below
    the slack.  On a separable state X^Gamma is PSD, N is rounding noise and
    the bound is exactly 0.
    """
    lam = np.linalg.eigvalsh(partial_transpose(x, "right").matrix)
    return max(float(np.linalg.norm(np.minimum(lam, 0.0))) - 1e-8 * x.dim, 0.0)


_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # sigma_y (x) sigma_y, real
_HADAMARD = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0


def _wootters_atoms(x: np.ndarray):
    """Wootters's four product atoms of a full-rank two-qubit state (PRL 80,
    2245, 1998), as factor arrays ``left (4, 2)`` and ``right (4, 2)``.

    With X = A A*, Y = A conj(U) is another ensemble of X for any unitary U,
    and its bilinear Gram matrix Y^T S Y (S = sigma_y (x) sigma_y) is
    U* tau conj(U) with tau = A^T S A.  The Takagi factorization
    tau = U diag(lam) U^T makes it diag(lam): the columns of U are the top
    four eigenvectors [p; q] -> p + iq of [[Re tau, Im tau], [Im tau, -Re tau]],
    whose spectrum is +-lam ([p; q] -> [-q; p] maps one sign to the other).
    Im(u_i* u_j) pairs a +lam eigenvector with a -lam one, and tau is
    invertible, so lam > 0, that pairing is 0 and U is unitary even when
    values repeat.  For z = vec(M), z^T S z = -2 det M, so z is a product
    vector iff it vanishes.  Phases with sum_i e^{i theta_i} lam_i = 0 exist
    iff lam_1 <= lam_2 + lam_3 + lam_4 (lam descending), which holds exactly
    on the separable (= PPT) states; then every z_j = sum_i h_ji e^{i theta_i / 2} y_i / 2
    has z_j^T S z_j = sum_i e^{i theta_i} lam_i / 4 = 0, and since h / 2 is
    orthogonal, sum_j z_j z_j* = X.  The phases close the quadrilateral
    lam_1 e^{i theta_1} + lam_2 e^{i theta_2} = s = -(lam_3 e^{i theta_3} +
    lam_4 e^{i theta_4}) with s = max(lam_1 - lam_2, lam_3 - lam_4), both
    triangles by the law of cosines.  Off the PPT states the cosines are
    clipped and the atoms are not product; the caller's refit rejects them.
    """
    a = _sqrt_factor(x)
    tau = a.T @ _SIGMA_YY @ a
    lam, vec = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    lam, u = lam[:3:-1], vec[:4, :3:-1] + 1j * vec[4:, :3:-1]
    s = max(lam[0] - lam[1], lam[2] - lam[3])

    def closing(p, q):
        """Unit phases (r, r e^{ig}) with p r + q r e^{ig} = |p + q e^{ig}| = s."""
        turn = np.exp(1j * np.arccos(np.clip((s * s - p * p - q * q) / (2 * p * q), -1.0, 1.0)))
        w = p + q * turn
        return (np.conj(w) / abs(w) if abs(w) > 0 else 1.0) * np.array([1.0, turn])

    phase = np.concatenate([closing(lam[0], lam[1]), -closing(lam[2], lam[3])])
    z = ((a @ u.conj()) * np.sqrt(phase)) @ _HADAMARD
    left, _, right = np.linalg.svd(z.T.reshape(4, 2, 2))
    return left[:, :, 0], right[:, 0]


def _ensemble_rotate(x: np.ndarray, n: int, m: int, k: int, seed: int):
    """Rotate a square-root ensemble of the state toward product vectors.

    Any decomposition X = sum_i c_i c_i* arises as C = A R with A a square
    root factor and R a co-isometry, so alternate between projecting every
    ensemble vector onto its leading product direction and re-solving the
    rotation (orthogonal Procrustes), with over-relaxation to speed up the
    tangential tail.  The ensemble is kept as the rows of C^T.  Read as an
    n x m block M, a row's projection is u u* M, with u the top eigenvector
    of M M* (or M v v* with v that of M* M when n > m): one batched
    eigensolve of the smaller Gram matrices.  Returns the leading singular
    vectors of the best configuration's blocks as factor arrays
    ``left (k, n)`` and ``right (k, m)``, and its squared projection error.
    """
    a = _sqrt_factor(x)
    r = a.shape[1]
    k = max(k, r)
    at, ac = a.T, a.conj()
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
    q, _ = np.linalg.qr(z.conj().T)
    c = q.conj() @ at
    beta = 0.95
    best_err, best = np.inf, None
    prev = None
    since_improved = 0
    for _ in range(ENSEMBLE_ITERS):
        blocks = c.reshape(k, n, m)
        if n <= m:
            u = np.linalg.eigh(blocks @ blocks.conj().swapaxes(1, 2))[1][:, :, -1]
            proj = kron_rows(u, (u.conj()[:, None, :] @ blocks)[:, 0])
        else:
            v = np.linalg.eigh(blocks.conj().swapaxes(1, 2) @ blocks)[1][:, :, -1]
            proj = kron_rows((blocks @ v[:, :, None])[:, :, 0], v.conj())
        d = (c - proj).ravel()
        err = float(np.vdot(d, d).real)
        if err < best_err * (1.0 - 1e-9):
            best_err, best = err, c
            since_improved = 0
        else:
            since_improved += 1
            if since_improved > 150:  # stalled at its floor (entangled input)
                break
        if err < 1e-22:
            break
        accel = proj if prev is None else proj + beta * (proj - prev)
        prev = proj
        u2, _, vt2 = np.linalg.svd(accel @ ac, full_matrices=False)
        c = (u2 @ vt2) @ at
    u, _, vt = np.linalg.svd(best.reshape(k, n, m), full_matrices=False)
    return u[:, :, 0], vt[:, 0], best_err


def _canonical_phase(rows: np.ndarray) -> np.ndarray:
    """Each row times the unit phase that makes its first entry within 1e-9
    of its largest modulus real and positive."""
    mod = np.abs(rows)
    lead = np.argmax(mod >= mod.max(axis=1, keepdims=True) - 1e-9, axis=1)
    idx = np.arange(len(rows)), lead
    out = rows * (rows[idx].conj() / mod[idx])[:, None]
    out[idx] = mod[idx]
    return out


def _canonical_decomposition(residual: float, left: np.ndarray, right: np.ndarray,
                             weights: np.ndarray) -> SeparableDecomposition:
    """The atoms of weight > 1e-12 in canonical form: by descending weight
    (weights equal to 12 decimals keep their order), each factor scaled by
    ``_canonical_phase``."""
    keep = np.flatnonzero(weights > 1e-12)
    keep = keep[np.argsort(-np.round(weights[keep], 12), kind="stable")]
    factors = zip(_canonical_phase(left[keep]), _canonical_phase(right[keep]))
    return SeparableDecomposition(weights=weights[keep],
                                  factors=tuple(ProductVector(p, q) for p, q in factors),
                                  residual=residual)


def _unpack_atoms(params: np.ndarray, n: int, m: int):
    """Factor rows (a_t, b_t) from per-atom blocks [Re a, Im a, Re b, Im b]."""
    p = params.reshape(-1, 2 * (n + m))
    a = p[:, :n] + 1j * p[:, n : 2 * n]
    b = p[:, 2 * n : 2 * n + m] + 1j * p[:, 2 * n + m :]
    return a, b


def _atoms_residual(params: np.ndarray, x: np.ndarray, n: int, m: int) -> np.ndarray:
    """X - sum_t v_t v_t* with v_t = a_t (x) b_t, as stacked real and imaginary parts."""
    v = kron_rows(*_unpack_atoms(params, n, m))
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
    v = kron_rows(a, b)
    ua = np.einsum("ij,tl->tilj", np.eye(n), b).reshape(k, d, n)
    ub = np.einsum("ti,lj->tilj", a, np.eye(m)).reshape(k, d, m)
    u = np.concatenate([ua, 1j * ua, ub, 1j * ub], axis=2)
    dv = u[:, :, None, :] * v.conj()[:, None, :, None]
    dv = dv + dv.conj().transpose(0, 2, 1, 3)
    cols = -dv.transpose(1, 2, 0, 3).reshape(d * d, -1)
    return np.concatenate([cols.real, cols.imag])


def _polish_atoms(x: np.ndarray, n: int, m: int, left: np.ndarray, right: np.ndarray,
                  weights: np.ndarray):
    """Local least-squares fit over unnormalized product factors.

    Each term is |a (x) b><a (x) b| with the weight folded into the factor
    norms, so nonnegativity is automatic and the fit is smooth.  Atoms of
    weight <= 1e-12 are dropped first; returns the normalized factor arrays
    of the atoms that keep a nonzero norm.
    """
    keep = weights > 1e-12
    if not keep.any():
        return left[:0], right[:0]
    a = np.sqrt(weights[keep])[:, None] * left[keep]
    b = right[keep]
    x0 = np.concatenate([a.real, a.imag, b.real, b.imag], axis=1).ravel()
    sol = least_squares(_atoms_residual, x0, jac=_atoms_jacobian, method="trf",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=LM_MAX_NFEV,
                        args=(x, n, m))
    a, b = _unpack_atoms(sol.x, n, m)
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    ok = na * nb >= 1e-10
    return a[ok] / na[ok, None], b[ok] / nb[ok, None]


def separable_decompose(x: BipartiteOperator, cfg: OptimizerConfig | None = None) -> Verdict:
    """Column-generation search for a separable decomposition of a state.

    A full-rank 2x2 state is first decomposed in closed form
    (``_wootters_atoms``, which does not use ``cfg``): four product atoms
    whose weights are refit on the simplex.  A 2x2 state is separable iff
    it is PPT (Horodecki 1996), and the closed form succeeds on every
    full-rank PPT state, so each full-rank separable 2x2 state is settled
    with exactly 4 atoms; In is still decided by the refit's residual alone.
    When the residual is not below ``RESIDUAL_TOL`` the search below runs
    unchanged.

    The greedy phase runs ``GREEDY_TERMS`` rounds, each adding the pure
    product state with the largest overlap with the current residual and
    refitting nonnegative weights by least squares on the simplex; the
    product state comes from ``block_positive_min`` under ``cfg``, its seed
    offset by the term index.  When that stalls above ``RESIDUAL_TOL``, up
    to ``ENSEMBLE_ATTEMPTS`` batches of at most ``MAX_TERMS`` candidate
    atoms are proposed by rotating a square-root ensemble of the state
    toward product vectors (at most ``ENSEMBLE_ITERS`` iterations each,
    seeded from ``cfg.seed``); a batch whose squared projection error
    exceeds ``ROTATION_GATE`` is dropped, the others are polished locally
    (``LM_MAX_NFEV`` evaluations) and their weights refit on the simplex.
    In (with the certificate) once the Frobenius residual drops below
    ``RESIDUAL_TOL``, Unknown once the budget is spent.  ``cfg`` defaults
    to ``DECOMPOSE_CFG``.  Only defined for states: PSD with unit trace.
    The certificate is canonical (``_canonical_decomposition``): a
    decomposition's atom order and factor phases are free (Hughston, Jozsa
    and Wootters 1993), so they are fixed by the weights and the factors.

    The ensemble phase is skipped, returning the greedy result as Unknown,
    when the partial transpose (Peres 1996) proves that no separable state
    lies within ``RESIDUAL_TOL`` of the input (``_ppt_distance``).  Every
    fit is Y = sum_t w_t v_t v_t* with w >= 0 and product v_t, so Y^Gamma
    is PSD.  The partial transpose preserves the Frobenius norm, so
    ||X - Y||_F = ||X^Gamma - Y^Gamma||_F >= ||(X^Gamma)_-||_F, and no phase
    can reach a residual below that.
    """
    cfg = cfg or DECOMPOSE_CFG
    if min_eigenpair(x)[0] < -SPECTRAL_TOL:
        raise ValueError("input is not positive semidefinite")
    if abs(x.op.trace() - 1.0) > 1e-9:
        raise ValueError("input does not have unit trace")

    n, m = x.n, x.m
    seed = cfg.seed
    rank = _sqrt_factor(x.matrix).shape[1]

    def verdict_of(residual, left, right, weights):
        cert = _canonical_decomposition(residual, left, right, weights)
        return Verdict(Status.IN if residual < RESIDUAL_TOL else Status.UNKNOWN, cert)

    if (n, m) == (2, 2) and rank == 4:
        left, right = _wootters_atoms(x.matrix)
        weights, residual, _ = _fit_state(left, right, x.matrix)
        if residual < RESIDUAL_TOL:
            return verdict_of(residual, left, right, weights)

    left, right = np.empty((0, n), complex), np.empty((0, m), complex)
    residual_mat = x.matrix
    for term in range(GREEDY_TERMS):
        term_cfg = replace(cfg, seed=seed + term)
        vec = block_positive_min(bipartite(-residual_mat, n, m), term_cfg)[1].best_vector
        left, right = np.vstack([left, vec.left]), np.vstack([right, vec.right])
        weights, residual, residual_mat = _fit_state(left, right, x.matrix)
        if residual < RESIDUAL_TOL:
            return verdict_of(residual, left, right, weights)

    best = (residual, left, right, weights)
    if _ppt_distance(x) >= RESIDUAL_TOL:  # no attempt could reach In
        return verdict_of(*best)
    for attempt in range(ENSEMBLE_ATTEMPTS):
        k = 2 * rank + 2 + 2 * attempt
        if k > MAX_TERMS:
            break
        left, right, err = _ensemble_rotate(x.matrix, n, m, k, seed * 131 + attempt + 1)
        if err > ROTATION_GATE:
            continue
        w, _, _ = _fit_state(left, right, x.matrix)
        left, right = _polish_atoms(x.matrix, n, m, left, right, w)
        if not len(left):
            continue
        w, res, _ = _fit_state(left, right, x.matrix)
        if res < best[0]:
            best = (res, left, right, w)
        if res < RESIDUAL_TOL:
            break

    return verdict_of(*best)


def witness_value(w: BipartiteOperator, t: BipartiteOperator) -> float:
    """Real trace inner product <T, W>."""
    if (w.n, w.m) != (t.n, t.m):
        raise ValueError(f"factorizations differ: ({w.n},{w.m}) vs ({t.n},{t.m})")
    return hilbert_schmidt(t.matrix, w.matrix)


def random_product_state(n: int, m: int, rng: np.random.Generator) -> ProductVector:
    return ProductVector(random_unit_vector(n, rng), random_unit_vector(m, rng))
