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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import (
    BipartiteOperator,
    HermitianOperator,
    ProductVector,
    hilbert_schmidt,
    kron_rows,
    min_eigenpair,
    min_eigenvalue,
    partial_transpose,
    product_values,
    random_unit_rows,
)

SPECTRAL_TOL = 1e-9
OPTIMIZER_TOL = 1e-6
SEESAW_DROP = 1e-15  # per-round decrease, in spectral-norm units, that ends the seesaw
AGREE_TOL = 1e-9  # starts this close to the best value, in the same units, agree

# Fixed budget of separable_decompose (see its docstring).
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
    ``best_index`` is the start that reached ``best_value``.
    """

    seed: int
    starts: int
    steps: int
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

    Each search that takes this budget runs at most ``steps`` seesaw
    rounds: ``block_positive_min`` over product vectors,
    ``kappa.cb_norm_estimate`` over Hermitian symmetries.
    """

    starts: int = 200
    steps: int = 500
    seed: int = 0


def block_positive_min(
    x: BipartiteOperator, cfg: OptimizerConfig | None = None
) -> tuple[float, OptimizerTrace]:
    """Best-found minimum of <phi (x) psi, X (phi (x) psi)> over product vectors.

    Batched seesaw from ``starts`` seeded random starts: each round sets phi
    to the lowest eigenvector of the reduced matrix <psi| X |psi>, then psi
    to that of <phi| X |phi>.  Rounds stop after ``steps`` or once no
    start's value drops by more than ``SEESAW_DROP``.  The result is an
    upper bound on the true minimum, reached by the start with the lowest
    final value (the lowest index on ties).  Raises ValueError when
    ``starts`` < 1.

    The operator is rescaled by its spectral norm before optimizing, which
    makes the result exactly positively homogeneous in X.
    """
    cfg = cfg or OptimizerConfig()
    if cfg.starts < 1:
        raise ValueError(f"block_positive_min needs at least one start, got {cfg.starts}")
    n, m = x.n, x.m
    scale = float(np.max(np.abs(np.linalg.eigvalsh(x.matrix)))) or 1.0
    a = x.matrix / scale
    # a_lr[(i, j), (k, l)] = X[(i, k), (j, l)]: either factor's reduced
    # matrix is one GEMM of this with the other factor's outer products.
    a_lr = a.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
    rng = np.random.default_rng(cfg.seed)
    phi = random_unit_rows(cfg.starts, n, rng)
    psi = random_unit_rows(cfg.starts, m, rng)

    prev = np.full(cfg.starts, np.inf)
    rounds, converged = 0, False
    while rounds < cfg.steps and not converged:
        phi = np.linalg.eigh((kron_rows(psi.conj(), psi) @ a_lr.T).reshape(-1, n, n))[1][:, :, 0]
        low, vecs = np.linalg.eigh((kron_rows(phi.conj(), phi) @ a_lr).reshape(-1, m, m))
        psi = vecs[:, :, 0]
        rounds += 1
        converged = bool(np.all(prev - low[:, 0] <= SEESAW_DROP))
        prev = low[:, 0]
    f = product_values(a, phi, psi)

    best = int(np.argmin(f))
    value = float(f[best] * scale)
    agreeing = int(np.sum(f <= f[best] + AGREE_TOL))
    return value, OptimizerTrace(cfg.seed, cfg.starts, cfg.steps, value, best,
                                 ProductVector(phi[best], psi[best]), rounds, converged, agreeing)


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
    return Verdict(Status.IN if value >= -tol else Status.OUT, trace)


def ppt_check(x: BipartiteOperator, tol: float = SPECTRAL_TOL) -> Verdict:
    """Positive-partial-transpose criterion.

    Out (certified non-separable) if the partial transpose has an
    eigenvalue < -tol; the certificate is the decomposable witness
    W = (v v*)^{T_right} built from the violating eigenvector v, which is
    block positive and pairs negatively with the input.  In is returned
    only at 2x2, 2x3 and 3x2 sizes and when a factor is C^1 (a PSD X is then
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


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call: only
    the ensemble phase's polish needs scipy.optimize, which takes about
    0.4 s to import."""
    from scipy import optimize

    return optimize.least_squares(*args, **kwargs)


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The x >= 0 that minimizes ||a x - b||.

    When ``a`` has full column rank and ``lstsq``'s solution is positive,
    that solution meets the KKT conditions.  Otherwise the active set of
    Lawson and Hanson (Solving Least Squares Problems, 1974, ch. 23) runs
    from the empty passive set.  Of the columns with a positive dual entry,
    the largest enters whose part orthogonal to the passive columns exceeds
    100 eps times its part in their span, so that the passive columns stay
    independent where near-duplicate ensemble atoms make ``a`` rank
    deficient, and whose weight in the enlarged fit is positive.  Raises
    RuntimeError after 3 k steps, k the number of columns.
    """
    k = a.shape[1]
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank == k and x.min() > 0:
        return x

    def solve(passive):
        z = np.zeros(k)
        z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        return z

    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    for _ in range(3 * k):
        q = np.linalg.qr(a[:, passive])[0]
        inside = q.T @ a
        outside = a - q @ inside
        # a.T @ r in exact arithmetic, as r is orthogonal to the passive
        # columns; on a alone the rounding of _fit_state's mu row (1e4 * 1e4
        # * eps) would swamp the duals near the optimum
        dual = outside.T @ (b - a @ x)
        dual[passive | (np.linalg.norm(outside, axis=0)
                        <= 100 * np.finfo(float).eps * np.linalg.norm(inside, axis=0))] = 0.0
        for t in sorted(np.flatnonzero(dual > 0), key=lambda j: -dual[j]):
            passive[t] = True
            z = solve(passive)
            if z[t] > 0:
                break
            passive[t] = False
        else:
            return x
        while np.any(z[passive] <= 0):  # step back to the first entry that reaches 0
            cut = np.flatnonzero(passive & (z <= 0))
            ratio = x[cut] / (x[cut] - z[cut])
            x = x + ratio.min() * (z - x)
            x[cut[np.argmin(ratio)]] = 0.0
            passive &= x > 0
            z = solve(passive)
        x = z
    raise RuntimeError("nnls: no solution after 3 k steps")


def _fit_state(left: np.ndarray, right: np.ndarray, x: np.ndarray):
    """Nonnegative weights on the simplex (soft sum-to-one row) for the atoms.

    Returns the weights and the Frobenius residual of
    X - sum_t w_t v_t v_t* with v_t = left_t (x) right_t.
    """
    mu = 1e4
    v = kron_rows(left, right)
    p = kron_rows(v, v.conj())
    a = np.vstack([np.concatenate([p.real, p.imag], axis=1).T, mu * np.ones((1, len(v)))])
    b = np.concatenate([x.ravel().real, x.ravel().imag, [mu]])
    weights = nnls(a, b)
    return weights, float(np.linalg.norm(x - (v.T * weights) @ v.conj()))


def _sqrt_factor(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Square-root factor A of X = A A* from the eigenpairs ``w, v`` of
    ``np.linalg.eigh(X)``: the columns sqrt(w_i) v_i with w_i above 1e-12
    times the largest eigenvalue, so A has rank(X) columns."""
    keep = w > 1e-12 * max(float(w[-1]), 1e-300)
    return v[:, keep] * np.sqrt(w[keep])


def _leading_pairs(rows: np.ndarray, n: int, m: int):
    """Leading Schmidt pair of each row read as an n x m block, as factor
    arrays ``left (k, n)`` and ``right (k, m)``."""
    u, _, vt = np.linalg.svd(rows.reshape(-1, n, m), full_matrices=False)
    return u[:, :, 0], vt[:, 0]


def _ppt_distance(lam: np.ndarray) -> float:
    """Lower bound max(N - slack, 0) on ||X - Y||_F over separable Y, with
    N = ||(X^Gamma)_-||_F the Frobenius norm of the negative part of the
    right partial transpose, read from its eigenvalues ``lam`` (the proof is
    in ``separable_decompose``).

    The slack, 1e-8 * dim, covers rounding: ``eigh`` and ``eigvalsh`` are
    backward stable, and on a state N and a fit's residual round by
    O(dim^1.5 eps), far below the slack.  On a separable state X^Gamma is
    PSD, N is rounding noise and the bound is exactly 0.
    """
    return max(float(np.linalg.norm(np.minimum(lam, 0.0))) - 1e-8 * len(lam), 0.0)


_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # sigma_y (x) sigma_y, real
_HADAMARD = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0


def _wootters_atoms(a: np.ndarray):
    """Wootters's four product atoms of a full-rank two-qubit state X = A A*
    (PRL 80, 2245, 1998; A is 4 x 4), as factor arrays ``left (4, 2)`` and
    ``right (4, 2)``.

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
    return _leading_pairs(z.T, 2, 2)


def _range_atoms(a: np.ndarray, b: np.ndarray, n: int, m: int):
    """The r product vectors in the range of X = A A* (A is nm x r), as
    factor arrays ``left (r, n)`` and ``right (r, m)``, read from that range
    and the range of X^Gamma = B B*, Gamma the right partial transpose;
    None when B has not r columns, when r (r - 1) > n^2 C(m, 2) with the
    larger factor on the right, or when the ranges do not hold exactly r
    independent product vectors.

    A product vector A c = e (x) f has the partner B d = e (x) conj(f)
    (P. Horodecki, PLA 232, 333, 1997): with V, W their n x m blocks,
    V_ik conj(W_jl) = V_il conj(W_jk) for all i, j and k < l, equations
    linear in M = c d* (Horodecki, Lewenstein, Vidal and Cirac, PRA 62,
    032310, 2000).  When the product vectors are A c_k with independent c_k
    and partners B d_k, the solutions are C L D*, L diagonal, and two of
    them give N2 N1^-1 = C L2 L1^-1 C^-1, whose eigenvectors are the c_k
    (Jennrich's simultaneous diagonalization; Leurgans, Ross and Abel, SIAM
    J. Matrix Anal. Appl. 14, 1064, 1993).  That holds for a generic mixture
    of r product states; on any other state the caller's refit rejects them.
    Singular values below 1e-9 ||A||_F ||B||_F count as zero.
    """
    r = a.shape[1]
    t, s = a.reshape(n, m, r), b.conj().reshape(n, m, -1)
    if n > m:  # swap the factors: X's left partial transpose is conj(X^Gamma)
        t, s = t.swapaxes(0, 1), b.reshape(n, m, -1).swapaxes(0, 1)
    p, q = t.shape[:2]
    if s.shape[2] != r or r * (r - 1) > p * p * q * (q - 1) // 2:
        return None
    k, l = np.triu_indices(q, 1)
    vw = np.einsum("ikx,jly->ijklxy", t, s)  # V_ik conj(W_jl) = sum_xy vw_ijklxy M_xy
    _, sv, vh = np.linalg.svd((vw - vw.swapaxes(2, 3))[:, :, k, l].reshape(-1, r * r))
    kept = int(np.sum(sv > 1e-9 * np.linalg.norm(a) * np.linalg.norm(b)))
    if r * r - kept != r:
        return None
    n1, n2 = (np.stack([np.ones(r), np.arange(1.0, r + 1)]) @ vh[kept:].conj()).reshape(2, r, r)
    if np.linalg.cond(n1) >= 1e9:
        return None
    c = np.linalg.eig(np.linalg.solve(n1.T, n2.T).T)[1]  # N2 N1^-1
    return _leading_pairs((a @ c).T, n, m)


def _ensemble_rotate(a: np.ndarray, n: int, m: int, k: int, seed: int):
    """Rotate a square-root ensemble of the state X = A A* toward product
    vectors, from its square-root factor ``a`` (``_sqrt_factor``).

    Any decomposition X = sum_i c_i c_i* arises as C = A R with R a
    co-isometry, so alternate between projecting every ensemble vector onto
    its leading product direction and re-solving the rotation (orthogonal
    Procrustes), with over-relaxation to speed up the tangential tail.  The
    ensemble is kept as the rows of C^T.  Read as an n x m block M, a row's
    projection is u u* M, with u the top eigenvector of M M* (or M v v* with
    v that of M* M when n > m): one batched eigensolve of the smaller Gram
    matrices.  Returns the leading singular vectors of the best
    configuration's blocks as factor arrays ``left (k, n)`` and
    ``right (k, m)``, and its squared projection error.
    """
    r = a.shape[1]
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
    return (*_leading_pairs(best, n, m), best_err)


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


def separable_decompose(x: BipartiteOperator, seed: int = 0) -> Verdict:
    """Search for a separable decomposition of a state.

    The first fit is one of three closed forms.  A full-rank 2x2 state is
    written as Wootters's four product atoms (``_wootters_atoms``); a 2x2
    state is separable iff it is PPT (Horodecki 1996), and the closed form
    succeeds on every full-rank PPT state, so each full-rank separable 2x2
    state is settled with exactly 4 atoms.  Every other state of rank r
    with r (r - 1) <= n^2 C(m, 2), the larger factor on the right (r up to
    4 at 2x3, 5 at 2x4 and 3x3, 10 at 4x4), is written as the product
    vectors in the ranges of X and X^Gamma (``_range_atoms``), which settles
    a generic mixture of r product states with exactly r atoms.  Any other
    state takes the leading Schmidt pair of each column of a square-root
    factor X = A A*, exact when the columns are product vectors (as when a
    factor is C^1).  The first fit's weights are refit on the simplex.

    When its residual is not below ``RESIDUAL_TOL``, up to
    ``ENSEMBLE_ATTEMPTS`` batches of candidate atoms (2 rank(X) + 2 in the
    first, two more in each next) are proposed by rotating a square-root
    ensemble of the state toward product vectors (at most
    ``ENSEMBLE_ITERS`` iterations each, seeded from ``seed``); a batch whose
    squared projection error exceeds ``ROTATION_GATE`` is dropped, the
    others are polished locally (``LM_MAX_NFEV`` evaluations; a polish that
    raises ``LinAlgError`` drops its batch) and their weights refit.
    In (with the certificate) once the Frobenius residual drops below
    ``RESIDUAL_TOL``, else Unknown with the best fit found; no verdict
    rests on the closed forms, only on the residual.  Only defined for
    states: PSD with unit trace.  The certificate is canonical
    (``_canonical_decomposition``): a decomposition's atom order and factor
    phases are free (Hughston, Jozsa and Wootters 1993), so they are fixed
    by the weights and the factors.

    The ensemble phase is skipped, returning the first fit as Unknown,
    when the partial transpose (Peres 1996) proves that no separable state
    lies within ``RESIDUAL_TOL`` of the input (``_ppt_distance``).  Every
    fit is Y = sum_t w_t v_t v_t* with w >= 0 and product v_t, so Y^Gamma
    is PSD.  The partial transpose preserves the Frobenius norm, so
    ||X - Y||_F = ||X^Gamma - Y^Gamma||_F >= ||(X^Gamma)_-||_F, and no phase
    can reach a residual below that.
    """
    lam, vec = np.linalg.eigh(x.matrix)  # shared by the PSD check and every phase
    if lam[0] < -SPECTRAL_TOL:
        raise ValueError("input is not positive semidefinite")
    if abs(x.op.trace() - 1.0) > 1e-9:
        raise ValueError("input does not have unit trace")

    n, m = x.n, x.m
    a = _sqrt_factor(lam, vec)
    rank = a.shape[1]

    lam_pt = None  # the spectrum of X^Gamma, which the Wootters atoms do not read
    if (n, m) == (2, 2) and rank == 4:
        fit = _wootters_atoms(a)
    else:
        lam_pt, vec_pt = np.linalg.eigh(partial_transpose(x, "right").matrix)
        fit = _range_atoms(a, _sqrt_factor(lam_pt, vec_pt), n, m)
    left, right = _leading_pairs(a.T, n, m) if fit is None else fit
    weights, residual = _fit_state(left, right, x.matrix)
    best = (residual, left, right, weights)
    if residual >= RESIDUAL_TOL and lam_pt is None:
        lam_pt = np.linalg.eigvalsh(partial_transpose(x, "right").matrix)
    if residual >= RESIDUAL_TOL and _ppt_distance(lam_pt) < RESIDUAL_TOL:
        for attempt in range(ENSEMBLE_ATTEMPTS):
            k = 2 * rank + 2 + 2 * attempt
            left, right, err = _ensemble_rotate(a, n, m, k, seed * 131 + attempt + 1)
            if err > ROTATION_GATE:
                continue
            w, _ = _fit_state(left, right, x.matrix)
            try:
                left, right = _polish_atoms(x.matrix, n, m, left, right, w)
            except np.linalg.LinAlgError:  # an SVD inside scipy's trf did not converge
                continue
            if not len(left):
                continue
            w, res = _fit_state(left, right, x.matrix)
            if res < best[0]:
                best = (res, left, right, w)
            if res < RESIDUAL_TOL:
                break
    status = Status.IN if best[0] < RESIDUAL_TOL else Status.UNKNOWN
    return Verdict(status, _canonical_decomposition(*best))


def is_separable(x: BipartiteOperator, tol: float = SPECTRAL_TOL, seed: int = 0) -> Verdict:
    """Separability oracle for states.

    Out when the partial transpose has an eigenvalue < -tol (``ppt_check``
    at ``tol``, with its witness); otherwise In when ``separable_decompose``
    finds a decomposition; otherwise In where PPT is exact (``ppt_check``
    at ``SPECTRAL_TOL`` whatever ``tol`` is: 2x2, 2x3 and 3x2, or a factor
    C^1); otherwise the search's Unknown.  An input that passes the PPT
    test but is not a state raises ValueError from ``separable_decompose``.
    """
    verdict = ppt_check(x, tol)
    if verdict.status is Status.OUT:
        return verdict
    verdict = separable_decompose(x, seed)
    if not verdict.is_in:
        exact = ppt_check(x)
        verdict = exact if exact.is_in else verdict
    return verdict


def witness_value(w: BipartiteOperator, t: BipartiteOperator) -> float:
    """Real trace inner product <T, W>."""
    if (w.n, w.m) != (t.n, t.m):
        raise ValueError(f"factorizations differ: ({w.n},{w.m}) vs ({t.n},{t.m})")
    return hilbert_schmidt(t.matrix, w.matrix)


def random_product_state(n: int, m: int, rng: np.random.Generator) -> ProductVector:
    return ProductVector(random_unit_rows(1, n, rng)[0], random_unit_rows(1, m, rng)[0])
