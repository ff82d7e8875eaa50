"""Max-norms of bipartite functionals and the min{n, m} closed form.

The key quantity is the largest max-norm attained on the outer (dual)
tensor cone's unit functionals; for matrix factors it equals min{n, m},
with the lower bound witnessed by the normalized swap operator and by the
completely bounded norm of the transpose map.  The cb norm of a map is
bracketed from both sides: a seesaw over Hermitian symmetries gives the
lower bound, certified by its maximizing contraction, and a feasible
point of the dual SDP for the diamond norm of the adjoint gives the upper
bound in closed form.  The seesaw stops once the two meet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import LowerBoundCertificate, OptimizerConfig, lower_bound

# perfbench/test_perfbench.py reads kappa.is_block_positive; it goes with that pin.
from .cones import is_block_positive  # noqa: F401
from .maps import MatrixMap, adjoint_map, apply_left, choi
from .operators import (
    BipartiteOperator,
    bipartite,
    eigenvalues,
    embedded_swap,
    kron_rows,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    trace_norm,
)

# perfbench/test_perfbench.py reads kappa.linprog; it goes with that pin.
from .polytopes import linprog  # noqa: F401


def max_norm_of_functional(t: BipartiteOperator) -> float:
    """Norm of the functional <., T>: the trace norm of T in finite dimension."""
    return trace_norm(t)


def kappa_exact(n: int, m: int) -> float:
    """Closed form min{n, m}; equals 1 exactly when one factor is commutative."""
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    return float(min(n, m))


def normalized_swap(n: int, m: int) -> BipartiteOperator:
    """The unit functional S/k of the embedded swap S, k = min{n, m}; its trace norm is k."""
    return bipartite(embedded_swap(n, m).matrix / min(n, m), n, m)


@dataclass(frozen=True)
class KappaWitness:
    functional: BipartiteOperator
    value: float
    lower_bound: LowerBoundCertificate


def kappa_witness(n: int) -> KappaWitness:
    """The unit functional S/n on M_n (x) M_n, with trace norm exactly n.

    Its block positivity is proved by ``lower_bound``:
    cones.lower_bound(w, w^Gamma), whose value is 0 up to rounding.
    """
    w = normalized_swap(n, n)
    return KappaWitness(w, trace_norm(w), lower_bound(w, partial_transpose(w, "right")))


@dataclass(frozen=True, eq=False)
class CbUpperBound:
    """Upper bound on the cb norm and the dual feasible point Y proving it."""

    value: float
    y: BipartiteOperator


def cb_upper_bound(phi: MatrixMap) -> CbUpperBound:
    """Upper bound on ||Phi||_cb from Watrous's dual SDP for the diamond norm
    (Theory of Computing 5, 217, 2009).

    ||Phi||_cb = ||Phi*||_diamond.  Let J be the Choi matrix of Phi*: M_m ->
    M_n, on C^n (x) C^m.  Every Hermitian Y with -Y <= J <= Y gives
    ||Phi*||_diamond <= lambda_max(tr_1 Y), tr_1 the partial trace over the
    left factor.  The diamond norm is the largest trace norm of
    (Phi* (x) id)(uu*) over unit u in C^m (x) C^k; with B the coefficient
    matrix of u, that image is K* J K with K = I (x) conj(B), so its trace
    norm is at most tr(K* Y K) = <tr_1 Y, conj(B) B^T> <= lambda_max(tr_1 Y).

    Here Y = |J|, from one eigh.  Y + delta I is feasible for
    delta = max(0, -lambda_min(Y - J), -lambda_min(Y + J)), and
    tr_1(delta I) = n delta I, so value = lambda_max(tr_1 Y) + n delta is
    an upper bound for every Hermitian Y on C^n (x) C^m, including the
    rounded |J|.
    """
    j = choi(adjoint_map(phi))
    w, u = np.linalg.eigh(j.matrix)
    y = bipartite((u * np.abs(w)) @ u.conj().T, j.n, j.m)
    delta = max(0.0, -min_eigenvalue(y.matrix - j.matrix), -min_eigenvalue(y.matrix + j.matrix))
    value = float(eigenvalues(partial_trace(y, "left"))[-1]) + j.n * delta
    return CbUpperBound(value, y)


@dataclass(frozen=True, eq=False)
class CbEstimate:
    """Best cb-norm lower bound found, its maximizing symmetry, and the
    upper bound ``upper`` that stopped the search or was not met.

    ``rounds`` counts the seesaw rounds run and ``converged`` says whether
    the search stopped before its round cap: the value met ``upper``, or
    the last round improved no start by more than ``CB_GAIN``.
    """

    value: float
    argmax: BipartiteOperator
    starts: int
    steps: int
    seed: int
    rounds: int
    converged: bool
    upper: CbUpperBound


CB_GAIN = 1e-12  # least gain of a start's value that counts as an improvement
# Budget of cb_norm_estimate when none is given.
CB_CFG = OptimizerConfig(starts=100, steps=300, seed=0)


def _sign_project(x: np.ndarray) -> np.ndarray:
    """Nearest Hermitian symmetries of a batch: eigenvalues replaced by their signs."""
    w, u = np.linalg.eigh(x)
    return np.einsum("bik,bk,bjk->bij", u, np.where(w >= 0, 1.0, -1.0), u.conj())


def cb_norm_estimate(phi: MatrixMap, cfg: OptimizerConfig | None = None) -> CbEstimate:
    """Lower bound on ||Phi (x) id_m|| by a seesaw over Hermitian symmetries.

    The norm of Phi (x) id_m is attained at self-adjoint contractions, and
    the extreme points of the Hermitian unit ball are the symmetries
    U diag(+-1) U*.  From deterministic candidates (identity, embedded swap)
    and seeded random symmetries, each round alternates two exact best
    responses: the top eigenpair (by absolute value) of (Phi (x) id)(X)
    gives a sign s and vector v, and the symmetry maximizing
    s <v, (Phi (x) id)(X) v> is the sign projection of (Phi* (x) id)(s v v*).
    Neither step lowers the value; a start keeps a new X only if its value
    rises by more than ``CB_GAIN``.  A start that did not improve is final:
    its next candidate would be the same, so it is not evaluated again.
    Runs ``cfg.starts`` starts (the deterministic candidates first) for at
    most ``cfg.steps`` rounds; ``cfg`` defaults to ``CB_CFG`` (100 starts,
    300 steps, seed 0).

    The search stops early, with ``converged`` set, once no start improves
    or once the best value is within ``CB_GAIN * max(1, UB)`` of the upper
    bound UB = ``cb_upper_bound(phi).value``, since then no start can gain
    more than rounding.  Both are checked after every round, and the bound
    also right after the deterministic candidates: if one of them meets
    it, no random start is drawn and ``rounds`` is 0.  Where UB is loose
    the search runs exactly as it would without it.  Returns the best
    value found, the maximizing X and the bound.
    """
    cfg = cfg or CB_CFG
    n, m = phi.input_dim, phi.output_dim
    dim = n * m
    upper = cb_upper_bound(phi)
    target = upper.value - CB_GAIN * max(1.0, upper.value)
    l4 = phi.unit_images()

    def top_eigenpair(xb: np.ndarray):
        w, v = np.linalg.eigh(apply_left(l4, xb, m))
        idx = np.where(np.abs(w[:, -1]) >= np.abs(w[:, 0]), w.shape[1] - 1, 0)
        rows = np.arange(len(xb))
        top = w[rows, idx]
        return np.abs(top), v[rows, :, idx], np.where(top >= 0, 1.0, -1.0)

    def estimate(vals: np.ndarray, args: np.ndarray, rounds: int, converged: bool):
        best = int(np.argmax(vals))
        return CbEstimate(value=float(vals[best]), argmax=bipartite(args[best], n, m),
                          starts=cfg.starts, steps=cfg.steps, seed=cfg.seed,
                          rounds=rounds, converged=converged, upper=upper)

    det = np.array([np.eye(dim, dtype=complex), embedded_swap(n, m).matrix.astype(complex)])
    det_vals, _, _ = top_eigenpair(det)
    if det_vals.max() >= target:
        return estimate(det_vals, det, 0, True)
    l4adj = adjoint_map(phi).unit_images()
    rng = np.random.default_rng(cfg.seed)

    # random symmetries U diag(+-1) U*, U the eigenvectors of a Gaussian
    # Hermitian: drawn start by start, decomposed as one batch
    n_det = min(len(det), cfg.starts)
    g = np.empty((cfg.starts - n_det, 2, dim, dim))
    s = np.empty((cfg.starts - n_det, 1, dim))
    for i in range(len(g)):
        g[i] = rng.standard_normal((2, dim, dim))
        s[i] = 2.0 * rng.integers(0, 2, size=dim) - 1.0
    h = g[:, 0] + 1j * g[:, 1]
    _, u = np.linalg.eigh((h + h.conj().transpose(0, 2, 1)) / 2)
    x = np.concatenate([_sign_project(det[:n_det]), (u * s) @ u.conj().transpose(0, 2, 1)])

    f, vecs, signs = top_eigenpair(x)
    active = np.arange(cfg.starts)
    rounds, converged = 0, False
    while rounds < cfg.steps and not converged:
        va, sa = vecs[active], signs[active]
        d = va.shape[1]
        proj = kron_rows(va * sa[:, None], va.conj()).reshape(len(va), d, d)
        cand = _sign_project(apply_left(l4adj, proj, m))
        fc, vc, sc = top_eigenpair(cand)
        ok = fc > f[active] + CB_GAIN
        active = active[ok]
        x[active], f[active], vecs[active], signs[active] = cand[ok], fc[ok], vc[ok], sc[ok]
        rounds += 1
        converged = not ok.any() or f.max() >= target

    return estimate(np.concatenate([det_vals, f]), np.concatenate([det, x]), rounds, converged)


def extremal_positive_map(n: int, m: int) -> MatrixMap:
    """Unital positive map M_n -> M_m whose cb norm attains min{n, m}:
    transpose on the leading min{n, m} corner, padded unitaly."""
    k = min(n, m)

    def action(a: np.ndarray) -> np.ndarray:
        out = np.zeros((m, m), dtype=complex)
        out[:k, :k] = a[:k, :k].T
        for i in range(k, m):
            out[i, i] = a[0, 0]
        return out

    return MatrixMap.from_function(n, m, action)
