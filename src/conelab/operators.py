"""Dense Hermitian / bipartite operator kernel.

Index convention, fixed globally: a bipartite operator on C^n (x) C^m uses
row index (i, k) -> i*m + k, i.e. the first factor is the outer (block)
index.  ``numpy.kron(A, B)`` realizes exactly this convention, and so do the
swap family and the product-vector kernel below, which every other module uses.

All values are immutable after construction and all operations are pure
functions of their inputs, so everything here is safe to share across
concurrent executors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
UNIT_NORM_TOL = 1e-12


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A self-adjoint complex matrix.

    Input is symmetrized to (A + A*)/2 on ingestion; deviations from
    Hermitian symmetry larger than ``HERMITICITY_TOL`` (relative to the
    entry magnitude) are rejected as corrupt data.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
        dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
        if dev > HERMITICITY_TOL * scale:
            raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")
        object.__setattr__(self, "matrix", _frozen_array((a + a.conj().T) / 2))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True, eq=False)
class BipartiteOperator:
    """Hermitian operator on C^n (x) C^m, tagged with its factorization."""

    n: int
    m: int
    op: HermitianOperator

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("factor dimensions must be positive")
        if self.op.dim != self.n * self.m:
            raise ValueError(
                f"operator dimension {self.op.dim} != n*m = {self.n * self.m}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dim(self) -> int:
        return self.op.dim

    def reshaped(self) -> np.ndarray:
        """View as a 4-index tensor X[i, k, j, l] with (i, j) on the first factor."""
        return self.matrix.reshape(self.n, self.m, self.n, self.m)


@dataclass(frozen=True, eq=False)
class ProductVector:
    """A pair of unit vectors (phi, psi); phi (x) psi is a pure product state."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        l = np.asarray(self.left, dtype=complex).ravel()
        r = np.asarray(self.right, dtype=complex).ravel()
        for name, v in (("left", l), ("right", r)):
            if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
                raise ValueError(f"{name} factor is not a unit vector")
        object.__setattr__(self, "left", _frozen_array(l))
        object.__setattr__(self, "right", _frozen_array(r))

    @property
    def kron(self) -> np.ndarray:
        return np.kron(self.left, self.right)


def bipartite(matrix_like, n: int, m: int) -> BipartiteOperator:
    return BipartiteOperator(n, m, HermitianOperator(matrix_like))


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, (HermitianOperator, BipartiteOperator)):
        return x.matrix
    return np.asarray(x, dtype=complex)


def tensor(a: HermitianOperator, b: HermitianOperator) -> BipartiteOperator:
    """Kronecker product A (x) B under the global index convention."""
    return BipartiteOperator(a.dim, b.dim, HermitianOperator(np.kron(a.matrix, b.matrix)))


def partial_transpose(x: BipartiteOperator, side: str = "right") -> BipartiteOperator:
    """Transpose one tensor factor.  An involution; preserves trace exactly."""
    t = x.reshaped()
    if side == "right":
        t = t.transpose(0, 3, 2, 1)
    elif side == "left":
        t = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return BipartiteOperator(x.n, x.m, HermitianOperator(t.reshape(x.dim, x.dim)))


def partial_trace(x: BipartiteOperator, side: str = "right") -> HermitianOperator:
    """Trace out the named factor, returning the other factor's marginal."""
    t = x.reshaped()
    if side == "right":
        return HermitianOperator(np.einsum("ikjk->ij", t))
    if side == "left":
        return HermitianOperator(np.einsum("ikil->kl", t))
    raise ValueError("side must be 'left' or 'right'")


def eigenvalues(x) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian (bipartite) operator."""
    return np.linalg.eigvalsh(_as_matrix(x))


def trace_norm(x) -> float:
    """Schatten 1-norm: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(eigenvalues(x))))


def min_eigenvalue(x) -> float:
    return float(eigenvalues(x)[0])


def min_eigenpair(x) -> tuple[float, np.ndarray]:
    w, v = np.linalg.eigh(_as_matrix(x))
    return float(w[0]), v[:, 0]


def embedded_swap(n: int, m: int) -> BipartiteOperator:
    """Swap of the first k = min{n, m} coordinates of each factor, embedded
    in M_n (x) M_m: sum_{i, j < k} E_ij (x) E_ji.  Hermitian with operator norm 1."""
    e = np.eye(n, m)  # S[(a, b), (c, d)] = e[a, d] e[c, b] with e[i, j] = [i = j < k]
    return bipartite(np.einsum("ad,cb->abcd", e, e).reshape(n * m, n * m), n, m)


def swap_operator(m: int) -> BipartiteOperator:
    """The flip S = sum_ij E_ij (x) E_ji on C^m (x) C^m; squares to the identity."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return embedded_swap(m, m)


def h_operator(m: int) -> BipartiteOperator:
    """sum_ij E_ij (x) E_ij = m * (projection onto the maximally entangled vector)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    e = np.eye(m).ravel()
    return bipartite(np.outer(e, e), m, m)


def maximally_entangled_vector(m: int) -> np.ndarray:
    return np.eye(m, dtype=complex).ravel() / np.sqrt(m)


def rho0_apply(m: int, x: BipartiteOperator) -> float:
    """<Omega, X Omega> for the maximally entangled unit vector Omega on C^m (x) C^m.

    Equals m^{-1} Tr(H X) under the trace inner product.
    """
    if x.n != m or x.m != m:
        raise ValueError(f"operator factorization ({x.n},{x.m}) does not match m={m}")
    v = maximally_entangled_vector(m)
    return float((v.conj() @ x.matrix @ v).real)


def hilbert_schmidt(a, b) -> float:
    """Real trace pairing <A, B> = Tr(B* A) for Hermitian arguments."""
    return float(np.trace(_as_matrix(b).conj().T @ _as_matrix(a)).real)


def kron_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker products: (k, n) and (k, m) factors give (k, n*m)."""
    n, m = left.shape[1], right.shape[1]
    return (left[:, :, None] * right[:, None, :]).reshape(len(left), n * m)


def product_values(a: np.ndarray, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<v, A v> for each row v of kron_rows(phi, psi)."""
    v = kron_rows(phi, psi)
    return np.einsum("bi,bi->b", v.conj(), v @ a.T).real


def random_unit_rows(k: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """k Haar-random unit vectors of C^dim as the rows of a (k, dim) array."""
    v = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def random_density(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Random full-rank density matrix: normalized G G* with square Gaussian G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return HermitianOperator(rho / np.trace(rho).real)
