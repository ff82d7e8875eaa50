"""Linear-map calculus on matrix algebras: Choi / Jamiolkowski transforms,
positivity certification, and the normalization of rho_0 o (Phi (x) id)
to a unital positive map.

A map Phi: M_a -> M_b is stored as a real (b^2) x (a^2) coefficient array
over the orthonormal Hermitian basis of each algebra: the diagonal matrix
units E_ii first, then (E_ij + E_ji)/sqrt(2) for i < j in lexicographic
order, then i(E_ij - E_ji)/sqrt(2).  A real coefficient array is exactly
the condition that Hermitian inputs go to Hermitian outputs; the action on
non-Hermitian matrices is the canonical complex-linear extension.

A map acts through its unit-image tensor L = ``unit_images()``, L[p, q, i, j] =
Phi(E_ij)[p, q]: ``apply`` is one ``apply_left`` GEMM, the Choi and Jamiolkowski
matrices are index permutations of L, and a map built from the images of the
input basis elements B_y reads them back in the output basis (``_coefficients``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cones import OPTIMIZER_TOL, OptimizerConfig, Verdict, is_block_positive, is_psd
from .operators import (
    BipartiteOperator,
    HermitianOperator,
    _frozen_array,
    bipartite,
    h_operator,
    hilbert_schmidt,
)


@lru_cache(maxsize=32)
def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal Hermitian basis of M_n, shape (n^2, n, n)."""
    mats = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2)
            mats.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j / np.sqrt(2)
            e[j, i] = -1j / np.sqrt(2)
            mats.append(e)
    return _frozen_array(np.array(mats))


def _coefficients(images: np.ndarray) -> np.ndarray:
    """Coefficient array whose column y reads images[y] = Phi(B_y) in the output basis."""
    return np.einsum("xpq,yqp->xy", hermitian_basis(images.shape[1]), images).real


@dataclass(frozen=True, eq=False)
class MatrixMap:
    """Real-linear map M_{input_dim} -> M_{output_dim} on Hermitian matrices."""

    input_dim: int
    output_dim: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("map dimensions must be positive")
        c = np.asarray(self.coeffs, dtype=float)
        want = (self.output_dim ** 2, self.input_dim ** 2)
        if c.shape != want:
            raise ValueError(f"coefficient array must have shape {want}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("map coefficients contain NaN or infinity")
        object.__setattr__(self, "coeffs", _frozen_array(c))

    @classmethod
    def from_function(cls, input_dim: int, output_dim: int, fn) -> "MatrixMap":
        """Build the coefficient array by applying ``fn`` to the Hermitian basis;
        an image that is not Hermitian raises ValueError, as HermitianOperator does."""
        images = np.array([fn(b) for b in hermitian_basis(input_dim)], dtype=complex)
        for image in images:
            HermitianOperator(image)
        return cls(input_dim, output_dim, _coefficients(images))

    @classmethod
    def identity(cls, n: int) -> "MatrixMap":
        return cls(n, n, np.eye(n * n))

    @classmethod
    def transpose(cls, n: int) -> "MatrixMap":
        return cls.from_function(n, n, lambda a: a.T)

    @classmethod
    def reduction(cls, n: int) -> "MatrixMap":
        """A |-> Tr(A) I - A; positive but not completely positive for n >= 2."""
        return cls.from_function(n, n, lambda a: np.trace(a) * np.eye(n) - a)

    def apply(self, m: np.ndarray) -> np.ndarray:
        return apply_left(self.unit_images(), np.asarray(m, dtype=complex)[None], 1)[0]

    def unit_images(self) -> np.ndarray:
        """Tensor L[p, q, i, j] = Phi(E_ij)[p, q], read-only, contracted on first use."""
        return self._unit_images

    @cached_property
    def _unit_images(self) -> np.ndarray:
        # E_ij has coefficient conj(B_l[i, j]) = B_l[j, i] on the basis element B_l, so
        # contract with the input basis, then the output basis (two einsums, not one)
        t = np.einsum("kl,lji->kij", self.coeffs, hermitian_basis(self.input_dim))
        return _frozen_array(np.einsum("kpq,kij->pqij", hermitian_basis(self.output_dim), t))


def adjoint_map(psi: MatrixMap) -> MatrixMap:
    """Adjoint for the trace pairing: Tr(Psi(A) B) = Tr(A Psi*(B)).

    In the orthonormal Hermitian basis this is exactly the transposed
    coefficient array, and Psi*(E_ij)[p, q] = Psi(E_qp)[j, i], so its unit
    images are psi's transposed rather than contracted again.
    """
    adj = MatrixMap(psi.output_dim, psi.input_dim, psi.coeffs.T)
    object.__setattr__(adj, "_unit_images", _frozen_array(psi.unit_images().transpose(3, 2, 1, 0)))
    return adj


def apply_left(units: np.ndarray, xb: np.ndarray, m: int) -> np.ndarray:
    """(Phi (x) id_m)(X) for a batch of X, as one GEMM with the unit images.

    ``units[p, q, i, j] = Phi(E_ij)[p, q]`` for Phi: M_a -> M_c; each X is
    (a m) x (a m) and each image (c m) x (c m).
    """
    c, a = units.shape[0], units.shape[2]
    b = len(xb)
    x = xb.reshape(b, a, m, a, m).transpose(0, 2, 4, 1, 3).reshape(b * m * m, a * a)
    y = x @ units.reshape(c * c, a * a).T
    return y.reshape(b, m, m, c, c).transpose(0, 3, 1, 4, 2).reshape(b, c * m, c * m)


def apply_to_left_factor(phi: MatrixMap, x: BipartiteOperator) -> BipartiteOperator:
    """(Phi (x) id)(X) for X on C^{input_dim} (x) C^c."""
    if x.n != phi.input_dim:
        raise ValueError(f"left factor dim {x.n} != map input dim {phi.input_dim}")
    y = apply_left(phi.unit_images(), x.matrix[None], x.m)[0]
    return bipartite(y, phi.output_dim, x.m)


def choi(psi: MatrixMap) -> BipartiteOperator:
    """Choi matrix sum_ij Psi(E_ij) (x) E_ij: C[(p, i), (q, j)] = L[p, q, i, j]."""
    b, a = psi.output_dim, psi.input_dim
    return bipartite(psi.unit_images().transpose(0, 2, 1, 3).reshape(b * a, b * a), b, a)


def jamiolkowski(psi: MatrixMap) -> BipartiteOperator:
    """Jamiolkowski matrix sum_ij Psi(E_ij) (x) E_ji: J[(p, j), (q, i)] = L[p, q, i, j],
    the Choi matrix with its right factor partially transposed."""
    b, a = psi.output_dim, psi.input_dim
    return bipartite(psi.unit_images().transpose(0, 3, 1, 2).reshape(b * a, b * a), b, a)


def map_from_choi(c: BipartiteOperator) -> MatrixMap:
    """The unique map with the given Choi matrix (exact inverse of ``choi``)."""
    # Psi(B_y)[i, j] = sum_kl C[(i, k), (j, l)] B_y[k, l], then read in the output basis
    images = np.einsum("ikjl,ykl->yij", c.reshaped(), hermitian_basis(c.m))
    return MatrixMap(c.m, c.n, _coefficients(images))


@dataclass(frozen=True, eq=False)
class UnitalityReport:
    image_of_identity: HermitianOperator
    is_unital: bool
    normalized_trace_of_image: float


def unitality_report(phi: MatrixMap) -> UnitalityReport:
    img = HermitianOperator(phi.apply(np.eye(phi.input_dim, dtype=complex)))
    m = phi.output_dim
    dev = np.linalg.eigvalsh(img.matrix - np.eye(m))
    is_unital = bool(max(abs(dev[0]), abs(dev[-1])) < 1e-9)
    return UnitalityReport(img, is_unital, float(img.trace() / m))


def is_positive_map(
    psi: MatrixMap, tol: float = OPTIMIZER_TOL, cfg: OptimizerConfig | None = None
) -> Verdict:
    """Positivity of the map, certified through block-positivity of its
    Jamiolkowski matrix."""
    return is_block_positive(jamiolkowski(psi), tol, cfg)


@dataclass(frozen=True, eq=False)
class BipartiteFunctional:
    """Linear functional X |-> <X, density> on bipartite (n, m) operators."""

    density: BipartiteOperator

    def __call__(self, x: BipartiteOperator) -> float:
        if (x.n, x.m) != (self.density.n, self.density.m):
            raise ValueError("operator factorization does not match functional")
        return hilbert_schmidt(x.matrix, self.density.matrix)


def normalize_positive_map(phi: MatrixMap) -> tuple[MatrixMap, BipartiteFunctional]:
    """Rewrite rho_0 o (Phi (x) id) with a unital positive map.

    Given Phi: M_n -> M_m with tr(Phi(I)) = 1 that is CP or co-CP (a PSD
    Choi or Jamiolkowski matrix; else ValueError, even for a positive map
    such as Choi's map on M_3), build Psi(A) = R Phi(A) R + Psi_1(A) with R
    the inverse of Phi(I)^{1/2} on its range, and the state rho(X) =
    <Omega, (Phi(I)^{1/2} (x) I) X (Phi(I)^{1/2} (x) I) Omega>, so that
    rho o (Psi (x) id) agrees with rho_0 o (Phi (x) id).  Psi_1 routes
    through the fixed state sigma(A) = A[0, 0] followed by compression to
    the complement of the range projection.  Eigenvalues of Phi(I) below
    1e-10 count as kernel.
    """
    n, m = phi.input_dim, phi.output_dim
    report = unitality_report(phi)
    if abs(report.normalized_trace_of_image - 1.0) > 1e-9:
        raise ValueError("tr(Phi(I)) must equal 1")
    if not (is_psd(choi(phi)).is_in or is_psd(jamiolkowski(phi)).is_in):
        raise ValueError("map is not certified positive: it is neither CP nor co-CP")

    img = report.image_of_identity.matrix
    w, u = np.linalg.eigh(img)
    if w[0] < -1e-10:
        raise ValueError("Phi(I) is not positive semidefinite")
    on_range = w > 1e-10
    proj = u[:, on_range] @ u[:, on_range].conj().T
    inv_sqrt = np.zeros(m)
    inv_sqrt[on_range] = 1.0 / np.sqrt(w[on_range])
    r = (u * inv_sqrt) @ u.conj().T
    sqrt_img = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    complement = np.eye(m) - proj

    # Psi(B_y) = R Phi(B_y) R + B_y[0, 0] (I - P) for the whole input basis at once
    basis = hermitian_basis(n)
    images = r @ apply_left(phi.unit_images(), basis, 1) @ r + basis[:, :1, :1] * complement
    psi = MatrixMap(n, m, _coefficients(images))

    half = np.kron(sqrt_img, np.eye(m))
    h = h_operator(m).matrix
    rho_density = bipartite(half.conj().T @ h @ half / m, m, m)
    return psi, BipartiteFunctional(rho_density)


def random_map(input_dim: int, output_dim: int, rng: np.random.Generator) -> MatrixMap:
    """Random Hermitian-preserving map: Gaussian coefficient array."""
    return MatrixMap(
        input_dim, output_dim, rng.normal(size=(output_dim ** 2, input_dim ** 2))
    )


def random_positive_map(
    input_dim: int,
    output_dim: int,
    rng: np.random.Generator,
    singular_image: bool = False,
) -> MatrixMap:
    """Random positive map: sum of three congruences A -> V A V*, on a coin
    flip precomposed with the transpose (positive but typically not CP),
    scaled so that the normalized trace of Phi(I) equals one.

    With ``singular_image`` the V factors share a common output corner, so
    Phi(I) has a nontrivial kernel.
    """
    rows = output_dim - 1 if (singular_image and output_dim > 1) else output_dim
    vs = [
        rng.normal(size=(rows, input_dim)) + 1j * rng.normal(size=(rows, input_dim))
        for _ in range(3)
    ]
    if rows != output_dim:
        vs = [np.vstack([v, np.zeros((1, input_dim))]) for v in vs]
    transpose_input = bool(rng.integers(2))

    def action(a: np.ndarray) -> np.ndarray:
        src = a.T if transpose_input else a
        return sum(v @ src @ v.conj().T for v in vs)

    phi = MatrixMap.from_function(input_dim, output_dim, action)
    tr = unitality_report(phi).normalized_trace_of_image
    return MatrixMap(input_dim, output_dim, phi.coeffs / tr)
