"""Finite-dimensional multi-matrix algebras, their trace simplexes, and two
explicit constructions on discretized cone algebras: the bilinear
entangled witness (s, t) |-> s t S and the 2x2 Riesz-interpolation
counterexample.

The cone algebra {f in C([0,1], M_k) : f(0) scalar} is discretized on a
finite grid; the witness below is bilinear in (s, t), so its value at the
corners s t = 0 and s t = 1 covers the construction exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import LowerBoundCertificate, lower_bound
from .operators import (
    hilbert_schmidt,
    min_eigenvalue,
    partial_transpose,
    swap_operator,
)
from .polytopes import Polytope, affine_dimension, min_tensor, simplex


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """Direct sum of matrix algebras, recorded by block sizes."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) == 0:
            raise ValueError("need at least one block")
        if any(not float(b).is_integer() for b in self.blocks):
            raise ValueError("block sizes must be integers")
        if any(b < 1 for b in self.blocks):
            raise ValueError("block sizes must be >= 1")
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def trace_simplex(algebra: MultiMatrixAlgebra) -> Polytope:
    """Tracial states of a block-diagonal algebra: the simplex on the block traces."""
    return simplex(algebra.n_blocks - 1)


def algebra_tensor(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> MultiMatrixAlgebra:
    """Tensor product block structure: all products n_i * m_j, lexicographic."""
    return MultiMatrixAlgebra(tuple(x * y for x in a.blocks for y in b.blocks))


@dataclass(frozen=True)
class TraceTensorReport:
    blocks_a: tuple[int, ...]
    blocks_b: tuple[int, ...]
    blocks_product: tuple[int, ...]
    block_count_ok: bool
    tensor_vertex_count: int
    affinely_independent: bool
    tensor_dimension: int
    isomorphic: bool
    passes: bool


def verify_trace_tensor(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> TraceTensorReport:
    """Check that trace simplexes tensor multiplicatively.

    The tensor of the two trace simplexes must be affinely isomorphic to
    the trace simplex of the tensor algebra: same vertex count as blocks of
    the product, affinely independent vertices, dimension count - 1.
    """
    prod = algebra_tensor(a, b)
    expected = a.n_blocks * b.n_blocks
    count_ok = prod.n_blocks == expected

    tensored = min_tensor(trace_simplex(a), trace_simplex(b))
    n_vertices = tensored.n_vertices
    dim = affine_dimension(tensored)
    independent = n_vertices == expected and dim == expected - 1
    target = trace_simplex(prod)
    isomorphic = independent and target.n_vertices == n_vertices
    return TraceTensorReport(
        blocks_a=a.blocks,
        blocks_b=b.blocks,
        blocks_product=prod.blocks,
        block_count_ok=count_ok,
        tensor_vertex_count=n_vertices,
        affinely_independent=independent,
        tensor_dimension=dim,
        isomorphic=isomorphic,
        passes=count_ok and isomorphic,
    )


@dataclass(frozen=True)
class XSeparationReport:
    n: int
    most_negative_eigenvalue: float
    nonpositive_ok: bool
    separable_min: float
    separable_ok: bool
    passes: bool
    certificate: LowerBoundCertificate = field(compare=False)  # a function of n, held in arrays


def verify_X_separating(n: int) -> XSeparationReport:
    """Check both halves of the witness property of X(s, t) = s t S.

    X is bilinear in (s, t) and s t ranges over [0, 1], so its corners
    decide both halves:
    (a) nonpositivity: X(1, 1) = S has the eigenvalue -1 < 0;
    (b) nonnegativity on separable states: a pure state of the discretized
    algebra is a (grid point, pure matrix state) pair, so on the product of
    the states (s, a) and (t, b) X is at least s t v, with v the value of
    ``lower_bound(S, S^Gamma)``; the least of s t v over s t in [0, 1] is
    min(0, v), which must be >= -1e-9.
    """
    if n < 2:
        raise ValueError("need matrix size n >= 2")
    swap = swap_operator(n)
    certificate = lower_bound(swap, partial_transpose(swap, "right"))
    most_neg = min_eigenvalue(swap)
    separable_min = min(0.0, certificate.value)
    nonpositive_ok = most_neg < -1e-9
    separable_ok = separable_min >= -1e-9

    return XSeparationReport(
        n=n,
        most_negative_eigenvalue=float(most_neg),
        nonpositive_ok=nonpositive_ok,
        separable_min=float(separable_min),
        separable_ok=separable_ok,
        passes=nonpositive_ok and separable_ok,
        certificate=certificate,
    )


@dataclass(frozen=True)
class RieszReport:
    dominated_ok: bool
    eigs_e11_minus_f: tuple[float, float]
    eigs_e22_minus_f: tuple[float, float]
    not_below_zero_ok: bool
    eigs_f: tuple[float, float]
    e11_e22_pairing: float
    interpolation_ok: bool
    passes: bool


def riesz_counterexample_check() -> RieszReport:
    """Verify the 2x2 failure of Riesz interpolation, in closed form.

    With F = [[-2/3, 1], [1, -2/3]], the pairs F, 0 <= E11, E22 have no
    interpolant C with F, 0 <= C <= E11, E22:
    (a) E11 - F and E22 - F are positive semidefinite,
    (b) F has a positive eigenvalue (so F is not below 0),
    (c) only C = 0 lies in [0, E11] and [0, E22].  The trace pairing of two
        PSD matrices is nonnegative, so <E11 - C, E22> >= 0 gives
        <C, E22> <= <E11, E22> = 0, and likewise <C, E11> <= 0.  With
        E11 + E22 = I that is tr C <= 0, and C >= 0 forces C = 0.  The
        check computes <E11, E22> (exactly 0.0) and E11 + E22.
    """
    f = np.array([[-2.0 / 3.0, 1.0], [1.0, -2.0 / 3.0]])
    e11 = np.diag([1.0, 0.0])
    e22 = np.diag([0.0, 1.0])
    eig1 = tuple(float(v) for v in np.linalg.eigvalsh(e11 - f))
    eig2 = tuple(float(v) for v in np.linalg.eigvalsh(e22 - f))
    dominated_ok = eig1[0] >= -1e-12 and eig2[0] >= -1e-12
    eigf = tuple(float(v) for v in np.linalg.eigvalsh(f))
    not_below_zero_ok = eigf[-1] > 1e-12
    pairing = hilbert_schmidt(e11, e22)
    interpolation_ok = pairing == 0.0 and np.array_equal(e11 + e22, np.eye(2))

    return RieszReport(
        dominated_ok=dominated_ok,
        eigs_e11_minus_f=eig1,
        eigs_e22_minus_f=eig2,
        not_below_zero_ok=not_below_zero_ok,
        eigs_f=eigf,
        e11_e22_pairing=pairing,
        interpolation_ok=interpolation_ok,
        passes=dominated_ok and not_below_zero_ok and interpolation_ok,
    )
