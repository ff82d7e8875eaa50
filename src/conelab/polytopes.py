"""Vertex-listed compact convex sets, their minimal / maximal tensor
products in explicit coordinates, and the gap finder between the two.

Coordinates: an affine function on K in R^d is a coefficient vector
(a_1, ..., a_d, b) for x |-> a.x + b; the constant function's slot is the
last index.  A functional on pairs of affine functions is a
(d1+1) x (d2+1) matrix M with phi(f (x) g) = f^T M g.  Functionals are
flattened row-major when stored as polytope vertices.

The minimal tensor product is the convex hull of the rank-one matrices
[v;1][w;1]^T over vertex pairs; the maximal one is cut out by
nonnegativity against all pairs of extreme rays of the factors' positive
affine-function cones.  Extreme rays and vertex enumerations come from
Qhull's halfspace intersection on a cross-section of each cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection, cKDTree

from .cones import Status, Verdict

LP_TOL = 1e-9
DD_TOL = 1e-10
MAX_RAY_AMBIENT_DIM = 4
MAX_RAY_VERTICES = 12


@dataclass(frozen=True)
class Polytope:
    """Compact convex set given by its (distinct) vertex list."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or len(v) == 0:
            raise ValueError("vertex list must be a nonempty 2-d array")
        if len(v) > 1:
            # all points of R^0 coincide; cKDTree needs at least one coordinate
            pairs = cKDTree(v).query_pairs(1e-10) if v.shape[1] else {(0, 1)}
            if pairs:
                i, j = min(pairs)
                raise ValueError(f"duplicate vertices at indices {i}, {j}")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class RayCone:
    """Extreme rays of the cone of positive affine functions on a polytope,
    in coefficient coordinates (a, b) for x |-> a.x + b."""

    rays: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.rays.shape[1]


@dataclass(frozen=True)
class TensorFunctional:
    """Functional on A(K1) (x) A(K2), normalized to 1 on u1 (x) u2."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("functional must be a 2-d coefficient matrix")
        if abs(m[-1, -1] - 1.0) > 1e-12:
            raise ValueError(f"normalization entry is {m[-1, -1]!r}, expected 1")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def flat(self) -> np.ndarray:
        return self.matrix.ravel()

    def slice_left(self) -> np.ndarray:
        """Point of K1 recovered by pairing with the constant function on K2."""
        col = self.matrix[:, -1]
        return col[:-1] / col[-1]

    def slice_right(self) -> np.ndarray:
        row = self.matrix[-1, :]
        return row[:-1] / row[-1]


# ---------------------------------------------------------------------------
# elementary constructions


def simplex(n: int) -> Polytope:
    """Standard n-simplex: n+1 unit-coordinate vertices in R^{n+1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Polytope(np.eye(n + 1))


def square() -> Polytope:
    """The unit square in R^2, the canonical non-simplex."""
    return Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def affine_dimension(points) -> int:
    """Rank of the difference set; singular values below 1e-9 * max count as zero."""
    if isinstance(points, Polytope):
        points = points.vertices
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or len(p) == 0:
        raise ValueError("need a nonempty point list")
    return _affine_chart(p, p[0]).shape[1]


def _affine_chart(points: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Orthonormal direction basis (d, q) of aff(points), from the SVD of
    points - anchor; singular values below 1e-9 * max count as zero."""
    _, s, vt = np.linalg.svd(points - anchor, full_matrices=False)
    q = int(np.sum(s > 1e-9 * s[0])) if len(s) and s[0] > 0 else 0
    return vt[:q].T


def product_functional(v: np.ndarray, w: np.ndarray) -> TensorFunctional:
    """Rank-one functional [v;1][w;1]^T: the elementary tensor of two points."""
    return TensorFunctional(np.outer(np.append(v, 1.0), np.append(w, 1.0)))


def min_tensor(k1: Polytope, k2: Polytope) -> Polytope:
    """Minimal tensor product: vertices are elementary tensors of vertex pairs,
    flattened row-major.  They are distinct: the last column of [v;1][w;1]^T
    is [v;1], so products of distinct pairs differ by at least the distance
    between their vertices."""
    left = np.hstack([k1.vertices, np.ones((k1.n_vertices, 1))])
    right = np.hstack([k2.vertices, np.ones((k2.n_vertices, 1))])
    return Polytope(np.einsum("ia,jb->ijab", left, right).reshape(len(left) * len(right), -1))


def functional_shape(k1: Polytope, k2: Polytope) -> tuple[int, int]:
    return (k1.ambient_dim + 1, k2.ambient_dim + 1)


def functional_from_flat(flat: np.ndarray, k1: Polytope, k2: Polytope) -> TensorFunctional:
    return TensorFunctional(np.asarray(flat, dtype=float).reshape(functional_shape(k1, k2)))


# ---------------------------------------------------------------------------
# extreme rays


def double_description(a: np.ndarray, tol: float = DD_TOL) -> np.ndarray:
    """Extreme rays of the pointed, full-dimensional cone {y : A y >= 0}.

    With unit rows a_i and c = sum_i a_i, c.y > 0 on the cone minus 0, so
    the section {c.y = 1} is a polytope whose vertices are the rays.  Its
    vertices come from Qhull's halfspace intersection, seeded with the
    Chebyshev centre of the section; a 1-d section (a segment) is solved
    in closed form and d = 1 is a sign.  Rays are unit-normalized and
    returned in lexicographic order.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[1]
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms < tol):
        raise ValueError("zero inequality row")
    a = a / norms[:, None]
    if np.linalg.matrix_rank(a, tol=1e-9) < d:
        raise ValueError("cone is not pointed: inequality normals do not span")
    empty = ValueError("cone has empty interior")
    if d == 1:
        if np.all(a > 0) or np.all(a < 0):
            return a[:1]
        raise empty
    c = a.sum(axis=0)
    cc = c @ c
    if cc < tol:
        raise empty
    basis = np.linalg.svd(c[None, :])[2][1:].T  # (d, d-1), orthonormal in c-perp
    g, h = a @ basis, a @ c / cc  # y = c/|c|^2 + basis z is in the cone iff g z + h >= 0
    gn = np.linalg.norm(g, axis=1)
    res = linprog(
        np.append(np.zeros(d - 1), -1.0),
        A_ub=np.hstack([-g, gn[:, None]]), b_ub=h,
        bounds=[(None, None)] * (d - 1) + [(0, None)], method="highs",
    )
    if not res.success or res.x[-1] <= tol:
        raise empty
    keep = gn > tol
    if d == 2:
        ends = -h[keep] / g[keep, 0]
        z = np.array([[ends[g[keep, 0] > 0].max()], [ends[g[keep, 0] < 0].min()]])
    else:
        halfspaces = np.hstack([-g[keep], -h[keep, None]])
        z = HalfspaceIntersection(halfspaces, res.x[:-1]).intersections
    rays = c / cc + z @ basis.T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    return rays[np.lexsort(np.round(rays, 9).T[::-1])]


def positive_ray_generators(k: Polytope) -> RayCone:
    """Extreme rays of {(a, b) : a.v + b >= 0 for all vertices v}.

    Lower-dimensional polytopes are handled in an affine chart, where the
    cone of positive affine functions is pointed; the returned coefficient
    vectors are representatives pulled back to the ambient coordinates,
    normalized to max-abs coefficient 1.  The module constants bound the
    accepted input size.
    """
    if k.ambient_dim > MAX_RAY_AMBIENT_DIM:
        raise ValueError(
            f"ambient dimension {k.ambient_dim} exceeds the supported {MAX_RAY_AMBIENT_DIM}"
        )
    if k.n_vertices > MAX_RAY_VERTICES:
        raise ValueError(
            f"vertex count {k.n_vertices} exceeds the supported {MAX_RAY_VERTICES}"
        )
    v0 = k.vertices[0]
    basis = _affine_chart(k.vertices, v0)
    reduced = (k.vertices - v0) @ basis  # (k, q)
    y = double_description(np.hstack([reduced, np.ones((k.n_vertices, 1))]))
    a = y[:, :-1] @ basis.T
    full = np.hstack([a, (y[:, -1] - a @ v0)[:, None]])
    full /= np.max(np.abs(full), axis=1, keepdims=True)
    return RayCone(full[np.lexsort(np.round(full, 9).T[::-1])])


# ---------------------------------------------------------------------------
# membership


@dataclass(frozen=True)
class RayPairCertificate:
    """Value of the functional on one pair of extreme rays."""

    ray_left: np.ndarray
    ray_right: np.ndarray
    value: float


@dataclass(frozen=True)
class ConvexWeightsCertificate:
    """Convex combination of minimal-tensor vertices reproducing the input."""

    weights: np.ndarray
    residual: float


@dataclass(frozen=True)
class SeparatingHyperplane:
    """Affine functional h with h(input) > offset >= h(v) on all min vertices."""

    normal: np.ndarray
    offset: float
    margin: float


def max_tensor_membership(
    phi: TensorFunctional, k1: Polytope, k2: Polytope, tol: float = LP_TOL
) -> Verdict:
    """In iff r^T M s >= -tol for every pair of extreme rays (r, s)."""
    r1 = positive_ray_generators(k1).rays
    r2 = positive_ray_generators(k2).rays
    vals = r1 @ phi.matrix @ r2.T
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    cert = RayPairCertificate(r1[i], r2[j], float(vals[i, j]))
    status = Status.IN if vals[i, j] >= -tol else Status.OUT
    return Verdict(status, cert)


def _min_distance_lp(flat_phi: np.ndarray, vertices: np.ndarray):
    """Inf-norm distance from a functional to the convex hull of the given
    vertices: min t s.t. |sum_p lam_p V_p - phi| <= t, lam in the simplex."""
    p, dim = vertices.shape
    c = np.zeros(p + 1)
    c[-1] = 1.0
    a_ub = np.vstack(
        [
            np.hstack([vertices.T, -np.ones((dim, 1))]),
            np.hstack([-vertices.T, -np.ones((dim, 1))]),
        ]
    )
    b_ub = np.concatenate([flat_phi, -flat_phi])
    a_eq = np.ones((1, p + 1))
    a_eq[0, -1] = 0.0
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * (p + 1), method="highs",
    )
    if not res.success:
        raise RuntimeError(f"membership LP failed: {res.message}")
    return float(res.fun), np.asarray(res.x[:p])


def _separating_hyperplane(flat_phi: np.ndarray, vertices: np.ndarray) -> SeparatingHyperplane:
    """Maximize y.phi - mu over ||y||_1 <= 1, y.V_p <= mu: the LP dual of
    the distance problem, solved directly so the certificate needs no
    marginal bookkeeping."""
    p, dim = vertices.shape
    # variables: y+ (dim), y- (dim), mu (free)
    c = np.concatenate([-flat_phi, flat_phi, [1.0]])  # minimize -(y.phi - mu)
    a_ub = np.vstack(
        [
            np.hstack([vertices, -vertices, -np.ones((p, 1))]),
            np.concatenate([np.ones(2 * dim), [0.0]])[None, :],
        ]
    )
    b_ub = np.concatenate([np.zeros(p), [1.0]])
    bounds = [(0, None)] * (2 * dim) + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"separating-hyperplane LP failed: {res.message}")
    y = res.x[:dim] - res.x[dim : 2 * dim]
    offset = float(np.max(vertices @ y))
    margin = float(y @ flat_phi - offset)
    return SeparatingHyperplane(y, offset, margin)


def min_tensor_membership(
    phi: TensorFunctional, k1: Polytope, k2: Polytope, tol: float = LP_TOL
) -> Verdict:
    """LP test for membership in the convex hull of elementary tensors.

    In with the convex weights when the inf-norm distance is <= tol; Out
    with a separating hyperplane (from LP duality) otherwise.
    """
    mv = min_tensor(k1, k2).vertices
    dist, weights = _min_distance_lp(phi.flat, mv)
    if dist <= tol:
        return Verdict(Status.IN, ConvexWeightsCertificate(weights, dist))
    return Verdict(Status.OUT, _separating_hyperplane(phi.flat, mv))


# ---------------------------------------------------------------------------
# maximal tensor polytope and the gap finder


def max_tensor_polytope(k1: Polytope, k2: Polytope) -> Polytope:
    """Vertex enumeration of the maximal tensor product.

    The maximal set lives in the affine hull of the minimal one (the two
    have equal dimension), so it is parameterized there and cut out by the
    ray-pair inequalities; the extreme rays of the homogenized cone are the
    vertices.  Vertices are returned as flattened functionals.
    """
    r1 = positive_ray_generators(k1).rays
    r2 = positive_ray_generators(k2).rays
    mv = min_tensor(k1, k2).vertices
    m0 = mv.mean(axis=0)
    q = _affine_chart(mv, m0)  # (D, rank), orthonormal columns
    prods = np.einsum("ia,jb->ijab", r1, r2).reshape(len(r1) * len(r2), -1)
    hom = np.vstack([
        np.hstack([prods @ q, (prods @ m0)[:, None]]),
        np.append(np.zeros(q.shape[1]), 1.0),
    ])
    rays = double_description(hom)
    t = rays[:, -1]
    if np.any(t <= 1e-9):
        raise RuntimeError("maximal tensor polytope appears unbounded")
    verts = m0 + (rays[:, :-1] / t[:, None]) @ q.T
    order = np.lexsort(np.round(verts, 9).T[::-1])
    return Polytope(verts[order])


@dataclass(frozen=True)
class BarkerGap:
    """A functional inside the maximal but outside the minimal tensor product."""

    functional: TensorFunctional
    max_verdict: Verdict
    min_verdict: Verdict

    @property
    def margin(self) -> float:
        return self.min_verdict.certificate.margin


def barker_gap(k1: Polytope, k2: Polytope, tol: float = LP_TOL) -> BarkerGap | None:
    """Search for a point separating the two tensor products.

    The LP distance to the minimal polytope is convex, so its maximum over
    the maximal polytope is attained at a vertex: enumerate the maximal
    polytope's vertices, take the one of maximal distance, and return it
    with both certificates, or None when every vertex lies in the minimal
    polytope (which proves the two sets are equal).
    """
    mv = min_tensor(k1, k2).vertices
    best_flat, best_dist = None, tol
    for flat in max_tensor_polytope(k1, k2).vertices:
        dist, _ = _min_distance_lp(flat, mv)
        if dist > best_dist:
            best_flat, best_dist = flat, dist
    if best_flat is None:
        return None
    phi = functional_from_flat(best_flat, k1, k2)
    max_v = max_tensor_membership(phi, k1, k2, tol)
    min_v = min_tensor_membership(phi, k1, k2, tol)
    return BarkerGap(phi, max_v, min_v)


# ---------------------------------------------------------------------------
# relative boundedness


def _aff_contained(outer: np.ndarray, inner: np.ndarray, tol: float = 1e-9) -> bool:
    basis = _affine_chart(inner, inner[0])
    d = outer - inner[0]
    resid = d - (d @ basis) @ basis.T
    scale = max(1.0, float(np.max(np.abs(outer))))
    return bool(np.all(np.linalg.norm(resid, axis=1) <= tol * scale))


def relative_bound(inner: Polytope, outer: Polytope) -> float:
    """Smallest r >= 0 with outer contained in {(r+1)x - ry : x, y in inner}.

    Computed per outer vertex by LP: z = (r+1)x - ry with x, y convex
    combinations of inner vertices becomes z = V^T(a - b), 1^T(a - b) = 1,
    a, b >= 0, minimizing r = 1^T b; the bound is the maximum over
    vertices.  Errors when the affine hulls differ.
    """
    if not _aff_contained(outer.vertices, inner.vertices):
        raise ValueError("affine hull of outer is not contained in that of inner")
    iv = inner.vertices
    p = len(iv)
    c = np.concatenate([np.zeros(p), np.ones(p)])
    a_eq = np.vstack(
        [
            np.hstack([iv.T, -iv.T]),
            np.concatenate([np.ones(p), -np.ones(p)])[None, :],
        ]
    )
    best = 0.0
    for z in outer.vertices:
        b_eq = np.concatenate([z, [1.0]])
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (2 * p), method="highs")
        if not res.success:
            raise RuntimeError(f"relative-bound LP failed: {res.message}")
        best = max(best, float(res.fun))
    return best
