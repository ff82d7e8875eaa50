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
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection, QhullError, cKDTree

from .cones import Status, Verdict

LP_TOL = 1e-9
DD_TOL = 1e-10
MAX_RAY_AMBIENT_DIM = 4
MAX_RAY_VERTICES = 12
# LP copies per HiGHS call in _block_lps.  HiGHS's memory grows faster than
# the block count: on tensor-gap (seed 0) 16/24/32/48 blocks gave batch_s
# 0.81/0.72/0.69/0.65 s at peak RSS 89.1/90.5/92.5/94.3 MB, against 88.1 MB
# unbatched; 24 is the fastest that stays within +5% of that in every run.
LP_BLOCKS = 24


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


def functional_from_flat(flat: np.ndarray, k1: Polytope, k2: Polytope) -> TensorFunctional:
    shape = (k1.ambient_dim + 1, k2.ambient_dim + 1)
    return TensorFunctional(np.asarray(flat, dtype=float).reshape(shape))


# ---------------------------------------------------------------------------
# extreme rays


def double_description(a: np.ndarray) -> np.ndarray:
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
    if np.any(norms < DD_TOL):
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
    if cc < DD_TOL:
        raise empty
    basis = np.linalg.svd(c[None, :])[2][1:].T  # (d, d-1), orthonormal in c-perp
    g, h = a @ basis, a @ c / cc  # y = c/|c|^2 + basis z is in the cone iff g z + h >= 0
    gn = np.linalg.norm(g, axis=1)
    res = linprog(
        np.append(np.zeros(d - 1), -1.0),
        A_ub=np.hstack([-g, gn[:, None]]), b_ub=h,
        bounds=[(None, None)] * (d - 1) + [(0, None)], method="highs",
    )
    if not res.success or res.x[-1] <= DD_TOL:
        raise empty
    keep = gn > DD_TOL
    if d == 2:
        ends = -h[keep] / g[keep, 0]
        z = np.array([[ends[g[keep, 0] > 0].max()], [ends[g[keep, 0] < 0].min()]])
    else:
        halfspaces = np.hstack([-g[keep], -h[keep, None]])
        try:
            z = HalfspaceIntersection(halfspaces, res.x[:-1]).intersections
        except QhullError as exc:  # precision failure on an ill-conditioned section
            raise ValueError(str(exc).splitlines()[0]) from exc
    rays = c / cc + z @ basis.T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    return rays[np.lexsort(np.round(rays, 9).T[::-1])]


def positive_ray_generators(k: Polytope) -> np.ndarray:
    """Extreme rays of {(a, b) : a.v + b >= 0 for all vertices v}, one per
    row in coefficient coordinates (a, b) for x |-> a.x + b.

    Lower-dimensional polytopes are handled in an affine chart, where the
    cone of positive affine functions is pointed; the returned coefficient
    vectors are representatives pulled back to the ambient coordinates,
    normalized to max-abs coefficient 1 and lexicographically sorted.  The
    module constants bound the accepted input size.
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
    return full[np.lexsort(np.round(full, 9).T[::-1])]


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


def max_tensor_membership(phi: TensorFunctional, k1: Polytope, k2: Polytope) -> Verdict:
    """In iff r^T M s >= -LP_TOL for every pair of extreme rays (r, s)."""
    r1 = positive_ray_generators(k1)
    r2 = positive_ray_generators(k2)
    vals = r1 @ phi.matrix @ r2.T
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    cert = RayPairCertificate(r1[i], r2[j], float(vals[i, j]))
    status = Status.IN if vals[i, j] >= -LP_TOL else Status.OUT
    return Verdict(status, cert)


def _block_lps(c, a_ub, b_ub, a_eq, b_eq, what: str):
    """Solve the n LPs min c.x s.t. a_ub x <= b_ub[i], a_eq x = b_eq[i],
    x >= 0, which differ only in their right-hand sides.  Up to LP_BLOCKS
    of them go to HiGHS as one block-diagonal LP minimizing the sum of their
    objectives; the copies share no variable, so the sum is minimal exactly
    when each one is.  (Most of one small LP's time is scipy's wrapper, not
    HiGHS.)  Returns the solutions (n, len(c)) and a_ub duals (n, len(a_ub)).
    """
    xs, duals = [], []
    for rows in np.array_split(np.arange(len(b_eq)), -(-len(b_eq) // LP_BLOCKS)):
        eye = sparse.identity(len(rows), format="csr")
        res = linprog(np.tile(c, len(rows)), A_ub=sparse.kron(eye, a_ub), b_ub=b_ub[rows].ravel(),
                      A_eq=sparse.kron(eye, a_eq), b_eq=b_eq[rows].ravel(),
                      method="highs", options={"presolve": False})
        if not res.success:
            raise RuntimeError(f"{what} LP failed: {res.message}")
        xs.append(res.x.reshape(len(rows), -1))
        duals.append(res.ineqlin.marginals.reshape(len(rows), -1))
    return np.vstack(xs), np.vstack(duals)


def _min_distance_lp(flat_phi: np.ndarray, vertices: np.ndarray):
    """Inf-norm distance from each row of flat_phi (n, dim) to the convex
    hull of the vertices: min t s.t. |sum_p lam_p V_p - phi| <= t, lam in
    the simplex.  Returns the distances (n,), weights lam (n, p) and normals
    y = u_+ - u_- (n, dim), where u_+ and u_- (<= 0) are the duals of the
    rows V^T lam - t <= phi and -V^T lam - t <= -phi.  By LP duality
    ||y||_1 <= 1 and y.phi - max_p y.V_p >= t, so y separates phi from the
    hull when t > 0.
    """
    p, dim = vertices.shape
    c, ones = np.append(np.zeros(p), 1.0), np.ones((dim, 1))
    a_ub = np.block([[vertices.T, -ones], [-vertices.T, -ones]])
    a_eq = np.append(np.ones(p), 0.0)[None, :]
    x, u = _block_lps(c, a_ub, np.hstack([flat_phi, -flat_phi]), a_eq,
                      np.ones((len(flat_phi), 1)), "membership")
    return x[:, -1], x[:, :p], u[:, :dim] - u[:, dim:]


def _min_verdict(flat, mv, dist, weights, normal) -> Verdict:
    """Verdict on flat from its row of _min_distance_lp(., mv): In with the
    weights when dist <= LP_TOL, else Out with the normal as hyperplane."""
    if dist <= LP_TOL:
        return Verdict(Status.IN, ConvexWeightsCertificate(weights, float(dist)))
    offset = float(np.max(mv @ normal))
    margin = float(normal @ flat - offset)
    return Verdict(Status.OUT, SeparatingHyperplane(normal, offset, margin))


def min_tensor_membership(phi: TensorFunctional, k1: Polytope, k2: Polytope) -> Verdict:
    """LP test for membership in the convex hull of elementary tensors.

    In with the convex weights when the inf-norm distance is <= LP_TOL; Out
    with the separating hyperplane read off the same LP's duals otherwise.
    """
    mv = min_tensor(k1, k2).vertices
    (dist,), (weights,), (normal,) = _min_distance_lp(phi.flat[None, :], mv)
    return _min_verdict(phi.flat, mv, dist, weights, normal)


# ---------------------------------------------------------------------------
# maximal tensor polytope and the gap finder


def max_tensor_polytope(k1: Polytope, k2: Polytope) -> Polytope:
    """Vertex enumeration of the maximal tensor product.

    The maximal set lives in the affine hull of the minimal one (the two
    have equal dimension), so it is parameterized there and cut out by the
    ray-pair inequalities; the extreme rays of the homogenized cone are the
    vertices.  Vertices are returned as flattened functionals.
    """
    r1 = positive_ray_generators(k1)
    r2 = positive_ray_generators(k2)
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


def gap_among(mx: Polytope, k1: Polytope, k2: Polytope) -> BarkerGap | None:
    """Search the maximal tensor polytope mx of k1 and k2 for a point
    outside the minimal one.

    The LP distance to the minimal polytope is convex, so its maximum over
    mx is attained at a vertex: take the first vertex whose distance is
    within LP_TOL of the largest (so rounding noise among tied vertices
    cannot pick one) and return it with both certificates, the min-side one
    from its row of the batched distance LPs, or None when every vertex
    lies in the minimal polytope (which proves the two sets are equal).
    """
    mv = min_tensor(k1, k2).vertices
    dist, weights, normals = _min_distance_lp(mx.vertices, mv)
    if dist.max() <= LP_TOL:
        return None
    i = np.argmax(dist >= dist.max() - LP_TOL)
    phi = functional_from_flat(mx.vertices[i], k1, k2)
    return BarkerGap(phi, max_tensor_membership(phi, k1, k2),
                     _min_verdict(phi.flat, mv, dist[i], weights[i], normals[i]))


def barker_gap(k1: Polytope, k2: Polytope) -> BarkerGap | None:
    """gap_among on the maximal tensor polytope of k1 and k2, built here."""
    return gap_among(max_tensor_polytope(k1, k2), k1, k2)


# ---------------------------------------------------------------------------
# relative boundedness


def _aff_contained(outer: np.ndarray, inner: np.ndarray) -> bool:
    basis = _affine_chart(inner, inner[0])
    d = outer - inner[0]
    resid = d - (d @ basis) @ basis.T
    scale = max(1.0, float(np.max(np.abs(outer))))
    return bool(np.all(np.linalg.norm(resid, axis=1) <= 1e-9 * scale))


def relative_bound(inner: Polytope, outer: Polytope) -> float:
    """Smallest r >= 0 with outer contained in {(r+1)x - ry : x, y in inner}.

    One LP per outer vertex z, solved in blocks by _block_lps: z = (r+1)x - ry
    with x, y convex combinations of inner vertices becomes z = V^T(a - b),
    1^T(a - b) = 1, a, b >= 0, minimizing r = 1^T b; the bound is the
    maximum over the outer vertices.  Errors when the affine hulls differ.
    """
    if not _aff_contained(outer.vertices, inner.vertices):
        raise ValueError("affine hull of outer is not contained in that of inner")
    iv, p = inner.vertices, inner.n_vertices
    c, ones = np.append(np.zeros(p), np.ones(p)), np.ones((1, p))
    b_eq = np.hstack([outer.vertices, np.ones((outer.n_vertices, 1))])
    x = _block_lps(c, np.zeros((0, 2 * p)), np.zeros((len(b_eq), 0)),
                   np.block([[iv.T, -iv.T], [ones, -ones]]), b_eq, "relative-bound")[0]
    return max(0.0, float(np.max(x @ c)))
