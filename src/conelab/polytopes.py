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
Qhull's halfspace intersection on a cross-section of each cone, built in
the factors' unit charts (centroid 0, max-abs coordinate 1), so they do
not depend on the factors' affine coordinates and solve no LP.
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
# LP copies per HiGHS call in _block_lps, and the size of the first round of
# _screened.  HiGHS's memory grows faster than the block count: when every
# maximal vertex still got an LP, tensor-gap (seed 0) gave batch_s
# 0.81/0.72/0.69/0.65 s at peak RSS 89.1/90.5/92.5/94.3 MB for 16/24/32/48
# blocks, against 88.1 MB unbatched; 24 was the fastest within +5% of that.
LP_BLOCKS = 24
# Iterations of the bounds that screen the per-vertex LPs (_distance_bounds,
# _relative_bounds).  Fewer only loosen the bounds, which costs LPs, never
# correctness.
FISTA_STEPS = 100
FISTA_CHECK = 10
IRLS_STEPS = 4


@dataclass(frozen=True)
class Polytope:
    """Compact convex set given by its (distinct) vertex list."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or len(v) == 0:
            raise ValueError("vertex list must be a nonempty 2-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
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
    p = np.asarray(points.vertices if isinstance(points, Polytope) else points, dtype=float)
    if p.ndim != 2 or len(p) == 0:
        raise ValueError("need a nonempty point list")
    return _affine_chart(p, p[0]).shape[1]


def _affine_chart(points: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Orthonormal direction basis (d, q) of aff(points), from the SVD of
    points - anchor; singular values below 1e-9 * max count as zero."""
    _, s, vt = np.linalg.svd(points - anchor, full_matrices=False)
    q = int(np.sum(s > 1e-9 * s[0])) if len(s) and s[0] > 0 else 0
    return vt[:q].T


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
    """Extreme rays of the pointed cone {y : A y >= 0}, which must have
    e_last = (0, ..., 0, 1) in its interior: every row ends in a positive entry.

    With unit rows a_i and c = sum_i a_i, c.y > 0 on the cone minus 0, so
    the section {c.y = 1} is a polytope whose vertices are the rays.  They
    come from Qhull's halfspace intersection seeded at the section's point
    e_last / c_last, with no LP; a 1-d section (a segment) is solved in closed
    form and for d = 1 the ray is (1).  Rays are unit-normalized and lexsorted.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[1]
    norms = np.linalg.norm(a, axis=1)
    if np.any(a[:, -1] <= DD_TOL * norms):
        raise ValueError("e_last is not interior to the cone: a row's last entry is not positive")
    a = a / norms[:, None]
    if np.linalg.matrix_rank(a, tol=1e-9) < d:
        raise ValueError("cone is not pointed: inequality normals do not span")
    if d == 1:
        return a[:1]
    c = a.sum(axis=0)
    cc = c @ c
    basis = np.linalg.svd(c[None, :])[2][1:].T  # (d, d-1), orthonormal in c-perp
    g, h = a @ basis, a @ c / cc  # y = c/|c|^2 + basis z is in the cone iff g z + h >= 0
    keep = np.linalg.norm(g, axis=1) > DD_TOL
    if d == 2:
        ends = -h[keep] / g[keep, 0]
        z = np.array([[ends[g[keep, 0] > 0].max()], [ends[g[keep, 0] < 0].min()]])
    else:
        halfspaces = np.hstack([-g[keep], -h[keep, None]])
        try:  # e_last / c_last lies on the section at z = basis^T e_last / c_last
            z = HalfspaceIntersection(halfspaces, basis[-1] / c[-1]).intersections
        except QhullError as exc:  # precision failure on an ill-conditioned section
            raise ValueError(str(exc).splitlines()[0]) from exc
    rays = c / cc + z @ basis.T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    # at a degenerate vertex, Qhull's unmerged dual facets give copies of it or
    # points on edges: keep each set of tight rows once, and only at rank d - 1
    tight = np.abs(a @ rays.T) <= 1e-9
    _, first = np.unique(tight.T, axis=0, return_index=True)
    rank_ok = np.linalg.eigvalsh(np.einsum("ni,nr,nj->rij", a, tight * 1.0, a))[:, 1] > 1e-12
    rays = rays[np.intersect1d(first, np.flatnonzero(rank_ok))]
    return rays[np.lexsort(np.round(rays, 9).T[::-1])]


def _check_ray_input(k: Polytope) -> None:
    """Reject a factor beyond the sizes the module constants support."""
    for what, size, cap in [("ambient dimension", k.ambient_dim, MAX_RAY_AMBIENT_DIM),
                            ("vertex count", k.n_vertices, MAX_RAY_VERTICES)]:
        if size > cap:
            raise ValueError(f"{what} {size} exceeds the supported {cap}")


def _unit_chart(points: np.ndarray):
    """(center, q, scale) of the unit chart of aff(points), u = (x - center)
    @ q / scale with q from _affine_chart: centroid 0, max-abs coordinate 1."""
    center = points.mean(axis=0)
    q = _affine_chart(points, center)
    return center, q, np.max(np.abs((points - center) @ q), initial=0.0) or 1.0


def _chart_rays(k: Polytope):
    """Extreme rays (alpha, beta) of the positive affine functions
    u |-> alpha.u + beta on k in its unit chart, and the chart's homogeneous
    maps: into takes [x; 1] to [u; 1], back takes [u; 1] to [x; 1] on aff(k).
    The rows (u_i, 1) end in 1, so e_last is interior to the cone, and every
    ray, positive at the centroid u = 0, ends in a positive entry too.  Vertices
    that coincide in the chart (a factor too thin to resolve) raise ValueError.
    """
    _check_ray_input(k)
    center, q, scale = _unit_chart(k.vertices)
    u = (k.vertices - center) @ q / scale
    if len(u) > 1 and cKDTree(u).query_pairs(1e-9):
        raise ValueError("vertices coincide in the unit chart of the factor's affine hull")
    into = np.block([[q.T / scale, -(center @ q)[:, None] / scale], [np.zeros(len(center)), 1.0]])
    back = np.block([[q * scale, center[:, None]], [np.zeros(q.shape[1]), 1.0]])
    return double_description(np.hstack([u, np.ones((len(u), 1))])), into, back


def positive_ray_generators(k: Polytope) -> np.ndarray:
    """Extreme rays of {(a, b) : a.v + b >= 0 for all vertices v}, one per
    row in coefficient coordinates (a, b) for x |-> a.x + b.

    The rays are enumerated in the unit chart of aff(k) (_chart_rays),
    where the cone of positive affine functions is pointed, and pulled back
    to the ambient coordinates as representatives, normalized to max-abs
    coefficient 1 and lexicographically sorted.  The module constants bound
    the accepted input size.
    """
    rays, into, _ = _chart_rays(k)
    full = rays @ into
    full /= np.max(np.abs(full), axis=1, keepdims=True)
    return full[np.lexsort(np.round(full, 9).T[::-1])]


# ---------------------------------------------------------------------------
# membership


@dataclass(frozen=True, eq=False)
class RayPairCertificate:
    """Value of the functional on one pair of extreme rays."""

    ray_left: np.ndarray
    ray_right: np.ndarray
    value: float


@dataclass(frozen=True, eq=False)
class ConvexWeightsCertificate:
    """Convex combination of minimal-tensor vertices reproducing the input."""

    weights: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class SeparatingHyperplane:
    """Affine functional h with h(input) > offset >= h(v) on all min vertices."""

    normal: np.ndarray
    offset: float
    margin: float


def max_tensor_membership(phi: TensorFunctional, k1: Polytope, k2: Polytope) -> Verdict:
    """In iff r^T M s >= -LP_TOL for every pair of extreme rays (r, s).

    The certificate is the first pair, in row-major order, whose value is
    within LP_TOL of the minimum and on the same side of -LP_TOL as it, so
    rounding in the rays does not move it among tied pairs.
    """
    r1 = positive_ray_generators(k1)
    r2 = positive_ray_generators(k2)
    vals = r1 @ phi.matrix @ r2.T
    low = vals.min()
    inside = low >= -LP_TOL
    tied = (vals <= low + LP_TOL) & ((vals >= -LP_TOL) == inside)
    i, j = np.unravel_index(np.argmax(tied), vals.shape)
    cert = RayPairCertificate(r1[i], r2[j], float(vals[i, j]))
    return Verdict(Status.IN if inside else Status.OUT, cert)


def _block_lps(c, a_ub, b_ub, a_eq, b_eq, what: str):
    """Solve the n LPs min c.x s.t. a_ub x <= b_ub[i], a_eq x = b_eq[i],
    x >= 0, which differ only in their right-hand sides.  Up to LP_BLOCKS
    of them go to HiGHS as one block-diagonal LP minimizing the sum of their
    objectives; the copies share no variable, so the sum is minimal exactly
    when each one is.  (Most of one small LP's time is scipy's wrapper, not
    HiGHS.)  Returns the solutions (n, len(c)) and a_ub duals (n, len(a_ub)).
    A HiGHS failure raises ValueError: the input is beyond what the LPs solve.
    """
    xs, duals = [], []
    for rows in np.array_split(np.arange(len(b_eq)), -(-len(b_eq) // LP_BLOCKS)):
        eye = sparse.identity(len(rows), format="csr")
        res = linprog(np.tile(c, len(rows)), A_ub=sparse.kron(eye, a_ub), b_ub=b_ub[rows].ravel(),
                      A_eq=sparse.kron(eye, a_eq), b_eq=b_eq[rows].ravel(),
                      method="highs", options={"presolve": False})
        if not res.success:
            raise ValueError(f"{what} LP failed: {res.message}")
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
# certified upper bounds that screen the per-vertex LPs


def _screened(bounds: np.ndarray, solve):
    """Solve only the rows whose exact value can reach the maximum.

    solve(rows) returns a tuple of arrays, one row per entry of rows, whose
    first array holds the exact values, each at most bounds[row].  The
    LP_BLOCKS rows with the largest bounds are solved first; then every
    other row whose bound is >= (best value so far - LP_TOL).  A skipped row
    has value <= bound < best - LP_TOL, so it is neither the maximum nor
    within LP_TOL of it.  Returns the solved rows in increasing order and
    solve's arrays in that order.
    """
    order = np.argsort(-bounds, kind="stable")
    first, rest = np.sort(order[:LP_BLOCKS]), np.sort(order[LP_BLOCKS:])
    out = solve(first)
    rest = rest[bounds[rest] >= out[0].max() - LP_TOL]
    rows = np.concatenate([first, rest])
    if len(rest):
        out = tuple(np.concatenate(pair) for pair in zip(out, solve(rest)))
    keep = np.argsort(rows)
    return rows[keep], tuple(a[keep] for a in out)


def _simplex_projection(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of y onto the probability simplex
    (sort and threshold; Held, Wolfe and Crowder 1974)."""
    u = np.sort(y, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    rho = np.count_nonzero(u * np.arange(1, y.shape[1] + 1) > css, axis=1)
    theta = css[np.arange(len(y)), rho - 1] / rho
    return np.maximum(y - theta[:, None], 0.0)


def _distance_bounds(z: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Upper bounds (n,) on the inf-norm distance from each row of z to the
    convex hull of the vertices, the value of _min_distance_lp.

    Each bound is the inf-norm distance to a point of the hull: the nearest
    vertex, or an iterate of FISTA (Beck and Teboulle 2009) on the Euclidean
    distance over the simplex weights, whichever is nearer.  Every
    FISTA_CHECK steps, a row leaves the iteration once its bound is <= LP_TOL
    or below (the largest dual lower bound - LP_TOL), where _screened skips
    it whatever its bound; the dual bound of an iterate x is y.z - max_p y.V_p
    with y = (z - x) / |z - x|_1.  The iteration stops once at most LP_BLOCKS
    rows are left, since those are the first ones _screened solves.
    """
    center = vertices.mean(axis=0)  # the weights sum to 1, so centring is exact
    v, z = vertices - center, z - center
    bound, nearest = cKDTree(v).query(z, p=np.inf)
    active = np.flatnonzero(bound > LP_TOL)
    lam = np.zeros((len(active), len(v)))
    lam[np.arange(len(active)), nearest[active]] = 1.0
    za, y, prev, t, lower = z[active], lam, lam, 1.0, 0.0
    step = 1.0 / max(np.linalg.norm(v, 2) ** 2, np.finfo(float).tiny)
    for k in range(1, FISTA_STEPS + 1):
        if len(active) <= LP_BLOCKS:
            break
        lam = _simplex_projection(y - ((y @ v - za) @ v.T) * step)
        res = za - lam @ v
        bound[active] = np.minimum(bound[active], np.abs(res).max(axis=1))
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y, prev, t = lam + ((t - 1.0) / t_next) * (lam - prev), lam, t_next
        if k % FISTA_CHECK == 0:
            normal = res / np.maximum(np.abs(res).sum(axis=1, keepdims=True), np.finfo(float).tiny)
            lower = max(lower, float(np.max(np.sum(normal * za, axis=1) - np.max(normal @ v.T, axis=1))))
            keep = (bound[active] > LP_TOL) & (bound[active] >= lower - LP_TOL)
            active, za, y, prev = active[keep], za[keep], y[keep], prev[keep]
    return bound


def _relative_bounds(z: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Upper bounds (n,) on r(z), the relative_bound LP's value at each row of z.

    r(z) = min sum(w-) over weights w with sum w = 1 and w.V = z, and
    sum(w-) = (|w|_1 - 1) / 2 for such w; every iterate of IRLS (iteratively
    reweighted least squares) for min |w|_1 is such a w, so its negative
    mass bounds r(z).  r is affine invariant, so the iteration runs in the unit chart of
    aff(inner): centroid 0, max-abs coordinate 1.  Each iterate is put back
    on its constraints by least squares; a row whose residual stays above
    1e-9 (in that chart) keeps the bound inf, hence gets an LP.
    """
    center, q, scale = _unit_chart(inner)
    a = np.vstack([((inner - center) @ q).T / scale, np.ones(len(inner))])  # (m, p)
    rhs = np.hstack([(z - center) @ q / scale, np.ones((len(z), 1))])
    m = len(a)
    outer = np.einsum("ip,jp->pij", a, a).reshape(len(inner), m * m)  # a_p a_p^T per vertex
    pinv = np.linalg.pinv(a)
    tol = 1e-9 * np.maximum(1.0, np.abs(rhs).max(axis=1))
    bound = np.full(len(z), np.inf)
    w = rhs @ pinv.T  # least-norm start
    for k in range(IRLS_STEPS + 1):
        if k:  # w = D A^T (A D A^T)^-1 rhs, D = diag(|w| + 10^(1-k)), then back onto A w = rhs
            d = np.abs(w) + 10.0 ** (1 - k)
            w = d * (np.linalg.solve((d @ outer).reshape(-1, m, m), rhs[:, :, None])[:, :, 0] @ a)
            w += (rhs - w @ a.T) @ pinv.T
        trusted = np.abs(w @ a.T - rhs).max(axis=1) <= tol
        bound[trusted] = np.minimum(bound[trusted], np.maximum(-w[trusted], 0.0).sum(axis=1))
    return bound


# ---------------------------------------------------------------------------
# maximal tensor polytope and the gap finder


def max_tensor_polytope(k1: Polytope, k2: Polytope) -> Polytope:
    """Vertex enumeration of the maximal tensor product.

    In the factors' unit charts (_chart_rays), a functional is a matrix Phi
    with Phi[-1, -1] = 1 and the maximal set is cut out by r^T Phi s >= 0 over
    the chart rays.  Its cone has e_last interior, as r(0) s(0) > 0; its extreme
    rays, scaled to Phi[-1, -1] = 1, are the vertices, mapped back through the
    charts.  When either factor is a simplex the two products are equal, so the
    minimal vertices are returned with no enumeration and no LP.  Vertices are
    returned as flattened functionals in lexicographic order.
    """
    _check_ray_input(k1)
    _check_ray_input(k2)
    if any(k.n_vertices == affine_dimension(k) + 1 for k in (k1, k2)):
        mv = min_tensor(k1, k2).vertices
        return Polytope(mv[np.lexsort(np.round(mv, 9).T[::-1])])
    (r1, _, back1), (r2, _, back2) = _chart_rays(k1), _chart_rays(k2)
    rays = double_description(np.einsum("ia,jb->ijab", r1, r2).reshape(len(r1) * len(r2), -1))
    if np.any(rays[:, -1] <= 1e-9):
        raise RuntimeError("maximal tensor polytope appears unbounded")
    verts = (rays / rays[:, -1:]) @ np.kron(back1, back2).T  # back1 Phi back2^T, row-major
    return Polytope(verts[np.lexsort(np.round(verts, 9).T[::-1])])


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
    Every vertex first gets an upper bound on its distance
    (_distance_bounds); the distance LP runs only on the vertices whose
    bound can reach the largest distance (_screened), and on none when every
    bound is <= LP_TOL.
    """
    mv = min_tensor(k1, k2).vertices
    bounds = _distance_bounds(mx.vertices, mv)
    if bounds.max() <= LP_TOL:
        return None
    rows, (dist, weights, normals) = _screened(
        bounds, lambda r: _min_distance_lp(mx.vertices[r], mv))
    if dist.max() <= LP_TOL:
        return None
    i = np.argmax(dist >= dist.max() - LP_TOL)
    phi = functional_from_flat(mx.vertices[rows[i]], k1, k2)
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

    The bound is the maximum over the outer vertices z of an LP: z =
    (r+1)x - ry with x, y convex combinations of inner vertices becomes z =
    V^T(a - b), 1^T(a - b) = 1, a, b >= 0, minimizing r = 1^T b.  Every outer
    vertex first gets an upper bound on its r (_relative_bounds); the LP,
    solved in blocks by _block_lps, runs only on the vertices whose bound
    can reach the maximum (_screened).  Errors when the affine hulls differ.
    """
    if not _aff_contained(outer.vertices, inner.vertices):
        raise ValueError("affine hull of outer is not contained in that of inner")
    iv, p = inner.vertices, inner.n_vertices
    c, ones = np.append(np.zeros(p), np.ones(p)), np.ones((1, p))
    b_eq = np.hstack([outer.vertices, np.ones((outer.n_vertices, 1))])

    def solve(rows):
        x = _block_lps(c, np.zeros((0, 2 * p)), np.zeros((len(rows), 0)),
                       np.block([[iv.T, -iv.T], [ones, -ones]]), b_eq[rows], "relative-bound")[0]
        return (x @ c,)

    _, (r,) = _screened(_relative_bounds(outer.vertices, iv), solve)
    return max(0.0, float(np.max(r)))
