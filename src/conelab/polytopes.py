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
affine-function cones.  Extreme rays and vertex enumerations come from a
double description of each cone (double_description), built in the
factors' unit charts (centroid 0, max-abs coordinate 1), so they do not
depend on the factors' affine coordinates and solve no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .cones import Status, Verdict
from .operators import _frozen_array

LP_TOL = 1e-9
# double_description on unit rows and rays: a row's last entry must exceed
# DD_TOL, and a ray within DD_TOL of a row is tight on it.  _adjacent counts
# shared rows, and tests containment, in blocks of at most DD_BLOCK pairs:
# tensor-gap (seed 0) peaked at 89.7/90.5/91.4 MB RSS with blocks of
# 2^16/2^17/2^18, at about the same batch_s.
DD_TOL = 1e-10
DD_BLOCK = 1 << 16
MAX_RAY_AMBIENT_DIM = 4
MAX_RAY_VERTICES = 12
# LP copies per HiGHS call in _block_lps: the tied gap rows that
# _exact_distances leaves open (8 on square^2, 60 on cube^2), the extremality
# LPs of non_vertices and min_tensor_membership's one LP.
LP_BLOCKS = 36
# Pivots per row in _simplex.  Every gap row it does not prune closes its
# bracket within 17 pivots on the tensor-gap and seeded k-gon^2 pairs, and
# within 39 on cube^2 and hexagon x cube; every relative-bound row within 19
# on the mixed polygon pairs and 26 on the 3-D pairs.  A gap row left open at
# the cap only goes to HiGHS; a relative-bound row left open is refused.
SIMPLEX_PIVOTS = 100
# Rows per block of _simplex, which bounds the B^-1 stack of _exact_distances
# at SIMPLEX_ROWS * (2 dim + 1)^2 floats.  tensor-gap (seed 0, medians of 5 runs
# on 2 shared vCPUs, one BLAS thread) peaked at 84.3/84.5/85.9/87.8 MB RSS
# with blocks of 64/128/256/all rows, and its batch_s read 64/55/55/55 ms:
# 128 is the smallest block that costs no time.
SIMPLEX_ROWS = 128


@dataclass(frozen=True)
class Polytope:
    """Compact convex set given by its (distinct) vertex list.  Its unit
    chart and chart rays are computed on first use, kept read-only, and
    shared by every call on it."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        # The first polytope imports all of scipy that this module calls
        # (about 0.4 s), so no later LP or gap pays for it.
        import scipy.optimize, scipy.sparse  # noqa: E401, F401
        from scipy.spatial import cKDTree

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
        object.__setattr__(self, "vertices", _frozen_array(v))

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def unit_chart(self):
        """(center, q, scale, s) of the unit chart u = (x - center) @ q / scale
        of aff(vertices), centroid 0 and max-abs coordinate 1, with q and the
        singular values s from _affine_chart."""
        center = self.vertices.mean(axis=0)
        q, s = _affine_chart(self.vertices, center)
        scale = np.max(np.abs((self.vertices - center) @ q), initial=0.0) or 1.0
        for a in (center, q, s):
            a.setflags(write=False)
        return center, q, scale, s

    @cached_property
    def chart_rays(self):
        """Extreme rays (alpha, beta) of the positive affine functions u |->
        alpha.u + beta in the unit chart, and the chart's homogeneous maps: into
        takes [x; 1] to [u; 1], back takes [u; 1] to [x; 1] on the affine hull.
        The rows (u_i, 1) end in 1, so e_last is interior to the cone, and every
        ray, positive at the centroid u = 0, ends in a positive entry too.  A
        polytope too large (_check_ray_input) or too thin to resolve (vertices
        coincide in the chart) raises ValueError, and nothing is cached."""
        from scipy.spatial import cKDTree

        _check_ray_input(self)
        center, q, scale, _ = self.unit_chart
        u = (self.vertices - center) @ q / scale
        if len(u) > 1 and cKDTree(u).query_pairs(1e-9):
            raise ValueError("vertices coincide in the unit chart of the factor's affine hull")
        into = np.block([[q.T / scale, -(center @ q)[:, None] / scale], [np.zeros(len(center)), 1.0]])
        back = np.block([[q * scale, center[:, None]], [np.zeros(q.shape[1]), 1.0]])
        rays = double_description(np.hstack([u, np.ones((len(u), 1))]))
        return _frozen_array(rays), _frozen_array(into), _frozen_array(back)


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
        object.__setattr__(self, "matrix", _frozen_array(m))

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
    if isinstance(points, Polytope):
        return points.unit_chart[1].shape[1]
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or len(p) == 0:
        raise ValueError("need a nonempty point list")
    return _affine_chart(p, p.mean(axis=0))[0].shape[1]


def _affine_chart(points: np.ndarray, anchor: np.ndarray):
    """Orthonormal direction basis (d, q) of aff(points) and the singular
    values of points - anchor, from their SVD; singular values below
    1e-9 * max count as zero."""
    _, s, vt = np.linalg.svd(points - anchor, full_matrices=False)
    q = int(np.sum(s > 1e-9 * s[0])) if len(s) and s[0] > 0 else 0
    return vt[:q].T, s


def _pivot_columns(a: np.ndarray, k: int) -> np.ndarray:
    """The first k column pivots of a QR factorization of a with column
    pivoting (Businger and Golub 1965): each step takes the column of largest
    residual norm, first on ties, and projects it out of the others."""
    r = np.array(a, dtype=float)
    picked = np.empty(k, dtype=np.intp)
    for i in range(k):
        picked[i] = j = np.argmax(np.einsum("ij,ij->j", r, r))
        v = r[:, j] / np.linalg.norm(r[:, j])
        r -= np.outer(v, v @ r)
    return picked


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


def _lexsorted(x: np.ndarray) -> np.ndarray:
    """Rows of x in stable lexicographic order of their entries rounded to 9 decimals."""
    return x[np.lexsort(np.round(x, 9).T[::-1])]


def double_description(a: np.ndarray) -> np.ndarray:
    """Extreme rays of the pointed cone {y : A y >= 0}, which must have
    e_last = (0, ..., 0, 1) in its interior: every row ends in a positive entry.

    Motzkin's double description with the combinatorial adjacency test
    (Fukuda and Prodon 1996) on the unit rows.  It starts from d independent
    rows, whose rays are the columns of their inverse, each tight on the
    other d - 1, and adds the remaining rows in index order.  A row keeps the
    rays it does not cut (value >= -DD_TOL; those within DD_TOL of 0 become
    tight on it) and joins each cut ray q to each kept ray p it is adjacent
    to (_adjacent) by s_p q - s_q p, where s is the value on the row.  Tight
    sets are bitsets in uint64 words.  Two rays never share a tight set, so
    no ray is repeated.  Rays are unit-normalized and lexsorted.
    """
    a = np.asarray(a, dtype=float)
    m, d = a.shape
    norms = np.linalg.norm(a, axis=1)
    if np.any(a[:, -1] <= DD_TOL * norms):
        raise ValueError("e_last is not interior to the cone: a row's last entry is not positive")
    a = a / norms[:, None]
    if np.linalg.matrix_rank(a, tol=1e-9) < d:
        raise ValueError("cone is not pointed: inequality normals do not span")
    words = -(-m // 64)
    bits = np.packbits(np.eye(m, 64 * words, dtype=bool), axis=1, bitorder="little").view(np.uint64)
    basis = _pivot_columns(a.T, d)  # well-conditioned first rows
    rays = np.linalg.inv(a[basis]).T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    tight = np.bitwise_or.reduce(bits[basis]) ^ bits[basis]
    rest = np.ones(m, dtype=bool)
    rest[basis] = False
    for i in np.flatnonzero(rest):
        s = rays @ a[i]
        tight[np.abs(s) <= DD_TOL] |= bits[i]
        cut = s < -DD_TOL
        if cut.any():
            p, q = _adjacent(tight, np.flatnonzero(s > DD_TOL), np.flatnonzero(cut), d)
            new = s[p, None] * rays[q] - s[q, None] * rays[p]
            rays = np.vstack([rays[~cut], new / np.linalg.norm(new, axis=1, keepdims=True)])
            tight = np.vstack([tight[~cut], tight[p] & tight[q] | bits[i]])
    return _lexsorted(rays)


def _adjacent(tight: np.ndarray, plus: np.ndarray, minus: np.ndarray, d: int):
    """The pairs (p, q) in plus x minus of adjacent rays, given the rays'
    tight sets (one bitset row each) on the rows added so far.

    p and q are adjacent when their shared set Z = Z_p & Z_q has at least
    d - 2 rows and no third ray is tight on all of Z, that is, when exactly
    two rays, p and q, are.  When the pairs left and all rays fit in one
    block, every ray is tested; otherwise only the rays tight on Z's rarest
    row (the one the fewest rays are tight on), as any ray tight on all of
    Z is tight on it.  There is no 2-D case: with d = 2, Z is empty and the
    cone has exactly the two rays p and q, so the test counts two.  The row
    counts, and then the containment tests, go in blocks of at most about
    DD_BLOCK pairs, word by word, as numpy is slow on a short last axis.
    """
    words, pairs = range(tight.shape[1]), [np.zeros((2, 0), dtype=int)]
    step = max(1, DD_BLOCK // len(minus))
    for ps in (plus[lo:lo + step] for lo in range(0, len(plus), step)):
        common = reduce(lambda x, y: np.add(x, y, dtype=np.int16),
                        (np.bitwise_count(tight[ps, w, None] & tight[minus, w]) for w in words))
        i, j = np.divmod(np.flatnonzero(common >= d - 2), len(minus))
        pairs.append([ps[i], minus[j]])
    p, q = np.hstack(pairs)
    shared = tight[p] & tight[q]
    if len(p) * len(tight) <= DD_BLOCK:  # one block: test every ray
        groups = [(np.arange(len(p)), tight)]
    else:
        on = np.unpackbits(tight.view(np.uint8), axis=1, bitorder="little").astype(bool)
        count = on.sum(axis=0)
        on_shared = np.unpackbits(shared.view(np.uint8), axis=1, bitorder="little")
        rarest = np.argmin(np.where(on_shared, count, len(tight)), axis=1)
        groups = ((np.flatnonzero(rarest == row), tight[on[:, row]]) for row in np.unique(rarest))
    adjacent = np.zeros(len(p), dtype=bool)
    for group, candidates in groups:
        step = max(1, DD_BLOCK // len(candidates))
        for block in (group[lo:lo + step] for lo in range(0, len(group), step)):
            hit = reduce(np.bitwise_or, (shared[block, w, None] & ~candidates[:, w] for w in words))
            adjacent[block] = np.count_nonzero(hit == 0, axis=1) == 2
    return p[adjacent], q[adjacent]


def _check_ray_input(k: Polytope) -> None:
    """Reject a factor beyond the sizes the module constants support."""
    for what, size, cap in [("ambient dimension", k.ambient_dim, MAX_RAY_AMBIENT_DIM),
                            ("vertex count", k.n_vertices, MAX_RAY_VERTICES)]:
        if size > cap:
            raise ValueError(f"{what} {size} exceeds the supported {cap}")


def positive_ray_generators(k: Polytope) -> np.ndarray:
    """Extreme rays of {(a, b) : a.v + b >= 0 for all vertices v}, one per
    row in coefficient coordinates (a, b) for x |-> a.x + b.

    They are k.chart_rays, enumerated once per polytope in the unit chart of
    aff(k), where the cone of positive affine functions is pointed, and
    pulled back through its into map on each call as ambient representatives,
    at max-abs coefficient 1, lexsorted.  The module constants bound the
    accepted input size.
    """
    rays, into, _ = k.chart_rays
    full = rays @ into
    full /= np.max(np.abs(full), axis=1, keepdims=True)
    return _lexsorted(full)


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

    The rays are positive_ray_generators of the factors, read from the chart
    rays each keeps.  The certificate is the first pair, in row-major order,
    whose value is within LP_TOL of the minimum and on the same side of
    -LP_TOL as it, so rounding in the rays does not move it among tied pairs.
    """
    r1, r2 = positive_ray_generators(k1), positive_ray_generators(k2)
    vals = r1 @ phi.matrix @ r2.T
    low = vals.min()
    inside = low >= -LP_TOL
    tied = (vals <= low + LP_TOL) & ((vals >= -LP_TOL) == inside)
    i, j = np.unravel_index(np.argmax(tied), vals.shape)
    cert = RayPairCertificate(r1[i], r2[j], float(vals[i, j]))
    return Verdict(Status.IN if inside else Status.OUT, cert)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the call; kappa binds this function too."""
    from scipy import optimize

    return optimize.linprog(*args, **kwargs)


def _block_lps(c, a_ub, b_ub, a_eq, b_eq, what: str):
    """Solve the n LPs min c.x s.t. a_ub x <= b_ub[i], a_eq x = b_eq[i],
    x >= 0, which differ only in their right-hand sides.  Up to LP_BLOCKS
    of them go to HiGHS as one block-diagonal LP minimizing the sum of their
    objectives; the copies share no variable, so the sum is minimal exactly
    when each one is.  (Most of one small LP's time is scipy's wrapper, not
    HiGHS.)  Returns the solutions (n, len(c)) and a_ub duals (n, len(a_ub)).
    A HiGHS failure raises ValueError: the input is beyond what the LPs solve.
    """
    from scipy import sparse

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


def _distance_rows(vertices: np.ndarray):
    """The inf-norm distance LP to the hull of the vertices (p, dim), in the
    variables (lam, t): objective t, rows [V^T, -1; -V^T, -1] against
    [phi; -phi], and the simplex row sum lam = 1.  Returns (c, a_ub, a_eq)."""
    p, dim = vertices.shape
    ones = np.ones((dim, 1))
    return (np.append(np.zeros(p), 1.0), np.block([[vertices.T, -ones], [-vertices.T, -ones]]),
            np.append(np.ones(p), 0.0)[None, :])


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
    c, a_ub, a_eq = _distance_rows(vertices)
    x, u = _block_lps(c, a_ub, np.hstack([flat_phi, -flat_phi]), a_eq,
                      np.ones((len(flat_phi), 1)), "membership")
    return x[:, -1], x[:, :p], u[:, :dim] - u[:, dim:]


def non_vertices(points) -> np.ndarray:
    """Indices, ascending, of the listed points (p, dim) at inf-norm
    distance <= LP_TOL from the hull of the others.  Copy i of the batched
    distance LP measures point i against all p points with the added rows
    lam <= 1 - e_i, which force lam_i = 0.  A HiGHS failure raises ValueError.
    """
    points = np.asarray(points, dtype=float)
    p = len(points)
    if p < 2:
        return np.zeros(0, dtype=int)
    c, a_ub, a_eq = _distance_rows(points)
    x, _ = _block_lps(c, np.vstack([a_ub, np.eye(p, p + 1)]),
                      np.hstack([points, -points, 1.0 - np.eye(p)]), a_eq, np.ones((p, 1)), "extremality")
    return np.flatnonzero(x[:, -1] <= LP_TOL)


def _min_verdict(flat, mv, dist, weights, normal) -> Verdict:
    """Verdict on flat from its row of _min_distance_lp(., mv): In with the
    weights when dist <= LP_TOL, else Out with the normal as hyperplane; a
    normal that does not separate (margin <= 0, LP rounding) raises ValueError."""
    if dist <= LP_TOL:
        return Verdict(Status.IN, ConvexWeightsCertificate(weights, float(dist)))
    offset = float(np.max(mv @ normal))
    margin = float(normal @ flat - offset)
    if margin <= 0:
        raise ValueError(f"membership LP failed: its hyperplane does not separate (margin {margin:.3g})")
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
# certified bounds that screen the per-vertex LPs


def _start_bases(v: np.ndarray, z: np.ndarray, nearest: np.ndarray):
    """The start basis of _exact_distances for each row of z (n, dim) at its
    nearest vertex k = nearest (n,) among v (p, dim), and its inverse.

    The basis is (lam_k, t, every slack but the one j* at the coordinate
    where |V_k - z| peaks), as columns of the distance LP with a slack per
    inequality.  With a_k = [V_k; -V_k; 1], lam_k's column, and every
    slack's t-coefficient -1, B x = b solves in closed form: lam_k = b_last,
    t = a_k[j*] b_last - b_j*, and s_j = b_j - a_k[j] b_last + t for each
    other slack j.  B^-1 is written row by row from these formulas, so no
    stack of bases is factored.  Returns the basis (n, m) and B^-1 (n, m, m),
    m = 2 dim + 1.
    """
    (p, dim), n = v.shape, len(z)
    m = 2 * dim + 1
    ak = np.hstack([v[nearest], -v[nearest]])  # a_k without its last entry 1
    jstar = np.argmax(ak - np.hstack([z, -z]), axis=1)  # t = max_j a_k[j] - b_j
    slack = np.broadcast_to(np.arange(2 * dim), (n, 2 * dim))
    others = slack[slack != jstar[:, None]].reshape(n, 2 * dim - 1)
    r = np.arange(n)
    inv = np.zeros((n, m, m))
    inv[:, 0, -1] = 1.0  # lam_k = b_last
    inv[r, 1, jstar] = -1.0  # t = a_k[j*] b_last - b_j*
    inv[:, 1, -1] = ak[r, jstar]
    inv[:, 2:, :] = inv[:, 1:2, :]  # s_j = t + b_j - a_k[j] b_last
    inv[r[:, None], np.arange(2, m), others] += 1.0
    inv[:, 2:, -1] -= np.take_along_axis(ak, others, axis=1)
    return np.column_stack([nearest, np.full(n, p), p + 1 + others]), inv


def _simplex(a: np.ndarray, c: np.ndarray, rhs: np.ndarray, start, bound):
    """Batched revised primal simplex on the LPs min c.x s.t. a x = rhs[i],
    x >= 0, which share their columns a (m, k) and costs c (k,) and differ in
    their right-hand sides rhs (n, m).  start(rows) gives the rows' feasible
    start bases (len(rows), m) and their inverses (len(rows), m, m), and
    bound(rows, pi) a certified lower bound on each row's value from its
    duals pi = c_B B^-1 (len(rows), m).

    A pivot enters the most negative reduced cost (Dantzig), leaves by the
    ratio test over the entries of its pivot column above 1e-9 (a smaller
    pivot, such as the 2e-12 ones of the relative-bound LP on the unit square
    shifted by (1e4, 1e4), moves x_B off its constraints by up to 2e-4) and
    updates B^-1 by a rank-1 step.  A row stops when it is optimal (no
    reduced cost below -1e-12), when it is pruned (its objective c_B x_B is
    below the largest lower bound any row's basis has given, less LP_TOL, so
    its value is more than LP_TOL below the largest), when no entry of its
    pivot column is above 1e-9, or after SIMPLEX_PIVOTS pivots; the last two
    leave it open.  The rows pivot in consecutive blocks of SIMPLEX_ROWS, in
    index order, each starting from the largest lower bound the blocks
    before it left, on stacks of basis, B^-1 and x_B that keep only the
    block's rows still pivoting; so the B^-1 stack holds at most SIMPLEX_ROWS
    (m, m) matrices, whatever n.  Returns each row's last basis (n, m), x_B
    (n, m), duals pi (n, m) and lower bound (n,), and whether the row is
    open (n,).
    """
    n, m = rhs.shape
    basis, xb, duals = np.empty((n, m), dtype=int), np.empty((n, m)), np.empty((n, m))
    lower, unsettled = np.empty(n), np.zeros(n, dtype=bool)
    best = -np.inf  # the largest lower bound
    for first in range(0, n, SIMPLEX_ROWS):
        live = np.arange(first, min(first + SIMPLEX_ROWS, n))  # the block's rows still pivoting
        lb, li = start(live)  # their basis and B^-1
        lx = (li @ rhs[live][:, :, None])[:, :, 0]  # their x_B
        for step in range(SIMPLEX_PIVOTS + 1):
            cb = c[lb]
            pi = (cb[:, None, :] @ li)[:, 0]
            ll = bound(live, pi)
            best = max(best, float(ll.max(initial=-np.inf)))
            cost = c - pi @ a
            r, enter = np.arange(len(live)), np.argmin(cost, axis=1)
            u = (li @ a.T[enter][:, :, None])[:, :, 0]
            ratio = np.divide(np.maximum(lx, 0.0), u, out=np.full_like(u, np.inf), where=u > 1e-9)
            leave = np.argmin(ratio, axis=1)
            done = (cost[r, enter] >= -1e-12) | (np.sum(cb * lx, axis=1) < best - LP_TOL)
            go = ~done & np.isfinite(ratio[r, leave]) & (step < SIMPLEX_PIVOTS)
            if not go.all():
                stop = live[~go]
                basis[stop], xb[stop], duals[stop], lower[stop] = lb[~go], lx[~go], pi[~go], ll[~go]
                unsettled[stop] = ~done[~go]
                live, lb, li, lx, enter, u, leave = (x[go] for x in (live, lb, li, lx, enter, u, leave))
            if not len(live):
                break
            r = np.arange(len(live))
            pivot = u[r, leave]
            row = li[r, leave] / pivot[:, None]
            li -= u[:, :, None] * row[:, None, :]
            li[r, leave] = row
            theta = lx[r, leave] / pivot
            lx -= theta[:, None] * u
            lx[r, leave] = theta
            lb[r, leave] = enter
    return basis, xb, duals, lower, unsettled


def _exact_distances(z: np.ndarray, vertices: np.ndarray):
    """Certified brackets on the inf-norm distance from the rows of z to the
    convex hull of the vertices, the value of _min_distance_lp, from _simplex
    on that LP (_distance_rows) with a slack per inequality.  A row within
    LP_TOL (inf-norm) of its nearest vertex k is at most LP_TOL from the hull
    and is dropped; each other row starts from the basis of k that
    _start_bases writes down with its inverse.

    Both bounds are read off each row's last basis and hold whatever the
    pivots did, so a pruned, unfinished or inexact row only keeps a wider
    bracket.  The upper bound is |lam V - z|_inf with lam clipped to >= 0
    and rescaled to sum 1; the lower bound is y.z - max_p y.V_p with y =
    pi_a - pi_b, the difference of the two inequality blocks' duals
    (oriented as _min_distance_lp's normal), divided by max(1, |y|_1).
    Returns the indices of the rows kept (n,), ascending, and their upper and
    lower bounds (n,), weights lam (n, p) and normals y (n, dim).
    """
    from scipy.spatial import cKDTree

    center = vertices.mean(axis=0)  # the weights sum to 1, so centring is exact
    v, z = vertices - center, z - center
    near, nearest = cKDTree(v).query(z, p=np.inf)
    rows = np.flatnonzero(near > LP_TOL)
    z, nearest = z[rows], nearest[rows]
    p, dim = v.shape
    c, a_ub, a_eq = _distance_rows(v)
    a = np.block([[a_ub, np.eye(2 * dim)], [a_eq, np.zeros((1, 2 * dim))]])

    def normals(pi):
        y = pi[:, :dim] - pi[:, dim:2 * dim]
        return y / np.maximum(1.0, np.abs(y).sum(axis=1, keepdims=True))

    def bound(live, pi):
        y = normals(pi)
        return np.sum(y * z[live], axis=1) - np.max(y @ v.T, axis=1)

    basis, xb, pi, lower, _ = _simplex(a, np.append(c, np.zeros(2 * dim)),
                                       np.hstack([z, -z, np.ones((len(z), 1))]),
                                       lambda live: _start_bases(v, z[live], nearest[live]), bound)
    lam = np.zeros((len(z), p))
    on = basis < p
    lam[np.nonzero(on)[0], basis[on]] = np.maximum(xb[on], 0.0)
    lam /= lam.sum(axis=1, keepdims=True)
    upper = np.abs(lam @ v - z).max(axis=1)
    return rows, upper, lower, lam, normals(pi)


# ---------------------------------------------------------------------------
# maximal tensor polytope and the gap finder


def max_tensor_polytope(k1: Polytope, k2: Polytope) -> Polytope:
    """Vertex enumeration of the maximal tensor product.

    In the factors' unit charts, a functional is a matrix Phi with Phi[-1, -1]
    = 1 and the maximal set is cut out by r^T Phi s >= 0 over the factors'
    chart_rays.  Its cone has e_last interior, as r(0) s(0) > 0; its extreme
    rays, scaled to Phi[-1, -1] = 1, are the vertices, mapped back through the
    charts.  When either factor is a simplex the two products are equal, so
    the minimal vertices are returned with no enumeration and no LP.
    Vertices are returned as flattened functionals in lexicographic order.
    """
    _check_ray_input(k1)
    _check_ray_input(k2)
    if any(k.n_vertices == affine_dimension(k) + 1 for k in (k1, k2)):
        return Polytope(_lexsorted(min_tensor(k1, k2).vertices))
    (r1, _, back1), (r2, _, back2) = k1.chart_rays, k2.chart_rays
    rays = double_description(np.einsum("ia,jb->ijab", r1, r2).reshape(len(r1) * len(r2), -1))
    if np.any(rays[:, -1] <= 1e-9):
        raise RuntimeError("maximal tensor polytope appears unbounded")
    verts = (rays / rays[:, -1:]) @ np.kron(back1, back2).T  # back1 Phi back2^T, row-major
    return Polytope(_lexsorted(verts))


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
    outside the minimal one, or return None exactly when mx has as many
    vertices as there are products v (x) w of vertices: the two sets are
    then equal.  Each product is a vertex of mx, as its marginals, the
    extreme points v and w, pin it; a vertex of mx in the minimal set is a
    vertex there too, hence a product.

    The LP distance to the minimal polytope is convex, so its maximum over
    mx is attained at a vertex: take the first vertex whose distance is
    within LP_TOL of the largest (so rounding noise among tied vertices
    cannot pick one) and return it with both certificates.
    _exact_distances, the only screen, drops each vertex within LP_TOL
    (inf-norm) of its nearest minimal vertex, which is at most LP_TOL from
    the minimal polytope, and brackets the distance of every other vertex;
    one closes when its upper bound is more than LP_TOL below the largest
    lower bound, never for being <= LP_TOL, so such rows keep HiGHS's
    verdict and messages.  When exactly one vertex is left, its bracket is
    closed (width <= 1e-12 of its lower bound) and above LP_TOL, its
    weights and normal are the min-side certificate and no LP runs.
    Otherwise the distance LPs run in one _block_lps call on the vertices
    left, and the certificate is the gap vertex's row of those LPs.
    As the count proves a gap, no distance above LP_TOL means the LPs
    failed: ValueError, as is a normal that does not separate (_min_verdict).
    The max-side verdict is max_tensor_membership(phi, k1, k2), which reads the
    chart rays that max_tensor_polytope(k1, k2) enumerated on k1 and k2.
    """
    mv = min_tensor(k1, k2).vertices
    if mx.n_vertices == len(mv):
        return None
    rows, dist, below, weights, normals = _exact_distances(mx.vertices, mv)
    if len(rows):
        keep = ~(dist < below.max() - LP_TOL)
        rows, dist, below, weights, normals = (a[keep] for a in (rows, dist, below, weights, normals))
        if not (len(rows) == 1 and LP_TOL < below[0] and dist[0] - below[0] <= 1e-12 * below[0]):
            dist, weights, normals = _min_distance_lp(mx.vertices[rows], mv)
    if not len(rows) or dist.max() <= LP_TOL:
        raise ValueError(f"membership LP failed: no distance exceeds LP_TOL, yet the maximal "
                         f"product has {mx.n_vertices} vertices and the minimal only {len(mv)}")
    i = np.argmax(dist >= dist.max() - LP_TOL)
    phi = functional_from_flat(mx.vertices[rows[i]], k1, k2)
    return BarkerGap(phi, max_tensor_membership(phi, k1, k2),
                     _min_verdict(phi.flat, mv, dist[i], weights[i], normals[i]))


def barker_gap(k1: Polytope, k2: Polytope) -> BarkerGap | None:
    """gap_among on the maximal tensor polytope of k1 and k2."""
    return gap_among(max_tensor_polytope(k1, k2), k1, k2)


# ---------------------------------------------------------------------------
# relative boundedness


def relative_bound(inner: Polytope, outer: Polytope) -> float:
    """Smallest r >= 0 with outer contained in {(r+1)x - ry : x, y in inner}.

    The bound is the maximum over the outer vertices z of an LP: z =
    (r+1)x - ry with x, y convex combinations of inner vertices becomes A(a
    - b) = (z_u, 1), a, b >= 0, minimizing r = 1^T b, where A = [U; 1^T]
    holds the inner vertices u_j as columns (u_j, 1).  r is affine
    invariant, so U and z_u are in the unit chart that inner keeps
    (inner.unit_chart): centroid 0, max-abs coordinate 1.  An outer vertex
    that is an exact copy of an inner vertex has r = 0 and gets no LP; only
    the simplex shortcut of max_tensor_polytope makes such copies, as the
    vertices it enumerates match only to rounding.

    _simplex solves the other rows' LPs.  Their start bases come from m =
    dim + 1 affinely independent inner vertices S, the first column pivots
    of A (_pivot_columns): beta = A_S^-1 (z_u, 1) are z's affine
    coordinates on S, the basis takes a_i where beta_i >= 0 and b_i where
    beta_i < 0, so B^-1 = diag(sign beta) A_S^-1 and x_B = |beta|.  The
    rows go in decreasing order of their start objective.  A basis with
    duals (y, pi_0) bounds r(z) from below by y.z_u - max_j y.u_j once y is
    scaled so that the width max_j y.u_j - min_j y.u_j is at most 1: that
    is the dual objective of (y, -max_j y.u_j), which is then dual
    feasible.  The largest objective is returned; a row pruned by _simplex
    is more than LP_TOL below it.

    Raises ValueError when outer's affine hull is not in inner's (a
    residual off the chart's span above 1e-9 * max(1, max|z|)), when the
    chart may have dropped a genuine direction (a singular value of the
    centred inner vertices between 1e-13 and 1e-9 of the largest), as it
    then poses fewer constraints than the LP, and when the simplex is at
    fault: a row is left open (_simplex), a last basis is more than LP_TOL *
    max|(z_u, 1)| off its constraints or has a weight below -LP_TOL, or the
    maximum is below the largest lower bound less LP_TOL.  No check sees
    how far rounding moved the chart from inner's vertices (ROADMAP item 5).
    """
    from scipy.spatial import cKDTree

    (center, q, scale, s), iv, z = inner.unit_chart, inner.vertices, outer.vertices
    d = z - center
    off = np.linalg.norm(d - (d @ q) @ q.T, axis=1)
    if not np.all(off <= 1e-9 * max(1.0, float(np.max(np.abs(z))))):
        raise ValueError("affine hull of outer is not contained in that of inner")
    top = np.max(s, initial=0.0)
    if np.any((s > 1e-13 * top) & (s <= 1e-9 * top)):
        raise ValueError("relative-bound LP failed: the unit chart of inner drops a singular value "
                         "between 1e-13 and 1e-9 of the largest")
    p = len(iv)
    u = ((iv - center) @ q / scale).T
    a = np.vstack([u, np.ones(p)])
    chosen = _pivot_columns(a, len(a))
    inv = np.linalg.inv(a[:, chosen])
    d = d[cKDTree(iv).query(z)[0] > 0]
    rhs = np.hstack([d @ q / scale, np.ones((len(d), 1))])
    beta = rhs @ inv.T
    order = np.argsort(-np.maximum(-beta, 0.0).sum(axis=1), kind="stable")
    rhs, negative = rhs[order], beta[order] < 0

    def start(live):
        return chosen + p * negative[live], np.where(negative[live, :, None], -inv, inv)

    def bound(live, pi):
        spread = pi[:, :-1] @ u
        high = spread.max(axis=1)
        width = high - spread.min(axis=1)
        return (np.sum(pi[:, :-1] * rhs[live, :-1], axis=1) - high) / np.maximum(1.0, width)

    c, columns = np.repeat([0.0, 1.0], p), np.hstack([a, -a])
    basis, xb, _, lower, unsettled = _simplex(columns, c, rhs, start, bound)
    drift = np.abs((xb[:, None, :] @ columns.T[basis])[:, 0] - rhs).max(axis=1) / np.abs(rhs).max(axis=1)
    r = float(np.max(np.sum(c[basis] * xb, axis=1), initial=0.0))
    if unsettled.any():
        raise ValueError(f"relative-bound LP failed: {np.count_nonzero(unsettled)} of {len(rhs)} "
                         f"rows are still open after at most {SIMPLEX_PIVOTS} pivots")
    if np.any(drift > LP_TOL) or np.any(xb < -LP_TOL):
        raise ValueError(f"relative-bound LP failed: its last bases are up to {drift.max():.3g} off "
                         f"their constraints, with weights down to {xb.min():.3g}")
    if r < np.max(lower, initial=-np.inf) - LP_TOL:
        raise ValueError(f"relative-bound LP failed: its maximum {r} is below the certified "
                         f"lower bound {lower.max()}")
    return r
