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
# tensor-gap (seeds 0/1000, medians of 3) read 41.0/41.2, 41.5/41.6, 43.0/43.6
# MB peak RSS and 46/54, 45/54, 42/51 ms batch_s with 2^16, 2^17, 2^18.
DD_TOL = 1e-10
DD_BLOCK = 1 << 16
MAX_RAY_AMBIENT_DIM = 4
MAX_RAY_VERTICES = 12
# Pivots per row in linprog.  Every chart-LP row closes within 11 pivots on
# the tensor-gap pairs of seeds 0, 30, 36, 44 and 1000, within 17 on the
# mixed polygon pairs and the 8-gon^2, and within 25 on hexagon x cube,
# cube^2, octahedron^2 and prism^2.  A gap row left open at the cap keeps its
# last basis's bracket; relative_bound refuses an open row.
SIMPLEX_PIVOTS = 100
# Rows per block of linprog, which bounds the B^-1 stack of _chart_lps at
# SIMPLEX_ROWS * (dim + 1)^2 floats, dim that of the inner chart.  tensor-gap
# (seed 0, medians of 3 runs on 2 shared vCPUs, one BLAS thread) peaked at
# 40.3/40.5/40.4/41.5 MB RSS with blocks of 64/128/256/all rows, and its
# batch_s read 56/49/46/50 ms: 64 costs time, one block of all rows 1 MB.
SIMPLEX_ROWS = 128


@dataclass(frozen=True, eq=False)
class Polytope:
    """Compact convex set given by its vertex list, unchecked for repeats: a
    file's repeated point is refused as not extreme (polytope_from_dict), and
    coincident vertices by chart_rays.  Its unit chart and chart rays are
    computed on first use, kept read-only, and shared by every call on it."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or len(v) == 0:
            raise ValueError("vertex list must be a nonempty 2-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates contain NaN or infinity")
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
        _check_ray_input(self)
        center, q, scale, _ = self.unit_chart
        u = (self.vertices - center) @ q / scale
        if np.any(np.linalg.norm(u[:, None] - u, axis=-1)[np.triu_indices(len(u), 1)] <= 1e-9):
            raise ValueError("vertices coincide in the unit chart of the factor's affine hull")
        into = np.block([[q.T / scale, -(center @ q)[:, None] / scale], [np.zeros(len(center)), 1.0]])
        back = np.block([[q * scale, center[:, None]], [np.zeros(q.shape[1]), 1.0]])
        rays = double_description(np.hstack([u, np.ones((len(u), 1))]))
        return _frozen_array(rays), _frozen_array(into), _frozen_array(back)


@dataclass(frozen=True, eq=False)
class TensorFunctional:
    """Functional on A(K1) (x) A(K2), normalized to 1 on u1 (x) u2."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("functional must be a 2-d coefficient matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("functional coefficients contain NaN or infinity")
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


def affine_dimension(k: Polytope) -> int:
    """Dimension of aff(k.vertices), read off the unit chart: singular values
    below 1e-9 * max count as zero."""
    return k.unit_chart[1].shape[1]


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
        groups = ((np.flatnonzero(rarest == row), tight[on[:, row]])
                  for row in np.flatnonzero(np.bincount(rarest)))
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
    """Linear functional h = normal with h(input) - margin = offset >= h(v)
    on the hull's vertices v.  The hull is at most 1 wide along a chart
    LP's normal (_chart_lps), so the margin, a lower bound on the input's
    relative bound, does not depend on the hull's scale."""

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


def non_vertices(points) -> np.ndarray:
    """Indices, ascending, of the listed points (p, dim) that _hull_verdict
    puts In the hull of the others: points equal to another in every
    coordinate, and points on the others' affine hull (_off_hull) whose
    relative bound to the others, in their unit chart, is at most LP_TOL."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return np.zeros(0, dtype=int)
    return np.flatnonzero([_hull_verdict(z, Polytope(np.delete(points, i, axis=0))).status is Status.IN
                           for i, z in enumerate(points)])


def _out_verdict(flat, mv, normal) -> Verdict:
    """Out with the hyperplane y = normal, offset max_p y.mv_p, separating
    flat from the hull of mv; a normal that does not separate (margin <= 0,
    LP rounding) raises ValueError."""
    offset = float(np.max(mv @ normal))
    margin = float(normal @ flat - offset)
    if margin <= 0:
        raise ValueError(f"membership LP failed: its hyperplane does not separate (margin {margin:.3g})")
    return Verdict(Status.OUT, SeparatingHyperplane(normal, offset, margin))


def _off_hull(z: np.ndarray, k: Polytope):
    """The part off (n, dim) of each row of z (n, dim) minus k's centroid
    that lies off the span of k's unit chart, and its length in chart units
    (n,), |off| / scale: a row is off aff(k) when that exceeds LP_TOL."""
    center, q, scale, _ = k.unit_chart
    off = (z - center) - ((z - center) @ q) @ q.T
    return off, np.linalg.norm(off, axis=1) / scale


def _hull_verdict(z: np.ndarray, hull: Polytope) -> Verdict:
    """Membership of the point z (dim,) in the polytope hull, decided in
    hull's unit chart (centroid 0, max-abs coordinate 1).

    In with weights e_k when z equals vertex k in every coordinate, k the
    first such vertex.  Out when z is off hull's affine hull (_off_hull),
    with normal off / (scale^2 length), whose margin is that length.
    Otherwise the chart LP (_chart_lps) decides: In with its weights,
    clipped to >= 0 and rescaled to sum 1, when the relative bound r of z
    is at most LP_TOL; Out with its dual normal when the certified lower
    bound on r exceeds LP_TOL.  A bracket across LP_TOL raises ValueError.
    The In certificate's residual is |sum_p w_p V_p - z|_inf.
    """
    copies = np.flatnonzero(np.all(hull.vertices == z, axis=1))
    if len(copies):
        return Verdict(Status.IN, ConvexWeightsCertificate(np.eye(hull.n_vertices)[copies[0]], 0.0))
    (off,), (length,) = _off_hull(z[None, :], hull)
    if length > LP_TOL:
        return _out_verdict(z, hull.vertices, off / (hull.unit_chart[2] ** 2 * length))
    _, (r,), (weights,), (lower,), (normal,), _, _ = _chart_lps(hull, z[None, :])
    if r <= LP_TOL:
        weights = np.maximum(weights, 0.0) / np.maximum(weights, 0.0).sum()
        residual = float(np.abs(weights @ hull.vertices - z).max())
        return Verdict(Status.IN, ConvexWeightsCertificate(weights, residual))
    if lower <= LP_TOL:
        raise ValueError(f"membership LP failed: the point's relative bound is in [{lower:.3g}, {r:.3g}]")
    return _out_verdict(z, hull.vertices, normal)


def min_tensor_membership(phi: TensorFunctional, k1: Polytope, k2: Polytope) -> Verdict:
    """Membership in the convex hull of elementary tensors, by _hull_verdict."""
    return _hull_verdict(phi.flat, min_tensor(k1, k2))


# ---------------------------------------------------------------------------
# the chart LP


def linprog(a: np.ndarray, c: np.ndarray, rhs: np.ndarray, start, bound):
    """The polytope layer's LP kernel: a batched revised primal simplex on
    the LPs min c.x s.t. a x = rhs[i], x >= 0, which share their columns a
    (m, k) and costs c (k,) and differ in their right-hand sides rhs (n, m).
    start(rows) gives the rows' feasible start bases (len(rows), m) and
    their inverses (len(rows), m, m), and bound(rows, pi) a certified lower
    bound on each row's value from its duals pi = c_B B^-1 (len(rows), m).

    A pivot enters the most negative reduced cost (Dantzig), leaves by the
    ratio test over the entries of its pivot column above 1e-9 (a smaller
    pivot, such as the 2e-12 ones of the chart LP on the unit square
    shifted by (1e4, 1e4), moves x_B off its constraints by up to 2e-4) and
    updates B^-1 by a rank-1 step.  A row stops when it is optimal (no
    reduced cost below -1e-12), when it is pruned (its objective c_B x_B is
    below the largest lower bound of a row that has stopped, less LP_TOL, so
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
    best = -np.inf  # the largest lower bound of a stopped row
    for first in range(0, n, SIMPLEX_ROWS):
        live = np.arange(first, min(first + SIMPLEX_ROWS, n))  # the block's rows still pivoting
        lb, li = start(live)  # their basis and B^-1
        lx = (li @ rhs[live][:, :, None])[:, :, 0]  # their x_B
        for step in range(SIMPLEX_PIVOTS + 1):
            cb = c[lb]
            pi = (cb[:, None, :] @ li)[:, 0]
            cost = c - pi @ a
            r, enter = np.arange(len(live)), np.argmin(cost, axis=1)
            u = (li @ a.T[enter][:, :, None])[:, :, 0]
            ratio = np.divide(np.maximum(lx, 0.0), u, out=np.full_like(u, np.inf), where=u > 1e-9)
            leave = np.argmin(ratio, axis=1)
            done = (cost[r, enter] >= -1e-12) | (np.sum(cb * lx, axis=1) < best - LP_TOL)
            go = ~done & np.isfinite(ratio[r, leave]) & (step < SIMPLEX_PIVOTS)
            if not go.all():
                stop = live[~go]
                basis[stop], xb[stop], duals[stop] = lb[~go], lx[~go], pi[~go]
                lower[stop] = bound(stop, pi[~go])
                best = max(best, float(lower[stop].max()))
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


def _chart_lps(inner: Polytope, z: np.ndarray):
    """The relative-bound LP of each row of z (n, dim) against inner: the
    smallest r >= 0 with z = (r+1)x - ry, x and y in inner, that is, A(a -
    b) = (z_u, 1), a, b >= 0, minimizing r = 1^T b, where A = [U; 1^T]
    holds the inner vertices u_j as columns (u_j, 1).  r is affine
    invariant, so U and z_u are in inner's unit chart (inner.unit_chart).
    A row equal to an inner vertex in every coordinate has r = 0 and no LP.

    linprog solves the others, in decreasing order of their start
    objective.  The start bases come from m = dim + 1 affinely independent
    inner vertices S, the first column pivots of A (_pivot_columns): beta
    = A_S^-1 (z_u, 1) are z's affine coordinates on S, the basis takes a_i
    where beta_i >= 0 and b_i where beta_i < 0, so B^-1 = diag(sign beta)
    A_S^-1 and x_B = |beta|.  A basis with duals (y, pi_0) bounds r from
    below by y.z_u - max_j y.u_j once y is divided by max(1, max_j y.u_j -
    min_j y.u_j): that is the dual objective of (y, -max_j y.u_j), then
    dual feasible.  That y, y @ q^T / scale in ambient coordinates, is the
    row's normal: it separates z from inner by the lower bound.

    Returns the indices (k,), ascending, of the rows solved, and for each
    its last basis's objective r (k,), weights a - b (k, p), certified lower
    bound (k,) and normal (k, dim), whether linprog left it open (k,), and
    its drift (k,): how far the basis is off its constraints, the larger of
    |A(a - b) - (z_u, 1)|_inf / |(z_u, 1)|_inf and -min x_B.
    """
    (center, q, scale, _), iv = inner.unit_chart, inner.vertices
    p = len(iv)
    u = ((iv - center) @ q / scale).T
    a = np.vstack([u, np.ones(p)])
    chosen = _pivot_columns(a, len(a))
    inv = np.linalg.inv(a[:, chosen])
    equal = np.ones((p, len(z)), dtype=bool)
    for k in range(z.shape[1]):
        equal &= iv[:, k, None] == z[:, k]
    rows = np.flatnonzero(~equal.any(axis=0))
    rhs = np.hstack([(z[rows] - center) @ q / scale, np.ones((len(rows), 1))])
    beta = rhs @ inv.T
    order = np.argsort(-np.maximum(-beta, 0.0).sum(axis=1), kind="stable")
    rows, rhs, negative = rows[order], rhs[order], beta[order] < 0

    def start(live):
        return chosen + p * negative[live], np.where(negative[live, :, None], -inv, inv)

    def normals(pi):
        spread = pi[:, :-1] @ u
        return pi[:, :-1] / np.maximum(1.0, spread.max(axis=1) - spread.min(axis=1))[:, None]

    def bound(live, pi):
        y = normals(pi)
        return np.sum(y * rhs[live, :-1], axis=1) - np.max(y @ u, axis=1)

    c, columns = np.repeat([0.0, 1.0], p), np.hstack([a, -a])
    basis, xb, pi, lower, unsettled = linprog(columns, c, rhs, start, bound)
    weights = np.zeros((len(rows), p))
    np.add.at(weights, (np.arange(len(rows))[:, None], basis % p), np.where(basis < p, xb, -xb))
    drift = np.maximum(np.abs(weights @ a.T - rhs).max(axis=1, initial=0.0) / np.abs(rhs).max(axis=1),
                       -xb.min(axis=1, initial=0.0))
    back = np.argsort(rows)
    return (rows[back], np.sum(c[basis] * xb, axis=1)[back], weights[back], lower[back],
            (normals(pi) @ q.T / scale)[back], unsettled[back], drift[back])


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


@dataclass(frozen=True, eq=False)
class BarkerGap:
    """A functional inside the maximal but outside the minimal tensor product."""

    functional: TensorFunctional
    max_verdict: Verdict
    min_verdict: Verdict

    @property
    def margin(self) -> float:
        """The min-side margin: relative_bound(min_tensor(k1, k2),
        max_tensor_polytope(k1, k2)), certified from below (gap_among)."""
        return self.min_verdict.certificate.margin


def gap_among(mx: Polytope, k1: Polytope, k2: Polytope) -> BarkerGap | None:
    """Search the maximal tensor polytope mx of k1 and k2 for a point
    outside the minimal one, or return None exactly when mx has as many
    vertices as there are products v (x) w of vertices: the two sets are
    then equal.  Each product is a vertex of mx, as its marginals, the
    extreme points v and w, pin it; a vertex of mx in the minimal set is a
    vertex there too, hence a product.

    The relative bound r to the minimal polytope is convex, so its maximum
    over mx, relative_bound(min_tensor(k1, k2), mx), is at a vertex, whose
    chart LP (_chart_lps) is pruned once it is more than LP_TOL below the
    largest lower bound.  The gap vertex is the first whose certified lower
    bound exceeds LP_TOL and is within LP_TOL of the largest (so rounding
    among tied vertices cannot pick one), and its dual normal is the
    min-side certificate, whose margin is that lower bound: the relative
    bound whenever the rows close, as they do within SIMPLEX_PIVOTS on
    every pair measured.  As the count proves a gap, no lower bound above
    LP_TOL means the LPs failed: ValueError, as is a normal that does not
    separate (_out_verdict).  The max-side verdict is
    max_tensor_membership(phi, k1, k2), which reads the chart rays that
    max_tensor_polytope(k1, k2) enumerated on k1 and k2.
    """
    mn = min_tensor(k1, k2)
    if mx.n_vertices == mn.n_vertices:
        return None
    rows, _, _, below, normals, _, _ = _chart_lps(mn, mx.vertices)
    if below.max(initial=-np.inf) <= LP_TOL:
        raise ValueError(f"membership LP failed: no lower bound exceeds LP_TOL, yet the maximal "
                         f"product has {mx.n_vertices} vertices and the minimal only {mn.n_vertices}")
    i = np.argmax((below >= below.max() - LP_TOL) & (below > LP_TOL))
    phi = functional_from_flat(mx.vertices[rows[i]], k1, k2)
    return BarkerGap(phi, max_tensor_membership(phi, k1, k2), _out_verdict(phi.flat, mn.vertices, normals[i]))


def barker_gap(k1: Polytope, k2: Polytope) -> BarkerGap | None:
    """gap_among on the maximal tensor polytope of k1 and k2."""
    return gap_among(max_tensor_polytope(k1, k2), k1, k2)


# ---------------------------------------------------------------------------
# relative boundedness


def relative_bound(inner: Polytope, outer: Polytope) -> float:
    """Smallest r >= 0 with outer contained in {(r+1)x - ry : x, y in inner}:
    the largest objective of the chart LPs (_chart_lps) of the outer
    vertices against inner.  A row pruned by linprog is more than LP_TOL
    below it.  The simplex shortcut of max_tensor_polytope makes every
    outer vertex an exact copy of an inner one, so a simplex factor gives
    exactly 0.0.

    Raises ValueError when outer's affine hull is not in inner's (a vertex
    more than LP_TOL off it in chart units, _off_hull, as in _hull_verdict),
    when the chart may have dropped a genuine direction (a singular value
    of the centred inner vertices between 1e-13 and 1e-9 of the largest),
    as it then poses fewer constraints than the LP, and when the simplex is
    at fault: a row is left open (linprog), a last basis drifts more than
    LP_TOL off its constraints, or the maximum is below the largest lower
    bound less LP_TOL.  No check sees how far rounding moved the chart from
    inner's vertices (ROADMAP item 5).
    """
    if not np.all(_off_hull(outer.vertices, inner)[1] <= LP_TOL):
        raise ValueError("affine hull of outer is not contained in that of inner")
    s = inner.unit_chart[3]
    top = np.max(s, initial=0.0)
    if np.any((s > 1e-13 * top) & (s <= 1e-9 * top)):
        raise ValueError("relative-bound LP failed: the unit chart of inner drops a singular value "
                         "between 1e-13 and 1e-9 of the largest")
    rows, values, _, lower, _, unsettled, drift = _chart_lps(inner, outer.vertices)
    r = float(np.max(values, initial=0.0))
    if unsettled.any():
        raise ValueError(f"relative-bound LP failed: {np.count_nonzero(unsettled)} of {len(rows)} "
                         f"rows are still open after at most {SIMPLEX_PIVOTS} pivots")
    if np.any(drift > LP_TOL):
        raise ValueError(f"relative-bound LP failed: its last bases are up to {drift.max():.3g} off "
                         f"their constraints")
    if r < np.max(lower, initial=-np.inf) - LP_TOL:
        raise ValueError(f"relative-bound LP failed: its maximum {r} is below the certified "
                         f"lower bound {lower.max()}")
    return r
