"""LPs solved by HiGHS, the references that the polytope layer's simplex
(polytopes.linprog) is checked against: the relative-bound LPs in ambient
coordinates (test_polytopes.relative_bound_lps, on _block_lps) and the
inf-norm distance LP to a hull (_min_distance_lp), the reference of
non_vertices.  The library imports no scipy for its LPs; the tests solve
these here."""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog as _highs

# LP copies per HiGHS call in _block_lps.
LP_BLOCKS = 36


def _distance_rows(vertices: np.ndarray):
    """The inf-norm distance LP to the hull of the vertices (p, dim), in the
    variables (lam, t): objective t, rows [V^T, -1; -V^T, -1] against
    [phi; -phi], and the simplex row sum lam = 1.  Returns (c, a_ub, a_eq)."""
    p, dim = vertices.shape
    ones = np.ones((dim, 1))
    return (np.append(np.zeros(p), 1.0), np.block([[vertices.T, -ones], [-vertices.T, -ones]]),
            np.append(np.ones(p), 0.0)[None, :])


def _block_lps(c, a_ub, b_ub, a_eq, b_eq, what: str):
    """Solve the n LPs min c.x s.t. a_ub x <= b_ub[i], a_eq x = b_eq[i],
    x >= 0, which differ only in their right-hand sides.  Up to LP_BLOCKS
    of them go to HiGHS as one block-diagonal LP minimizing the sum of their
    objectives; the copies share no variable, so the sum is minimal exactly
    when each one is.  (Most of one small LP's time is scipy's wrapper, not
    HiGHS.)  Returns the solutions (n, len(c)), a_ub duals (n, len(a_ub))
    and a_eq duals (n, len(a_eq)).  A HiGHS failure raises ValueError: the input is beyond what the LPs solve.
    """
    xs, duals, eq_duals = [], [], []
    for rows in np.array_split(np.arange(len(b_eq)), -(-len(b_eq) // LP_BLOCKS)):
        eye = sparse.identity(len(rows), format="csr")
        res = _highs(np.tile(c, len(rows)), A_ub=sparse.kron(eye, a_ub), b_ub=b_ub[rows].ravel(),
                     A_eq=sparse.kron(eye, a_eq), b_eq=b_eq[rows].ravel(),
                     method="highs", options={"presolve": False})
        if not res.success:
            raise ValueError(f"{what} LP failed: {res.message}")
        xs.append(res.x.reshape(len(rows), -1))
        duals.append(res.ineqlin.marginals.reshape(len(rows), -1))
        eq_duals.append(res.eqlin.marginals.reshape(len(rows), -1))
    return np.vstack(xs), np.vstack(duals), np.vstack(eq_duals)


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
    x, u, _ = _block_lps(c, a_ub, np.hstack([flat_phi, -flat_phi]), a_eq,
                      np.ones((len(flat_phi), 1)), "membership")
    return x[:, -1], x[:, :p], u[:, :dim] - u[:, dim:]
