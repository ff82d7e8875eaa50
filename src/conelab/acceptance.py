"""The acceptance suite: one callable per criterion, shared by the test
suite and the ``reproduce`` CLI command.

Each check returns a CheckResult with the mathematical identity it
validates, a pass flag, wall time, and enough detail to audit the run.
Each check that searches has one fixed budget; ``seed`` seeds its random draws.
ALL_CHECKS lists the checks in definition order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebras, cones, kappa, maps, operators, polytopes
from .cones import Status
from .maps import MatrixMap
from .operators import bipartite, random_hermitian


@dataclass(frozen=True)
class CheckResult:
    name: str
    identity: str
    passed: bool
    wall_time: float
    details: dict = field(default_factory=dict)


ALL_CHECKS = []


def _check(name: str, identity: str):
    """Register a check, which returns (passed, details), in ALL_CHECKS as a
    timed callable (seed=0) -> CheckResult whose ``check_name`` is ``name``."""

    def register(fn):
        @functools.wraps(fn)
        def check(seed: int = 0) -> CheckResult:
            t0 = time.perf_counter()
            passed, details = fn(seed)
            return CheckResult(name, identity, bool(passed), time.perf_counter() - t0, details)

        check.check_name = name
        ALL_CHECKS.append(check)
        return check

    return register


@_check("witness-norm", "trace_norm(S(n)/n) = n for n = 2..6")
def check_01_witness_norm(seed):
    errs = {}
    for n in range(2, 7):
        errs[n] = abs(operators.trace_norm(kappa.normalized_swap(n, n)) - n)
    passed = all(e <= 1e-9 for e in errs.values())
    return passed, {"max_error": max(errs.values())}


@_check("kappa-closed-form",
        "witness value = min{n,n} with lower bound >= 0; cb(transpose_n) LB = UB = n for n = 2, 3")
def check_02_kappa_closed_form(seed):
    witness_errs, witness_bounds = {}, {}
    for n in range(1, 7):
        w = kappa.kappa_witness(n, n)
        witness_errs[n] = abs(w.value - kappa.kappa_exact(n, n))
        witness_bounds[n] = w.lower_bound.value
    cb_vals, cb_upper = {}, {}
    for n in (2, 3):
        est = kappa.cb_norm_estimate(MatrixMap.transpose(n))
        cb_vals[n], cb_upper[n] = est.value, est.upper.value
    passed = (all(e <= 1e-9 for e in witness_errs.values())
              and all(v >= -1e-9 for v in witness_bounds.values())
              and all(abs(b[n] - n) <= 1e-9 * n for b in (cb_vals, cb_upper) for n in b))
    return passed, {"witness_max_error": max(witness_errs.values()),
                    "witness_lower_bounds": witness_bounds, "cb": cb_vals, "cb_upper": cb_upper}


@_check("witness-block-positive",
        "S(m) block positive: lambda_min(S - Q^Gamma) + lambda_min(Q) >= 0, Q = S^Gamma, m = 2..4")
def check_03_witness_block_positive(seed):
    swaps = {m: operators.swap_operator(m) for m in (2, 3, 4)}
    bounds = {m: cones.lower_bound(s, operators.partial_transpose(s, "right")).value
              for m, s in swaps.items()}
    return all(v >= -1e-9 for v in bounds.values()), {"lower_bounds": bounds}


@_check("entangled-max-state",
        "H(m)/m is PSD yet PPT-violating with eigenvalue -1/m (m = 2, 3)")
def check_04_entangled_max_state(seed):
    details = {}
    passed = True
    for m in (2, 3):
        h = operators.h_operator(m)
        state = bipartite(h.matrix / m, m, m)
        psd = cones.is_psd(state)
        ppt = cones.ppt_check(state)
        pt_min = operators.min_eigenvalue(operators.partial_transpose(state, "right"))
        details[m] = {
            "psd": psd.status.value,
            "ppt": ppt.status.value,
            "pt_min_eigenvalue": pt_min,
        }
        passed = passed and psd.status is Status.IN and ppt.status is Status.OUT
        passed = passed and abs(pt_min + 1.0 / m) <= 1e-9
    return passed, details


@_check("choi-jamiolkowski",
        "choi = PT_right(jamiolkowski) and choi/map round trip, exact on 50 maps")
def check_05_choi_jamiolkowski(seed):
    rng = np.random.default_rng(seed)
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    max_pt = 0.0
    max_rt = 0.0
    for k in range(50):
        a, b = dims[k % len(dims)]
        psi = maps.random_map(a, b, rng)
        cm = maps.choi(psi)
        jm = maps.jamiolkowski(psi)
        pt = operators.partial_transpose(jm, "right")
        max_pt = max(max_pt, float(np.max(np.abs(pt.matrix - cm.matrix))))
        back = maps.map_from_choi(cm)
        max_rt = max(max_rt, float(np.max(np.abs(back.coeffs - psi.coeffs))))
    passed = max_pt < 1e-12 and max_rt < 1e-12
    return passed, {"max_pt_deviation": max_pt, "max_roundtrip_deviation": max_rt}


@_check("map-normalization",
        "rho0 o (Phi x id) = rho o (Psi x id) with Psi unital, 20 maps x 100 operators")
def check_06_normalization(seed):
    rng = np.random.default_rng(seed)
    specs = [(2, 2, False), (2, 2, True), (3, 2, False), (2, 3, False)] * 5
    max_dev = 0.0
    max_unital_dev = 0.0
    for n, m, singular in specs[:20]:
        phi = maps.random_positive_map(n, m, rng, singular_image=singular)
        psi, rho = maps.normalize_positive_map(phi)
        rep = maps.unitality_report(psi)
        eye = np.eye(m)
        max_unital_dev = max(
            max_unital_dev,
            float(np.max(np.abs(rep.image_of_identity.matrix - eye))),
        )
        for _ in range(100):
            x = bipartite(random_hermitian(n * m, rng).matrix, n, m)
            lhs = operators.rho0_apply(m, maps.apply_to_left_factor(phi, x))
            rhs = rho(maps.apply_to_left_factor(psi, x))
            max_dev = max(max_dev, abs(lhs - rhs))
    passed = max_dev <= 1e-9 and max_unital_dev <= 1e-9
    return passed, {"max_agreement_deviation": max_dev, "max_unitality_deviation": max_unital_dev}


@_check("simplex-tensor",
        "simplex(n-1) x simplex(m-1) has nm independent vertices, dimension nm-1")
def check_07_simplex_tensor(seed):
    details = {}
    passed = True
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        # a commutative algebra C^n has the simplex(n - 1) as its trace simplex
        rep = algebras.verify_trace_tensor(algebras.MultiMatrixAlgebra((1,) * n),
                                           algebras.MultiMatrixAlgebra((1,) * m))
        details[f"{n}x{m}"] = {"vertices": rep.tensor_vertex_count,
                               "dimension": rep.tensor_dimension}
        passed = passed and rep.passes
    return passed, details


@_check("dimension-and-bound", "dim(min_tensor(square, square)) = 8; 0 < relative bound < 10")
def check_08_dimension_and_bound(seed):
    sq = polytopes.square()
    mn = polytopes.min_tensor(sq, sq)
    dim = polytopes.affine_dimension(mn)
    mx = polytopes.max_tensor_polytope(sq, sq)
    r = polytopes.relative_bound(mn, mx)
    passed = dim == 8 and 0.0 < r < 10.0
    return passed, {"dimension": dim, "relative_bound": r}


@_check("barker-gap", "square x square has a gap point; a simplex factor forces min = max")
def check_09_barker_gap(seed):
    sq = polytopes.square()
    gap = polytopes.barker_gap(sq, sq)
    gap_ok = (
        gap is not None
        and gap.max_verdict.status is Status.IN
        and gap.min_verdict.status is Status.OUT
        and gap.margin > 1e-6
    )
    none_ok = True
    simplex_cases = {}
    for k in (0, 1, 2):
        for label, other in [("simplex1", polytopes.simplex(1)),
                             ("simplex2", polytopes.simplex(2)),
                             ("square", sq)]:
            res = polytopes.barker_gap(polytopes.simplex(k), other)
            simplex_cases[f"simplex{k}-{label}"] = res is None
            none_ok = none_ok and res is None
    return gap_ok and none_ok, {"gap_margin": None if gap is None else gap.margin,
                                "simplex_cases": simplex_cases}


@_check("cone-algebra-witness",
        "X(s,t) = st S is nonpositive, yet on product states >= st lambda_min(S^Gamma) >= 0")
def check_10_cone_algebra_witness(seed):
    rep = algebras.verify_X_separating(2)
    passed = rep.passes and rep.most_negative_eigenvalue <= -1.0 + 1e-9
    return passed, {
        "most_negative_eigenvalue": rep.most_negative_eigenvalue,
        "separable_min": rep.separable_min,
    }


@_check("riesz-failure", "2x2 matrix order has no Riesz interpolation: all three sub-checks")
def check_11_riesz(seed):
    rep = algebras.riesz_counterexample_check()
    return rep.passes, {
        "dominated_ok": rep.dominated_ok,
        "not_below_zero_ok": rep.not_below_zero_ok,
        "interpolation_ok": rep.interpolation_ok,
        "e11_e22_pairing": rep.e11_e22_pairing,
    }


@_check("trace-simplex-tensor", "trace simplexes tensor multiplicatively, pairwise and three-fold")
def check_12_trace_simplex_tensor(seed):
    pool = [(1,), (2,), (2, 3), (2, 2, 2)]
    results = {}
    passed = True
    for blocks_a in pool:
        for blocks_b in pool:
            rep = algebras.verify_trace_tensor(algebras.MultiMatrixAlgebra(blocks_a),
                                               algebras.MultiMatrixAlgebra(blocks_b))
            results[f"{blocks_a}x{blocks_b}"] = rep.passes
            passed = passed and rep.passes
    t = algebras.trace_simplex(algebras.MultiMatrixAlgebra((2, 2)))
    tri = polytopes.min_tensor(polytopes.min_tensor(t, t), t)
    iter_ok = polytopes.affine_dimension(tri) == 7
    passed = passed and iter_ok
    results["iterated-2,2^3"] = iter_ok
    return passed, results


def _random_separable(n, m, rng):
    """A random mixture of one to three product states."""
    k = int(rng.integers(1, 4))
    raw = rng.dirichlet(np.ones(k))
    mats = []
    for w in raw:
        vec = cones.random_product_state(n, m, rng)
        v = vec.kron
        mats.append(w * np.outer(v, v.conj()))
    return bipartite(sum(mats), n, m)


def _random_block_positive(n, m, rng):
    """W = alpha P + (1 - alpha) Q^Gamma for random states P and Q, with its
    level-1 certificate: lower_bound(W, (1 - alpha) Q) is
    alpha lambda_min(P) + (1 - alpha) lambda_min(Q) >= 0."""
    p = operators.random_density(n * m, rng).matrix
    q = bipartite(operators.random_density(n * m, rng).matrix, n, m)
    alpha = rng.uniform(0.2, 0.8)
    w = bipartite(alpha * p + (1 - alpha) * operators.partial_transpose(q, "right").matrix, n, m)
    return w, cones.lower_bound(w, bipartite((1 - alpha) * q.matrix, n, m))


@_check("cone-duality",
        "separable x block-positive trace pairings are nonnegative (10^4 pairs)")
def check_13_duality(seed):
    rng = np.random.default_rng(seed)
    details = {}
    passed = True
    for n, m in [(2, 2), (2, 3)]:
        ts = []
        for i in range(100):
            t = _random_separable(n, m, rng)
            if i < 3:
                verdict = cones.separable_decompose(t)
                if verdict.status is not Status.IN:
                    passed = False
            ts.append(t.matrix)
        ws = []
        for _ in range(100):
            w, cert = _random_block_positive(n, m, rng)
            if cert.value < -1e-9:
                passed = False
                continue
            ws.append(w.matrix)
        vals = np.einsum("aij,bji->ab", np.array(ts), np.array(ws)).real
        details[f"{n}x{m}"] = {"pairings": int(vals.size), "min_pairing": float(vals.min())}
        passed = passed and vals.min() >= -1e-9
    return passed, details

