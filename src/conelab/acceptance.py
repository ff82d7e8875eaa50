"""The acceptance suite: one callable per criterion, shared by the test
suite and the ``reproduce`` CLI command.

Each check returns a CheckResult with the mathematical identity it
validates, a pass flag, wall time, and enough detail to audit the run.
``quick=True`` lowers optimizer budgets without changing any assertion.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebras, cones, kappa, maps, operators, polytopes
from .cones import OptimizerConfig, Status
from .kappa import CbConfig
from .maps import MatrixMap
from .operators import bipartite, random_hermitian


@dataclass(frozen=True)
class CheckResult:
    name: str
    identity: str
    passed: bool
    wall_time: float
    details: dict = field(default_factory=dict)


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(quick: bool = False, seed: int = 0) -> CheckResult:
        t0 = time.perf_counter()
        name, identity, passed, details = fn(quick, seed)
        return CheckResult(name, identity, bool(passed), time.perf_counter() - t0, details)

    return wrapper


def _opt_cfg(quick: bool, seed: int = 0) -> OptimizerConfig:
    if quick:
        return OptimizerConfig(starts=40, steps=120, seed=seed)
    return OptimizerConfig(seed=seed)


@_timed
def check_01_witness_norm(quick, seed):
    errs = {}
    for n in range(2, 7):
        s = operators.swap_operator(n)
        val = operators.trace_norm(bipartite(s.matrix / n, n, n))
        errs[n] = abs(val - n)
    passed = all(e <= 1e-9 for e in errs.values())
    return (
        "witness-norm",
        "trace_norm(S(n)/n) = n for n = 2..6",
        passed,
        {"max_error": max(errs.values())},
    )


@_timed
def check_02_kappa_closed_form(quick, seed):
    witness_errs = {}
    cfg = _opt_cfg(quick, seed)
    for n in range(1, 7):
        w = kappa.kappa_witness(n, cfg=cfg if n <= 3 else OptimizerConfig(starts=60, steps=150, seed=seed))
        witness_errs[n] = abs(w.value - kappa.kappa_exact(n, n))
    cb_cfg = CbConfig(starts=30 if quick else 100, steps=100 if quick else 300, seed=seed)
    cb_vals = {}
    for n in (2, 3):
        est = kappa.cb_norm_estimate(MatrixMap.transpose(n), cb_cfg)
        cb_vals[n] = est.value
    passed = all(e <= 1e-9 for e in witness_errs.values()) and all(
        n * 0.95 <= cb_vals[n] <= n + 1e-9 for n in cb_vals
    )
    return (
        "kappa-closed-form",
        "witness value = min{n,n}; cb(transpose_n) in [0.95 n, n] for n = 2, 3",
        passed,
        {"witness_max_error": max(witness_errs.values()), "cb": cb_vals},
    )


@_timed
def check_03_witness_block_positive(quick, seed):
    cfg = _opt_cfg(quick, seed)
    minima = {}
    for m in (2, 3, 4):
        verdict = cones.is_block_positive(operators.swap_operator(m), tol=1e-6, cfg=cfg)
        minima[m] = verdict.certificate.best_value
        if verdict.status is not Status.IN:
            return (
                "witness-block-positive",
                "S(m) is block positive for m = 2, 3, 4",
                False,
                {"minima": minima},
            )
    rng = np.random.default_rng(seed)
    n_samples = 10_000
    s2 = operators.swap_operator(2).matrix
    v1 = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    v2 = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
    v2 /= np.linalg.norm(v2, axis=1, keepdims=True)
    prod = np.einsum("bi,bj->bij", v1, v2).reshape(n_samples, 4)
    vals = np.einsum("bi,ij,bj->b", prod.conj(), s2, prod).real
    passed = all(v >= -1e-6 for v in minima.values()) and vals.min() >= -1e-9
    return (
        "witness-block-positive",
        "S(m) block positive (m = 2, 3, 4); <product state, S(2)> >= 0 on 10^4 samples",
        passed,
        {"minima": minima, "sample_min": float(vals.min())},
    )


@_timed
def check_04_entangled_max_state(quick, seed):
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
    return (
        "entangled-max-state",
        "H(m)/m is PSD yet PPT-violating with eigenvalue -1/m (m = 2, 3)",
        passed,
        details,
    )


@_timed
def check_05_choi_jamiolkowski(quick, seed):
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
    return (
        "choi-jamiolkowski",
        "choi = PT_right(jamiolkowski) and choi/map round trip, exact on 50 maps",
        passed,
        {"max_pt_deviation": max_pt, "max_roundtrip_deviation": max_rt},
    )


@_timed
def check_06_normalization(quick, seed):
    rng = np.random.default_rng(seed)
    cfg = OptimizerConfig(starts=30 if quick else 60, steps=100 if quick else 200, seed=seed)
    specs = [(2, 2, False), (2, 2, True), (3, 2, False), (2, 3, False)] * 5
    max_dev = 0.0
    max_unital_dev = 0.0
    for n, m, singular in specs[:20]:
        phi = maps.random_positive_map(n, m, rng, singular_image=singular)
        psi, rho = maps.normalize_positive_map(phi, cfg=cfg)
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
    return (
        "map-normalization",
        "rho0 o (Phi x id) = rho o (Psi x id) with Psi unital, 20 maps x 100 operators",
        passed,
        {"max_agreement_deviation": max_dev, "max_unitality_deviation": max_unital_dev},
    )


@_timed
def check_07_simplex_tensor(quick, seed):
    details = {}
    passed = True
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        t = polytopes.min_tensor(polytopes.simplex(n - 1), polytopes.simplex(m - 1))
        dim = polytopes.affine_dimension(t)
        details[f"{n}x{m}"] = {"vertices": t.n_vertices, "dimension": dim}
        passed = passed and t.n_vertices == n * m and dim == n * m - 1
    return (
        "simplex-tensor",
        "simplex(n-1) x simplex(m-1) has nm independent vertices, dimension nm-1",
        passed,
        details,
    )


@_timed
def check_08_dimension_and_bound(quick, seed):
    sq = polytopes.square()
    mn = polytopes.min_tensor(sq, sq)
    dim = polytopes.affine_dimension(mn)
    mx = polytopes.max_tensor_polytope(sq, sq)
    r = polytopes.relative_bound(mn, mx)
    passed = dim == 8 and 0.0 < r < 10.0
    return (
        "dimension-and-bound",
        "dim(min_tensor(square, square)) = 8; 0 < relative bound < 10",
        passed,
        {"dimension": dim, "relative_bound": r},
    )


@_timed
def check_09_barker_gap(quick, seed):
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
    return (
        "barker-gap",
        "square x square has a gap point; a simplex factor forces min = max",
        gap_ok and none_ok,
        {"gap_margin": None if gap is None else gap.margin, "simplex_cases": simplex_cases},
    )


@_timed
def check_10_cone_algebra_witness(quick, seed):
    samples = 20_000 if quick else 100_000
    rep = algebras.verify_X_separating(2, (0.0, 0.5, 1.0), samples=samples, seed=seed)
    passed = (
        rep.passes
        and rep.most_negative_eigenvalue <= -1.0 + 1e-9
        and rep.argmin_pair == (1.0, 1.0)
        and rep.separable_min >= -1e-9
    )
    return (
        "cone-algebra-witness",
        "X(s,t) = st S is nonpositive yet nonnegative on all product states",
        passed,
        {
            "most_negative_eigenvalue": rep.most_negative_eigenvalue,
            "argmin_pair": rep.argmin_pair,
            "separable_min": rep.separable_min,
            "samples": rep.samples,
        },
    )


@_timed
def check_11_riesz(quick, seed):
    rep = algebras.riesz_counterexample_check()
    rep2 = algebras.riesz_counterexample_check()
    deterministic = rep == rep2
    return (
        "riesz-failure",
        "2x2 matrix order has no Riesz interpolation: all three sub-checks",
        rep.passes and deterministic,
        {
            "dominated_ok": rep.dominated_ok,
            "not_below_zero_ok": rep.not_below_zero_ok,
            "interpolation_ok": rep.interpolation_ok,
            "max_admissible_norm": rep.max_admissible_norm,
            "deterministic": deterministic,
        },
    )


@_timed
def check_12_trace_simplex_tensor(quick, seed):
    from .algebras import MultiMatrixAlgebra, algebra_tensor, trace_simplex, verify_trace_tensor

    pool = [(1,), (2,), (2, 3), (2, 2, 2)]
    results = {}
    passed = True
    for blocks_a in pool:
        for blocks_b in pool:
            rep = verify_trace_tensor(MultiMatrixAlgebra(blocks_a), MultiMatrixAlgebra(blocks_b))
            results[f"{blocks_a}x{blocks_b}"] = rep.passes
            passed = passed and rep.passes
    a = MultiMatrixAlgebra((2, 2))
    iterated = algebra_tensor(algebra_tensor(a, a), a)
    tri = polytopes.min_tensor(
        polytopes.min_tensor(trace_simplex(a), trace_simplex(a)), trace_simplex(a)
    )
    iter_ok = (
        iterated.n_blocks == 8
        and tri.n_vertices == 8
        and polytopes.affine_dimension(tri) == 7
    )
    passed = passed and iter_ok
    results["iterated-2,2^3"] = iter_ok
    return (
        "trace-simplex-tensor",
        "trace simplexes tensor multiplicatively, pairwise and three-fold",
        passed,
        results,
    )


def _random_separable(n, m, rng, max_terms=3):
    k = int(rng.integers(1, max_terms + 1))
    raw = rng.dirichlet(np.ones(k))
    mats = []
    for w in raw:
        vec = cones.random_product_state(n, m, rng)
        v = vec.kron
        mats.append(w * np.outer(v, v.conj()))
    return bipartite(sum(mats), n, m)


def _random_block_positive(n, m, rng):
    p = operators.random_density(n * m, rng).matrix
    q = operators.random_density(n * m, rng).matrix
    alpha = rng.uniform(0.2, 0.8)
    qpt = operators.partial_transpose(bipartite(q, n, m), "right").matrix
    return bipartite(alpha * p + (1 - alpha) * qpt, n, m)


@_timed
def check_13_duality(quick, seed):
    rng = np.random.default_rng(seed)
    cert_cfg = OptimizerConfig(starts=16 if quick else 24, steps=60 if quick else 100, seed=seed)
    batch = 50 if quick else 100
    details = {}
    passed = True
    for n, m in [(2, 2), (2, 3)]:
        ts = []
        for i in range(batch):
            t = _random_separable(n, m, rng)
            if i < 3:
                verdict = cones.separable_decompose(t)
                if verdict.status is not Status.IN:
                    passed = False
            ts.append(t.matrix)
        ws = []
        for _ in range(batch):
            w = _random_block_positive(n, m, rng)
            verdict = cones.is_block_positive(w, cfg=cert_cfg)
            if verdict.status is not Status.IN:
                passed = False
                continue
            ws.append(w.matrix)
        vals = np.einsum("aij,bji->ab", np.array(ts), np.array(ws)).real
        details[f"{n}x{m}"] = {"pairings": int(vals.size), "min_pairing": float(vals.min())}
        passed = passed and vals.min() >= -1e-9
    return (
        "cone-duality",
        "separable x block-positive trace pairings are nonnegative (10^4 pairs)",
        passed,
        details,
    )


ALL_CHECKS = [
    check_01_witness_norm,
    check_02_kappa_closed_form,
    check_03_witness_block_positive,
    check_04_entangled_max_state,
    check_05_choi_jamiolkowski,
    check_06_normalization,
    check_07_simplex_tensor,
    check_08_dimension_and_bound,
    check_09_barker_gap,
    check_10_cone_algebra_witness,
    check_11_riesz,
    check_12_trace_simplex_tensor,
    check_13_duality,
]


def run_all(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    return [check(quick, seed) for check in ALL_CHECKS]
