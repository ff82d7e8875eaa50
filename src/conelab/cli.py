"""cone-lab: unified command-line surface with JSON run reports.

Exit codes: 0 for In / pass, 1 for Out / fail, 2 for Unknown, 64 for usage
errors, 65 for malformed input files.  All randomness sits behind a single
--seed flag (default 0); re-running a command with identical inputs and
seed reproduces the results section of the report bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import acceptance, algebras, cones, kappa, maps, polytopes
from .cones import (
    DecomposeBudget,
    OptimizerConfig,
    OptimizerTrace,
    SeparableDecomposition,
    SpectralCertificate,
    Verdict,
    WitnessCertificate,
)
from .kappa import CbConfig
from .polytopes import (
    ConvexWeightsCertificate,
    RayPairCertificate,
    SeparatingHyperplane,
)
from .serialize import (
    MalformedInput,
    bipartite_from_dict,
    bipartite_to_dict,
    hermitian_to_dict,
    load_json,
    map_from_dict,
    polytope_from_dict,
    polytope_to_dict,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _vector_pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def certificate_to_dict(cert) -> dict | None:
    if cert is None:
        return None
    if isinstance(cert, SpectralCertificate):
        return {
            "type": "spectral",
            "eigenvalue": cert.eigenvalue,
            "eigenvector": _vector_pairs(cert.eigenvector),
        }
    if isinstance(cert, WitnessCertificate):
        return {
            "type": "witness",
            "value": cert.value,
            "witness": bipartite_to_dict(cert.witness),
        }
    if isinstance(cert, OptimizerTrace):
        return {
            "type": "optimizer",
            "seed": cert.seed,
            "starts": cert.starts,
            "steps": cert.steps,
            "grid_points": cert.grid_points,
            "best_value": cert.best_value,
            "best_index": cert.best_index,
            "rounds": cert.rounds,
            "converged": cert.converged,
            "agreeing": cert.agreeing,
            "left": _vector_pairs(cert.best_vector.left),
            "right": _vector_pairs(cert.best_vector.right),
        }
    if isinstance(cert, SeparableDecomposition):
        return {
            "type": "decomposition",
            "weights": [float(w) for w in cert.weights],
            "residual": cert.residual,
            "factors": [
                {"left": _vector_pairs(f.left), "right": _vector_pairs(f.right)}
                for f in cert.factors
            ],
        }
    if isinstance(cert, RayPairCertificate):
        return {
            "type": "ray-pair",
            "ray_left": list(map(float, cert.ray_left)),
            "ray_right": list(map(float, cert.ray_right)),
            "value": cert.value,
        }
    if isinstance(cert, ConvexWeightsCertificate):
        return {
            "type": "convex-weights",
            "weights": [float(w) for w in cert.weights],
            "residual": cert.residual,
        }
    if isinstance(cert, SeparatingHyperplane):
        return {
            "type": "separating-hyperplane",
            "normal": list(map(float, cert.normal)),
            "offset": cert.offset,
            "margin": cert.margin,
        }
    return {"type": "opaque", "repr": repr(cert)}


def verdict_to_dict(v: Verdict) -> dict:
    return {"status": v.status.value, "certificate": certificate_to_dict(v.certificate)}


def _status_exit(status: str) -> int:
    return {"in": EXIT_PASS, "pass": EXIT_PASS, "out": EXIT_FAIL,
            "fail": EXIT_FAIL, "unknown": EXIT_UNKNOWN}[status]


def exit_code_for(report: dict) -> int:
    """Exit codes are a total function of the emitted report."""
    return _status_exit(report["results"]["status"])


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the results/certificates sections


def _cmd_membership(args) -> tuple[dict, dict]:
    doc = load_json(args.input)
    op = bipartite_from_dict(doc)
    cfg = OptimizerConfig(starts=args.budget, seed=args.seed)
    if args.cone == "psd":
        verdict = cones.is_psd(op, args.tol if args.tol is not None else 1e-9)
    elif args.cone == "block-positive":
        verdict = cones.is_block_positive(
            op, args.tol if args.tol is not None else 1e-6, cfg
        )
    elif args.cone == "ppt":
        verdict = cones.ppt_check(op, args.tol if args.tol is not None else 1e-9)
    elif args.cone == "separable":
        # A PPT violation certifies Out with a witness; only the search can say In.
        verdict = cones.ppt_check(op, args.tol if args.tol is not None else 1e-9)
        if verdict.status is not cones.Status.OUT:
            budget = DecomposeBudget(optimizer=OptimizerConfig(
                starts=max(8, args.budget // 5), steps=200, seed=args.seed))
            try:
                verdict = cones.separable_decompose(op, budget)
            except ValueError as exc:
                raise MalformedInput(str(exc)) from exc
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown cone {args.cone}")
    return (
        {"status": verdict.status.value, "cone": args.cone, "n": op.n, "m": op.m},
        {"verdict": verdict_to_dict(verdict)},
    )


def _cmd_choi(args) -> tuple[dict, dict]:
    phi = map_from_dict(load_json(args.map))
    c = maps.choi(phi)
    j = maps.jamiolkowski(phi)
    results = {
        "status": "pass",
        "choi": bipartite_to_dict(c),
        "jamiolkowski": bipartite_to_dict(j),
    }
    return results, {}


def _cmd_map_check(args) -> tuple[dict, dict]:
    phi = map_from_dict(load_json(args.map))
    cfg = OptimizerConfig(starts=args.budget, seed=args.seed)
    verdict = maps.is_positive_map(phi, args.tol if args.tol is not None else 1e-6, cfg)
    report = maps.unitality_report(phi)
    results = {
        "status": verdict.status.value,
        "positive": verdict.status.value,
        "is_unital": report.is_unital,
        "normalized_trace_of_image": report.normalized_trace_of_image,
        "image_of_identity": hermitian_to_dict(report.image_of_identity),
    }
    return results, {"verdict": verdict_to_dict(verdict)}


def _cmd_kappa(args) -> tuple[dict, dict]:
    cb_map = map_from_dict(load_json(args.estimate_cb)) if args.estimate_cb else None
    cb_cfg = CbConfig(starts=args.budget, seed=args.seed)
    rep = kappa.kappa_report(args.n, args.m, cb_map=cb_map, cb_cfg=cb_cfg)
    results = {
        "status": "pass",
        "n": rep.n,
        "m": rep.m,
        "exact": rep.exact,
        "witness_lower_bound": rep.witness_lower_bound,
        "cb_estimate": rep.cb_estimate,
    }
    return results, {"witness": bipartite_to_dict(rep.witness)}


def _load_polytope(path: str) -> polytopes.Polytope:
    return polytope_from_dict(load_json(path))


def _cmd_polytope(args) -> tuple[dict, dict]:
    if args.action != "tensor":
        raise UsageError("supported polytope action: tensor")
    k1 = _load_polytope(args.k1)
    k2 = _load_polytope(args.k2)
    mn = polytopes.min_tensor(k1, k2)
    results = {
        "status": "pass",
        "min_tensor": polytope_to_dict(mn),
        "min_vertex_count": mn.n_vertices,
        "dimension": polytopes.affine_dimension(mn),
    }
    certificates: dict = {}
    if args.gap or args.relative_bound:
        mx = polytopes.max_tensor_polytope(k1, k2)
        results["max_vertex_count"] = mx.n_vertices
        if args.relative_bound:
            results["relative_bound"] = polytopes.relative_bound(mn, mx)
        if args.gap:
            gap_results, certificates = _gap_report(k1, k2)
            results.update(gap_results)
    return results, certificates


def _gap_report(k1: polytopes.Polytope, k2: polytopes.Polytope) -> tuple[dict, dict]:
    """Results and certificates of the gap finder between the tensor products."""
    gap = polytopes.barker_gap(k1, k2)
    if gap is None:
        return {"gap": None}, {}
    results = {
        "gap": [[float(v) for v in row] for row in gap.functional.matrix],
        "gap_margin": gap.margin,
    }
    certificates = {
        "gap_max_side": verdict_to_dict(gap.max_verdict),
        "gap_min_side": verdict_to_dict(gap.min_verdict),
    }
    return results, certificates


def _cmd_barker(args) -> tuple[dict, dict]:
    results, certificates = _gap_report(_load_polytope(args.k1), _load_polytope(args.k2))
    return {"status": "pass", **results}, certificates


def _cmd_witness_x(args) -> tuple[dict, dict]:
    try:
        grid = tuple(float(s) for s in args.grid.split(","))
    except ValueError as exc:
        raise UsageError(f"bad grid {args.grid!r}: {exc}") from exc
    try:
        rep = algebras.verify_X_separating(args.n, grid, samples=args.samples, seed=args.seed)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    results = {
        "status": "pass" if rep.passes else "fail",
        "n": rep.n,
        "grid": list(rep.grid),
        "samples": rep.samples,
        "most_negative_eigenvalue": rep.most_negative_eigenvalue,
        "argmin_pair": list(rep.argmin_pair),
        "separable_min": rep.separable_min,
        "nonpositive_ok": rep.nonpositive_ok,
        "separable_ok": rep.separable_ok,
    }
    return results, {}


def _cmd_riesz(args) -> tuple[dict, dict]:
    rep = algebras.riesz_counterexample_check(step=args.step, zero_threshold=args.threshold)
    results = {
        "status": "pass" if rep.passes else "fail",
        "dominated_ok": rep.dominated_ok,
        "not_below_zero_ok": rep.not_below_zero_ok,
        "interpolation_ok": rep.interpolation_ok,
        "eigs_f": list(rep.eigs_f),
        "eigs_e11_minus_f": list(rep.eigs_e11_minus_f),
        "eigs_e22_minus_f": list(rep.eigs_e22_minus_f),
        "admissible_points": rep.admissible_points,
        "max_admissible_norm": rep.max_admissible_norm,
        "grid_step": rep.grid_step,
        "zero_threshold": rep.zero_threshold,
    }
    return results, {}


def _parse_blocks(text: str) -> algebras.MultiMatrixAlgebra:
    try:
        return algebras.MultiMatrixAlgebra(tuple(int(b) for b in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad block list {text!r}: {exc}") from exc


def _cmd_trace_simplex(args) -> tuple[dict, dict]:
    a = _parse_blocks(args.a)
    b = _parse_blocks(args.b)
    rep = algebras.verify_trace_tensor(a, b)
    results = {
        "status": "pass" if rep.passes else "fail",
        "blocks_a": list(rep.blocks_a),
        "blocks_b": list(rep.blocks_b),
        "blocks_product": list(rep.blocks_product),
        "tensor_vertex_count": rep.tensor_vertex_count,
        "tensor_dimension": rep.tensor_dimension,
        "affinely_independent": rep.affinely_independent,
        "isomorphic": rep.isomorphic,
    }
    return results, {}


def _cmd_reproduce(args) -> tuple[dict, dict]:
    if args.only:
        selected = [c for c in acceptance.ALL_CHECKS if args.only in c.__name__]
        if not selected:
            raise UsageError(f"no acceptance check matches {args.only!r}")
        checks = [c(args.quick, args.seed) for c in selected]
    else:
        checks = acceptance.run_all(quick=args.quick, seed=args.seed)
    results = {
        "status": "pass" if all(c.passed for c in checks) else "fail",
        "quick": args.quick,
        "checks": [
            {
                "name": c.name,
                "identity": c.identity,
                "passed": c.passed,
                "wall_time": round(c.wall_time, 3),
            }
            for c in checks
        ],
    }
    return results, {}


def build_parser() -> _Parser:
    p = _Parser(prog="cone-lab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "table"], default="json")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: _Parser(parents=[common], **kw))

    mem = sub.add_parser("membership", help="cone membership oracle with certificate")
    mem.add_argument("--cone", required=True,
                     choices=["psd", "separable", "block-positive", "ppt"])
    mem.add_argument("--input", required=True)
    mem.add_argument("--tol", type=float, default=None)
    mem.add_argument("--seed", type=int, default=0)
    mem.add_argument("--budget", type=int, default=200)
    mem.set_defaults(handler=_cmd_membership)

    ch = sub.add_parser("choi", help="Choi and Jamiolkowski matrices of a map")
    ch.add_argument("--map", required=True)
    ch.set_defaults(handler=_cmd_choi, seed=0)

    mc = sub.add_parser("map-check", help="positivity and unitality of a map")
    mc.add_argument("--map", required=True)
    mc.add_argument("--tol", type=float, default=None)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--budget", type=int, default=200)
    mc.set_defaults(handler=_cmd_map_check)

    ka = sub.add_parser("kappa", help="max-norm closed form and lower bounds")
    ka.add_argument("--n", type=int, required=True)
    ka.add_argument("--m", type=int, required=True)
    ka.add_argument("--estimate-cb", default=None)
    ka.add_argument("--seed", type=int, default=0)
    ka.add_argument("--budget", type=int, default=100)
    ka.set_defaults(handler=_cmd_kappa)

    po = sub.add_parser("polytope", help="tensor products of vertex-listed polytopes")
    po.add_argument("action", choices=["tensor"])
    po.add_argument("--k1", required=True)
    po.add_argument("--k2", required=True)
    po.add_argument("--gap", action="store_true")
    po.add_argument("--relative-bound", action="store_true")
    po.set_defaults(handler=_cmd_polytope, seed=0)

    ba = sub.add_parser("barker", help="find a min/max tensor gap point")
    ba.add_argument("--k1", required=True)
    ba.add_argument("--k2", required=True)
    ba.set_defaults(handler=_cmd_barker, seed=0)

    wx = sub.add_parser("witness-x", help="grid witness X(s,t) = st S verification")
    wx.add_argument("--n", type=int, required=True)
    wx.add_argument("--grid", default="0,0.5,1")
    wx.add_argument("--samples", type=int, default=100_000)
    wx.add_argument("--seed", type=int, default=0)
    wx.set_defaults(handler=_cmd_witness_x)

    rz = sub.add_parser("riesz", help="2x2 Riesz interpolation failure check")
    rz.add_argument("--step", type=float, default=0.02)
    rz.add_argument("--threshold", type=float, default=0.05)
    rz.set_defaults(handler=_cmd_riesz, seed=0)

    ts = sub.add_parser("trace-simplex", help="trace simplex tensor arithmetic")
    ts.add_argument("--a", required=True, help="block sizes, e.g. 2,3")
    ts.add_argument("--b", required=True, help="block sizes, e.g. 2,5")
    ts.set_defaults(handler=_cmd_trace_simplex, seed=0)

    rp = sub.add_parser("reproduce", help="run the full acceptance suite")
    rp.add_argument("--quick", action="store_true", help="reduced optimizer budgets")
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--only", default=None, help="substring filter on check names")
    rp.set_defaults(handler=_cmd_reproduce)

    return p


def _echo_inputs(args) -> dict:
    skip = {"handler", "command", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _print_table(report: dict) -> None:
    results = report["results"]
    if "checks" in results:
        print(f"{'status':<8} {'time':>8}  {'check':<24} identity")
        for c in results["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            print(f"{mark:<8} {c['wall_time']:>7.2f}s  {c['name']:<24} {c['identity']}")
        print(f"overall: {results['status']}")
        return
    for key, value in results.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        print(f"{key:<28} {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    t0 = time.perf_counter()
    try:
        results, certificates = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedInput as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA

    report = {
        "command": args.command,
        "inputs": _echo_inputs(args),
        "results": results,
        "certificates": certificates,
        "seed": getattr(args, "seed", 0),
        "wall_time": round(time.perf_counter() - t0, 4),
    }
    if args.format == "table":
        _print_table(report)
    else:
        print(json.dumps(report, indent=2))
    return exit_code_for(report)


if __name__ == "__main__":
    sys.exit(main())
