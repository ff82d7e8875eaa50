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

from . import acceptance, algebras, cones, kappa, maps, polytopes
from .cones import OptimizerConfig
from .serialize import (
    MalformedInput,
    bipartite_from_dict,
    load_json,
    map_from_dict,
    polytope_from_dict,
    to_json,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65

# tolerance of each membership test when --tol is not given; map-check
# tests block positivity of the Jamiolkowski matrix
DEFAULT_TOL = {"psd": cones.SPECTRAL_TOL, "ppt": cones.SPECTRAL_TOL,
               "separable": cones.SPECTRAL_TOL, "block-positive": cones.OPTIMIZER_TOL}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _positive(kind, least=None):
    """argparse type for a finite number of ``kind`` (int or float) above 0,
    or at least ``least`` when that is given."""

    def convert(text: str):
        try:
            value = kind(text)
            ok = (value > 0 if least is None else value >= least) and value < float("inf")
        except ValueError:
            ok = False
        if not ok:
            want = f"a positive {kind.__name__}" if least is None else f"{kind.__name__} >= {least}"
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return value

    return convert


def _on_input(fn, *args, **kwargs):
    """Call ``fn``; its ValueError means the input lies outside what it
    supports, which is malformed input (exit 65), not a verdict."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


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
    tol = DEFAULT_TOL[args.cone] if args.tol is None else args.tol
    if args.cone == "psd":
        verdict = cones.is_psd(op, tol)
    elif args.cone == "block-positive":
        verdict = cones.is_block_positive(op, tol, cfg)
    elif args.cone == "ppt":
        verdict = cones.ppt_check(op, tol)
    elif args.cone == "separable":
        # A PPT violation certifies Out with a witness; only the search can say In.
        verdict = cones.ppt_check(op, tol)
        if verdict.status is not cones.Status.OUT:
            search = OptimizerConfig(starts=max(8, args.budget // 5), steps=200, seed=args.seed)
            verdict = _on_input(cones.separable_decompose, op, search)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown cone {args.cone}")
    return (
        {"status": verdict.status.value, "cone": args.cone, "n": op.n, "m": op.m},
        {"verdict": to_json(verdict)},
    )


def _cmd_choi(args) -> tuple[dict, dict]:
    phi = map_from_dict(load_json(args.map))
    c = maps.choi(phi)
    j = maps.jamiolkowski(phi)
    results = {
        "status": "pass",
        "choi": to_json(c),
        "jamiolkowski": to_json(j),
    }
    return results, {}


def _cmd_map_check(args) -> tuple[dict, dict]:
    phi = map_from_dict(load_json(args.map))
    cfg = OptimizerConfig(starts=args.budget, seed=args.seed)
    tol = DEFAULT_TOL["block-positive"] if args.tol is None else args.tol
    verdict = maps.is_positive_map(phi, tol, cfg)
    report = maps.unitality_report(phi)
    results = {
        "status": verdict.status.value,
        "positive": verdict.status.value,
        "is_unital": report.is_unital,
        "normalized_trace_of_image": report.normalized_trace_of_image,
        "image_of_identity": to_json(report.image_of_identity),
    }
    return results, {"verdict": to_json(verdict)}


def _cmd_kappa(args) -> tuple[dict, dict]:
    cb_map = map_from_dict(load_json(args.estimate_cb)) if args.estimate_cb else None
    cb_cfg = OptimizerConfig(starts=args.budget, steps=kappa.CB_CFG.steps, seed=args.seed)
    rep = _on_input(kappa.kappa_report, args.n, args.m, cb_map=cb_map, cb_cfg=cb_cfg)
    results = {
        "status": "pass",
        "n": rep.n,
        "m": rep.m,
        "exact": rep.exact,
        "witness_lower_bound": rep.witness_lower_bound,
        "cb_estimate": rep.cb_estimate,
        "cb_upper_bound": rep.cb_upper_bound,
    }
    return results, {"witness": to_json(rep.witness), "cb_estimate": to_json(rep.cb)}


def _cmd_polytope(args) -> tuple[dict, dict]:
    k1 = _on_input(polytope_from_dict, load_json(args.k1))
    k2 = _on_input(polytope_from_dict, load_json(args.k2))
    mn = _on_input(polytopes.min_tensor, k1, k2)
    results = {
        "status": "pass",
        "min_tensor": to_json(mn),
        "min_vertex_count": mn.n_vertices,
        "dimension": _on_input(polytopes.affine_dimension, mn),
    }
    certificates: dict = {}
    if args.gap or args.relative_bound:
        mx = _on_input(polytopes.max_tensor_polytope, k1, k2)
        results["max_vertex_count"] = mx.n_vertices
        if args.relative_bound:
            results["relative_bound"] = _on_input(polytopes.relative_bound, mn, mx)
        if args.gap:
            gap = _on_input(polytopes.gap_among, mx, k1, k2)
            results["gap"] = None
            if gap is not None:
                results.update(gap=to_json(gap.functional.matrix), gap_margin=gap.margin)
                certificates = {"gap_max_side": to_json(gap.max_verdict),
                                "gap_min_side": to_json(gap.min_verdict)}
    return results, certificates


def _check_report(rep) -> tuple[dict, dict]:
    """Pass or fail by ``passes``, every other field, and the certificate as ``separable_half``."""
    results = {"status": "pass" if rep.passes else "fail", **to_json(rep)}
    cert = results.pop("certificate", None)
    return results, {} if cert is None else {"separable_half": cert}


def _cmd_witness_x(args) -> tuple[dict, dict]:
    try:
        grid = tuple(float(s) for s in args.grid.split(","))
    except ValueError as exc:
        raise UsageError(f"bad grid {args.grid!r}: {exc}") from exc
    return _check_report(_on_input(algebras.verify_X_separating, args.n, grid))


def _cmd_riesz(args) -> tuple[dict, dict]:
    return _check_report(algebras.riesz_counterexample_check())


def _parse_blocks(text: str) -> algebras.MultiMatrixAlgebra:
    try:
        return algebras.MultiMatrixAlgebra(tuple(int(b) for b in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad block list {text!r}: {exc}") from exc


def _cmd_trace_simplex(args) -> tuple[dict, dict]:
    a = _parse_blocks(args.a)
    b = _parse_blocks(args.b)
    return _check_report(algebras.verify_trace_tensor(a, b))


def _cmd_reproduce(args) -> tuple[dict, dict]:
    if args.only:
        selected = [c for c in acceptance.ALL_CHECKS
                    if args.only in c.check_name or args.only in c.__name__]
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
    mem.add_argument("--tol", type=_positive(float, least=0), default=None)
    mem.add_argument("--seed", type=_positive(int, least=0), default=0)
    mem.add_argument("--budget", type=_positive(int), default=200)
    mem.set_defaults(handler=_cmd_membership)

    ch = sub.add_parser("choi", help="Choi and Jamiolkowski matrices of a map")
    ch.add_argument("--map", required=True)
    ch.set_defaults(handler=_cmd_choi, seed=0)

    mc = sub.add_parser("map-check", help="positivity and unitality of a map")
    mc.add_argument("--map", required=True)
    mc.add_argument("--tol", type=_positive(float, least=0), default=None)
    mc.add_argument("--seed", type=_positive(int, least=0), default=0)
    mc.add_argument("--budget", type=_positive(int), default=200)
    mc.set_defaults(handler=_cmd_map_check)

    ka = sub.add_parser("kappa", help="max-norm closed form and cb-norm bounds")
    ka.add_argument("--n", type=_positive(int), required=True)
    ka.add_argument("--m", type=_positive(int), required=True)
    ka.add_argument("--estimate-cb", default=None)
    ka.add_argument("--seed", type=_positive(int, least=0), default=0)
    ka.add_argument("--budget", type=_positive(int), default=100)
    ka.set_defaults(handler=_cmd_kappa)

    po = sub.add_parser("polytope", help="tensor products of vertex-listed polytopes")
    po.add_argument("action", choices=["tensor"])
    po.add_argument("--k1", required=True)
    po.add_argument("--k2", required=True)
    po.add_argument("--gap", action="store_true")
    po.add_argument("--relative-bound", action="store_true")
    po.set_defaults(handler=_cmd_polytope, seed=0)

    ba = sub.add_parser("barker", help="find a min/max tensor gap point (polytope tensor --gap)")
    ba.add_argument("--k1", required=True)
    ba.add_argument("--k2", required=True)
    ba.set_defaults(handler=_cmd_polytope, seed=0, action="tensor", gap=True, relative_bound=False)

    wx = sub.add_parser("witness-x", help="grid witness X(s,t) = st S verification")
    wx.add_argument("--n", type=_positive(int, least=2), required=True)
    wx.add_argument("--grid", default="0,0.5,1")
    wx.set_defaults(handler=_cmd_witness_x, seed=0)

    rz = sub.add_parser("riesz", help="2x2 Riesz interpolation failure, in closed form")
    rz.set_defaults(handler=_cmd_riesz, seed=0)

    ts = sub.add_parser("trace-simplex", help="trace simplex tensor arithmetic")
    ts.add_argument("--a", required=True, help="block sizes, e.g. 2,3")
    ts.add_argument("--b", required=True, help="block sizes, e.g. 2,5")
    ts.set_defaults(handler=_cmd_trace_simplex, seed=0)

    rp = sub.add_parser("reproduce", help="run the full acceptance suite")
    rp.add_argument("--quick", action="store_true", help="reduced optimizer budgets")
    rp.add_argument("--seed", type=_positive(int, least=0), default=0)
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
