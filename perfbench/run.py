#!/usr/bin/env python3
"""conelab benchmark: closed-loop workloads with checked verdicts.

    python3 perfbench/run.py --workload verdicts --seed 0 --seconds 30 --trace 0

One process, one client: each request is sent after the previous one has
returned and been checked against the ground truth of its seeded input.
BLAS runs on one thread.  A run makes max(2, seconds // pass_seconds)
passes over the workload's fixed batch, where pass_seconds is the time of
one pass on the reference machine, so two versions of the program do the
same work; on a machine slowed by other load it stops after two passes
once the next would end past 1.25 x seconds.  Other tenants of a shared
machine slow the process by up to 2x for seconds at a time, so each
request's wall time is paced: divided by the slowdown that a probe
(``speed.py``) measured while the request ran.  ``batch_s`` is the sum
over the batch of each request's mean paced time over the passes; paced
and wall times are also printed to standard error one request a line.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the passes alternate between
untraced and traced, the run fails unless both kinds give identical
verdicts and every traced pass the same per-layer counts, and it reports
the per-layer metrics of the fastest traced pass and the tracing overhead
(paced, like ``batch_s``); per-layer times are wall times.
Every run also compares its verdicts, and a traced run its counts, with
the last run of the same code, workload and seed, and fails loudly if they
differ.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"
SETUP_SAMPLES = 3
CAP = 1.25  # no pass starts that would end after CAP * --seconds

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "decided_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: span name -> the fields reported for it.
LAYERS = {
    "cones.is_block_positive": ("calls", "busy_s", "self_s"),
    "cones.block_positive_min": ("calls", "busy_s", "max_err"),
    "cones.separable_decompose": ("calls", "busy_s", "self_s", "in_rate"),
    "cones.least_squares": ("calls", "busy_s", "nfev"),
    "cones.nnls": ("calls", "busy_s"),
    "maps.is_positive_map": ("calls", "busy_s", "self_s"),
    "kappa.cb_norm_estimate": ("calls", "busy_s", "max_rel_err"),
    "polytopes.max_tensor_polytope": ("calls", "busy_s", "self_s"),
    "polytopes.barker_gap": ("calls", "busy_s", "self_s"),
    "polytopes.double_description": ("calls", "busy_s"),
    "polytopes.positive_ray_generators": ("calls", "busy_s"),
    "polytopes.relative_bound": ("calls", "busy_s"),
    "polytopes.min_tensor": ("calls", "busy_s"),
    "polytopes.linprog": ("calls", "busy_s"),
    "polytopes.Polytope": ("calls", "busy_s"),
    "trace": ("batch_s", "overhead_s"),
}
FIELD_UNITS = {
    "calls": "count",
    "nfev": "count",
    "busy_s": "s",
    "self_s": "s",
    "batch_s": "s",
    "overhead_s": "s",
    "max_err": "abs",
    "max_rel_err": "ratio",
    "in_rate": "ratio",
}
# Counts that must repeat exactly for the same code, workload and seed.
COUNT_FIELDS = ("calls", "nfev", "in")


def per_layer_names() -> list[str]:
    return [f"{layer}.{f}" for layer, fields in LAYERS.items() for f in fields]


def unit_of(metric: str) -> str:
    return END_TO_END.get(metric) or FIELD_UNITS[metric.rsplit(".", 1)[1]]


def import_conelab():
    """conelab from this checkout's src/, never from anywhere else."""
    if not (SRC / "conelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no conelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conelab

    if Path(conelab.__file__).resolve().parent != (SRC / "conelab").resolve():
        sys.exit(f"perfbench: imported conelab from {conelab.__file__}, not {SRC}")
    return conelab


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(workload: str, seed: int) -> float:
    """Median paced time of fresh processes that import conelab and build
    and check the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        wall = time.perf_counter() - t0
        # The child runs the probe from before its imports to its end, and
        # reports the probe's own seconds and the slowdown it saw.
        spent, slowdown = map(float, out.split()[-2:])
        times.append((wall - spent) / slowdown)
    return statistics.median(times)


class Pass:
    """One pass over the batch: latencies, outcomes and failures.

    ``walls`` are the requests' wall times; ``latencies`` are the same
    without the probe's own time and divided by the slowdown the probe saw
    during each request."""

    def __init__(self, requests, probe: speed.SpeedProbe, recorder=None):
        self.recorder = recorder
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.outcomes: list = []
        self.failures: list[str] = []
        t0 = time.perf_counter()
        for i, req in enumerate(requests):
            if recorder is not None:
                recorder.request = i
            outcome = failure = None
            mark = probe.mark()
            start = time.perf_counter()
            try:
                result = req.call()
            except Exception as exc:  # a raised error counts as a failed request
                failure = exc
            wall = time.perf_counter() - start
            spent, slowdown = probe.since(mark)
            self.walls.append(wall)
            self.latencies.append((wall - spent) / slowdown)
            if failure is None:
                try:
                    outcome = req.judge(result)
                except Exception as exc:  # a wrong verdict or a certificate that fails
                    failure = exc
            self.outcomes.append(outcome)
            if failure is not None:
                self.failures.append(f"{req.label}: {type(failure).__name__}: {failure}")
        self.wall = time.perf_counter() - t0

    def signatures(self) -> list:
        return json.loads(json.dumps([o and o.signature for o in self.outcomes]))


def same(a, b) -> bool:
    """Equal verdict signatures: floats may differ by rounding noise only."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def mean_latencies(passes: list[Pass], attr: str = "latencies") -> list[float]:
    """Each request's mean latency over the passes."""
    return [statistics.fmean(lat) for lat in zip(*(getattr(p, attr) for p in passes))]


def check_repeatable(key: str, record: dict) -> list[str]:
    """Compare with the stored record of the same code, workload and seed,
    then store the union; return the fields that differ."""
    path = STATE / f"{key}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    diffs = [k for k, v in record.items() if k in stored and not same(stored[k], v)]
    STATE.mkdir(exist_ok=True)
    path.write_text(json.dumps({**stored, **record}, sort_keys=True))
    return diffs


def layer_metrics(recorder, outcomes) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and its counts for the gate."""
    summary = recorder.summary()
    values: dict[str, float] = {}
    for layer, fields in LAYERS.items():
        row = summary.get(layer, {})
        for f in fields:
            name = f"{layer}.{f}"
            if f == "in_rate":
                values[name] = row.get("in", 0) / row["calls"] if row.get("calls") else 0.0
            elif f in ("max_err", "max_rel_err"):
                values[name] = max((o.errors[name] for o in outcomes if o and name in o.errors),
                                   default=0.0)
            elif layer != "trace":
                values[name] = row.get(f, 0)
    counts = {f"{layer}.{f}": row[f] for layer, row in sorted(summary.items())
              for f in COUNT_FIELDS if f in row}
    return values, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # Before numpy loads; the set-up processes inherit it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.setup_only:
        with speed.SpeedProbe() as probe:
            import_conelab()
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.seed)
        print(*probe.since(0))
        return 0
    import_conelab()
    import spans
    from workloads import PASS_SECONDS, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    requests = WORKLOADS[args.workload](args.seed)
    n_passes = max(2, int(args.seconds // PASS_SECONDS[args.workload]))
    passes: list[Pass] = []
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        for i in range(n_passes):
            # A slowed machine cuts the run short instead of stretching it.
            if len(passes) >= 2 and time.perf_counter() - start + passes[-1].wall > CAP * args.seconds:
                break
            if args.trace and i % 2:
                with spans.Recorder() as recorder:
                    passes.append(Pass(requests, probe, recorder))
            else:
                passes.append(Pass(requests, probe))

    problems: list[str] = []
    if not all(same(p.signatures(), passes[0].signatures()) for p in passes):
        problems.append("verdicts differ between passes"
                        + (" (tracing is not transparent)" if args.trace else ""))
    record = {"signatures": passes[0].signatures()}
    attempted = sum(len(p.outcomes) for p in passes)
    if args.trace:
        plain, traced = passes[0::2], passes[1::2]
        best = min(traced, key=lambda p: p.wall)
        metrics, counts = layer_metrics(best.recorder, best.outcomes)
        if any(layer_metrics(p.recorder, p.outcomes)[1] != counts for p in traced):
            problems.append("per-layer counts differ between traced passes")
        metrics["trace.batch_s"] = sum(mean_latencies(traced))
        metrics["trace.overhead_s"] = sum(mean_latencies(traced)) - sum(mean_latencies(plain))
        record["counts"] = counts
    else:
        decided = sum(1 for p in passes for o in p.outcomes if o and o.decided)
        metrics = {
            "setup_s": setup_s,
            "batch_s": sum(mean_latencies(passes)),
            "decided_rate": decided / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    diffs = check_repeatable(f"{code_digest()}-{args.workload}-{args.seed}", record)
    if diffs:
        problems.append(f"not repeatable: {', '.join(diffs)} differ from the previous run "
                        f"of the same code, workload and seed")
    for req, t, w in zip(requests, mean_latencies(passes), mean_latencies(passes, "walls")):
        print(f"perfbench: {t:8.3f} s paced {w:8.3f} s wall  {req.label}", file=sys.stderr)
    failures = [f for p in passes for f in p.failures]
    for msg in failures + problems:
        print(f"perfbench: FAILED: {msg}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} passes={len(passes)} requests={attempted} "
          f"setup_samples={SETUP_SAMPLES} wall_batch_s={sum(mean_latencies(passes, 'walls')):.3f}",
          file=sys.stderr)
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
