"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import generators as gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from conelab import cones, maps, polytopes  # noqa: E402
from conelab.cones import OptimizerConfig, Status  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "__dataclass_fields__"):
        return all(_same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("make", [
    lambda r: gen.planted(3, 4, -1e-5, r),
    lambda r: gen.twisted_transpose(3, r),
    lambda r: gen.separable_mixture(2, 3, 3, r),
    lambda r: gen.interior_separable(2, 2, 3, r),
    lambda r: gen.entangled_state(3, 3, 0.2, r),
    lambda r: gen.polygon(6, r),
])
def test_generators_are_reproducible(make):
    a, b = make(workloads.rng(7, 1)), make(workloads.rng(7, 1))
    c = make(workloads.rng(8, 1))
    assert _same(a, b)
    assert not _same(a, c)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ground_truth_holds(seed):
    r = workloads.rng(seed, 0)
    for n, m in ((2, 2), (2, 3), (3, 3), (4, 4)):
        for eps in (1e-5, -1e-5):
            p = gen.planted(n, m, eps, r)
            gen.check_planted(p)
            gen.check_planted_map(p, gen.planted_map(p))
    phi = gen.twisted_transpose(3, r)
    gen.check_positive_map(phi)
    gen.check_unital(phi)
    gen.check_state(gen.separable_mixture(3, 3, 4, r), 4)
    gen.check_state(gen.interior_separable(2, 2, 3, r), 4)
    for noise in (0.2, 0.6):
        gen.check_entangled(gen.entangled_state(2, 2, noise, r), noise)
    for k in (3, 4, 5, 6):
        gen.check_polygon(gen.polygon(k, r), k)


def test_ground_truth_checks_reject_bad_inputs():
    p = gen.planted(2, 3, 1e-5, workloads.rng(0, 0))
    with pytest.raises(AssertionError):
        gen.check_planted(gen.Planted(p.x, 2e-5, p.left, p.right))
    with pytest.raises(AssertionError):
        gen.check_positive_map(maps.MatrixMap.from_function(2, 2, lambda a: -a))
    with pytest.raises(AssertionError):
        gen.check_entangled(gen.entangled_state(2, 2, 0.8, workloads.rng(0, 0)), 0.8)
    with pytest.raises(AssertionError):
        gen.check_polygon(polytopes.Polytope(np.array([[0, 0], [2, 0], [1, 0.0], [1, 1]])), 4)
    with pytest.raises(AssertionError):
        gen.check_state(gen.separable_mixture(2, 2, 3, workloads.rng(0, 0)), 2)


def test_planted_minimum_is_found_and_judged():
    p = gen.planted(2, 2, -1e-5, workloads.rng(3, 0))
    verdict = cones.is_block_positive(p.x)
    outcome = workloads._judge_planted(p)(verdict)
    assert outcome.decided
    assert outcome.errors["cones.block_positive_min.max_err"] <= 1e-6
    flipped = gen.Planted(p.x, 1e-5, p.left, p.right)
    with pytest.raises(workloads.Wrong):
        workloads._judge_planted(flipped)(verdict)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_batches_build_and_are_fixed(name):
    a, b = workloads.WORKLOADS[name](0), workloads.WORKLOADS[name](0)
    assert [r.label for r in a] == [r.label for r in b]
    assert len(a) >= 5


# ---------------------------------------------------------------------------
# tracing


@pytest.fixture
def recorder():
    with spans.Recorder() as rec:
        yield rec


def test_wrappers_are_transparent():
    sq = polytopes.square()
    x = gen.planted(2, 2, 1e-5, workloads.rng(0, 0)).x
    cfg = OptimizerConfig(starts=8, steps=20)
    plain = (polytopes.barker_gap(sq, sq), cones.is_block_positive(x, cfg=cfg))
    with spans.Recorder() as rec:
        traced = (polytopes.barker_gap(sq, sq), cones.is_block_positive(x, cfg=cfg))
    assert _same(plain, traced)
    assert rec.summary()["polytopes.barker_gap"]["calls"] == 1
    assert rec.summary()["cones.block_positive_min"]["calls"] == 1


def test_uninstall_restores_originals():
    before = (cones.block_positive_min, maps.is_block_positive, polytopes.linprog,
              polytopes.Polytope.__post_init__)
    with spans.Recorder():
        assert maps.is_block_positive is not before[1]
    after = (cones.block_positive_min, maps.is_block_positive, polytopes.linprog,
             polytopes.Polytope.__post_init__)
    assert all(a is b for a, b in zip(before, after))


def test_every_binding_is_wrapped(recorder):
    import conelab
    from conelab import kappa

    assert conelab.is_block_positive is maps.is_block_positive is kappa.is_block_positive
    assert maps.is_block_positive.__wrapped__ is cones.is_block_positive.__wrapped__
    assert polytopes.linprog is kappa.linprog


def test_spans_nest_and_self_time_excludes_children(recorder):
    sq = polytopes.square()
    polytopes.barker_gap(sq, sq)
    by_index = recorder.spans
    gap = next(i for i, s in enumerate(by_index) if s.name == "polytopes.barker_gap")
    children = [s for s in by_index if s.parent == gap]
    assert {s.name for s in children} >= {"polytopes.max_tensor_polytope", "polytopes.linprog"}
    row = recorder.summary()["polytopes.barker_gap"]
    child_time = sum(s.end - s.start for s in children)
    assert row["self_s"] == pytest.approx(row["busy_s"] - child_time)
    assert 0 <= row["self_s"] < row["busy_s"]


def test_probes_count_results(recorder):
    x = gen.interior_separable(2, 2, 3, workloads.rng(0, 0))
    verdict = cones.separable_decompose(x)
    row = recorder.summary()
    assert row["cones.separable_decompose"]["in"] == int(verdict.status is Status.IN)
    if "cones.least_squares" in row:
        assert row["cones.least_squares"]["nfev"] >= row["cones.least_squares"]["calls"]


# ---------------------------------------------------------------------------
# speed probe and paced passes


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        mark = probe.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            speed.loop()
        spent, slowdown = probe.since(mark)
        assert probe.mark() > mark
        assert 0 < spent < 0.2 and slowdown > 0
        # A span without samples takes the last sample's slowdown.
        assert probe.since(probe.mark())[0] == 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pass_paces_requests_and_counts_failures():
    def boom():
        raise ValueError("no")

    def judge(result):
        if result < 0:
            raise workloads.Wrong("negative")
        return workloads.Outcome(True, (result,))

    requests = [workloads.Request("sum", lambda: sum(range(300000)), judge),
                workloads.Request("raises", boom, judge),
                workloads.Request("wrong", lambda: -1, judge)]
    with speed.SpeedProbe() as probe:
        p = run.Pass(requests, probe)
    assert [o is not None for o in p.outcomes] == [True, False, False]
    assert [f.split(":")[0] for f in p.failures] == ["raises", "wrong"]
    assert all(t > 0 for t in p.latencies + p.walls)
    assert p.wall >= sum(p.walls)


def test_setup_child_reports_probe_time_and_slowdown(capsys):
    assert run.main(["--setup-only", "--workload", "tensor-gap", "--seed", "0"]) == 0
    spent, slowdown = map(float, capsys.readouterr().out.split())
    assert spent > 0 and slowdown > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# determinism gate


def test_repeatability_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    record = {"signatures": [["in", 0.5]], "counts": {"polytopes.linprog.calls": 3}}
    assert run.check_repeatable("k", record) == []
    assert run.check_repeatable("k", record) == []
    assert run.check_repeatable("k", {"signatures": [["in", 0.25]]}) == ["signatures"]
    assert run.check_repeatable("other", {"signatures": [["out", 0.5]]}) == []


# ---------------------------------------------------------------------------
# BENCHMARK.json


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    traced = {f"{home}.{name}" for home, names in spans.TRACED.items() for name in names}
    assert traced | {"polytopes.Polytope", "trace"} == set(run.LAYERS)
