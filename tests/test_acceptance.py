"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (visible with pytest -s / in the tee'd log)."""

import json

import numpy as np

from conelab import acceptance, cli, cones, operators


def _report(result):
    mark = "PASS" if result.passed else "FAIL"
    print(f"{mark} {result.name} [{result.wall_time:.2f}s]: {result.identity}")
    for key, value in result.details.items():
        print(f"       {key} = {value}")


def test_criterion_01_witness_norm():
    r = acceptance.check_01_witness_norm()
    _report(r)
    assert r.passed
    assert r.details["max_error"] <= 1e-9
    assert r.wall_time < 1.0


def test_criterion_02_kappa_closed_form():
    r = acceptance.check_02_kappa_closed_form()
    _report(r)
    assert r.passed
    assert r.details["witness_max_error"] <= 1e-9
    for n, val in r.details["cb"].items():
        assert n * 0.95 <= val <= n + 1e-9
    assert r.wall_time < 30.0


def test_criterion_03_witness_block_positive():
    r = acceptance.check_03_witness_block_positive()
    _report(r)
    assert r.passed
    assert sorted(r.details["lower_bounds"]) == [2, 3, 4]
    assert all(v >= -1e-9 for v in r.details["lower_bounds"].values())
    assert r.wall_time < 60.0


def test_swap_witness_checks_neither_search_nor_sample(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a certificate check reached a search or a sampler")

    for module, name in [(cones, "block_positive_min"), (cones, "product_values"),
                         (cones, "random_unit_rows"), (operators, "product_values"),
                         (operators, "random_unit_rows"), (np.random, "default_rng")]:
        monkeypatch.setattr(module, name, forbidden)
    assert acceptance.check_03_witness_block_positive().passed
    assert acceptance.check_10_cone_algebra_witness().passed


def test_criterion_04_entangled_max_state():
    r = acceptance.check_04_entangled_max_state()
    _report(r)
    assert r.passed
    for m in (2, 3):
        d = r.details[m]
        assert d["psd"] == "in"
        assert d["ppt"] == "out"
        assert abs(d["pt_min_eigenvalue"] + 1.0 / m) <= 1e-9


def test_criterion_05_choi_jamiolkowski():
    r = acceptance.check_05_choi_jamiolkowski()
    _report(r)
    assert r.passed
    assert r.details["max_pt_deviation"] < 1e-12
    assert r.details["max_roundtrip_deviation"] < 1e-12


def test_criterion_06_normalization():
    r = acceptance.check_06_normalization()
    _report(r)
    assert r.passed
    assert r.details["max_agreement_deviation"] <= 1e-9
    assert r.details["max_unitality_deviation"] <= 1e-9


def test_criterion_07_simplex_tensor():
    r = acceptance.check_07_simplex_tensor()
    _report(r)
    assert r.passed
    for key, d in r.details.items():
        n, m = (int(v) for v in key.split("x"))
        assert d["vertices"] == n * m
        assert d["dimension"] == n * m - 1


def test_criterion_08_dimension_and_bound():
    r = acceptance.check_08_dimension_and_bound()
    _report(r)
    assert r.passed
    assert r.details["dimension"] == 8
    assert 0.0 < r.details["relative_bound"] < 10.0
    assert r.wall_time < 60.0


def test_criterion_09_barker_gap():
    r = acceptance.check_09_barker_gap()
    _report(r)
    assert r.passed
    assert r.details["gap_margin"] > 1e-6
    assert all(r.details["simplex_cases"].values())


def test_criterion_10_cone_algebra_witness():
    r = acceptance.check_10_cone_algebra_witness()
    _report(r)
    assert r.passed
    assert r.details["most_negative_eigenvalue"] <= -1.0 + 1e-9
    assert r.details["separable_min"] >= -1e-9
    assert r.wall_time < 60.0


def test_criterion_11_riesz():
    r = acceptance.check_11_riesz()
    _report(r)
    assert r.passed
    assert r.wall_time < 10.0


def test_criterion_12_trace_simplex_tensor():
    r = acceptance.check_12_trace_simplex_tensor()
    _report(r)
    assert r.passed
    assert all(r.details.values())


def test_criterion_13_duality():
    r = acceptance.check_13_duality()
    _report(r)
    assert r.passed
    for key in ("2x2", "2x3"):
        assert r.details[key]["pairings"] == 10_000
        assert r.details[key]["min_pairing"] >= -1e-9


def test_reproduce_calls_each_check_once_in_order(monkeypatch, capsys):
    assert len(acceptance.ALL_CHECKS) == 13
    calls = []

    def stub(name):
        def check(seed=0):
            calls.append((name, seed))
            return acceptance.CheckResult(name, "", True, 0.0)
        check.check_name = name
        return check

    names = [f"stub-{i}" for i in range(3)]
    monkeypatch.setattr(acceptance, "ALL_CHECKS", [stub(name) for name in names])
    assert cli.main(["reproduce", "--seed", "7"]) == 0
    assert calls == [(name, 7) for name in names]
    assert [c["name"] for c in json.loads(capsys.readouterr().out)["results"]["checks"]] == names
