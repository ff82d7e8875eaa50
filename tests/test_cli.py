import argparse
import contextlib
import io
import json
import re
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import cli, cones, kappa, maps, polytopes
from conelab.cones import random_product_state
from conelab.maps import MatrixMap
from conelab.operators import bipartite, h_operator, kron_rows, random_unit_rows
from conelab.polytopes import Polytope, simplex, square
from conelab.serialize import bipartite_to_dict, polytope_to_dict, to_json


@pytest.fixture
def h2_half(tmp_path):
    doc = bipartite_to_dict(bipartite(h_operator(2).matrix / 2, 2, 2))
    p = tmp_path / "h2_half.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def product_state(tmp_path):
    pv = random_product_state(2, 2, np.random.default_rng(5))
    v = pv.kron
    doc = bipartite_to_dict(bipartite(np.outer(v, v.conj()), 2, 2))
    p = tmp_path / "prod.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def t2_map(tmp_path):
    p = tmp_path / "t2.json"
    p.write_text(json.dumps(to_json(MatrixMap.transpose(2))))
    return str(p)


@pytest.fixture
def gaussian_map(tmp_path):
    """A seeded Gaussian map M_2 -> M_2.  Neither deterministic cb candidate
    meets its upper bound, so its cb estimate draws random starts."""
    p = tmp_path / "gaussian.json"
    coeffs = np.random.default_rng(0).standard_normal((4, 4))
    p.write_text(json.dumps({"input_dim": 2, "output_dim": 2, "coeffs": coeffs.tolist()}))
    return str(p)


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps(polytope_to_dict(square())))
    return str(p)


@pytest.fixture
def simplex2_file(tmp_path):
    p = tmp_path / "simplex2.json"
    p.write_text(json.dumps(polytope_to_dict(simplex(2))))
    return str(p)


@pytest.fixture(params=[100.0, 300.0], ids=["shift-100", "shift-300"])
def shifted_square_file(tmp_path, request):
    p = tmp_path / "shifted_square.json"
    p.write_text(json.dumps(polytope_to_dict(Polytope(square().vertices + request.param))))
    return str(p)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# Every command that reads a file, with the document kind it reads.
FILE_READERS = [
    (["membership", "--cone", "psd", "--input", "{f}"], "operator"),
    (["choi", "--map", "{f}"], "map"),
    (["map-check", "--map", "{f}"], "map"),
    (["kappa", "--n", "2", "--m", "2", "--estimate-cb", "{f}"], "map"),
    (["polytope", "tensor", "--k1", "{f}", "--k2", "{f}"], "polytope"),
    (["barker", "--k1", "{f}", "--k2", "{f}"], "polytope"),
]


def beyond_float(kind: str) -> dict:
    """A document of ``kind`` whose first number is 10^400."""
    if kind == "operator":
        doc = bipartite_to_dict(bipartite(np.eye(4), 2, 2))
        doc["entries"][0] = [10**400, 0]
    elif kind == "map":
        doc = to_json(MatrixMap.transpose(2))
        doc["coeffs"][0][0] = 10**400
    else:
        doc = polytope_to_dict(square())
        doc["vertices"][0][0] = 10**400
    return doc


class TestMembership:
    def test_ppt_out_exit_one(self, capsys, h2_half):
        code, rep = run_json(capsys, ["membership", "--cone", "ppt", "--input", h2_half])
        assert code == 1
        assert rep["results"]["status"] == "out"
        assert rep["certificates"]["verdict"]["certificate"]["value"] == pytest.approx(-0.5, abs=1e-9)

    def test_psd_in_exit_zero(self, capsys, h2_half):
        code, rep = run_json(capsys, ["membership", "--cone", "psd", "--input", h2_half])
        assert code == 0
        assert rep["results"]["status"] == "in"

    def test_block_positive(self, capsys, h2_half):
        code, rep = run_json(
            capsys,
            ["membership", "--cone", "block-positive", "--input", h2_half, "--budget", "30"],
        )
        assert code == 0

    def test_separable_on_product_state(self, capsys, product_state):
        code, rep = run_json(
            capsys, ["membership", "--cone", "separable", "--input", product_state]
        )
        assert code == 0
        cert = rep["certificates"]["verdict"]["certificate"]
        assert cert["type"] == "decomposition"
        assert len(cert["weights"]) == 1

    def test_separable_out_by_ppt_witness(self, capsys, h2_half):
        code, rep = run_json(capsys, ["membership", "--cone", "separable", "--input", h2_half])
        assert code == 1
        assert rep["results"]["status"] == "out"
        cert = rep["certificates"]["verdict"]["certificate"]
        assert cert["type"] == "witness"
        assert cert["value"] == pytest.approx(-0.5, abs=1e-9)

    def test_separable_unknown_below_the_ppt_tolerance(self, capsys, tmp_path):
        # 0.4 psi psi* + 0.6 I/4: the partial transpose's one negative
        # eigenvalue, -0.05, passes --tol 0.1, so the search runs and stays
        # at least that far from the state.
        psi = np.eye(2).ravel() / np.sqrt(2)
        p = tmp_path / "state.json"
        state = bipartite(0.4 * np.outer(psi, psi) + 0.6 * np.eye(4) / 4, 2, 2)
        p.write_text(json.dumps(bipartite_to_dict(state)))
        code, rep = run_json(capsys, ["membership", "--cone", "separable", "--input", str(p),
                                      "--tol", "0.1"])
        assert code == 2
        assert rep["results"]["status"] == "unknown"
        cert = rep["certificates"]["verdict"]["certificate"]
        assert cert["type"] == "decomposition"
        assert min(cert["weights"]) >= 0
        assert cert["residual"] >= 0.05 - 1e-8 * 4

    @pytest.fixture(scope="class")
    def ppt_fallback_run(self, tmp_path_factory):
        """The state, exit code and report of one separable membership run.

        A five-term 2x3 product mixture, past the range closed form's bound,
        on which the search stops short of RESIDUAL_TOL; PPT is exact at 2x3,
        so its spectral certificate says In.  The full search takes seconds,
        so the tests below share one run.
        """
        rng = np.random.default_rng([2, 3, 5, 4])
        v = kron_rows(random_unit_rows(5, 2, rng), random_unit_rows(5, 3, rng))
        w = rng.dirichlet(np.ones(5))
        state = bipartite((v.T * w) @ v.conj(), 2, 3)
        p = tmp_path_factory.mktemp("ppt_fallback") / "state.json"
        p.write_text(json.dumps(bipartite_to_dict(state)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):  # capsys is function-scoped
            code = cli.main(["membership", "--cone", "separable", "--input", str(p)])
        return state, code, json.loads(out.getvalue())

    def test_separable_falls_back_on_exact_ppt(self, ppt_fallback_run):
        _, code, rep = ppt_fallback_run
        assert code == 0
        assert rep["results"]["status"] == "in"
        assert rep["certificates"]["verdict"]["certificate"]["type"] == "spectral"

    def test_separable_runs_the_library_oracle(self, ppt_fallback_run):
        state, _, rep = ppt_fallback_run
        verdict = json.loads(json.dumps(to_json(cones.is_separable(state))))
        assert rep["results"] == {"status": verdict["status"], "cone": "separable", "n": 2, "m": 3}
        assert rep["certificates"] == {"verdict": verdict}

    @pytest.mark.parametrize("n, m", [(2, 3), (2, 4), (3, 3)])
    def test_separable_four_term_mixture_in_closed_form(self, capsys, tmp_path, n, m):
        # A four-term product mixture has rank 4, within the closed form's
        # bound at 2x3, 2x4 and 3x3; PPT is not exact at 2x4 or 3x3, so only
        # the decomposition can say In there.
        rng = np.random.default_rng([n, m, 4, 1])
        v = kron_rows(random_unit_rows(4, n, rng), random_unit_rows(4, m, rng))
        w = rng.dirichlet(np.ones(4))
        p = tmp_path / "state.json"
        p.write_text(json.dumps(bipartite_to_dict(bipartite((v.T * w) @ v.conj(), n, m))))
        code, rep = run_json(capsys, ["membership", "--cone", "separable", "--input", str(p)])
        assert code == 0
        cert = rep["certificates"]["verdict"]["certificate"]
        assert cert["type"] == "decomposition"
        assert len(cert["weights"]) == 4

    def test_optimizer_certificate_reports_rounds(self, capsys, h2_half):
        _, rep = run_json(
            capsys,
            ["membership", "--cone", "block-positive", "--input", h2_half, "--budget", "30"],
        )
        cert = rep["certificates"]["verdict"]["certificate"]
        assert cert["type"] == "optimizer"
        assert cert["converged"] is True
        assert 0 < cert["rounds"] <= 500
        assert 1 <= cert["agreeing"] <= 30

    def test_budget_and_seed_reach_optimizer_certificate(self, capsys, h2_half):
        _, rep = run_json(capsys, ["membership", "--cone", "block-positive", "--input", h2_half,
                                   "--budget", "37", "--seed", "2"])
        cert = rep["certificates"]["verdict"]["certificate"]
        assert (cert["starts"], cert["steps"], cert["seed"]) == (37, 500, 2)

    def test_separable_rejects_non_state(self, capsys, tmp_path):
        doc = bipartite_to_dict(bipartite(np.eye(4), 2, 2))
        p = tmp_path / "not_state.json"
        p.write_text(json.dumps(doc))
        code = cli.main(["membership", "--cone", "separable", "--input", str(p)])
        assert code == 65

    def test_separable_failed_polish_is_unknown(self, capsys, tmp_path, monkeypatch):
        # np.linalg.LinAlgError subclasses ValueError, the input-error class;
        # from the polish it is a failed attempt, not malformed input.  The
        # Tiles state (Bennett et al., PRL 82, 5385, 1999) is PPT and
        # entangled at 3x3, so the search reaches the polish and only it
        # could say In.
        calls = [0]

        def fail(*args, **kwargs):
            calls[0] += 1
            raise np.linalg.LinAlgError("SVD did not converge")

        e = np.eye(3)
        tiles = [(e[0], e[0] - e[1]), (e[0] - e[1], e[2]), (e[2], e[1] - e[2]),
                 (e[1] - e[2], e[0]), (e.sum(axis=0), e.sum(axis=0))]
        v = np.array([np.kron(a, b) / np.linalg.norm(np.kron(a, b)) for a, b in tiles])
        p = tmp_path / "tiles.json"
        p.write_text(json.dumps(bipartite_to_dict(bipartite((np.eye(9) - v.T @ v) / 4, 3, 3))))
        monkeypatch.setattr(cones, "least_squares", fail)
        code = cli.main(["membership", "--cone", "separable", "--input", str(p)])
        assert calls[0] >= 1
        assert code == 2
        assert json.loads(capsys.readouterr().out)["results"]["status"] == "unknown"

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (3, 1)])
    def test_ppt_in_at_a_one_dimensional_factor(self, capsys, tmp_path, n, m):
        p = tmp_path / "state.json"
        p.write_text(json.dumps(bipartite_to_dict(bipartite(np.eye(n * m) / (n * m), n, m))))
        code, rep = run_json(capsys, ["membership", "--cone", "ppt", "--input", str(p)])
        assert code == 0
        assert rep["results"]["status"] == "in"
        assert rep["certificates"]["verdict"]["certificate"]["type"] == "spectral"


class TestMapCommands:
    def test_choi_of_transpose(self, capsys, t2_map):
        code, rep = run_json(capsys, ["choi", "--map", t2_map])
        assert code == 0
        jam = rep["results"]["jamiolkowski"]
        got = np.array([complex(re, im) for re, im in jam["entries"]]).reshape(4, 4)
        assert np.allclose(got, h_operator(2).matrix, atol=1e-12)

    def test_map_check(self, capsys, t2_map):
        code, rep = run_json(capsys, ["map-check", "--map", t2_map, "--budget", "30"])
        assert code == 0
        assert rep["results"]["is_unital"] is True
        assert rep["results"]["positive"] == "in"


class TestKappa:
    def test_square_case(self, capsys):
        code, rep = run_json(capsys, ["kappa", "--n", "2", "--m", "2", "--budget", "30"])
        assert code == 0
        assert rep["results"]["exact"] == 2.0
        assert rep["results"]["witness_lower_bound"] == pytest.approx(2.0, abs=1e-9)
        assert 1.9 <= rep["results"]["cb_estimate"] <= 2.0 + 1e-9

    def test_rectangular_case(self, capsys):
        code, rep = run_json(capsys, ["kappa", "--n", "2", "--m", "3", "--budget", "30"])
        assert code == 0
        assert rep["results"]["exact"] == 2.0
        assert rep["results"]["witness_lower_bound"] == pytest.approx(2.0, abs=1e-9)
        assert rep["results"]["cb_estimate"] <= 2.0 + 1e-6
        witness = rep["certificates"]["witness"]
        assert (witness["n"], witness["m"]) == (2, 3)

    def test_cb_of_supplied_map(self, capsys, t2_map):
        code, rep = run_json(
            capsys,
            ["kappa", "--n", "2", "--m", "2", "--estimate-cb", t2_map, "--budget", "20"],
        )
        assert code == 0
        assert rep["results"]["cb_estimate"] == pytest.approx(2.0, abs=0.1)

    def test_budget_and_seed_reach_cb_certificate(self, capsys):
        _, rep = run_json(capsys, ["kappa", "--n", "3", "--m", "3", "--budget", "20",
                                   "--seed", "4"])
        cert = rep["certificates"]["cb_estimate"]
        assert (cert["starts"], cert["steps"], cert["seed"]) == (20, 300, 4)

    @pytest.mark.parametrize("n, m", [(3, 3), (2, 3), (3, 2)])
    def test_cb_map_of_other_dimensions_is_malformed(self, capsys, t2_map, n, m):
        argv = ["kappa", "--n", str(n), "--m", str(m), "--estimate-cb", t2_map, "--budget", "5"]
        assert cli.main(argv) == 65
        assert "expected M_" in capsys.readouterr().err


class TestPolytopeCommands:
    def test_tensor_with_gap_and_bound(self, capsys, square_file):
        code, rep = run_json(
            capsys,
            ["polytope", "tensor", "--k1", square_file, "--k2", square_file,
             "--gap", "--relative-bound"],
        )
        assert code == 0
        res = rep["results"]
        assert res["min_vertex_count"] == 16
        assert res["max_vertex_count"] == 24
        assert res["dimension"] == 8
        assert res["relative_bound"] == pytest.approx(0.5, abs=1e-6)
        assert res["gap"] is not None
        assert res["gap_margin"] > 1e-6
        assert rep["certificates"]["gap_min_side"]["certificate"]["type"] == "separating-hyperplane"

    def test_tensor_dimension_of_far_shifted_square(self, capsys, tmp_path):
        # aff of the minimal product of two squares has dimension (2+1)(2+1)-1 = 8;
        # an SVD of its vertices at +1e4 sees three directions as zero and says 5
        p = tmp_path / "far_square.json"
        p.write_text(json.dumps(polytope_to_dict(Polytope(square().vertices + 1e4))))
        code, rep = run_json(capsys, ["polytope", "tensor", "--k1", str(p), "--k2", str(p)])
        assert code == 0
        assert rep["results"]["dimension"] == 8

    def test_barker_none_for_simplex(self, capsys, square_file, simplex2_file):
        code, rep = run_json(capsys, ["barker", "--k1", simplex2_file, "--k2", square_file])
        assert code == 0
        assert rep["results"]["gap"] is None

    def test_barker_matches_polytope_gap(self, capsys, square_file):
        _, barker = run_json(capsys, ["barker", "--k1", square_file, "--k2", square_file])
        _, tensor = run_json(
            capsys, ["polytope", "tensor", "--k1", square_file, "--k2", square_file, "--gap"]
        )
        assert barker["results"]["gap"] == tensor["results"]["gap"]
        assert barker["results"]["gap_margin"] == tensor["results"]["gap_margin"]
        assert barker["certificates"] == tensor["certificates"]

    def test_barker_is_polytope_tensor_gap(self, capsys, square_file):
        _, barker = run_json(capsys, ["barker", "--k1", square_file, "--k2", square_file])
        _, tensor = run_json(
            capsys, ["polytope", "tensor", "--k1", square_file, "--k2", square_file, "--gap"]
        )
        assert barker["command"] == "barker"
        assert barker["inputs"] == tensor["inputs"]
        assert barker["results"] == tensor["results"]

    @staticmethod
    def count_tensor_calls(capsys, monkeypatch, argv):
        calls = Counter()
        for name in ("max_tensor_polytope", "positive_ray_generators", "double_description"):
            def counted(*args, _fn=getattr(polytopes, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(polytopes, name, counted)
        code, _ = run_json(capsys, argv)
        assert code == 0
        return calls

    def test_tensor_builds_each_polytope_once(self, capsys, monkeypatch, square_file):
        calls = self.count_tensor_calls(capsys, monkeypatch, [
            "polytope", "tensor", "--k1", square_file, "--k2", square_file, "--gap", "--relative-bound"])
        assert calls["max_tensor_polytope"] == 1
        assert calls["positive_ray_generators"] <= 4
        # one enumeration per factor's chart rays, one for the tensor cone
        assert calls["double_description"] == 3

    def test_barker_enumerates_each_cone_once(self, capsys, monkeypatch, square_file):
        calls = self.count_tensor_calls(capsys, monkeypatch,
                                        ["barker", "--k1", square_file, "--k2", square_file])
        assert calls["max_tensor_polytope"] == 1
        assert calls["double_description"] == 3

    @pytest.mark.parametrize("command", [["polytope", "tensor", "--gap"], ["barker"]],
                             ids=["tensor-gap", "barker"])
    def test_shifted_square_gives_the_unit_answer(self, capsys, shifted_square_file, command):
        argv = command + ["--k1", shifted_square_file, "--k2", shifted_square_file]
        code, rep = run_json(capsys, argv)
        assert code == 0
        assert rep["results"]["max_vertex_count"] == 24
        assert rep["results"]["gap"] is not None

    def test_degenerate_factor_is_data_error(self, capsys, tmp_path):
        # the unit square scaled by (1e-6, 1e6): its vertices pair up in the unit chart
        p = tmp_path / "thin.json"
        p.write_text(json.dumps(polytope_to_dict(Polytope(square().vertices * [1e-6, 1e6]))))
        assert cli.main(["polytope", "tensor", "--gap", "--k1", str(p), "--k2", str(p)]) == 65
        assert "coincide in the unit chart" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["barker"], ["polytope", "tensor", "--relative-bound"]],
                             ids=["barker", "tensor-relative-bound"])
    def test_lp_failure_is_data_error(self, capsys, tmp_path, command):
        # the unit square scaled by 1e-3 and shifted by (1000, 1000), where
        # HiGHS fails on the distance and relative-bound LPs
        p = tmp_path / "small_far.json"
        p.write_text(json.dumps(polytope_to_dict(Polytope(square().vertices * 1e-3 + 1000.0))))
        assert cli.main(command + ["--k1", str(p), "--k2", str(p)]) == 65
        assert "LP failed: (HiGHS Status" in capsys.readouterr().err

    def test_non_separating_hyperplane_is_data_error(self, capsys, tmp_path):
        # the unit square scaled by 1e-2 and shifted by (1000, 1000): the
        # distance LP reports 1.7e-8 > LP_TOL, but its dual normal does not
        # separate the gap vertex from the minimal product (margin -5.7e-14)
        p = tmp_path / "far.json"
        p.write_text(json.dumps(polytope_to_dict(Polytope(square().vertices * 1e-2 + 1000.0))))
        assert cli.main(["barker", "--k1", str(p), "--k2", str(p)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("input error: membership LP failed") and err.count("\n") == 1

    @pytest.mark.parametrize("scale, shift, argv, want", [
        # the maximal product has 24 vertices and the minimal 16, but every
        # distance LP reads <= LP_TOL, which would claim min = max
        (8e-5, 0.0, ["barker"], "membership LP failed"),
        (1e-3, 100.0, ["barker"], "membership LP failed"),
        # the relative-bound LP answers 0.0 and 0.4999999977 against
        # certified lower bounds of 0.50000002842392 and 0.49999999999876
        (1e-3, 10.0, ["polytope", "tensor", "--relative-bound"], "relative-bound LP failed"),
        (1e-2, 100.0, ["polytope", "tensor", "--relative-bound"], "relative-bound LP failed"),
    ], ids=["barker-x8e-5", "barker-x1e-3+100", "bound-x1e-3+10", "bound-x1e-2+100"])
    def test_lp_answer_that_contradicts_a_bound_is_data_error(self, capsys, tmp_path, scale, shift,
                                                                argv, want):
        p = tmp_path / "small.json"
        p.write_text(json.dumps(polytope_to_dict(Polytope(square().vertices * scale + shift))))
        assert cli.main([*argv, "--k1", str(p), "--k2", str(p)]) == 65
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {want}") and err.count("\n") == 1

    def test_non_extreme_vertex_is_data_error(self, tmp_path, square_file):
        p = tmp_path / "collinear.json"
        p.write_text(json.dumps({"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}))
        assert cli.main(["polytope", "tensor", "--k1", str(p), "--k2", square_file]) == 65


class TestReportCommands:
    def test_witness_x(self, capsys):
        code, rep = run_json(
            capsys,
            ["witness-x", "--n", "2"],
        )
        assert code == 0
        assert rep["results"]["most_negative_eigenvalue"] == pytest.approx(-1.0, abs=1e-9)

    def test_witness_x_bad_grid_is_usage_error(self, capsys):
        assert cli.main(["witness-x", "--n", "2", "--grid", "a,b"]) == 64

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_witness_x_takes_no_samples_or_seed(self, capsys, flag):
        assert cli.main(["witness-x", "--n", "2", flag, "10"]) == 64

    def test_riesz(self, capsys):
        code, rep = run_json(capsys, ["riesz"])
        assert code == 0
        assert rep["results"]["interpolation_ok"] is True
        assert rep["results"]["e11_e22_pairing"] == 0.0

    @pytest.mark.parametrize("flag, value", [("--step", "0.02"), ("--threshold", "0.05")])
    def test_riesz_takes_no_options(self, capsys, flag, value):
        assert cli.main(["riesz", flag, value]) == 64
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["witness-x", "--n", "2", "--grid", "0,1"], "--grid"),
        (["reproduce", "--quick", "--only", "witness_norm"], "--quick"),
    ], ids=["witness-x", "reproduce"])
    def test_removed_options_are_usage_errors(self, capsys, argv, flag):
        assert cli.main(argv) == 64
        assert flag in capsys.readouterr().err

    def test_trace_simplex(self, capsys):
        code, rep = run_json(capsys, ["trace-simplex", "--a", "2,3", "--b", "2,5"])
        assert code == 0
        assert rep["results"]["blocks_product"] == [4, 10, 6, 15]

    def test_trace_simplex_bad_blocks(self, capsys):
        assert cli.main(["trace-simplex", "--a", "2,x", "--b", "2"]) == 64

    def test_trace_simplex_zero_block_is_usage_error(self, capsys):
        # the algebra's ValueError stays a usage error, not input error 65
        assert cli.main(["trace-simplex", "--a", "0,2", "--b", "2"]) == 64
        assert capsys.readouterr().err.startswith("usage error: bad block list '0,2': ")

    def test_trace_simplex_table(self, capsys):
        assert cli.main(["trace-simplex", "--a", "2,3", "--b", "2,5", "--format", "table"]) == 0
        assert "[4, 10, 6, 15]" in capsys.readouterr().out

    def test_reproduce_single_check(self, capsys):
        code, rep = run_json(
            capsys, ["reproduce", "--only", "witness_norm"]
        )
        assert code == 0
        assert len(rep["results"]["checks"]) == 1
        assert rep["results"]["checks"][0]["passed"] is True
        assert "identity" in rep["results"]["checks"][0]

    def test_reproduce_numpy_bool_check_serializes(self, capsys):
        code, rep = run_json(capsys, ["reproduce", "--only", "witness_block"])
        assert code == 0
        assert [c["passed"] for c in rep["results"]["checks"]] == [True]

    def test_reproduce_only_matches_printed_name(self, capsys):
        code, rep = run_json(capsys, ["reproduce", "--only", "cone-duality"])
        assert code == 0
        assert [c["name"] for c in rep["results"]["checks"]] == ["cone-duality"]

    def test_reproduce_only_matching_nothing_is_usage_error(self, capsys):
        assert cli.main(["reproduce", "--only", "no-such-check"]) == 64
        assert "no acceptance check matches 'no-such-check'" in capsys.readouterr().err

    def test_reproduce_table(self, capsys):
        assert cli.main(["reproduce", "--only", "witness_norm", "--format", "table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and lines[1].startswith("PASS ")
        assert lines[-1] == "overall: pass"


class TestErrorPaths:
    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 64

    def test_missing_required_flag(self):
        assert cli.main(["membership", "--cone", "psd"]) == 64

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ not json")
        assert cli.main(["membership", "--cone", "psd", "--input", str(p)]) == 65

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("cone", ["psd", "block-positive"])
    def test_non_finite_operator_entry(self, tmp_path, cone, bad):
        doc = bipartite_to_dict(bipartite(np.eye(4), 2, 2))
        doc["entries"][5] = [bad, 0.0]
        p = tmp_path / "non_finite.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["membership", "--cone", cone, "--input", str(p)]) == 65

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_map_coefficient(self, tmp_path, bad):
        doc = to_json(MatrixMap.transpose(2))
        doc["coeffs"][0][0] = bad
        p = tmp_path / "non_finite_map.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["map-check", "--map", str(p)]) == 65

    def test_missing_file(self):
        assert cli.main(["membership", "--cone", "psd", "--input", "/nonexistent.json"]) == 65

    def test_non_numeric_budget_is_usage_error(self, capsys, h2_half):
        argv = ["membership", "--cone", "psd", "--input", h2_half, "--budget", "abc"]
        assert cli.main(argv) == 64
        assert capsys.readouterr().err.startswith("usage error: argument --budget: ")

    # A budget above numpy's array-size limit makes the search's first
    # allocation raise ValueError before any memory is taken.
    @pytest.mark.parametrize("argv", [
        ["membership", "--cone", "block-positive", "--input", "{h2}"],
        ["map-check", "--map", "{t2}"],
        ["kappa", "--n", "2", "--m", "2", "--estimate-cb", "{gauss}"],
    ], ids=lambda argv: argv[0])
    def test_budget_beyond_array_limit_is_data_error(self, capsys, h2_half, t2_map,
                                                     gaussian_map, argv):
        argv = [a.format(h2=h2_half, t2=t2_map, gauss=gaussian_map) for a in argv]
        assert cli.main(argv + ["--budget", "100000000000000000000"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    # A budget below that limit but beyond memory raises MemoryError; the
    # oracles are patched to raise it, so nothing is allocated.
    @pytest.mark.parametrize("argv,module,name", [
        (["membership", "--cone", "block-positive", "--input", "{h2}"], cones, "is_block_positive"),
        (["map-check", "--map", "{t2}"], maps, "is_positive_map"),
        (["kappa", "--n", "2", "--m", "2", "--estimate-cb", "{t2}"], kappa, "cb_norm_estimate"),
    ], ids=["membership", "map-check", "kappa"])
    def test_budget_beyond_memory_is_data_error(self, capsys, monkeypatch, h2_half, t2_map,
                                                argv, module, name):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(module, name, out_of_memory)
        argv = [a.format(h2=h2_half, t2=t2_map) for a in argv]
        assert cli.main(argv + ["--budget", "1000000000"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: out of memory. Unable to allocate 74.5 GiB for an array\n"

    @pytest.mark.parametrize("argv", [
        ["membership", "--cone", "block-positive", "--input", "{h2}", "--budget", "-1"],
        ["membership", "--cone", "block-positive", "--input", "{h2}", "--budget", "0"],
        ["map-check", "--map", "{t2}", "--budget", "0"],
        ["kappa", "--n", "0", "--m", "2"],
        ["kappa", "--n", "2", "--m", "2", "--budget", "0"],
    ], ids=" ".join)
    def test_non_positive_number_is_usage_error(self, capsys, h2_half, t2_map, argv):
        argv = [a.format(h2=h2_half, t2=t2_map) for a in argv]
        assert cli.main(argv) == 64
        assert capsys.readouterr().err.startswith("usage error: argument ")

    @pytest.mark.parametrize("argv", [
        ["membership", "--cone", "block-positive", "--input", "{h2}", "--tol", "nan"],
        ["membership", "--cone", "psd", "--input", "{h2}", "--tol", "inf"],
        ["membership", "--cone", "ppt", "--input", "{h2}", "--tol", "-0.5"],
        ["map-check", "--map", "{t2}", "--tol", "nan"],
        ["map-check", "--map", "{t2}", "--tol", "inf"],
        ["map-check", "--map", "{t2}", "--tol", "-1"],
        ["witness-x", "--n", "0"],
        ["witness-x", "--n", "1"],
    ], ids=" ".join)
    def test_out_of_range_number_is_usage_error(self, capsys, h2_half, t2_map, argv):
        argv = [a.format(h2=h2_half, t2=t2_map) for a in argv]
        assert cli.main(argv) == 64
        assert capsys.readouterr().err.startswith("usage error: argument ")


    @pytest.mark.parametrize("argv", [
        ["membership", "--cone", "block-positive", "--input", "{h2}"],
        ["map-check", "--map", "{t2}"],
        ["kappa", "--n", "2", "--m", "2", "--estimate-cb", "{t2}"],
        ["reproduce", "--only", "witness_norm"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_usage_error(self, capsys, h2_half, t2_map, argv):
        argv = [a.format(h2=h2_half, t2=t2_map) for a in argv] + ["--seed", "-1"]
        assert cli.main(argv) == 64
        assert capsys.readouterr().err.startswith("usage error: argument --seed: ")

    @pytest.mark.parametrize("key, bad", [("n", 2.7), ("n", True), ("m", "2"), ("dim", "4"),
                                          ("dim", 4.5)], ids=repr)
    @pytest.mark.parametrize("cone", ["psd", "ppt", "block-positive", "separable"])
    def test_non_integer_operator_size_is_data_error(self, capsys, tmp_path, cone, key, bad):
        doc = bipartite_to_dict(bipartite(np.eye(4) / 4, 2, 2))
        doc[key] = bad
        p = tmp_path / "bad_size.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["membership", "--cone", cone, "--input", str(p)]) == 65
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad", [("input_dim", 1.5), ("output_dim", False),
                                          ("input_dim", "2")], ids=repr)
    @pytest.mark.parametrize("command", ["map-check", "choi"])
    def test_non_integer_map_size_is_data_error(self, capsys, tmp_path, command, key, bad):
        doc = to_json(MatrixMap.transpose(2))
        doc[key] = bad
        p = tmp_path / "bad_size.json"
        p.write_text(json.dumps(doc))
        assert cli.main([command, "--map", str(p)]) == 65
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"input_dim": -1, "output_dim": -1, "coeffs": [[1.0]]},
        {"input_dim": -2, "output_dim": -2, "coeffs": np.eye(4).tolist()},
        {"input_dim": 0, "output_dim": 1, "coeffs": [[]]},
    ], ids=lambda d: f"{d['input_dim']}->{d['output_dim']}")
    @pytest.mark.parametrize("command", ["map-check", "choi"])
    def test_map_size_below_one_is_data_error(self, capsys, tmp_path, command, doc):
        p = tmp_path / "small_map.json"
        p.write_text(json.dumps(doc))
        assert cli.main([command, "--map", str(p)]) == 65
        assert "map dimensions must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, doc, message", [
        (["map-check", "--map", "{f}"],
         {"input_dim": 2, "output_dim": 2, "coeffs": [[1.0, 0.0]]},
         "coefficient array must have shape (4, 4), got (1, 2)"),
        (["membership", "--cone", "psd", "--input", "{f}"],
         {**bipartite_to_dict(bipartite(np.eye(4) / 4, 2, 2)), "n": 0},
         "factor dimensions must be positive"),
    ], ids=["map-coefficient-shape", "operator-factor-zero"])
    def test_document_the_library_rejects_is_data_error(self, capsys, tmp_path, argv, doc,
                                                        message):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        assert cli.main([a.format(f=p) for a in argv]) == 65
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err

    @pytest.mark.parametrize("bad", ["2", 2.5, True], ids=repr)
    def test_non_integer_polytope_dim_is_data_error(self, capsys, tmp_path, square_file, bad):
        doc = polytope_to_dict(square())
        doc["dim"] = bad
        p = tmp_path / "bad_dim.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["polytope", "tensor", "--k1", str(p), "--k2", square_file]) == 65
        assert "dim must be an integer" in capsys.readouterr().err

    def test_integral_float_sizes_are_accepted(self, capsys, tmp_path, square_file):
        doc = bipartite_to_dict(bipartite(np.eye(4) / 4, 2, 2))
        doc.update(n=2.0, m=2.0, dim=4.0)
        p = tmp_path / "float_sizes.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["membership", "--cone", "psd", "--input", str(p)]) == 0
        doc = polytope_to_dict(square())
        doc["dim"] = 2.0
        p.write_text(json.dumps(doc))
        assert cli.main(["polytope", "tensor", "--k1", str(p), "--k2", square_file]) == 0

    @pytest.mark.parametrize("kind", ["not-utf8", "deep", "beyond-float"])
    @pytest.mark.parametrize("argv, doc", FILE_READERS, ids=[argv[0] for argv, _ in FILE_READERS])
    def test_unparsable_file_is_data_error(self, capsys, tmp_path, argv, doc, kind):
        if kind == "not-utf8":
            data = b'{"dim": 2, "vertices": [], "note": "\xff\xfe"}'
        elif kind == "deep":
            data = b"[" * 200_000
        else:  # a valid document with one JSON integer 10^400 as a number
            data = json.dumps(beyond_float(doc)).encode()
        p = tmp_path / "bad.json"
        p.write_bytes(data)
        assert cli.main([a.format(f=p) for a in argv]) == 65
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("vertices", [
        [[0, 1e200, 3]],  # its tensor square overflows, and the SVD of the chart fails
        [[3, 0], [-4.269061995752161e16, 3], [1, 1]],  # HiGHS rejects the extremality LP
    ], ids=["overflowing-product", "extremality-lp-failure"])
    def test_extreme_polytope_is_data_error(self, capsys, tmp_path, vertices):
        p = tmp_path / "extreme.json"
        p.write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
        assert cli.main(["polytope", "tensor", "--k1", str(p), "--k2", str(p)]) == 65
        assert capsys.readouterr().err.startswith("input error: ")


    def test_overflowing_product_raises_no_warning(self, capsys, tmp_path):
        p = tmp_path / "extreme.json"
        p.write_text(json.dumps({"dim": 3, "vertices": [[0, 1e200, 3]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["polytope", "tensor", "--k1", str(p), "--k2", str(p)]) == 65
        assert capsys.readouterr().err == "input error: vertex coordinates must be finite\n"


SCHEMA_KEYS = ["n", "m", "dim", "entries", "input_dim", "output_dim", "coeffs", "vertices"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)


class TestReadersNeverRaise:
    """Any file content gives an exit code; none runs a search."""

    @given(st.sampled_from([argv for argv, _ in FILE_READERS
                            if argv[0] in ("membership", "choi", "polytope")]),
           st.binary(max_size=64) | JSON_VALUES.map(lambda v: json.dumps(v).encode()))
    @settings(max_examples=150, deadline=None)
    def test_exit_code_for_any_content(self, argv, data):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "doc.json"
            p.write_bytes(data)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([a.format(f=p) for a in argv])
        assert code in (0, 1, 2, 65)


class TestDeterminism:
    def test_results_bit_for_bit(self, capsys, h2_half):
        argv = ["membership", "--cone", "block-positive", "--input", h2_half,
                "--budget", "30", "--seed", "3"]
        _, rep1 = run_json(capsys, argv)
        _, rep2 = run_json(capsys, argv)
        assert json.dumps(rep1["results"]) == json.dumps(rep2["results"])
        assert json.dumps(rep1["certificates"]) == json.dumps(rep2["certificates"])

    def test_report_echoes_inputs_and_seed(self, capsys, h2_half):
        _, rep = run_json(
            capsys,
            ["membership", "--cone", "psd", "--input", h2_half, "--seed", "9"],
        )
        assert rep["seed"] == 9
        assert rep["inputs"]["cone"] == "psd"
        assert rep["command"] == "membership"
        assert "wall_time" in rep


class TestExitCodeFunction:
    def test_total_function_of_report(self):
        assert cli.exit_code_for({"results": {"status": "in"}}) == 0
        assert cli.exit_code_for({"results": {"status": "pass"}}) == 0
        assert cli.exit_code_for({"results": {"status": "out"}}) == 1
        assert cli.exit_code_for({"results": {"status": "fail"}}) == 1
        assert cli.exit_code_for({"results": {"status": "unknown"}}) == 2


class TestTableFormat:
    def test_table_output(self, capsys, h2_half):
        code = cli.main(["membership", "--cone", "psd", "--input", h2_half,
                         "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status" in out
        assert "in" in out


class TestReadmeSynopsis:
    def test_lists_every_long_option_of_every_subcommand(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
        listed: dict[str, set[str]] = {}
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split("#", 1)[0].split()
            listed[words[1]] = set(re.findall(r"--[a-z][a-z0-9-]*", " ".join(words[2:])))
        (subparsers,) = [a for a in cli.build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        parsed = {name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
                  - {"--help", "--format"}
                  for name, sub in subparsers.choices.items()}
        assert listed == parsed
