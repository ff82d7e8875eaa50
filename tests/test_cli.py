import json

import numpy as np
import pytest

from conelab import cli
from conelab.cones import random_product_state
from conelab.maps import MatrixMap
from conelab.operators import bipartite, h_operator
from conelab.polytopes import simplex, square
from conelab.serialize import bipartite_to_dict, map_to_dict, polytope_to_dict


@pytest.fixture
def h2_half(tmp_path):
    doc = bipartite_to_dict(bipartite(h_operator(2).matrix / 2, 2, 2))
    p = tmp_path / "h2_half.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def product_state(tmp_path):
    pv = random_product_state(2, 2, np.random.default_rng(5))
    doc = bipartite_to_dict(pv.projector())
    p = tmp_path / "prod.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def t2_map(tmp_path):
    p = tmp_path / "t2.json"
    p.write_text(json.dumps(map_to_dict(MatrixMap.transpose(2))))
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


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


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

    def test_optimizer_certificate_reports_rounds(self, capsys, h2_half):
        _, rep = run_json(
            capsys,
            ["membership", "--cone", "block-positive", "--input", h2_half, "--budget", "30"],
        )
        cert = rep["certificates"]["verdict"]["certificate"]
        assert cert["type"] == "optimizer"
        assert cert["converged"] is True
        assert 0 < cert["rounds"] < 500 + 8
        assert 1 <= cert["agreeing"] <= 30

    def test_separable_rejects_non_state(self, capsys, tmp_path):
        doc = bipartite_to_dict(bipartite(np.eye(4), 2, 2))
        p = tmp_path / "not_state.json"
        p.write_text(json.dumps(doc))
        code = cli.main(["membership", "--cone", "separable", "--input", str(p)])
        assert code == 65


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
    def test_closed_form(self, capsys):
        code, rep = run_json(capsys, ["kappa", "--n", "2", "--m", "2", "--budget", "20"])
        assert code == 0
        assert rep["results"]["exact"] == 2.0
        assert rep["results"]["witness_lower_bound"] == pytest.approx(2.0, abs=1e-9)

    def test_cb_of_supplied_map(self, capsys, t2_map):
        code, rep = run_json(
            capsys,
            ["kappa", "--n", "2", "--m", "2", "--estimate-cb", t2_map, "--budget", "20"],
        )
        assert code == 0
        assert rep["results"]["cb_estimate"] == pytest.approx(2.0, abs=0.1)


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

    def test_non_extreme_vertex_is_data_error(self, tmp_path, square_file):
        p = tmp_path / "collinear.json"
        p.write_text(json.dumps({"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}))
        assert cli.main(["polytope", "tensor", "--k1", str(p), "--k2", square_file]) == 65


class TestReportCommands:
    def test_witness_x(self, capsys):
        code, rep = run_json(
            capsys,
            ["witness-x", "--n", "2", "--grid", "0,0.5,1", "--samples", "2000"],
        )
        assert code == 0
        assert rep["results"]["most_negative_eigenvalue"] == pytest.approx(-1.0, abs=1e-9)

    def test_witness_x_bad_grid_is_usage_error(self, capsys):
        assert cli.main(["witness-x", "--n", "2", "--grid", "a,b"]) == 64

    def test_witness_x_degenerate_grid_is_data_error(self, capsys):
        assert cli.main(["witness-x", "--n", "2", "--grid", "0", "--samples", "10"]) == 65

    def test_riesz(self, capsys):
        code, rep = run_json(capsys, ["riesz"])
        assert code == 0
        assert rep["results"]["interpolation_ok"] is True

    def test_trace_simplex(self, capsys):
        code, rep = run_json(capsys, ["trace-simplex", "--a", "2,3", "--b", "2,5"])
        assert code == 0
        assert rep["results"]["blocks_product"] == [4, 10, 6, 15]

    def test_trace_simplex_bad_blocks(self, capsys):
        assert cli.main(["trace-simplex", "--a", "2,x", "--b", "2"]) == 64

    def test_reproduce_single_check(self, capsys):
        code, rep = run_json(
            capsys, ["reproduce", "--quick", "--only", "witness_norm"]
        )
        assert code == 0
        assert len(rep["results"]["checks"]) == 1
        assert rep["results"]["checks"][0]["passed"] is True
        assert "identity" in rep["results"]["checks"][0]

    def test_reproduce_numpy_bool_check_serializes(self, capsys):
        code, rep = run_json(capsys, ["reproduce", "--quick", "--only", "witness_block"])
        assert code == 0
        assert [c["passed"] for c in rep["results"]["checks"]] == [True]


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
        doc = map_to_dict(MatrixMap.transpose(2))
        doc["coeffs"][0][0] = bad
        p = tmp_path / "non_finite_map.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["map-check", "--map", str(p)]) == 65

    def test_missing_file(self):
        assert cli.main(["membership", "--cone", "psd", "--input", "/nonexistent.json"]) == 65


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
