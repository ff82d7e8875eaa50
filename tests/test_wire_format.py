"""The one JSON encoder for certificates, verdicts and reports, and the
CLI reports built with it."""

import dataclasses
import json

import numpy as np
import pytest

from conelab import cli
from conelab.cones import (
    LowerBoundCertificate,
    OptimizerConfig,
    Status,
    is_block_positive,
    is_psd,
    lower_bound,
    ppt_check,
    random_product_state,
    separable_decompose,
)
from conelab.kappa import (
    CB_GAIN,
    CbEstimate,
    CbUpperBound,
    cb_upper_bound,
    extremal_positive_map,
)
from conelab.maps import MatrixMap, apply_to_left_factor
from conelab.operators import bipartite, h_operator, partial_transpose, swap_operator
from conelab.polytopes import (
    Polytope,
    TensorFunctional,
    barker_gap,
    max_tensor_membership,
    min_tensor,
    min_tensor_membership,
    square,
)
from conelab.serialize import (
    CERTIFICATE_TYPES,
    bipartite_from_dict,
    bipartite_to_dict,
    polytope_to_dict,
    to_json,
)

H2_HALF = bipartite(h_operator(2).matrix / 2, 2, 2)
FAST = OptimizerConfig(starts=20, steps=100, seed=0)


def _product_2x2():
    v = random_product_state(2, 2, np.random.default_rng(5)).kron
    return bipartite(np.outer(v, v.conj()), 2, 2)


def _max_out_functional():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = 3 * rng.normal(size=(3, 3))
        m[-1, -1] = 1.0
        phi = TensorFunctional(m)
        v = max_tensor_membership(phi, square(), square())
        if v.status is Status.OUT:
            return v
    raise AssertionError("no functional outside the maximal product in 100 draws")


def _verdicts():
    gap = barker_gap(square(), square())
    centre = TensorFunctional(min_tensor(square(), square()).vertices.mean(axis=0).reshape(3, 3))
    yield "psd in", is_psd(H2_HALF), Status.IN
    yield "ppt out", ppt_check(H2_HALF), Status.OUT
    yield "ppt in", ppt_check(_product_2x2()), Status.IN
    yield "ppt unknown", ppt_check(bipartite(np.eye(9) / 9, 3, 3)), Status.UNKNOWN
    yield "block-positive in", is_block_positive(H2_HALF, 1e-6, FAST), Status.IN
    yield "decompose in", separable_decompose(_product_2x2()), Status.IN
    yield "decompose unknown", separable_decompose(H2_HALF), Status.UNKNOWN
    yield "max in", gap.max_verdict, Status.IN
    yield "max out", _max_out_functional(), Status.OUT
    yield "min in", min_tensor_membership(centre, square(), square()), Status.IN
    yield "min out", gap.min_verdict, Status.OUT


VERDICTS = list(_verdicts())


@pytest.mark.parametrize("name,verdict,status", VERDICTS, ids=[v[0] for v in VERDICTS])
def test_certificate_keys_are_type_and_field_names(name, verdict, status):
    assert verdict.status is status
    doc = to_json(verdict)
    assert set(doc) == {"status", "certificate"}
    assert doc["status"] == status.value
    cert = verdict.certificate
    names = {f.name for f in dataclasses.fields(cert)}
    assert set(doc["certificate"]) == {"type"} | names
    assert doc["certificate"]["type"] == CERTIFICATE_TYPES[type(cert)]
    json.dumps(doc, allow_nan=False)


def test_every_verdict_certificate_type_is_exercised():
    assert ({type(v.certificate) for _, v, _ in VERDICTS}
            == set(CERTIFICATE_TYPES) - {CbEstimate, CbUpperBound, LowerBoundCertificate})


def test_type_names():
    assert sorted(CERTIFICATE_TYPES.values()) == sorted([
        "spectral", "witness", "optimizer", "decomposition", "ray-pair",
        "convex-weights", "separating-hyperplane", "cb-estimate", "lower-bound",
        "cb-upper-bound"])


def test_lower_bound_certificate_is_q_and_value():
    s = swap_operator(2)
    cert = lower_bound(s, partial_transpose(s, "right"))
    assert to_json(cert) == {"type": "lower-bound", "q": bipartite_to_dict(cert.q),
                             "value": cert.value}


def test_cb_upper_bound_is_value_and_y():
    up = cb_upper_bound(MatrixMap.transpose(2))
    assert to_json(up) == {"type": "cb-upper-bound", "value": up.value,
                           "y": bipartite_to_dict(up.y)}


def test_unregistered_dataclass_has_no_type():
    pv = random_product_state(2, 3, np.random.default_rng(0))
    doc = to_json(pv)
    assert set(doc) == {"left", "right"}
    assert doc["left"] == [[float(z.real), float(z.imag)] for z in pv.left]


def test_operators_and_polytopes_use_their_file_formats():
    assert to_json(H2_HALF) == bipartite_to_dict(H2_HALF)
    assert to_json(square()) == polytope_to_dict(square())
    assert to_json(H2_HALF.op) == {k: v for k, v in bipartite_to_dict(H2_HALF).items()
                                   if k in ("dim", "entries")}


def test_scalars_and_sequences():
    doc = to_json((np.float64(0.5), np.int64(3), np.bool_(True), [1, "a", None]))
    assert doc == [0.5, 3, True, [1, "a", None]]
    assert [type(v) for v in doc[:3]] == [float, int, bool]
    assert to_json(np.arange(4).reshape(2, 2)) == [[0, 1], [2, 3]]
    assert to_json(np.array([1 + 2j, -3j])) == [[1.0, 2.0], [0.0, -3.0]]


@pytest.mark.parametrize("value", [object(), {"a": 1}, {1, 2}, Polytope])
def test_unknown_values_raise(value):
    with pytest.raises(TypeError):
        to_json(value)


# ---------------------------------------------------------------------------
# CLI reports


def run_json(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def _vector(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def test_cli_optimizer_best_vector_reproduces_best_value(capsys, tmp_path):
    p = tmp_path / "h2.json"
    p.write_text(json.dumps(bipartite_to_dict(H2_HALF)))
    code, rep = run_json(capsys, ["membership", "--cone", "block-positive",
                                  "--input", str(p), "--budget", "30"])
    assert code == 0
    cert = rep["certificates"]["verdict"]["certificate"]
    v = np.kron(_vector(cert["best_vector"]["left"]), _vector(cert["best_vector"]["right"]))
    value = float(np.real(v.conj() @ H2_HALF.matrix @ v))
    assert value == pytest.approx(cert["best_value"], abs=1e-9)


def test_cli_kappa_reports_cb_estimate(capsys):
    code, rep = run_json(capsys, ["kappa", "--n", "3", "--m", "3", "--budget", "20"])
    assert code == 0
    cert = rep["certificates"]["cb_estimate"]
    assert cert["type"] == "cb-estimate"
    assert set(cert) == {"type", "value", "argmax", "starts", "steps", "seed",
                         "rounds", "converged", "upper"}
    assert isinstance(cert["converged"], bool)
    upper = cert["upper"]["value"]
    assert cert["upper"]["type"] == "cb-upper-bound"
    assert upper == rep["results"]["cb_upper_bound"]
    # the embedded swap meets the bound, so the search stops before its first round
    assert cert["rounds"] == 0
    assert cert["value"] >= upper - CB_GAIN * max(1.0, upper)
    assert cert["value"] == rep["results"]["cb_estimate"]
    entries = np.array([complex(re, im) for re, im in cert["argmax"]["entries"]]).reshape(9, 9)
    assert np.abs(entries - entries.conj().T).max() <= 1e-12
    x = bipartite_from_dict(cert["argmax"])
    assert np.abs(np.linalg.eigvalsh(x.matrix)).max() <= 1 + 1e-9
    image = apply_to_left_factor(extremal_positive_map(3, 3), x).matrix
    assert np.abs(np.linalg.eigvalsh(image)).max() == pytest.approx(cert["value"], abs=1e-9)


def test_cli_report_commands_carry_every_report_field(capsys):
    _, rep = run_json(capsys, ["witness-x", "--n", "2"])
    assert rep["results"]["passes"] is True and "certificate" not in rep["results"]
    assert rep["certificates"]["separable_half"]["type"] == "lower-bound"
    _, rep = run_json(capsys, ["riesz"])
    assert rep["results"]["passes"] is True
    _, rep = run_json(capsys, ["trace-simplex", "--a", "2,3", "--b", "2,5"])
    assert rep["results"]["passes"] is True
    assert rep["results"]["tensor_dimension"] == 3


@pytest.mark.parametrize("n", [2, 3])
def test_cli_witness_x_certificate_rechecks_with_two_eigvalsh(capsys, n):
    _, rep = run_json(capsys, ["witness-x", "--n", str(n)])
    cert = rep["certificates"]["separable_half"]
    assert set(cert) == {"type", "q", "value"} and cert["type"] == "lower-bound"
    q = bipartite_from_dict(cert["q"])
    s = swap_operator(n).matrix
    value = (np.linalg.eigvalsh(s - partial_transpose(q, "right").matrix)[0]
             + np.linalg.eigvalsh(q.matrix)[0])
    assert value == cert["value"] >= -1e-12


@pytest.fixture
def gon13(tmp_path):
    t = 2 * np.pi * np.arange(13) / 13
    p = tmp_path / "gon13.json"
    p.write_text(json.dumps({"dim": 2, "vertices": np.c_[np.cos(t), np.sin(t)].tolist()}))
    return str(p)


@pytest.fixture
def simplex5(tmp_path):
    p = tmp_path / "simplex5.json"
    p.write_text(json.dumps({"dim": 5, "vertices": np.vstack([np.zeros(5), np.eye(5)]).tolist()}))
    return str(p)


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps(polytope_to_dict(square())))
    return str(p)


@pytest.mark.parametrize("argv", [
    ["polytope", "tensor", "--k1", "{gon13}", "--k2", "{square}", "--gap"],
    ["polytope", "tensor", "--k1", "{simplex5}", "--k2", "{square}", "--relative-bound"],
    ["barker", "--k1", "{gon13}", "--k2", "{square}"],
], ids=["13-gon gap", "5-d relative bound", "13-gon barker"])
def test_polytope_beyond_supported_range_is_data_error(capsys, gon13, simplex5, square_file,
                                                       argv):
    argv = [a.format(gon13=gon13, simplex5=simplex5, square=square_file) for a in argv]
    assert cli.main(argv) == 65
    assert "exceeds the supported" in capsys.readouterr().err


def test_plain_polytope_tensor_of_13_gon_still_passes(capsys, gon13, square_file):
    code, rep = run_json(capsys, ["polytope", "tensor", "--k1", gon13, "--k2", square_file])
    assert code == 0
    assert rep["results"]["min_vertex_count"] == 52
