import copy
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from conelab import maps, polytopes
from conelab.cones import is_psd
from conelab.kappa import kappa_witness
from conelab.maps import MatrixMap, random_map
from conelab.operators import HermitianOperator, ProductVector, swap_operator
from conelab.polytopes import Polytope, square
from conelab.serialize import (
    MalformedInput,
    bipartite_from_dict,
    bipartite_to_dict,
    map_from_dict,
    polytope_from_dict,
    polytope_to_dict,
    to_json,
)

ROOT = Path(__file__).parent.parent


def test_bipartite_roundtrip():
    op = swap_operator(3)
    d = bipartite_to_dict(op)
    assert (d["n"], d["m"], d["dim"]) == (3, 3, 9)
    back = bipartite_from_dict(d)
    assert np.array_equal(back.matrix, op.matrix)


def test_map_roundtrip():
    phi = random_map(2, 3, np.random.default_rng(1))
    back = map_from_dict(to_json(phi))
    assert np.array_equal(back.coeffs, phi.coeffs)
    assert (back.input_dim, back.output_dim) == (2, 3)


def test_polytope_roundtrip():
    k = square()
    back = polytope_from_dict(polytope_to_dict(k))
    assert np.array_equal(back.vertices, k.vertices)


@pytest.mark.parametrize("make", [lambda: is_psd(swap_operator(2)),
                                  lambda: polytopes.barker_gap(square(), square()).max_verdict],
                         ids=["spectral", "ray-pair"])
def test_certificates_compare_through_to_json(make):
    """Certificates hold arrays: == on them is identity and must not raise."""
    a, b = make(), make()
    assert (a == b) is False and a == a
    assert json.dumps(to_json(a)) == json.dumps(to_json(b))


ARRAY_HOLDERS = {
    "HermitianOperator": lambda: HermitianOperator(np.eye(2)),
    "BipartiteOperator": lambda: swap_operator(2),
    "ProductVector": lambda: ProductVector(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "MatrixMap": lambda: MatrixMap.identity(2),
    "UnitalityReport": lambda: maps.unitality_report(MatrixMap.identity(2)),
    "BipartiteFunctional": lambda: maps.BipartiteFunctional(swap_operator(2)),
    "Polytope": square,
    "TensorFunctional": lambda: polytopes.functional_from_flat(np.eye(3).ravel(), square(), square()),
    "BarkerGap": lambda: polytopes.barker_gap(square(), square()),
    "KappaWitness": lambda: kappa_witness(2, 2),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(name):
    """Every value that holds an array compares and hashes by identity, like the certificates."""
    x = ARRAY_HOLDERS[name]()
    assert type(x).__name__ == name
    assert x == x and x != copy.copy(x)
    assert hash(x) == hash(x)


def test_wrong_entry_count():
    with pytest.raises(MalformedInput, match="expected 4 entries"):
        bipartite_from_dict({"n": 1, "m": 2, "entries": [[1.0, 0.0]]})


def test_missing_fields():
    with pytest.raises(MalformedInput):
        bipartite_from_dict({"dim": 4, "entries": [[0.0, 0.0]] * 16})


def test_non_hermitian_payload_rejected():
    entries = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(MalformedInput, match="not Hermitian"):
        bipartite_from_dict({"n": 1, "m": 2, "entries": entries})


def test_polytope_dim_mismatch():
    with pytest.raises(MalformedInput):
        polytope_from_dict({"dim": 3, "vertices": [[0.0, 1.0]]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_polytope_rejected(bad):
    doc = polytope_to_dict(square())
    doc["vertices"][1][0] = bad
    with pytest.raises(MalformedInput, match="NaN or infinity"):
        polytope_from_dict(doc)


@pytest.mark.parametrize(
    "vertices",
    [
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]],
    ],
)
def test_non_extreme_polytope_point_rejected(vertices):
    with pytest.raises(MalformedInput, match="not extreme"):
        polytope_from_dict({"dim": 2, "vertices": vertices})


@pytest.mark.parametrize(
    "vertices, index",
    [
        ([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 0),
        ([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 1.0]], 2),
        ([[0.0, 0.0], [0.25, 0.25], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], 1),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], 1),  # a repeated point
    ],
)
def test_first_non_extreme_point_is_named(vertices, index):
    with pytest.raises(MalformedInput, match=f"vertex {index} is not extreme"):
        polytope_from_dict({"dim": 2, "vertices": vertices})


@pytest.mark.parametrize("k", [3, 6, 30])
def test_extremality_lps_are_batched(k, monkeypatch):
    # the extremality test solves its LPs in polytopes.linprog: none goes to HiGHS
    count, highs = [0], scipy.optimize.linprog

    def counted(*args, **kwargs):
        count[0] += 1
        return highs(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    t = 2 * np.pi * np.arange(k) / k
    poly = Polytope(np.column_stack([np.cos(t), np.sin(t)]))
    back = polytope_from_dict(polytope_to_dict(poly))
    assert np.array_equal(back.vertices, poly.vertices)
    assert count[0] == 0


def _docs():
    """A valid document of each reader, by reader name."""
    return {
        "bipartite": (bipartite_from_dict, bipartite_to_dict(swap_operator(2))),
        "map": (map_from_dict, to_json(random_map(2, 2, np.random.default_rng(1)))),
        "polytope": (polytope_from_dict, polytope_to_dict(square())),
    }


SIZE_FIELDS = [("bipartite", "n"), ("bipartite", "m"), ("bipartite", "dim"),
               ("map", "input_dim"), ("map", "output_dim"), ("polytope", "dim")]


@pytest.mark.parametrize("bad", [2.7, 1.5, True, False, "2", None, [2], float("inf")],
                         ids=repr)
@pytest.mark.parametrize("reader, key", SIZE_FIELDS, ids="-".join)
def test_non_integer_size_field_rejected(reader, key, bad):
    read, doc = _docs()[reader]
    doc[key] = bad
    with pytest.raises(MalformedInput, match=f"{key} must be an integer"):
        read(doc)


@pytest.mark.parametrize("reader, key", SIZE_FIELDS, ids="-".join)
def test_integral_float_size_field_accepted(reader, key):
    read, doc = _docs()[reader]
    want = read(doc)
    doc[key] = float(doc[key])
    got = read(doc)
    if reader == "polytope":
        assert np.array_equal(got.vertices, want.vertices)
    elif reader == "map":
        assert (got.input_dim, got.output_dim) == (want.input_dim, want.output_dim)
        assert np.array_equal(got.coeffs, want.coeffs)
    else:
        assert np.array_equal(got.matrix, want.matrix)


def _validators():
    jsonschema = pytest.importorskip("jsonschema")
    return {kind: jsonschema.Draft202012Validator(
                json.loads((ROOT / "schemas" / f"{kind}.schema.json").read_text()))
            for kind in ("operator", "map", "polytope")}


def _schema_of(doc):
    return "operator" if "entries" in doc else "map" if "coeffs" in doc else "polytope"


def test_golden_inputs_and_encoder_output_match_their_schemas():
    validators = _validators()
    golden = json.loads((ROOT / "tests" / "data" / "golden_verdicts.json").read_text())
    docs = list(golden["inputs"].values())
    docs += [to_json(swap_operator(2)), to_json(MatrixMap.transpose(2)), to_json(square())]
    assert {_schema_of(d) for d in docs} == set(validators)
    for doc in docs:
        validators[_schema_of(doc)].validate(doc)


E4 = [[1.0, 0.0]] * 16  # the 4 x 4 all-ones matrix


@pytest.mark.parametrize("doc, schema_ok, reader_ok", [
    ({"dim": 4, "entries": E4}, False, False),
    ({"n": 2, "m": 2, "entries": E4}, True, True),
    ({"n": 2, "m": 2, "dim": 4, "entries": E4}, True, True),
    # JSON Schema cannot multiply: dim = n m is in the schema's description only
    ({"n": 1, "m": 2, "dim": 4, "entries": E4}, True, False),
    ({"n": 2, "m": 2, "dim": 4}, False, False),
], ids=["dim only", "n and m only", "all three", "n m != dim", "entries missing"])
def test_operator_schema_and_reader_agree(doc, schema_ok, reader_ok):
    assert _validators()["operator"].is_valid(doc) is schema_ok
    try:
        bipartite_from_dict(doc)
    except MalformedInput:
        assert not reader_ok
    else:
        assert reader_ok
