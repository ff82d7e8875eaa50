import numpy as np
import pytest

from conelab.maps import random_map
from conelab.operators import random_hermitian, swap_operator
from conelab.polytopes import square
from conelab.serialize import (
    MalformedInput,
    bipartite_from_dict,
    bipartite_to_dict,
    hermitian_from_dict,
    hermitian_to_dict,
    map_from_dict,
    map_to_dict,
    polytope_from_dict,
    polytope_to_dict,
)


def test_hermitian_roundtrip():
    rng = np.random.default_rng(0)
    op = random_hermitian(3, rng)
    back = hermitian_from_dict(hermitian_to_dict(op))
    assert np.allclose(back.matrix, op.matrix, atol=0)


def test_bipartite_roundtrip():
    op = swap_operator(3)
    d = bipartite_to_dict(op)
    assert (d["n"], d["m"], d["dim"]) == (3, 3, 9)
    back = bipartite_from_dict(d)
    assert np.array_equal(back.matrix, op.matrix)


def test_map_roundtrip():
    phi = random_map(2, 3, np.random.default_rng(1))
    back = map_from_dict(map_to_dict(phi))
    assert np.array_equal(back.coeffs, phi.coeffs)
    assert (back.input_dim, back.output_dim) == (2, 3)


def test_polytope_roundtrip():
    k = square()
    back = polytope_from_dict(polytope_to_dict(k))
    assert np.array_equal(back.vertices, k.vertices)


def test_wrong_entry_count():
    with pytest.raises(MalformedInput, match="expected 4 entries"):
        hermitian_from_dict({"dim": 2, "entries": [[1.0, 0.0]]})


def test_missing_fields():
    with pytest.raises(MalformedInput):
        bipartite_from_dict({"dim": 4, "entries": [[0.0, 0.0]] * 16})


def test_non_hermitian_payload_rejected():
    entries = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(MalformedInput, match="not Hermitian"):
        hermitian_from_dict({"dim": 2, "entries": entries})


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
