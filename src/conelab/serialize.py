"""JSON wire formats for operators, maps and polytopes.

Operator format: {"dim": n, "entries": [[re, im], ...]} with dim^2 entries
row-major; bipartite operators add "n" and "m".  Map format:
{"input_dim": a, "output_dim": b, "coeffs": [...]} with a real
(b^2) x (a^2) coefficient array.  Polytope format:
{"dim": d, "vertices": [[...], ...]}.  Schemas live in schemas/.
"""

from __future__ import annotations

import json

import numpy as np

from .maps import MatrixMap
from .operators import BipartiteOperator, HermitianOperator, bipartite, hermitian
from .polytopes import LP_TOL, Polytope, _min_distance_lp


class MalformedInput(ValueError):
    """Raised when a JSON document does not match its schema."""


def _entries(matrix: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in matrix.ravel()]


def hermitian_to_dict(op: HermitianOperator) -> dict:
    return {"dim": op.dim, "entries": _entries(op.matrix)}


def bipartite_to_dict(op: BipartiteOperator) -> dict:
    d = hermitian_to_dict(op.op)
    d["n"] = op.n
    d["m"] = op.m
    return d


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise MalformedInput(f"{what} contain NaN or infinity")
    return values


def _matrix_from_entries(entries, dim: int) -> np.ndarray:
    if len(entries) != dim * dim:
        raise MalformedInput(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return _require_finite(flat, "operator entries").reshape(dim, dim)


def hermitian_from_dict(d: dict) -> HermitianOperator:
    try:
        dim = int(d["dim"])
        mat = _matrix_from_entries(d["entries"], dim)
        return hermitian(mat)
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad operator document: {exc}") from exc


def bipartite_from_dict(d: dict) -> BipartiteOperator:
    try:
        n, m = int(d["n"]), int(d["m"])
        dim = int(d.get("dim", n * m))
        mat = _matrix_from_entries(d["entries"], dim)
        return bipartite(mat, n, m)
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad bipartite operator document: {exc}") from exc


def map_to_dict(phi: MatrixMap) -> dict:
    return {
        "input_dim": phi.input_dim,
        "output_dim": phi.output_dim,
        "coeffs": [[float(v) for v in row] for row in phi.coeffs],
    }


def map_from_dict(d: dict) -> MatrixMap:
    try:
        coeffs = np.asarray(d["coeffs"], dtype=float)
        return MatrixMap(int(d["input_dim"]), int(d["output_dim"]),
                         _require_finite(coeffs, "map coefficients"))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad map document: {exc}") from exc


def polytope_to_dict(k: Polytope) -> dict:
    return {"dim": k.ambient_dim, "vertices": [[float(v) for v in row] for row in k.vertices]}


def polytope_from_dict(d: dict) -> Polytope:
    """Read a polytope document; every listed point must be a vertex, at
    inf-norm distance above LP_TOL from the hull of the others."""
    try:
        verts = np.asarray(d["vertices"], dtype=float)
        if verts.ndim != 2 or verts.shape[1] != int(d["dim"]):
            raise ValueError(f"vertices do not match dim={d['dim']}")
        k = Polytope(_require_finite(verts, "polytope vertices"))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad polytope document: {exc}") from exc
    if k.n_vertices > 1:
        for i, v in enumerate(k.vertices):
            dist, _ = _min_distance_lp(v, np.delete(k.vertices, i, axis=0))
            if dist <= LP_TOL:
                raise MalformedInput(f"vertex {i} is not extreme: it lies in the hull of the others")
    return k


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput(f"top-level JSON value in {path} must be an object")
    return doc
