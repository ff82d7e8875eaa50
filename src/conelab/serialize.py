"""JSON wire formats for operators, maps, polytopes, certificates and reports.

Operator format: {"n": n, "m": m, "entries": [[re, im], ...]} with (n m)^2
entries row-major; an optional "dim" must equal n m.  Map format:
{"input_dim": a, "output_dim": b, "coeffs": [...]} with a real
(b^2) x (a^2) coefficient array.  Polytope format:
{"dim": d, "vertices": [[...], ...]}.  Schemas live in schemas/.

Certificates, verdicts and reports are written by the one encoder
``to_json``: a dataclass becomes an object keyed by its field names,
headed by {"type": name} when its class is in ``CERTIFICATE_TYPES``;
complex vectors become [re, im] pairs and operators and polytopes use the
formats above.  Those classes, like every class that holds an array, are
declared with eq=False, so == on them is identity and never meets an array;
two values are compared through to_json.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum

import numpy as np

from .cones import (
    LowerBoundCertificate,
    OptimizerTrace,
    SeparableDecomposition,
    SpectralCertificate,
    WitnessCertificate,
)
from .kappa import CbEstimate, CbUpperBound
from .maps import MatrixMap
from .operators import BipartiteOperator, HermitianOperator, bipartite
from .polytopes import (
    ConvexWeightsCertificate,
    Polytope,
    RayPairCertificate,
    SeparatingHyperplane,
    non_vertices,
)

CERTIFICATE_TYPES = {
    SpectralCertificate: "spectral",
    WitnessCertificate: "witness",
    OptimizerTrace: "optimizer",
    SeparableDecomposition: "decomposition",
    RayPairCertificate: "ray-pair",
    ConvexWeightsCertificate: "convex-weights",
    SeparatingHyperplane: "separating-hyperplane",
    CbEstimate: "cb-estimate",
    CbUpperBound: "cb-upper-bound",
    LowerBoundCertificate: "lower-bound",
}


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


def _size(d: dict, key: str) -> int:
    """Size field ``key``: an int, or a float with zero fraction (JSON Schema's integer)."""
    value = d[key]
    if not (type(value) is int or (type(value) is float and value.is_integer())):
        raise MalformedInput(f"{key} must be an integer, got {value!r}")
    return int(value)


def _matrix_from_entries(entries, dim: int) -> np.ndarray:
    if len(entries) != dim * dim:
        raise MalformedInput(f"expected {dim * dim} entries, got {len(entries)}")
    return np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)


def bipartite_from_dict(d: dict) -> BipartiteOperator:
    try:
        n, m = _size(d, "n"), _size(d, "m")
        dim = _size(d, "dim") if "dim" in d else n * m
        mat = _matrix_from_entries(d["entries"], dim)
        return bipartite(mat, n, m)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"bad bipartite operator document: {exc}") from exc


def map_from_dict(d: dict) -> MatrixMap:
    try:
        coeffs = np.asarray(d["coeffs"], dtype=float)
        return MatrixMap(_size(d, "input_dim"), _size(d, "output_dim"), coeffs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"bad map document: {exc}") from exc


def polytope_to_dict(k: Polytope) -> dict:
    return {"dim": k.ambient_dim, "vertices": [[float(v) for v in row] for row in k.vertices]}


def polytope_from_dict(d: dict) -> Polytope:
    """Read a polytope document; every listed point must be a vertex, one
    that polytopes.non_vertices does not return."""
    try:
        verts = np.asarray(d["vertices"], dtype=float)
        if verts.ndim != 2 or verts.shape[1] != _size(d, "dim"):
            raise ValueError(f"vertices do not match dim={d['dim']}")
        k = Polytope(verts)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"bad polytope document: {exc}") from exc
    inner = non_vertices(verts)
    if len(inner):
        raise MalformedInput(f"vertex {inner[0]} is not extreme: it lies in the hull of the others")
    return k


def to_json(value):
    """JSON-ready form of a certificate, verdict, report, operator or polytope."""
    if isinstance(value, BipartiteOperator):
        return bipartite_to_dict(value)
    if isinstance(value, HermitianOperator):
        return hermitian_to_dict(value)
    if isinstance(value, Polytope):
        return polytope_to_dict(value)
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value) and not isinstance(value, type):
        name = CERTIFICATE_TYPES.get(type(value))
        head = {"type": name} if name else {}
        return head | {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return _entries(value) if np.iscomplexobj(value) else value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no JSON wire format for {type(value).__name__}")


def load_json(path: str) -> dict:
    """Read a JSON object from a UTF-8 file.  Bytes that are not UTF-8,
    nesting too deep for the parser and integers too long to convert are
    malformed input, like any other invalid JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput(f"top-level JSON value in {path} must be an object")
    return doc
