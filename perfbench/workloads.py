"""The three benchmark workloads: fixed batches of requests on seeded inputs.

A request calls public conelab functions through their module namespace
at call time, so the tracing wrappers see it.  Its judge checks the answer
against the ground truth of the generated input and re-verifies the
certificate; it returns an ``Outcome`` or raises ``Wrong``.  An honest
Unknown is not wrong, but does not count as decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from conelab import cones, kappa, maps, polytopes
from conelab.cones import Status

import generators as gen

EPS = 1e-5  # planted product minimum, +-EPS sits next to the verdict boundary
# Vertex counts of the maximal tensor product of two k-gons, and the relative
# bound of the pair; both are invariant under affine maps of each factor.
MAX_VERTICES = {4: 24, 5: 135, 6: 552}
RELATIVE_BOUND = {4: 0.5, 5: (3 - np.sqrt(5)) / np.sqrt(5), 6: 0.5}


class Wrong(Exception):
    """The program returned a wrong verdict or an invalid certificate."""


@dataclass(frozen=True)
class Outcome:
    decided: bool
    signature: tuple  # must agree between passes and between runs
    errors: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Request:
    label: str
    call: Callable[[], object]
    judge: Callable[[object], Outcome]


def rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream per request, so requests do not share draws."""
    return np.random.default_rng([seed, index])


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


# ---------------------------------------------------------------------------
# verdicts


def _judge_planted(p: gen.Planted):
    def judge(verdict) -> Outcome:
        want = Status.IN if p.eps > 0 else Status.OUT
        _expect(verdict.status is want, f"verdict {verdict.status.value}, expected {want.value}")
        cert = verdict.certificate
        v = cert.best_vector.kron
        value = float((v.conj() @ p.x.matrix @ v).real)
        _expect(abs(value - cert.best_value) <= 1e-9, "product-vector certificate does not "
                f"reproduce its value: {value!r} vs {cert.best_value!r}")
        err = abs(cert.best_value - p.eps)
        return Outcome(True, (verdict.status.value, cert.best_value),
                       {"cones.block_positive_min.max_err": err})

    return judge


def _cb_value(phi, x: np.ndarray) -> float:
    """||(Phi (x) id)(X)|| recomputed from the map's action on matrix units."""
    n, m = phi.input_dim, phi.output_dim
    y = np.einsum("pqij,ikjl->pkql", phi.unit_images(), x.reshape(n, m, n, m))
    return float(np.max(np.abs(np.linalg.eigvalsh(y.reshape(m * m, m * m)))))


def _judge_cb(phi, reference: float):
    """Phi is unital and positive, so its norm 1 is a floor for the estimate,
    and the estimate is a lower bound on the cb norm ``reference``."""

    def judge(est) -> Outcome:
        x = est.argmax.matrix
        _expect(np.max(np.abs(np.linalg.eigvalsh(x))) <= 1 + 1e-9,
                "argmax is not a Hermitian contraction")
        _expect(abs(_cb_value(phi, x) - est.value) <= 1e-9 * reference,
                "argmax does not reproduce the estimate")
        _expect(1 - 1e-9 <= est.value <= reference * (1 + 1e-9),
                f"estimate {est.value!r} outside [1, {reference!r}]")
        rel = abs(est.value - reference) / reference
        return Outcome(rel <= 1e-6, (est.value,), {"kappa.cb_norm_estimate.max_rel_err": rel})

    return judge


# (kind, n, m, sign of eps): every size once, each kind on both sides of tol.
PLANTED = (
    ("block-positive", 2, 2, 1),
    ("block-positive", 4, 4, -1),
    ("positive-map", 2, 3, -1),
    ("positive-map", 3, 3, 1),
)


def verdicts(seed: int) -> list[Request]:
    """Block-positivity membership and map positivity on planted operators
    at eps = +-1e-5 against tol 1e-6, then three cb-norm estimates whose
    exact value is 3."""
    requests = []
    for i, (kind, n, m, sign) in enumerate(PLANTED):
        p = gen.planted(n, m, sign * EPS, rng(seed, i))
        gen.check_planted(p)
        if kind == "block-positive":
            call = lambda x=p.x: cones.is_block_positive(x)  # noqa: E731
        else:
            phi = gen.planted_map(p)
            gen.check_planted_map(p, phi)
            call = lambda phi=phi: maps.is_positive_map(phi)  # noqa: E731
        requests.append(Request(f"{kind} {n}x{m} eps={p.eps:+.0e}", call, _judge_planted(p)))
    for label, phi in (
        ("cb-norm transpose(3)", maps.MatrixMap.transpose(3)),
        ("cb-norm extremal(3,4)", kappa.extremal_positive_map(3, 4)),
        ("cb-norm twisted transpose(3)", gen.twisted_transpose(3, rng(seed, 20))),
    ):
        gen.check_positive_map(phi)
        gen.check_unital(phi)
        requests.append(Request(label, lambda phi=phi: kappa.cb_norm_estimate(phi),
                                _judge_cb(phi, 3.0)))
    return requests


# ---------------------------------------------------------------------------
# decompose


def _judge_separable(x):
    def judge(verdict) -> Outcome:
        cert = verdict.certificate
        sig = (verdict.status.value, cert.residual, len(cert.weights))
        if verdict.status is Status.UNKNOWN:
            return Outcome(False, sig)
        _expect(verdict.status is Status.IN, f"verdict {verdict.status.value} on a separable state")
        _expect(bool(np.all(cert.weights >= 0)), "negative weight in the decomposition")
        resid = float(np.linalg.norm(cert.reconstruct() - x.matrix))
        _expect(resid <= 1e-6, f"decomposition misses the state by {resid:.3e}")
        return Outcome(True, sig)

    return judge


def _judge_entangled(verdict) -> Outcome:
    _expect(verdict.status is Status.UNKNOWN,
            f"verdict {verdict.status.value} on a PPT-violating state")
    return Outcome(False, (verdict.status.value, verdict.certificate.residual))


# (label, repeats, generator, ground-truth check, separable); every repeat
# draws its own input from its own stream.  The interior states cost about
# the same on every seed, which steadies batch_s; each PPT-violating state
# costs between 0.7x and 1.3x its median, so there is one of each.
DECOMPOSE = (
    ("separable 2x3 rank-3", 1, lambda r: gen.separable_mixture(2, 3, 3, r),
     lambda x: gen.check_state(x, 3), True),
    ("separable 3x3 rank-4", 1, lambda r: gen.separable_mixture(3, 3, 4, r),
     lambda x: gen.check_state(x, 4), True),
    ("interior separable 2x2", 5, lambda r: gen.interior_separable(2, 2, 3, r),
     lambda x: gen.check_state(x, 4), True),
    ("entangled 3x3 noise=0.2", 1, lambda r: gen.entangled_state(3, 3, 0.2, r),
     lambda x: gen.check_entangled(x, 0.2), False),
    ("entangled 2x2 noise=0.6", 1, lambda r: gen.entangled_state(2, 2, 0.6, r),
     lambda x: gen.check_entangled(x, 0.6), False),
)


def decompose(seed: int) -> list[Request]:
    """separable_decompose at the default budget: greedy-phase successes,
    interior states settled by a short LM polish, and PPT-violating states
    that stall in ensemble rotation (3x3) or run four LM polishes (2x2)."""
    requests = []
    index = 100
    for label, repeats, make, check, separable in DECOMPOSE:
        for _ in range(repeats):
            x = make(rng(seed, index))
            index += 1
            check(x)
            judge = _judge_separable(x) if separable else _judge_entangled
            requests.append(Request(label, lambda x=x: cones.separable_decompose(x), judge))
    return requests


# ---------------------------------------------------------------------------
# tensor-gap


def _min_vertices(k1, k2) -> np.ndarray:
    """Elementary tensors [v;1][w;1]^T of all vertex pairs, flattened."""
    a = np.hstack([k1.vertices, np.ones((len(k1.vertices), 1))])
    b = np.hstack([k2.vertices, np.ones((len(k2.vertices), 1))])
    return np.einsum("pi,qj->pqij", a, b).reshape(len(a) * len(b), -1)


def _judge_vertices(count: int):
    def judge(mx) -> Outcome:
        _expect(mx.n_vertices == count, f"{mx.n_vertices} maximal vertices, expected {count}")
        return Outcome(True, (mx.n_vertices,))

    return judge


def _judge_gap(k1, k2):
    def judge(gap) -> Outcome:
        _expect(gap is not None, "no gap point found between min and max tensor products")
        _expect(gap.max_verdict.status is Status.IN and gap.min_verdict.status is Status.OUT,
                "gap point lacks an In certificate for max and an Out certificate for min")
        ray = gap.max_verdict.certificate
        _expect(ray.value >= -1e-9 and abs(ray.ray_left @ gap.functional.matrix @ ray.ray_right
                                          - ray.value) <= 1e-9, "invalid ray-pair certificate")
        plane = gap.min_verdict.certificate
        offset = float(np.max(_min_vertices(k1, k2) @ plane.normal))
        margin = float(plane.normal @ gap.functional.flat) - offset
        _expect(offset <= plane.offset + 1e-9 and margin > 1e-6,
                f"separating hyperplane margin {margin!r} is not positive")
        return Outcome(True, (gap.margin,))

    return judge


def _judge_bound(reference: float):
    def judge(bound) -> Outcome:
        _expect(abs(bound - reference) <= 1e-7, f"relative bound {bound!r}, expected {reference!r}")
        return Outcome(True, (bound,))

    return judge


def _judge_no_gap(gap) -> Outcome:
    _expect(gap is None, "a simplex factor must make the two tensor products equal")
    return Outcome(True, (None,))


def tensor_gap(seed: int) -> list[Request]:
    """Vertex enumeration, gap finder and relative bound on seeded affine
    images of k-gon x k-gon for k = 4, 5, 6, then vertex enumeration and
    gap finder on triangle x k-gon, where min and max must coincide.  The
    relative-bound request reuses the maximal polytope its pair's first
    request returned in the same pass."""
    requests = []
    for k in (4, 5, 6):
        r = rng(seed, 200 + k)
        k1, k2 = gen.polygon(k, r), gen.polygon(k, r)
        gen.check_polygon(k1, k)
        gen.check_polygon(k2, k)
        last = {}

        def enumerate_max(a=k1, b=k2, last=last):
            last["max"] = polytopes.max_tensor_polytope(a, b)
            return last["max"]

        requests += [
            Request(f"{k}-gon x {k}-gon max_tensor_polytope", enumerate_max,
                    _judge_vertices(MAX_VERTICES[k])),
            Request(f"{k}-gon x {k}-gon barker_gap", lambda a=k1, b=k2: polytopes.barker_gap(a, b),
                    _judge_gap(k1, k2)),
            Request(f"{k}-gon x {k}-gon relative_bound",
                    lambda a=k1, b=k2, last=last: polytopes.relative_bound(
                        polytopes.min_tensor(a, b), last["max"]),
                    _judge_bound(RELATIVE_BOUND[k])),
        ]
    for k in (5, 6):
        r = rng(seed, 210 + k)
        tri, other = gen.polygon(3, r), gen.polygon(k, r)
        gen.check_polygon(tri, 3)
        gen.check_polygon(other, k)
        requests += [
            Request(f"triangle x {k}-gon max_tensor_polytope",
                    lambda a=tri, b=other: polytopes.max_tensor_polytope(a, b),
                    _judge_vertices(3 * k)),
            Request(f"triangle x {k}-gon barker_gap",
                    lambda a=tri, b=other: polytopes.barker_gap(a, b), _judge_no_gap),
        ]
    return requests


WORKLOADS = {"verdicts": verdicts, "decompose": decompose, "tensor-gap": tensor_gap}
# Seconds one pass over each batch takes on the reference machine (2 vCPUs,
# one BLAS thread, no other load); they fix how many passes a run makes.
PASS_SECONDS = {"verdicts": 7.0, "decompose": 8.5, "tensor-gap": 7.0}
