"""Seeded benchmark inputs whose ground truth is known by construction.

Every generator takes a ``numpy.random.Generator`` and returns conelab
objects built from numpy draws made here, so a change to conelab's own
random helpers cannot change the inputs.  The ``check_*`` functions verify
each ground truth by direct evaluation and raise ``AssertionError`` when
it does not hold, so a broken generator fails before any solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from conelab.maps import MatrixMap, jamiolkowski, map_from_choi
from conelab.operators import BipartiteOperator, bipartite
from conelab.polytopes import Polytope


def unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def partial_transpose(x: np.ndarray, n: int, m: int) -> np.ndarray:
    """Transpose of the right factor, under numpy.kron's index convention."""
    return x.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)


# ---------------------------------------------------------------------------
# block positivity with a planted product minimum


@dataclass(frozen=True)
class Planted:
    """X = P^Gamma / ||P^Gamma|| + eps I, where the PSD operator P = g g* has
    left (x) conj(right) in its kernel.  Every product vector gives P^Gamma
    a nonnegative value and left (x) right gives it zero, so the minimum of
    X over product vectors is exactly ``eps``."""

    x: BipartiteOperator
    eps: float
    left: np.ndarray
    right: np.ndarray


def planted(n: int, m: int, eps: float, rng: np.random.Generator) -> Planted:
    """P has rank one, so the zero set is a whole family of product vectors
    and the optimizer's projected-gradient phase runs its full step budget
    on every seed.  With a P of higher rank it often stops early, and its
    cost varies with the seed by up to 2.5x."""
    left, right = unit_vector(n, rng), unit_vector(m, rng)
    zero = np.kron(left, right.conj())
    d = n * m
    g = rng.normal(size=(d, 1)) + 1j * rng.normal(size=(d, 1))
    g -= np.outer(zero, zero.conj() @ g)
    pt = partial_transpose(g @ g.conj().T, n, m)
    pt /= np.max(np.abs(np.linalg.eigvalsh(pt)))
    return Planted(bipartite(pt + eps * np.eye(d), n, m), eps, left, right)


def check_planted(p: Planted) -> None:
    v = np.kron(p.left, p.right)
    value = float((v.conj() @ p.x.matrix @ v).real)
    if abs(value - p.eps) > 1e-12:
        raise AssertionError(f"planted vector gives {value!r}, expected {p.eps!r}")
    n, m = p.x.n, p.x.m
    shifted = partial_transpose(p.x.matrix - p.eps * np.eye(n * m), n, m)
    if np.linalg.eigvalsh(shifted)[0] < -1e-12:
        raise AssertionError("X - eps I is not the partial transpose of a PSD operator")


def planted_map(p: Planted) -> MatrixMap:
    """The map whose Jamiolkowski matrix is the planted operator."""
    n, m = p.x.n, p.x.m
    return map_from_choi(bipartite(partial_transpose(p.x.matrix, n, m), n, m))


def check_planted_map(p: Planted, phi: MatrixMap) -> None:
    err = float(np.max(np.abs(jamiolkowski(phi).matrix - p.x.matrix)))
    if err > 1e-12:
        raise AssertionError(f"jamiolkowski(map_from_choi(PT(X))) misses X by {err:.3e}")


# ---------------------------------------------------------------------------
# positive maps with a known cb norm


def twisted_transpose(n: int, rng: np.random.Generator) -> MatrixMap:
    """A |-> W A^T W* with W Haar-random: positive, not completely positive,
    and with the cb norm of the transpose, n, since conjugating by a unitary
    changes no norm."""
    w = haar_unitary(n, rng)
    return MatrixMap.from_function(n, n, lambda a: w @ a.T @ w.conj().T)


def check_positive_map(phi: MatrixMap) -> None:
    """The Jamiolkowski matrix of Phi is the Choi matrix of Phi o transpose,
    so it is PSD exactly when Phi o transpose is completely positive, which
    makes Phi positive."""
    w = np.linalg.eigvalsh(jamiolkowski(phi).matrix)
    if w[0] < -1e-9 * max(1.0, abs(w[-1])):
        raise AssertionError("the Jamiolkowski matrix is not PSD")


def check_unital(phi: MatrixMap) -> None:
    """A unital positive map has norm ||Phi(I)|| = 1 (Russo-Dye)."""
    err = float(np.max(np.abs(phi.apply(np.eye(phi.input_dim)) - np.eye(phi.output_dim))))
    if err > 1e-12:
        raise AssertionError(f"Phi(I) misses the identity by {err:.3e}")


# ---------------------------------------------------------------------------
# separable and entangled states


def separable_mixture(n: int, m: int, rank: int, rng: np.random.Generator) -> BipartiteOperator:
    """Dirichlet-weighted mixture of ``rank`` random pure product states."""
    weights = rng.dirichlet(np.ones(rank))
    acc = np.zeros((n * m, n * m), dtype=complex)
    for w in weights:
        v = np.kron(unit_vector(n, rng), unit_vector(m, rng))
        acc += w * np.outer(v, v.conj())
    return bipartite(acc, n, m)


def interior_separable(n: int, m: int, rank: int, rng: np.random.Generator) -> BipartiteOperator:
    """0.7 * separable_mixture + 0.3 * I / nm: full rank, separable."""
    mix = separable_mixture(n, m, rank, rng).matrix
    return bipartite(0.7 * mix + 0.3 * np.eye(n * m) / (n * m), n, m)


def entangled_state(n: int, m: int, noise: float, rng: np.random.Generator) -> BipartiteOperator:
    """(1 - noise) |psi><psi| + noise I / nm, with psi maximally entangled of
    Schmidt rank min(n, m) up to Haar-random local unitaries."""
    k = min(n, m)
    u, w = haar_unitary(n, rng)[:, :k], haar_unitary(m, rng)[:, :k]
    psi = sum(np.kron(u[:, j], w[:, j]) for j in range(k)) / np.sqrt(k)
    rho = (1 - noise) * np.outer(psi, psi.conj()) + noise * np.eye(n * m) / (n * m)
    return bipartite(rho, n, m)


def ppt_minimum(n: int, m: int, noise: float) -> float:
    """Exact lowest eigenvalue of the partial transpose of ``entangled_state``;
    local unitaries do not change the spectrum."""
    return noise / (n * m) - (1 - noise) / min(n, m)


def check_state(x: BipartiteOperator, rank: int) -> None:
    w = np.linalg.eigvalsh(x.matrix)
    if w[0] < -1e-12 or abs(x.op.trace() - 1.0) > 1e-12:
        raise AssertionError("not a density matrix")
    if int(np.sum(w > 1e-10)) != rank:
        raise AssertionError(f"rank {int(np.sum(w > 1e-10))}, expected {rank}")


def check_entangled(x: BipartiteOperator, noise: float) -> None:
    check_state(x, x.dim)
    low = float(np.linalg.eigvalsh(partial_transpose(x.matrix, x.n, x.m))[0])
    want = ppt_minimum(x.n, x.m, noise)
    if want >= 0 or abs(low - want) > 1e-12:
        raise AssertionError(f"partial transpose minimum {low!r}, expected {want!r} < 0")


# ---------------------------------------------------------------------------
# polygons


def polygon(k: int, rng: np.random.Generator) -> Polytope:
    """Seeded affine image of the regular k-gon: rotation, scaling of each
    axis by a factor in [0.7, 1.4], rotation, shift in [-1, 1]^2."""
    angles = 2 * np.pi * np.arange(k) / k
    regular = np.column_stack([np.cos(angles), np.sin(angles)])
    a = _rotation(rng.uniform(0, 2 * np.pi)) @ np.diag(rng.uniform(0.7, 1.4, size=2))
    a = a @ _rotation(rng.uniform(0, 2 * np.pi))
    return Polytope(regular @ a.T + rng.uniform(-1, 1, size=2))


def check_polygon(p: Polytope, k: int) -> None:
    """k planar vertices in strictly convex position: walking them in angular
    order around the centroid, every turn is a left turn."""
    v = p.vertices
    if v.shape != (k, 2):
        raise AssertionError(f"expected {k} planar vertices, got shape {v.shape}")
    rel = v - v.mean(axis=0)
    ring = v[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
    e = np.roll(ring, -1, axis=0) - ring
    f = np.roll(e, -1, axis=0)
    if not np.all(e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0] > 1e-6):
        raise AssertionError("polygon vertices are not in strictly convex position")


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])
