#!/usr/bin/env python3
"""Walk through the square x square tensor gap in explicit coordinates.

Prints the minimal/maximal vertex counts, the relative bound, the gap
functional with both certificates, and the norm statistics linking the
bound r to the 2r + 1 estimate.
"""

import numpy as np

from conelab.kappa import polytope_max_norm
from conelab.polytopes import (
    functional_from_flat,
    gap_among,
    max_tensor_polytope,
    min_tensor,
    relative_bound,
    square,
)


def main() -> None:
    sq = square()
    mn = min_tensor(sq, sq)
    mx = max_tensor_polytope(sq, sq)
    print(f"minimal tensor product: {mn.n_vertices} vertices")
    print(f"maximal tensor product: {mx.n_vertices} vertices")

    r = relative_bound(mn, mx)
    print(f"relative bound r = {r:.6f}  (so max-norms are bounded by 2r+1 = {2*r+1:.3f})")

    norms = [polytope_max_norm(functional_from_flat(v, sq, sq), sq, sq) for v in mx.vertices]
    print(f"max-norm over maximal vertices: {max(norms):.6f}")

    gap = gap_among(mx, sq, sq)
    assert gap is not None
    print("\ngap functional (coefficient matrix):")
    print(np.round(gap.functional.matrix, 6))
    print(f"max-side verdict: {gap.max_verdict.status.value} "
          f"(worst ray pair value {gap.max_verdict.certificate.value:.2e})")
    print(f"min-side verdict: {gap.min_verdict.status.value} "
          f"(separating margin {gap.margin:.6f})")


if __name__ == "__main__":
    main()
