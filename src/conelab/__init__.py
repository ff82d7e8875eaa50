"""conelab: membership oracles, positive-map calculus and tensor-polytope
arithmetic for the nested cones of bipartite Hermitian operators.

Each function has one import path, ``conelab.<module>.<name>``."""

from . import algebras, cones, kappa, maps, operators, polytopes  # noqa: F401

# perfbench/test_perfbench.py reads conelab.is_block_positive; it goes with
# that pin.
from .cones import is_block_positive  # noqa: F401
