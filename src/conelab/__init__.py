"""conelab: membership oracles, positive-map calculus and tensor-polytope
arithmetic for the nested cones of bipartite Hermitian operators."""

from .operators import (
    BipartiteOperator,
    HermitianOperator,
    ProductVector,
    bipartite,
    h_operator,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    rho0_apply,
    swap_operator,
    tensor,
    trace_norm,
)
from .cones import (
    OptimizerConfig,
    Status,
    Verdict,
    block_positive_min,
    is_block_positive,
    is_psd,
    is_separable,
    ppt_check,
    separable_decompose,
    witness_value,
)
from .maps import (
    MatrixMap,
    adjoint_map,
    choi,
    is_positive_map,
    jamiolkowski,
    map_from_choi,
    normalize_positive_map,
)
from .kappa import (
    cb_norm_estimate,
    cb_upper_bound,
    kappa_exact,
    kappa_witness,
    max_norm_of_functional,
)
from .polytopes import (
    Polytope,
    TensorFunctional,
    affine_dimension,
    barker_gap,
    max_tensor_membership,
    min_tensor,
    min_tensor_membership,
    positive_ray_generators,
    relative_bound,
    simplex,
    square,
)
from .algebras import (
    MultiMatrixAlgebra,
    algebra_tensor,
    riesz_counterexample_check,
    trace_simplex,
    verify_trace_tensor,
    verify_X_separating,
)

__version__ = "0.1.0"
