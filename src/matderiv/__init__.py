"""Derivatives of matrix functions along parameter paths.

Four cross-validating routes to the same mixed partial derivative of
f(A(x)): a block upper triangular embedding evaluated once, a partition
sum of multilinear directional derivatives, eigenbasis divided-difference
formulas for Hermitian base points, and block complex-step approximations.
On top of those, closed-form derivatives of density matrices and
ground-state eigenvectors for Hermitian pencils.
"""
from .blocktri import (
    PathJet,
    build_xk,
    frechet_via_blocktri,
    jet_from_directions,
    longest_path,
    partial_via_blocktri,
    partial_via_frechet_sum,
)
from .cstep import (
    StepScheme,
    block_embed,
    central_fd_1,
    central_fd_2_mixed,
    cs_frechet_1,
    cs_frechet_2,
    cs_partial_2,
    hybrid_partial_2,
    multicomplex_embed,
    regular_cs_1,
)
from .divdiff import (
    dd_table,
    descloux_eval,
    divided_difference,
    dk_first_order,
    dk_general,
    dk_second_order,
    first_dd_table,
    jet_to_eigenbasis,
)
from .errors import (
    ComplexityRefusal,
    DegenerateGroundState,
    DimensionMismatch,
    DomainError,
    EmptyIndex,
    InsufficientDerivatives,
    MatDerivError,
    MissingJetTerm,
    NoConvergence,
    NotDag,
    NotHermitian,
    NotReal,
    NotTriangular,
    OrderExceeded,
    ReferenceValidationFailed,
    TooCloseToMu,
)
from .funcs import FUNCTIONS, MatrixFunction, ScalarFunction, get_function
from .linalg import (
    SpectralDecomp,
    assemble_2x2,
    hermitian_eig,
    kron_identity_left,
    matrix_cos,
    matrix_exp,
    spectral_apply,
    spectral_norm,
)
from .matio import dumps_matrix, loads_matrix, read_matrix, write_matrix
from .multiindex import (
    MultiIndex,
    alpha_to_dirs,
    dirs_to_alpha,
    resolve_request,
    s_partitions,
    split_last,
    t_permutations,
)
from .qperturb import (
    ChemicalPotentialSplit,
    density_deriv_1,
    density_deriv_2,
    density_matrix,
    eigvec_correction_1,
    eigvec_correction_2,
    split_at_mu,
    step_divdiff_1,
    step_divdiff_2,
    step_function,
)

__version__ = "0.1.0"
