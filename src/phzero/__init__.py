"""Zero dynamics of boundary-coupled transport networks.

The package analyses networks of one-dimensional transport channels with
boundary inputs and outputs: well-posedness, exact one-traversal
discretization, exponential stability, transfer-function evaluation,
transmission zeros, and above all the zero dynamics (the dynamics
compatible with an identically vanishing output), computed both as an
output-nulling subspace and as an explicitly reduced boundary system,
with an exact characteristics simulator to certify the results.
"""

__version__ = "0.1.0"

from .analysis import (
    DiscreteSystem,
    TransferSample,
    TransmissionZeros,
    check_well_posed,
    discrete_reduce,
    feedthrough,
    is_exponentially_stable,
    is_transmission_zero,
    scan_zeros,
    transfer_eval,
)
from .canonicalize import (
    DiagonalizedConstant,
    diagonalize_constant,
    reflect_positive,
    split_commensurate,
)
from .errors import (
    ConsistencyError,
    IllPosedError,
    ReductionError,
    SchemaError,
    SingularMatrixError,
    UnsupportedSystemError,
)
from .linalg import (
    LUFactors,
    Subspace,
    lu_decompose,
    nullspace,
    preimage,
    rank,
    schur_block_inverse,
    spectral_radius,
    subspace_intersect,
)
from .model import (
    MultiSpeedSystem,
    PHSystem,
    RationalSpeed,
    RawConstantSystem,
    load_result,
    load_system,
    save_result,
    save_system,
    validate,
)
from .sim import Trajectory, simulate, simulate_zeroing
from .zerodyn import (
    CrossCheckReport,
    NullingFriend,
    ZeroDynamicsResult,
    cross_check,
    nulling_friend,
    output_nulling_stacks,
    reduce,
    vstar_discrete,
    vstar_from_quadruple,
)

__all__ = [
    "ConsistencyError", "CrossCheckReport", "DiagonalizedConstant",
    "DiscreteSystem", "IllPosedError", "LUFactors", "MultiSpeedSystem",
    "NullingFriend", "PHSystem", "RationalSpeed", "RawConstantSystem",
    "ReductionError", "SchemaError", "SingularMatrixError", "Subspace",
    "Trajectory", "TransferSample", "TransmissionZeros",
    "UnsupportedSystemError", "ZeroDynamicsResult", "check_well_posed",
    "cross_check", "diagonalize_constant", "discrete_reduce", "feedthrough",
    "is_exponentially_stable", "is_transmission_zero", "load_result",
    "load_system", "lu_decompose", "nulling_friend", "nullspace",
    "output_nulling_stacks", "preimage", "rank", "reduce", "reflect_positive",
    "save_result", "save_system", "scan_zeros", "schur_block_inverse",
    "simulate", "simulate_zeroing", "spectral_radius", "split_commensurate",
    "subspace_intersect", "transfer_eval", "validate", "vstar_discrete",
    "vstar_from_quadruple",
]
