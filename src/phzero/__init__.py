"""Zero dynamics of boundary-coupled transport networks.

The package analyses networks of one-dimensional transport channels with
boundary inputs and outputs: well-posedness, exact one-traversal
discretization, exponential stability, transmission zeros, and above
all the zero dynamics (the dynamics compatible with an identically
vanishing output), computed both as an output-nulling subspace and as an
explicitly reduced boundary system, with an exact characteristics
simulator to certify the results.
"""

__version__ = "0.1.0"

from .analysis import (
    DiscreteSystem,
    TransmissionZeros,
    check_well_posed,
    discrete_reduce,
    is_exponentially_stable,
    is_transmission_zero,
    output_nulling_stacks,
    scan_zeros,
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
from .linalg import Subspace, rank, spectral_radius
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
    NullingFriend,
    ZeroDynamicsResult,
    nulling_friend,
    reduce,
    vstar_discrete,
)

__all__ = [
    "ConsistencyError", "DiagonalizedConstant", "DiscreteSystem",
    "IllPosedError", "MultiSpeedSystem", "NullingFriend", "PHSystem",
    "RationalSpeed", "RawConstantSystem", "ReductionError", "SchemaError",
    "SingularMatrixError", "Subspace", "Trajectory", "TransmissionZeros",
    "UnsupportedSystemError", "ZeroDynamicsResult", "check_well_posed",
    "diagonalize_constant", "discrete_reduce", "is_exponentially_stable",
    "is_transmission_zero", "load_result", "load_system", "nulling_friend",
    "output_nulling_stacks", "rank", "reduce", "reflect_positive",
    "save_result", "save_system", "scan_zeros", "simulate",
    "simulate_zeroing", "spectral_radius", "split_commensurate", "validate",
    "vstar_discrete",
]
