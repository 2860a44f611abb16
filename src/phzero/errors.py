"""Exception types shared across the package."""


class SchemaError(ValueError):
    """A system/result document does not conform to the file schema."""


class IllPosedError(ValueError):
    """The boundary matrix multiplying the incoming traces is singular."""


class SingularMatrixError(ValueError):
    """A matrix that must be invertible for the requested operation is not."""


class UnsupportedSystemError(ValueError):
    """The operation is not defined for this system or input (e.g. MIMO
    reduction, or a zeroing run from a profile outside the nulling set)."""


class ReductionError(RuntimeError):
    """The state-space reduction cannot proceed (e.g. the frequency scan
    found no admissible shift, which indicates an identically zero
    input-output map)."""


class ConsistencyError(AssertionError):
    """An internal cross-check failed; indicates a bug or corrupted input."""
