"""Exception hierarchy for the dsalpha package."""


class DsalphaError(Exception):
    """Base class for all package errors."""


class SpaceContractError(DsalphaError):
    """Complex values with more than roundoff imaginary content were passed
    where a real field is required (raised by fields.real_field)."""


class ParameterError(DsalphaError, ValueError):
    """Invalid parameter value (non-positive nu/alpha, bad regime constants, ...)."""


class GridMismatchError(DsalphaError):
    """Fields or operators defined on incompatible grids."""


class ConvergenceError(DsalphaError):
    """An iterative solve failed to reach its tolerance.

    Carries the last residual so callers can diagnose near-misses.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateLimitError(DsalphaError):
    """A fixed-point iterate collapsed to the trivial solution."""


class SymmetryViolationError(DsalphaError):
    """A symmetric-subspace solve picked up an odd (kernel) component."""


class InsufficientDataError(DsalphaError):
    """Not enough records in the focusing window to fit collapse laws."""


class SnapshotFormatError(DsalphaError):
    """Malformed snapshot file (bad magic, version, or truncated payload)."""


class ConfigError(DsalphaError):
    """Malformed or inconsistent run configuration."""
