"""Exception hierarchy for the dsalpha package, and the settings' finite check."""

import math


class DsalphaError(Exception):
    """Base class for all package errors."""


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
    """An input of a symmetric-subspace solve (a ground state's S or X) is
    not even about index 0; its outputs are even by construction."""


class InsufficientDataError(DsalphaError):
    """Not enough records in the focusing window to fit collapse laws."""


class SnapshotFormatError(DsalphaError):
    """Malformed snapshot file (bad magic, version, or truncated payload)."""


class ConfigError(DsalphaError):
    """Malformed or inconsistent run configuration."""


def require_finite(obj, error=ParameterError):
    """Raise error unless every float field of the dataclass obj is finite."""
    for name, value in vars(obj).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{name} must be finite, got {value}")
