"""Pseudospectral simulator and modulation-theory toolkit for the
elliptic-elliptic Davey-Stewartson equations and their Helmholtz
alpha-regularizations."""

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateLimitError,
    DsalphaError,
    GridMismatchError,
    InsufficientDataError,
    ParameterError,
    SnapshotFormatError,
    SpaceContractError,
    SymmetryViolationError,
)
from .fields import Field, complex_field, real_field
from .grid import Grid2D
from .ground_state import GroundState, PetviashviliConfig, residual_norm, solve_ground_state
from .models import ModelKind, ModelSpec, hamiltonian, mass
from .modulation import (
    CollapseFit,
    LinearizedSolution,
    ModulationConstants,
    ReducedState,
    ReducedTrajectory,
    collapse_fit,
    compute_constants,
    integrate_reduced,
    reduced_first_integral,
    solve_linearized,
)
from .spectral import e_multiplier, helmholtz_inverse, l2_norm
from .stepping import (
    DiagnosticsRecord,
    RunOutcome,
    RunStatus,
    StepControl,
    ifrk4_step,
    integrate,
)

__version__ = "0.1.0"

__all__ = [
    "CollapseFit",
    "ConfigError",
    "ConvergenceError",
    "DegenerateLimitError",
    "DiagnosticsRecord",
    "DsalphaError",
    "Field",
    "Grid2D",
    "GridMismatchError",
    "GroundState",
    "InsufficientDataError",
    "LinearizedSolution",
    "ModelKind",
    "ModelSpec",
    "ModulationConstants",
    "ParameterError",
    "PetviashviliConfig",
    "ReducedState",
    "ReducedTrajectory",
    "RunOutcome",
    "RunStatus",
    "SnapshotFormatError",
    "SpaceContractError",
    "StepControl",
    "SymmetryViolationError",
    "collapse_fit",
    "complex_field",
    "compute_constants",
    "e_multiplier",
    "hamiltonian",
    "helmholtz_inverse",
    "ifrk4_step",
    "integrate",
    "integrate_reduced",
    "l2_norm",
    "mass",
    "real_field",
    "reduced_first_integral",
    "residual_norm",
    "solve_ground_state",
    "solve_linearized",
]
