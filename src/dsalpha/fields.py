"""Gridded field values with an explicit physical/spectral space flag."""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, SpaceContractError
from .grid import Grid2D

PHYSICAL = "physical"
SPECTRAL = "spectral"

# Imaginary content above this (relative) in a nominally real pipeline is a bug.
REAL_COERCION_TOL = 1e-12


@dataclass
class Field:
    """Samples of a field on a Grid2D, in physical or spectral space.

    values has shape (nx, ny), x index first, row-major (y fastest).
    Complex fields hold the wave amplitude v; real fields hold auxiliary
    quantities (u, velocity components, ground-state profiles).
    """

    grid: Grid2D
    values: np.ndarray
    space: str = PHYSICAL

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        if self.space not in (PHYSICAL, SPECTRAL):
            raise SpaceContractError(f"unknown space flag {self.space!r}")

    @property
    def is_real(self):
        return not np.iscomplexobj(self.values)

    def copy(self):
        return Field(self.grid, self.values.copy(), self.space)

    def require_space(self, space):
        if self.space != space:
            raise SpaceContractError(f"expected a {space}-space field, got {self.space}")


def complex_field(grid, values, space=PHYSICAL):
    """Wrap values as a complex field, promoting dtype to complex128."""
    return Field(grid, np.asarray(values, dtype=np.complex128), space)


def real_field(grid, values, space=PHYSICAL):
    """Wrap values as a real field.

    Complex input produced by a spectral pipeline is coerced, but only if
    its imaginary content is below 1e-12 relative; larger content means a
    multiplier or transform upstream is wrong.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        scale = np.max(np.abs(values))
        if scale > 0 and np.max(np.abs(values.imag)) > REAL_COERCION_TOL * scale:
            raise SpaceContractError(
                "refusing to coerce complex values with relative imaginary "
                f"content {np.max(np.abs(values.imag)) / scale:.3e} > {REAL_COERCION_TOL}"
            )
        values = values.real
    return Field(grid, np.asarray(values, dtype=np.float64), space)


def check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("fields live on different grids")
    return g
