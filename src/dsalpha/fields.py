"""Gridded physical-space samples of a field.

Spectra never travel as Fields: the transforms and the multiplier kernels
in spectral.py take and return plain arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, SpaceContractError
from .grid import Grid2D

# Imaginary content above this (relative) in a nominally real pipeline is a bug.
REAL_COERCION_TOL = 1e-12


@dataclass
class Field:
    """Physical-space samples of a field on a Grid2D.

    values has shape (nx, ny), x index first, row-major (y fastest).
    Complex fields hold the wave amplitude v; real fields hold auxiliary
    quantities (u, velocity components, ground-state profiles).
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )

    @property
    def is_real(self):
        return not np.iscomplexobj(self.values)


def complex_field(grid, values):
    """Wrap values as a complex field, promoting dtype to complex128."""
    return Field(grid, np.asarray(values, dtype=np.complex128))


def real_field(grid, values):
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
    return Field(grid, np.asarray(values, dtype=np.float64))


def check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("fields live on different grids")
    return g
