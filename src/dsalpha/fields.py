"""Gridded physical-space samples of a field.

Spectra never travel as Fields: the transforms and the multiplier kernels
in spectral.py take and return plain arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .grid import Grid2D


@dataclass
class Field:
    """Physical-space samples of a field on a grid.

    values has the grid's shape: (nx, ny) on a Grid2D (the quarter on an
    EvenGrid), x index first, row-major (y fastest).
    Complex fields hold the wave amplitude v; real (float64) fields hold
    the ground-state pair (S, X) and the linearized corrections.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )


def complex_field(grid, values):
    """Wrap values as a complex field, promoting dtype to complex128."""
    return Field(grid, np.asarray(values, dtype=np.complex128))
