"""Complex Fourier transforms and diagonal multiplier operators on the periodic box.

Transform normalization (fixed, documented): both directions use the
unitary ("ortho") convention, so Plancherel holds with the same cell-area
quadrature weight in both spaces and a pure mode exp(i k.x) transforms to a
single coefficient of modulus sqrt(nx*ny).

Spectra are plain arrays: fft2, ifft2, dealias_spectrum and the norms work
on arrays, and the Field-level operators below take and return
physical-space Fields.  fft2 and ifft2 are Grid2D's, for callers that hold
no grid; the models call their grid's own, which on an EvenGrid are
quarter-grid DCT-Is.  Real fields and their half-plane spectra belong to
the grid (rfft2, irfft2, real_symbol).  All operators here are diagonal
in spectral space and therefore commute.  The transforms run on
grid.FFT_WORKERS threads and the reductions are numpy's, on one thread, so
results do not depend on the FFT worker or BLAS thread counts.
"""

import numpy as np

from .errors import ParameterError
from .fields import Field
from .grid import Grid2D


# -- array-level kernel ------------------------------------------------------

fft2, ifft2 = Grid2D.fft2, Grid2D.ifft2


def dealias_spectrum(ah, grid):
    """A copy of ah with all modes above 2/3 of Nyquist on either axis zeroed
    (ah on grid's layout: the full plane, or an EvenGrid's quarter)."""
    out = ah.copy()
    out[grid.dealias_zero] = 0.0
    return out


def l2_norm_values(a, grid):
    """Quadrature L2 norm on grid's layout; identical formula in both spaces
    (Plancherel)."""
    return np.sqrt(grid.sum(np.abs(a) ** 2) * grid.cell_area)


def grad_norm_spectrum(ah, grid):
    """L2 norm of the gradient from a spectral-space array on grid's layout."""
    return np.sqrt(grid.sum(grid.k2 * np.abs(ah) ** 2) * grid.cell_area)


# -- Field-level operations --------------------------------------------------

def _apply_multiplier(f: Field, sym) -> Field:
    """Apply a diagonal multiplier, preserving realness."""
    out = ifft2(sym * fft2(f.values))
    if not np.iscomplexobj(f.values):
        out = out.real
    return Field(f.grid, out)


def helmholtz_inverse(f: Field, alpha: float) -> Field:
    """B = (Id - alpha^2 Lap)^{-1}: divide each mode by 1 + alpha^2 |k|^2.

    Contractive on L2: the symbol lies in (0, 1].
    """
    if not np.isfinite(f.values).all():
        raise ParameterError("helmholtz_inverse requires finite field values")
    return _apply_multiplier(f, f.grid.helmholtz_symbol(alpha))


def e_multiplier(f: Field, nu: float, component: str = "xx") -> Field:
    """Velocity components of the anisotropic Poisson solve.

    component "xx" returns d/dx of the solution of (dxx + nu dyy) psi = f_x,
    i.e. the multiplier kx^2/(kx^2 + nu ky^2); "xy" returns d/dy of the same
    solution (multiplier kx ky / (kx^2 + nu ky^2)).  Both are bounded by 1
    in modulus for the xx case, making the operator an L2 contraction.
    """
    return _apply_multiplier(f, f.grid.e_symbol(nu, component))


def l2_norm(f: Field) -> float:
    return l2_norm_values(f.values, f.grid)
