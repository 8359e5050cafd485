"""Fourier transforms and diagonal multiplier operators on the periodic box.

Transform normalization (fixed, documented): both directions use the
unitary ("ortho") convention, so Plancherel holds with the same cell-area
quadrature weight in both spaces and a pure mode exp(i k.x) transforms to a
single coefficient of modulus sqrt(nx*ny).

All operators here are diagonal in spectral space and therefore commute.
Thread count for the transforms is controlled by the DSALPHA_FFT_WORKERS
environment variable (default 1); results are deterministic for a fixed
grid and worker count.
"""

import os

import numpy as np
import scipy.fft as _fft

from .errors import ParameterError
from .fields import PHYSICAL, SPECTRAL, Field

_WORKERS = int(os.environ.get("DSALPHA_FFT_WORKERS", "1"))


# -- array-level kernel, used by the hot stepping loop ----------------------

def fft2(a):
    return _fft.fft2(a, norm="ortho", workers=_WORKERS)


def ifft2(a):
    return _fft.ifft2(a, norm="ortho", workers=_WORKERS)


def dealias_spectrum(ah, grid):
    """Zero all modes above 2/3 of Nyquist on either axis (in place copy)."""
    out = ah.copy()
    out[grid.dealias_zero] = 0.0
    return out


def l2_norm_values(a, grid):
    """Quadrature L2 norm; identical formula in both spaces (Plancherel)."""
    return np.sqrt(np.sum(np.abs(a) ** 2).real * grid.cell_area)


def grad_norm_spectrum(ah, grid):
    """L2 norm of the gradient from a spectral-space array."""
    return np.sqrt(np.sum(grid.k2 * np.abs(ah) ** 2) * grid.cell_area)


# -- Field-level operations --------------------------------------------------

def to_spectral(f: Field) -> Field:
    f.require_space(PHYSICAL)
    return Field(f.grid, fft2(f.values), SPECTRAL)


def from_spectral(f: Field) -> Field:
    f.require_space(SPECTRAL)
    return Field(f.grid, ifft2(f.values), PHYSICAL)


def _apply_multiplier(f: Field, sym) -> Field:
    """Apply a diagonal multiplier, preserving the input space and realness."""
    if f.space == SPECTRAL:
        return Field(f.grid, sym * f.values, SPECTRAL)
    out = ifft2(sym * fft2(f.values))
    if f.is_real:
        out = out.real
    return Field(f.grid, out, PHYSICAL)


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


def dealias(f: Field) -> Field:
    f.require_space(SPECTRAL)
    return Field(f.grid, dealias_spectrum(f.values, f.grid), SPECTRAL)


def l2_norm(f: Field) -> float:
    return l2_norm_values(f.values, f.grid)


def grad_norm(f: Field) -> float:
    if f.space == SPECTRAL:
        return grad_norm_spectrum(f.values, f.grid)
    return grad_norm_spectrum(fft2(f.values), f.grid)

