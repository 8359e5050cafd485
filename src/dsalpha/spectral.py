"""Fourier transforms and diagonal multiplier operators on the periodic box.

Transform normalization (fixed, documented): both directions use the
unitary ("ortho") convention, so Plancherel holds with the same cell-area
quadrature weight in both spaces and a pure mode exp(i k.x) transforms to a
single coefficient of modulus sqrt(nx*ny).

Spectra are plain arrays: fft2, ifft2, dealias_spectrum and the norms work
on arrays, and the Field-level operators below take and return
physical-space Fields.  A real array has a Hermitian spectrum, so rfft2
keeps only its ky >= 0 half plane (Grid2D.half_plane slices a symbol to
match), irfft2 returns a real array, and half_plane_sum recovers a
full-plane sum from the half plane.  All operators here are diagonal in
spectral space and therefore commute.  Thread count for the transforms is
controlled by the DSALPHA_FFT_WORKERS environment variable (default 1);
results are deterministic for a fixed grid and worker count.
"""

import os

import numpy as np
import scipy.fft as _fft

from .errors import ParameterError
from .fields import Field

_WORKERS = int(os.environ.get("DSALPHA_FFT_WORKERS", "1"))


# -- array-level kernel, used by the hot stepping loop ----------------------

def fft2(a):
    return _fft.fft2(a, norm="ortho", workers=_WORKERS)


def ifft2(a):
    return _fft.ifft2(a, norm="ortho", workers=_WORKERS)


def rfft2(a):
    """Half-plane spectrum (nx, ny//2 + 1) of a real array."""
    return _fft.rfft2(a, norm="ortho", workers=_WORKERS)


def irfft2(ah, grid):
    """Real array on `grid` from its half-plane spectrum."""
    return _fft.irfft2(ah, s=(grid.nx, grid.ny), norm="ortho", workers=_WORKERS)


def half_plane_sum(p):
    """Full-plane sum of a real quantity even under k -> -k, from its half plane.

    The ky = 0 and Nyquist columns appear once in the full plane and every
    other column twice (once as its mirror), so they carry weights 1 and 2.
    """
    return float(2.0 * np.sum(p[:, 1:-1]) + np.sum(p[:, 0]) + np.sum(p[:, -1]))


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

def _apply_multiplier(f: Field, sym) -> Field:
    """Apply a diagonal multiplier, preserving realness."""
    out = ifft2(sym * fft2(f.values))
    if f.is_real:
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
