"""Periodic computational box and its wavenumber tables.

The box [-lx/2, lx/2) x [-ly/2, ly/2) truncates the plane; sides default to
64 dimensionless units elsewhere in the package so that exponentially
decaying solutions fall below 1e-12 at the boundary, which makes every
constant-coefficient operator an exact diagonal Fourier multiplier.

Storage layout (fixed so snapshots are bit-comparable across runs): field
arrays are shaped (nx, ny) with the x index first and stored row-major, so
the y index varies fastest in memory.
"""

import math

import numpy as np

from .errors import ParameterError


class Grid2D:
    """Uniform periodic grid with cached wavenumber tables.

    Wavenumbers are 2*pi*m/l for integer modes m in the standard symmetric
    FFT ordering; the Nyquist mode appears exactly once per axis.  The grid
    keeps its 1-D axes x, y, kx, ky; full tables (r2, k2, the symbols) are
    built from them by broadcasting, x along axis 0 and y along axis 1.
    """

    def __init__(self, nx, ny, lx, ly):
        if nx % 2 or ny % 2 or nx < 8 or ny < 8:
            raise ParameterError(f"grid sizes must be even and >= 8, got {nx}x{ny}")
        if not (0 < lx < math.inf and 0 < ly < math.inf):
            raise ParameterError(f"box sides must be positive and finite, got {lx}x{ly}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.lx = float(lx)
        self.ly = float(ly)

        self.dx = self.lx / self.nx
        self.dy = self.ly / self.ny
        self.cell_area = self.dx * self.dy

        self.x = -self.lx / 2 + self.dx * np.arange(self.nx)
        self.y = -self.ly / 2 + self.dy * np.arange(self.ny)
        self.r2 = self.x[:, None] ** 2 + self.y[None, :] ** 2

        self.kx = 2 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        self.ky = 2 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
        self.k2 = self.kx[:, None] ** 2 + self.ky[None, :] ** 2

        # 2/3-rule mask: True where the mode index exceeds 2/3 of Nyquist.
        mx = np.abs(np.fft.fftfreq(self.nx) * self.nx)
        my = np.abs(np.fft.fftfreq(self.ny) * self.ny)
        self.dealias_zero = (mx[:, None] > self.nx / 3) | (my[None, :] > self.ny / 3)

        self._multiplier_cache = {}

    def __eq__(self, other):
        return (
            isinstance(other, Grid2D)
            and (self.nx, self.ny, self.lx, self.ly) == (other.nx, other.ny, other.lx, other.ly)
        )

    def __hash__(self):
        return hash((self.nx, self.ny, self.lx, self.ly))

    def __repr__(self):
        return f"Grid2D(nx={self.nx}, ny={self.ny}, lx={self.lx}, ly={self.ly})"

    def helmholtz_symbol(self, alpha):
        """Symbol of (Id - alpha^2 Lap)^{-1}: 1 / (1 + alpha^2 |k|^2)."""
        if alpha <= 0:
            raise ParameterError(f"alpha must be positive, got {alpha}")
        return self._cached(("helmholtz", float(alpha)), lambda: 1.0 / (1.0 + alpha**2 * self.k2))

    def e_symbol(self, nu, component="xx"):
        """Symbol of the anisotropic-Poisson velocity operator.

        component "xx": kx^2/(kx^2 + nu ky^2); component "xy":
        kx*ky/(kx^2 + nu ky^2).  The k = 0 value is defined as 0, which
        makes every output mean-free (the periodic stand-in for zero
        boundary conditions at infinity).
        """
        if nu <= 0:
            raise ParameterError(f"nu must be positive, got {nu}")
        if component not in ("xx", "xy"):
            raise ParameterError(f"unknown E component {component!r}")

        def build():
            kx, ky = self.kx[:, None], self.ky[None, :]
            denom = kx**2 + nu * ky**2
            safe = np.where(denom > 0, denom, 1.0)
            num = kx**2 if component == "xx" else kx * ky
            return np.where(denom > 0, num / safe, 0.0)

        return self._cached(("e", float(nu), component), build)

    def inverse_one_minus_laplacian_symbol(self):
        """Symbol of (1 - Lap)^{-1}, the Petviashvili left inverse."""
        return self._cached(("inv1mlap",), lambda: 1.0 / (1.0 + self.k2))

    def half_plane(self, sym):
        """The rfft2 (ky >= 0) columns of a full-plane symbol, as a view.

        Column ny/2 holds ky = -Nyquist, so this matches the rfft2 layout
        for every symbol even in ky (k^2, E_xx and the inverses here).
        """
        return sym[:, : self.ny // 2 + 1]

    def _cached(self, key, build):
        sym = self._multiplier_cache.get(key)
        if sym is None:
            sym = self._multiplier_cache[key] = build()
        return sym
