"""Periodic computational box, its wavenumber tables and its transforms.

The box [-lx/2, lx/2) x [-ly/2, ly/2) truncates the plane; sides default to
64 dimensionless units elsewhere in the package so that exponentially
decaying solutions fall below 1e-12 at the boundary, which makes every
constant-coefficient operator an exact diagonal Fourier multiplier.  The
coordinates x_i = dx (i - nx/2) are integer offsets from the centre, so
x_{nx-i} = -x_i exactly and a centred radial profile is sampled exactly even.

Storage layout (fixed so snapshots are bit-comparable across runs): field
arrays are shaped (nx, ny) with the x index first and stored row-major, so
the y index varies fastest in memory.

A grid owns its transforms (fft2, ifft2, rfft2, irfft2), its quadrature
(sum) and its symbol tables, so the models and the stepping
loop run unchanged on either kind:

- Grid2D, the box.  A real field (the ground-state pair, the linearized
  corrections, the potential P) has a Hermitian spectrum, kept as its
  ky >= 0 half plane by rfft2/irfft2 and multiplied by real_symbol tables.
  Its half grid (nx/2 x ny/2 on the same box) holds such fields at half
  the resolution.
- EvenGrid, the (nx/2+1) x (ny/2+1) quarter of a Grid2D that holds data
  even about index 0 in x and in y.  On such data the DFT is the DCT-I
  (REDFT00) of the quarter (Frigo & Johnson, Proc. IEEE 93, 2005), and
  every symbol, even in kx and ky, is its kx, ky >= 0 quarter.  prolong
  interpolates such data from the half grid's quarter.

Every transform runs on the calling thread's scipy.fft.set_workers count.
"""

import math

import numpy as np
import scipy.fft as _fft

from .errors import ParameterError


def check_grid(nx, ny, lx, ly):
    """Grid2D's checks of its sizes and sides, without building a grid."""
    if nx % 2 or ny % 2 or nx < 8 or ny < 8:
        raise ParameterError(f"grid sizes must be even and >= 8, got {nx}x{ny}")
    if not (0 < lx < math.inf and 0 < ly < math.inf):
        raise ParameterError(f"box sides must be positive and finite, got {lx}x{ly}")


def is_even(a):
    """Whether a is its own mirror image about index 0 in x and in y, bit for bit."""
    return np.array_equal(a[1:], a[:0:-1]) and np.array_equal(a[:, 1:], a[:, :0:-1])


class _SymbolTables:
    """The symbol formulas over a grid's wavenumber axes kx (rows) and ky
    (columns), and their cache.  Each formula takes the number m of ky
    columns it fills."""

    def real_symbol(self, name, *params):
        """Symbol `name` (a formula below) on the ky >= 0 columns, cached and
        contiguous: the real transforms' layout of any symbol even in ky."""
        return self._table(name, params, self.ny // 2 + 1)

    def cached(self, key, build):
        """The table cached on this grid under key; build() makes it on first use."""
        table = self._multiplier_cache.get(key)
        if table is None:
            table = self._multiplier_cache[key] = build()
        return table

    def _table(self, name, params, m):
        return self.cached((name, params, m), lambda: getattr(self, "_" + name)(m, *params))

    def _k2(self, m):
        return self.kx[:, None] ** 2 + self.ky[None, :m] ** 2

    def _dealias_zero(self, m):
        """2/3-rule mask: True where the mode index exceeds 2/3 of Nyquist."""
        mx = np.abs(np.fft.fftfreq(self.nx) * self.nx)[: len(self.kx)]
        my = np.abs(np.fft.fftfreq(self.ny) * self.ny)
        return (mx[:, None] > self.nx / 3) | (my[None, :m] > self.ny / 3)

    def _helmholtz(self, m, alpha):
        """Symbol of (Id - alpha^2 Lap)^{-1}: 1 / (1 + alpha^2 |k|^2)."""
        if alpha <= 0:
            raise ParameterError(f"alpha must be positive, got {alpha}")
        return 1.0 / (1.0 + alpha**2 * self._k2(m))

    def _e(self, m, nu, component):
        """Anisotropic-Poisson velocity symbol: kx^2 ("xx") or kx*ky ("xy") over
        kx^2 + nu ky^2, and 0 at k = 0, which makes every output mean-free (the
        periodic stand-in for zero boundary conditions at infinity)."""
        if nu <= 0:
            raise ParameterError(f"nu must be positive, got {nu}")
        if component not in ("xx", "xy"):
            raise ParameterError(f"unknown E component {component!r}")
        kx, ky = self.kx[:, None], self.ky[None, :m]
        denom = kx**2 + nu * ky**2
        safe = np.where(denom > 0, denom, 1.0)
        num = kx**2 if component == "xx" else kx * ky
        return np.where(denom > 0, num / safe, 0.0)


class Grid2D(_SymbolTables):
    """Uniform periodic grid with cached wavenumber tables.

    Wavenumbers are 2*pi*m/l for integer modes m in the standard symmetric
    FFT ordering; the Nyquist mode appears exactly once per axis.  The grid
    keeps its 1-D axes x, y, kx, ky; full tables (r2, k2, the symbols) are
    built from them by broadcasting, x along axis 0 and y along axis 1.
    """

    def __init__(self, nx, ny, lx, ly):
        check_grid(nx, ny, lx, ly)
        self.nx = int(nx)
        self.ny = int(ny)
        self.lx = float(lx)
        self.ly = float(ly)
        self.shape = (self.nx, self.ny)

        self.dx = self.lx / self.nx
        self.dy = self.ly / self.ny
        self.cell_area = self.dx * self.dy

        self.x = self.dx * (np.arange(self.nx) - self.nx // 2)
        self.y = self.dy * (np.arange(self.ny) - self.ny // 2)
        self.r2 = self.x[:, None] ** 2 + self.y[None, :] ** 2

        self.kx = 2 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        self.ky = 2 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
        self.k2 = self._k2(self.ny)
        self.dealias_zero = self._dealias_zero(self.ny)

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
        return self._table("helmholtz", (alpha,), self.ny)

    def e_symbol(self, nu, component="xx"):
        return self._table("e", (nu, component), self.ny)

    def inverse_one_minus_laplacian_symbol(self):
        """Symbol of (1 - Lap)^{-1}, the Petviashvili left inverse: B at alpha = 1."""
        return self.helmholtz_symbol(1.0)

    @property
    def even(self):
        """The EvenGrid quarter of this grid, built on first use."""
        return self.cached("even", lambda: EvenGrid(self))

    @property
    def half(self):
        """Grid2D(nx/2, ny/2) on the same box, or None where it fails check_grid
        (nx or ny = 2 mod 4, or a half below 8)."""
        sides = (self.nx // 2, self.ny // 2, self.lx, self.ly)
        try:
            check_grid(*sides)
        except ParameterError:
            return None
        return self.cached("half", lambda: Grid2D(*sides))

    @staticmethod
    def fft2(a):
        return _fft.fft2(a, norm="ortho")

    @staticmethod
    def ifft2(a):
        return _fft.ifft2(a, norm="ortho")

    @staticmethod
    def sum(a):
        """Quadrature sum over the box: every sample weighs 1."""
        return np.sum(a)

    def rfft2(self, a):
        """Half-plane spectrum (nx, ny//2 + 1) of a real array."""
        return _fft.rfft2(a, norm="ortho")

    def irfft2(self, ah):
        """The real (nx, ny) array of a half-plane spectrum."""
        return _fft.irfft2(ah, s=(self.nx, self.ny), norm="ortho")


class EvenGrid(_SymbolTables):
    """The quarter 0 <= i <= nx/2, 0 <= j <= ny/2 of a Grid2D, for arrays
    even about index 0 in x and in y; built by Grid2D.even.

    Its axes are |kx| and |ky| on the quarter, so the shared formulas give
    every symbol's kx, ky >= 0 quarter.  All four transforms are the DCT-I
    per axis, scaled by 1/sqrt(nx*ny) to the full grid's unitary
    convention: an even array has an even spectrum, and the inverse of an
    even spectrum is the same sum.  sum weighs each quarter sample by the
    number of full-grid samples it stands for (1 on the rows and columns
    i = 0 and i = n/2, 2 inside, per axis), so it equals the full grid's
    sum, in physical and in spectral space.
    """

    def __init__(self, grid):
        self.nx, self.ny, self.lx, self.ly = grid.nx, grid.ny, grid.lx, grid.ly
        self.shape = (self.nx // 2 + 1, self.ny // 2 + 1)
        self.cell_area = grid.cell_area
        self.kx = np.abs(grid.kx[: self.shape[0]])
        self.ky = np.abs(grid.ky[: self.shape[1]])
        self._multiplier_cache = {}
        self.k2 = self.real_symbol("k2")
        self.dealias_zero = self.real_symbol("dealias_zero")
        wx, wy = (np.r_[1.0, np.full(n - 2, 2.0), 1.0] for n in self.shape)
        self.weights = wx[:, None] * wy[None, :]
        self._norm = 1.0 / math.sqrt(self.nx * self.ny)

    def fft2(self, a):
        out = _fft.dctn(a, type=1)
        out *= self._norm
        return out

    ifft2 = rfft2 = irfft2 = fft2

    def sum(self, a):
        return np.sum(self.weights * a)

    def restrict(self, a):
        """The quarter of a full (nx, ny) array even about index 0 in x and in
        y, as a contiguous copy: the inverse of expand."""
        return a[: self.shape[0], : self.shape[1]].copy()

    def prolong(self, q, coarse):
        """Band-limited interpolation onto this quarter of q on coarse, the
        quarter of the half grid.  Its DCT-I spectrum is zero-padded, with the
        coarse Nyquist row and column zeroed (they alias a +/- pair that the
        fine grid separates), and scaled by 2 = sqrt(nx*ny / (nx/2 * ny/2))
        for the unitary convention."""
        qh = coarse.rfft2(q)
        hx, hy = self.nx // 4, self.ny // 4
        out = np.zeros(self.shape, dtype=qh.dtype)
        out[:hx, :hy] = 2.0 * qh[:hx, :hy]
        return self.irfft2(out)

    def expand(self, q):
        """The full (nx, ny) array whose quarter is q: a[-i] = a[i] per axis."""
        hx, hy = self.nx // 2, self.ny // 2
        out = np.empty((self.nx, self.ny), dtype=q.dtype)
        out[: hx + 1, : hy + 1] = q
        out[hx + 1 :, : hy + 1] = q[hx - 1 : 0 : -1]
        out[:, hy + 1 :] = out[:, hy - 1 : 0 : -1]
        return out
