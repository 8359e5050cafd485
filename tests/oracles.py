"""Independent reference computations used to pin expected values.

These deliberately avoid the package's own code paths: the radial profile
oracle solves the steady ODE by shooting with a generic ODE integrator and
bisection, nothing spectral, the grid tables come from np.meshgrid
rather than the grid's own broadcasts, and the even projection and the
half-grid interpolation act on full-grid arrays with numpy alone.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def meshes(g):
    """Full (nx, ny) tables (x, y, kx, ky) of grid g, x index first."""
    xg, yg = np.meshgrid(g.x, g.y, indexing="ij")
    kxg, kyg = np.meshgrid(g.kx, g.ky, indexing="ij")
    return xg, yg, kxg, kyg


def _shoot(s0, rmax):
    def rhs(r, y):
        s, ds = y
        return [ds, s - s**3 - (ds / r if r > 0 else 0.0)]

    r0 = 1e-6
    y0 = [s0 + (s0 - s0**3) * r0**2 / 4, (s0 - s0**3) * r0 / 2]
    return solve_ivp(rhs, (r0, rmax), y0, rtol=1e-11, atol=1e-13, dense_output=True,
                     method="DOP853")


def _classify(s0, rmax=25.0):
    # below the critical center value the profile crosses zero, above it diverges
    sol = _shoot(s0, rmax)
    for v in sol.y[0]:
        if v < 0:
            return -1.0
        if v > s0 * 1.5 + 1:
            return 1.0
    return 1.0


def cubic_profile_critical_mass():
    """Mass of the positive decaying radial solution of S'' + S'/r - S + S^3 = 0.

    Returns (center value, mass); the tail beyond the fitted exponential
    matching radius contributes below 1e-10.
    """
    s0 = brentq(_classify, 2.0, 2.5, xtol=1e-12)
    sol = _shoot(s0, 30.0)
    r = np.linspace(1e-6, 14.0, 28001)
    s = sol.sol(r)[0]
    mask = (r > 10) & (r < 14)
    tail_c = np.exp(np.mean(np.log(s[mask] * np.sqrt(r[mask])) + r[mask]))
    mass_core = 2 * np.pi * np.trapezoid(s**2 * r, r)
    rr = np.linspace(14.0, 60.0, 10001)
    mass_tail = 2 * np.pi * np.trapezoid(tail_c**2 * np.exp(-2 * rr), rr)
    return s0, mass_core + mass_tail


def even_part(a):
    """Projection onto arrays even about index 0 in x and in y (the grid
    reflection a[-i] = a[i] per axis)."""
    a = 0.5 * (a + np.roll(a[::-1, :], 1, axis=0))
    a = 0.5 * (a + np.roll(a[:, ::-1], 1, axis=1))
    return a


def prolong(g, a):
    """Band-limited interpolation onto g of a real array on g.half, by numpy's
    full-plane FFT: the modes |m| < n/4 are kept and the half grid's Nyquist
    modes dropped."""
    mx, my = (np.r_[0 : n // 4, -(n // 4) + 1 : 0] for n in (g.nx, g.ny))
    spectrum = np.zeros(g.shape, dtype=complex)
    spectrum[np.ix_(mx, my)] = np.fft.fft2(a)[np.ix_(mx, my)]
    return np.fft.ifft2(4.0 * spectrum).real
