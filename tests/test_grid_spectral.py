import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsalpha import (
    Grid2D,
    ParameterError,
    SpaceContractError,
    complex_field,
    e_multiplier,
    helmholtz_inverse,
    l2_norm,
    real_field,
)
from dsalpha.spectral import (
    dealias_spectrum,
    fft2,
    half_plane_sum,
    ifft2,
    irfft2,
    l2_norm_values,
    rfft2,
)
from conftest import random_complex


class TestGrid:
    def test_wavenumber_tables(self, grid_small):
        g = grid_small
        assert g.kx[0] == 0.0 and g.ky[0] == 0.0
        # Nyquist present exactly once per axis
        kmax = np.pi * g.nx / g.lx
        assert np.sum(np.isclose(np.abs(g.kx), kmax)) == 1
        assert g.kx[1] == pytest.approx(2 * np.pi / g.lx)

    @pytest.mark.parametrize("nx,ny,lx,ly", [(7, 8, 1, 1), (8, 6, 1, 1), (8, 8, 0, 1), (8, 8, 1, -2)])
    def test_invalid_grids_rejected(self, nx, ny, lx, ly):
        with pytest.raises(ParameterError):
            Grid2D(nx, ny, lx, ly)


class TestTransforms:
    def test_zero_field(self, grid_small):
        assert np.all(fft2(np.zeros((64, 64), dtype=complex)) == 0)

    def test_pure_mode_single_coefficient(self, grid_small):
        g = grid_small
        fh = fft2(np.exp(1j * g.kx[1] * g.xg))
        mag = np.abs(fh)
        assert np.unravel_index(np.argmax(mag), mag.shape) == (1, 0)
        others = np.sum(mag**2) - mag[1, 0] ** 2
        assert others < 1e-22 * mag[1, 0] ** 2

    def test_round_trip(self, grid_small, rng):
        f = random_complex(rng, grid_small)
        err = l2_norm_values(ifft2(fft2(f)) - f, grid_small)
        assert err / l2_norm_values(f, grid_small) < 1e-13

    def test_plancherel(self, grid_small, rng):
        f = complex_field(grid_small, random_complex(rng, grid_small))
        assert abs(l2_norm_values(fft2(f.values), grid_small) - l2_norm(f)) / l2_norm(f) < 1e-12


# random even grids from 8^2 to 32^2, square or not, with random real data
_REAL_DRAWS = dict(
    nx=st.integers(4, 16).map(lambda m: 2 * m),
    ny=st.integers(4, 16).map(lambda m: 2 * m),
    lx=st.floats(1.0, 64.0),
    ly=st.floats(1.0, 64.0),
    nu=st.floats(0.05, 5.0),
    alpha=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**32 - 1),
)


class TestRealTransformProperty:
    @settings(max_examples=60, deadline=None)
    @given(**_REAL_DRAWS)
    def test_half_plane_multiplier_matches_full_plane(
        self, nx, ny, lx, ly, nu, alpha, seed
    ):
        g = Grid2D(nx, ny, lx, ly)
        a = np.random.default_rng(seed).standard_normal((nx, ny))
        for sym in (g.k2, g.inverse_one_minus_laplacian_symbol(), g.e_symbol(nu, "xx"),
                    g.helmholtz_symbol(alpha)):
            got = irfft2(g.half_plane(sym) * rfft2(a), g)
            want = ifft2(sym * fft2(a)).real
            assert got.shape == (nx, ny) and np.isrealobj(got)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(**_REAL_DRAWS)
    def test_half_plane_sum_matches_full_plane(self, nx, ny, lx, ly, nu, alpha, seed):
        # relative to the sum of magnitudes: random spectra cancel in the sum
        g = Grid2D(nx, ny, lx, ly)
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, nx, ny))
        got = half_plane_sum((np.conj(rfft2(a)) * rfft2(b)).real)
        full = np.conj(fft2(a)) * fft2(b)
        assert abs(got - np.sum(full).real) <= 1e-13 * np.sum(np.abs(full))
        sym = g.half_plane(g.helmholtz_symbol(alpha))
        weighted = half_plane_sum(sym * np.abs(rfft2(a)) ** 2)
        want = np.sum(g.helmholtz_symbol(alpha) * np.abs(fft2(a)) ** 2)
        assert weighted == pytest.approx(want, rel=1e-13)


class TestHelmholtzInverse:
    def test_constant_untouched(self, grid_small):
        c = complex_field(grid_small, np.full((64, 64), 2.5 + 1j))
        out = helmholtz_inverse(c, 0.7)
        assert np.max(np.abs(out.values - c.values)) < 1e-14

    def test_plane_wave_symbol(self, grid_small):
        g = grid_small  # lx = 2 pi so kx[1] = ky[1] = 1, |k|^2 = 2
        f = complex_field(g, np.exp(1j * (g.kx[1] * g.xg + g.ky[1] * g.yg)))
        out = helmholtz_inverse(f, 1.0)
        assert np.max(np.abs(out.values - f.values / 3.0)) < 1e-13

    def test_l2_contraction_100_random(self, grid_small, rng):
        for _ in range(100):
            f = complex_field(grid_small, random_complex(rng, grid_small))
            assert l2_norm(helmholtz_inverse(f, 0.3)) <= l2_norm(f)

    def test_alpha_validation(self, grid_small):
        f = complex_field(grid_small, np.zeros((64, 64)))
        with pytest.raises(ParameterError):
            helmholtz_inverse(f, 0.0)
        with pytest.raises(ParameterError):
            helmholtz_inverse(f, -1.0)


class TestEMultiplier:
    def test_x_mode_unchanged(self, grid_small):
        g = grid_small
        f = complex_field(g, np.exp(1j * g.kx[1] * g.xg))
        out = e_multiplier(f, 1.7, "xx")
        assert np.max(np.abs(out.values - f.values)) < 1e-13

    def test_y_mode_annihilated(self, grid_small):
        g = grid_small
        f = complex_field(g, np.exp(1j * g.ky[1] * g.yg))
        out = e_multiplier(f, 1.7, "xx")
        assert np.max(np.abs(out.values)) < 1e-14

    def test_diagonal_mode_symbol(self, grid_small):
        g = grid_small  # square box: kx[1] = ky[1], nu=2 -> 1/(1+2)
        f = complex_field(g, np.exp(1j * (g.kx[1] * g.xg + g.ky[1] * g.yg)))
        out = e_multiplier(f, 2.0, "xx")
        assert np.max(np.abs(out.values - f.values / 3.0)) < 1e-13

    def test_l2_contraction_100_random(self, grid_small, rng):
        for _ in range(100):
            f = complex_field(grid_small, random_complex(rng, grid_small))
            assert l2_norm(e_multiplier(f, 0.9, "xx")) <= l2_norm(f)

    def test_nu_validation(self, grid_small):
        f = complex_field(grid_small, np.zeros((64, 64)))
        with pytest.raises(ParameterError):
            e_multiplier(f, 0.0, "xx")
        with pytest.raises(ParameterError):
            e_multiplier(f, 1.0, "zz")

    def test_mean_free_output(self, grid_small, rng):
        f = complex_field(grid_small, random_complex(rng, grid_small))
        out = fft2(e_multiplier(f, 1.0, "xx").values)
        assert abs(out[0, 0]) < 1e-12

    def test_idempotent_on_ky0_support(self, grid_small, rng):
        # spectra supported on ky = 0 modes see the exact symbol 1 (or 0 at k=0)
        g = grid_small
        spec = np.zeros((64, 64), dtype=complex)
        spec[1:5, 0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sym = g.e_symbol(1.3, "xx")
        once = sym * spec
        twice = sym * once
        assert np.array_equal(once, twice)
        assert np.array_equal(once, spec)

    def test_commutes_with_helmholtz(self, grid_small, rng):
        f = complex_field(grid_small, random_complex(rng, grid_small))
        a = e_multiplier(helmholtz_inverse(f, 0.5), 1.2, "xx")
        b = helmholtz_inverse(e_multiplier(f, 1.2, "xx"), 0.5)
        diff = l2_norm(complex_field(grid_small, a.values - b.values))
        assert diff / l2_norm(f) < 1e-13


class TestDealias:
    def test_band_limited_unchanged(self, grid_small, rng):
        g = grid_small
        spec = np.zeros((64, 64), dtype=complex)
        spec[:10, :10] = random_complex(rng, g)[:10, :10]
        assert np.array_equal(dealias_spectrum(spec, g), spec)

    def test_nyquist_only_zeroed(self, grid_small):
        g = grid_small
        spec = np.zeros((64, 64), dtype=complex)
        spec[32, 0] = 1.0  # x-axis Nyquist mode
        assert np.all(dealias_spectrum(spec, g) == 0)

    def test_projection_never_increases_energy(self, grid_small, rng):
        g = grid_small
        for _ in range(20):
            spec = random_complex(rng, g)
            assert l2_norm_values(dealias_spectrum(spec, g), g) <= l2_norm_values(spec, g)


class TestRealField:
    def test_rejects_large_imaginary_content(self, grid_small):
        vals = np.ones((64, 64), dtype=complex) + 1e-6j
        with pytest.raises(SpaceContractError):
            real_field(grid_small, vals)

    def test_coerces_roundoff_imaginary(self, grid_small):
        vals = np.ones((64, 64), dtype=complex) + 1e-15j
        f = real_field(grid_small, vals)
        assert f.is_real
