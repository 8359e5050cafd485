import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from dsalpha import (
    Field,
    Grid2D,
    GridMismatchError,
    ModelKind,
    ModelSpec,
    ParameterError,
    PetviashviliConfig,
    StepControl,
    complex_field,
    e_multiplier,
    helmholtz_inverse,
    integrate,
    l2_norm,
    residual_norm,
    solve_ground_state,
)
from dsalpha.harness import gaussian_state
from dsalpha.spectral import dealias_spectrum, fft2, ifft2, l2_norm_values
from conftest import random_complex
from oracles import half_plane_sum, meshes


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

    @pytest.mark.parametrize("side", [np.nan, np.inf])
    def test_non_finite_sides_rejected(self, side):
        with pytest.raises(ParameterError, match="finite"):
            Grid2D(16, 16, side, 4.0)
        with pytest.raises(ParameterError, match="finite"):
            Grid2D(16, 16, 4.0, side)

    @pytest.mark.parametrize("shape", [(16, 8), (8, 16), (16,)])
    def test_field_shape_must_be_its_grids(self, shape):
        with pytest.raises(GridMismatchError, match="does not match"):
            Field(Grid2D(16, 16, 4.0, 4.0), np.zeros(shape))

    def test_holds_no_coordinate_meshes(self):
        # r2 and k2 as float n x n tables plus the boolean dealias mask;
        # the 1-D axes, cell sizes and the empty symbol cache are small
        n = 256
        tracemalloc.start()
        try:
            g = Grid2D(n, n, 16.0, 16.0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.dealias_zero.dtype == bool
        assert held <= (8 + 8 + 1) * n * n + 64 * 1024

    @pytest.mark.parametrize("nx,ny,lx,ly", [(64, 48, 9.0, 5.5), (512, 256, 48.0, 24.0)])
    def test_broadcast_tables_match_meshgrid(self, nx, ny, lx, ly, rng):
        g = Grid2D(nx, ny, lx, ly)
        xg, yg, kxg, kyg = meshes(g)
        assert np.array_equal(g.r2, xg**2 + yg**2)
        assert np.array_equal(g.k2, kxg**2 + kyg**2)
        nu = 1.3
        denom = kxg**2 + nu * kyg**2
        safe = np.where(denom > 0, denom, 1.0)
        assert np.array_equal(g.e_symbol(nu, "xx"), np.where(denom > 0, kxg**2 / safe, 0.0))
        assert np.array_equal(g.e_symbol(nu, "xy"), np.where(denom > 0, kxg * kyg / safe, 0.0))

        center, chirp = (0.4, -0.7), 0.3
        r2 = (xg - center[0]) ** 2 + (yg - center[1]) ** 2
        want = 1.7 * np.exp(-r2 / (2.0 * 1.1**2)) * np.exp(1j * chirp * r2)
        assert np.array_equal(gaussian_state(g, 1.7, 1.1, center, chirp).values, want)

        beta, rho = 1.0, -0.8
        s = rng.standard_normal((nx, ny))
        X = rng.standard_normal((nx, ny))
        X_of_S = ifft2(g.e_symbol(nu, "xx") * fft2(s * s)).real
        r1 = ifft2(-(kxg**2 + kyg**2) * fft2(s)).real - s + beta * s**3 - rho * s * X_of_S
        lhs = ifft2(-(kxg**2 + nu * kyg**2) * fft2(X)).real
        rhs = ifft2(-(kxg**2) * fft2(s**2)).real
        want = l2_norm_values(r1, g) + l2_norm_values(lhs - rhs, g)
        assert residual_norm(Field(g, s), Field(g, X), beta, rho, nu) == want


class TestTransforms:
    def test_zero_field(self, grid_small):
        assert np.all(fft2(np.zeros((64, 64), dtype=complex)) == 0)

    def test_pure_mode_single_coefficient(self, grid_small):
        g = grid_small
        xg, _, _, _ = meshes(g)
        fh = fft2(np.exp(1j * g.kx[1] * xg))
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

    def test_worker_count_is_the_calling_threads(self, grid_small, monkeypatch):
        # scipy.fft.set_workers is thread-local: with 2 in the test thread, a
        # thread may choose its own for the same grid
        seen = []
        for name in ("fft2", "rfft2", "dctn"):
            def recorded(*args, _inner=getattr(scipy.fft, name), **kwargs):
                seen.append(kwargs.get("workers", scipy.fft.get_workers()))
                return _inner(*args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, recorded)
        g, a = grid_small, np.ones(grid_small.shape)

        def transforms():
            g.fft2(a), g.rfft2(a), g.even.fft2(g.even.restrict(a))

        def in_thread():
            with scipy.fft.set_workers(1):
                transforms()

        with scipy.fft.set_workers(2):
            transforms()
            with ThreadPoolExecutor(1) as pool:
                pool.submit(in_thread).result()
        assert seen == [2, 2, 2, 1, 1, 1]


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
        for sym, name, params in (
            (g.k2, "k2", ()),
            (g.inverse_one_minus_laplacian_symbol(), "helmholtz", (1.0,)),
            (g.e_symbol(nu, "xx"), "e", (nu, "xx")),
            (g.helmholtz_symbol(alpha), "helmholtz", (alpha,)),
        ):
            got = g.irfft2(g.real_symbol(name, *params) * g.rfft2(a))
            want = ifft2(sym * fft2(a)).real
            assert got.shape == (nx, ny) and np.isrealobj(got)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(**_REAL_DRAWS)
    def test_half_plane_sum_matches_full_plane(self, nx, ny, lx, ly, nu, alpha, seed):
        # the oracle's Hermitian weights, which the full-grid reference sweep
        # sums with; relative to the sum of magnitudes: random spectra cancel
        g = Grid2D(nx, ny, lx, ly)
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, nx, ny))
        got = half_plane_sum((np.conj(g.rfft2(a)) * g.rfft2(b)).real)
        full = np.conj(fft2(a)) * fft2(b)
        assert abs(got - np.sum(full).real) <= 1e-13 * np.sum(np.abs(full))
        sym = g.real_symbol("helmholtz", alpha)
        weighted = half_plane_sum(sym * np.abs(g.rfft2(a)) ** 2)
        want = np.sum(g.helmholtz_symbol(alpha) * np.abs(fft2(a)) ** 2)
        assert weighted == pytest.approx(want, rel=1e-13)


def cached_tables(grid):
    """The symbol tables cached on grid (the cache also holds its EvenGrid)."""
    return {key: t for key, t in grid._multiplier_cache.items() if isinstance(t, np.ndarray)}


class TestRealLayoutCache:
    SPEC = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.3)

    # the Petviashvili solve's tables, built on the quarters of the grid and
    # of its half grid (the EvenGrid builds its k2 and dealias_zero itself)
    SOLVE = [("dealias_zero", ()), ("e", (1.0, "xx")), ("helmholtz", (1.0,)), ("k2", ())]

    @pytest.mark.parametrize("nx, ny", [(64, 48), (48, 64)])
    def test_real_tables_are_contiguous_ky_nonnegative_columns(self, nx, ny):
        # every cached table the real pipelines read, after a Petviashvili
        # solve and an RDS3 run on a fresh grid: C-contiguous, and bit for
        # bit the ky >= 0 columns of its full-plane symbol.  The solve runs on
        # the quarters of the grid and of its half grid, and the run starts
        # from a centred Gaussian, so every table is on an EvenGrid, and there
        # it is the kx >= 0 rows of those columns
        g = Grid2D(nx, ny, 24.0, 20.0)
        self.solve_and_run(g, gaussian_state(g, 1.5, 1.0))
        assert cached_tables(g) == {}
        quarter, half_quarter = cached_tables(g.even), cached_tables(g.half.even)
        assert sorted(key[:2] for key in quarter if key[0] != "potential") == sorted(
            self.SOLVE + [("helmholtz", (0.3,))]
        )
        assert ("potential", self.SPEC) in quarter
        assert sorted(key[:2] for key in half_quarter) == self.SOLVE
        self.check_tables(g, quarter, nx // 2 + 1)
        self.check_tables(g.half, half_quarter, nx // 4 + 1)

    @pytest.mark.parametrize("nx, ny", [(64, 48), (48, 64)])
    def test_real_tables_are_contiguous_ky_nonnegative_columns_full_grid(self, nx, ny):
        # the same after a run from a Gaussian that is not even: the run's
        # tables are on the grid, the solve's on the quarters
        g = Grid2D(nx, ny, 24.0, 20.0)
        self.solve_and_run(g, gaussian_state(g, 1.5, 1.0, center=(g.dx, 0.0)))
        real = cached_tables(g)
        assert sorted(key[:2] for key in real if key[0] != "potential") == [
            ("dealias_zero", ()), ("e", (1.0, "xx")), ("helmholtz", (0.3,)),
        ]
        assert ("potential", self.SPEC) in real
        assert sorted(key[:2] for key in cached_tables(g.even)) == self.SOLVE
        self.check_tables(g, real, nx)

    def solve_and_run(self, g, v0):
        solve_ground_state(g, 1.0, -1.0, 1.0, PetviashviliConfig(continuation_steps=2))
        integrate(v0, self.SPEC, StepControl(dt=1e-2, dt_max=1e-2, adaptive=False, t_end=0.05))

    def check_tables(self, g, tables, rows):
        spec = self.SPEC
        e, b = g.e_symbol(spec.nu, "xx"), g.helmholtz_symbol(spec.alpha)
        q = -spec.rho * (b * e * b) + spec.beta * b
        q[g.dealias_zero] = 0.0
        full = {
            "k2": lambda: g.k2,
            "e": lambda nu, component: g.e_symbol(nu, component),
            "helmholtz": lambda alpha: g.helmholtz_symbol(alpha),
            "dealias_zero": lambda: g.dealias_zero,
        }
        for key, table in tables.items():
            name, *rest = key
            want = q if name == "potential" else full[name](*rest[0])
            assert table.flags.c_contiguous and table.shape == (rows, g.ny // 2 + 1)
            assert table.dtype == want.dtype
            assert table.tobytes() == want[:rows, : g.ny // 2 + 1].tobytes()


# sizes with n/2 odd and even on either axis
_EVEN_SIZES = [(30, 28, 9.0, 7.5), (32, 26, 8.0, 8.0), (64, 64, 16.0, 16.0)]


def expanded_noise(rng, g):
    """A random complex quarter of g.even and its mirror-copy expansion."""
    q = rng.standard_normal(g.even.shape) + 1j * rng.standard_normal(g.even.shape)
    return q, g.even.expand(q)


class TestEvenGrid:
    @pytest.mark.parametrize("nx,ny,lx,ly", _EVEN_SIZES)
    def test_expansion_is_even_about_index_0(self, nx, ny, lx, ly, rng):
        g = Grid2D(nx, ny, lx, ly)
        q, a = expanded_noise(rng, g)
        assert np.array_equal(a[: nx // 2 + 1, : ny // 2 + 1], q)
        assert np.array_equal(a, np.roll(a[::-1, :], 1, axis=0))
        assert np.array_equal(a, np.roll(a[:, ::-1], 1, axis=1))

    @pytest.mark.parametrize("nx,ny,lx,ly", _EVEN_SIZES)
    def test_transforms_are_the_full_spectrum_quarter(self, nx, ny, lx, ly, rng):
        g = Grid2D(nx, ny, lx, ly)
        e = g.even
        q, a = expanded_noise(rng, g)
        quarter = (slice(0, nx // 2 + 1), slice(0, ny // 2 + 1))
        for transform, full in ((e.fft2, fft2), (e.ifft2, ifft2)):
            got = transform(q)
            assert np.max(np.abs(got - full(a)[quarter])) < 1e-14 * np.max(np.abs(got))
        for transform, full in ((e.rfft2, g.rfft2), (e.irfft2, lambda r: ifft2(r).real)):
            got = transform(q.real)
            assert np.isrealobj(got)
            assert np.max(np.abs(got - full(a.real)[quarter])) < 1e-14 * np.max(np.abs(got))
        assert np.max(np.abs(e.ifft2(e.fft2(q)) - q)) < 1e-14 * np.max(np.abs(q))

    @pytest.mark.parametrize("nx,ny,lx,ly", _EVEN_SIZES)
    def test_sum_is_the_full_sum(self, nx, ny, lx, ly, rng):
        g = Grid2D(nx, ny, lx, ly)
        q, a = expanded_noise(rng, g)
        r = np.abs(q) ** 2
        assert g.even.sum(r) == pytest.approx(np.sum(np.abs(a) ** 2), rel=1e-14)

    @pytest.mark.parametrize("nx,ny,lx,ly", _EVEN_SIZES)
    def test_symbol_tables_are_the_full_quarter(self, nx, ny, lx, ly):
        g = Grid2D(nx, ny, lx, ly)
        e = g.even
        quarter = (slice(0, nx // 2 + 1), slice(0, ny // 2 + 1))
        assert e.shape == (nx // 2 + 1, ny // 2 + 1) and e.cell_area == g.cell_area
        assert np.array_equal(e.k2, g.k2[quarter])
        assert np.array_equal(e.dealias_zero, g.dealias_zero[quarter])
        for name, params, full in (
            ("e", (1.3, "xx"), g.e_symbol(1.3, "xx")),
            ("helmholtz", (0.4,), g.helmholtz_symbol(0.4)),
        ):
            assert np.array_equal(e.real_symbol(name, *params), full[quarter])

    @pytest.mark.parametrize("nx,ny,lx,ly", _EVEN_SIZES)
    def test_coordinates_are_mirror_exact(self, nx, ny, lx, ly):
        # x_{n-i} = -x_i, so a centred Gaussian is sampled exactly even
        g = Grid2D(nx, ny, lx, ly)
        assert np.array_equal(g.x[1:], -g.x[:0:-1]) and g.x[nx // 2] == 0.0
        assert np.array_equal(g.y[1:], -g.y[:0:-1]) and g.y[ny // 2] == 0.0
        v = np.roll(gaussian_state(g, 1.3, 0.9).values, (-(nx // 2), -(ny // 2)), axis=(0, 1))
        assert np.array_equal(v[1:], v[:0:-1]) and np.array_equal(v[:, 1:], v[:, :0:-1])

    def test_built_once_on_first_use(self):
        g = Grid2D(32, 32, 8.0, 8.0)
        assert "even" not in g._multiplier_cache
        assert g.even is g.even

    @pytest.mark.parametrize("nx,ny,lx,ly", _EVEN_SIZES)
    def test_restrict_inverts_expand(self, nx, ny, lx, ly, rng):
        g = Grid2D(nx, ny, lx, ly)
        q, a = expanded_noise(rng, g)
        r = g.even.restrict(a)
        assert np.array_equal(r, q) and r.flags.c_contiguous
        assert np.array_equal(g.even.expand(r), a)


class TestHalfGrid:
    @pytest.mark.parametrize("nx,ny", [(64, 64), (32, 48), (16, 24)])
    def test_half_is_the_grid_at_half_resolution(self, nx, ny):
        g = Grid2D(nx, ny, 12.0, 10.0)
        assert g.half == Grid2D(nx // 2, ny // 2, 12.0, 10.0)
        assert g.half is g.half

    @pytest.mark.parametrize("nx,ny", [(66, 64), (64, 30), (12, 16), (16, 14)])
    def test_no_half_where_it_fails_check_grid(self, nx, ny):
        assert Grid2D(nx, ny, 12.0, 10.0).half is None

    @pytest.mark.parametrize("nx,ny", [(32, 32), (48, 32)])
    def test_prolong_interpolates_band_limited_data_exactly(self, nx, ny):
        # on the quarters: every even mode below the half grid's Nyquist is
        # sampled again exactly; the half grid's Nyquist modes are dropped
        g = Grid2D(nx, ny, 2 * np.pi, 4 * np.pi)
        h = g.half
        e, coarse = g.even, h.even
        mx, my = nx // 4 - 1, ny // 4 - 1

        def smooth(grid):
            x, y = grid.x[:, None], grid.y[None, :]
            return 1.0 + np.cos(mx * x) * np.cos(0.5 * y) + np.cos(x) * np.cos(0.5 * my * y)

        got = e.prolong(coarse.restrict(smooth(h)), coarse)
        assert got.shape == e.shape
        assert np.max(np.abs(got - e.restrict(smooth(g)))) < 1e-13
        nyquist = np.cos((nx // 4) * h.x)[:, None] + np.cos((ny // 8) * h.y)[None, :]
        assert np.max(np.abs(e.prolong(coarse.restrict(nyquist), coarse))) < 1e-14


class TestHelmholtzInverse:
    def test_constant_untouched(self, grid_small):
        c = complex_field(grid_small, np.full((64, 64), 2.5 + 1j))
        out = helmholtz_inverse(c, 0.7)
        assert np.max(np.abs(out.values - c.values)) < 1e-14

    def test_plane_wave_symbol(self, grid_small):
        g = grid_small  # lx = 2 pi so kx[1] = ky[1] = 1, |k|^2 = 2
        xg, yg, _, _ = meshes(g)
        f = complex_field(g, np.exp(1j * (g.kx[1] * xg + g.ky[1] * yg)))
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

    def test_non_finite_field_rejected(self, grid_small):
        f = complex_field(grid_small, np.zeros((64, 64)))
        f.values[3, 5] = np.nan
        with pytest.raises(ParameterError, match="finite"):
            helmholtz_inverse(f, 0.5)


class TestEMultiplier:
    def test_x_mode_unchanged(self, grid_small):
        g = grid_small
        xg, _, _, _ = meshes(g)
        f = complex_field(g, np.exp(1j * g.kx[1] * xg))
        out = e_multiplier(f, 1.7, "xx")
        assert np.max(np.abs(out.values - f.values)) < 1e-13

    def test_y_mode_annihilated(self, grid_small):
        g = grid_small
        _, yg, _, _ = meshes(g)
        f = complex_field(g, np.exp(1j * g.ky[1] * yg))
        out = e_multiplier(f, 1.7, "xx")
        assert np.max(np.abs(out.values)) < 1e-14

    def test_diagonal_mode_symbol(self, grid_small):
        g = grid_small  # square box: kx[1] = ky[1], nu=2 -> 1/(1+2)
        xg, yg, _, _ = meshes(g)
        f = complex_field(g, np.exp(1j * (g.kx[1] * xg + g.ky[1] * yg)))
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
