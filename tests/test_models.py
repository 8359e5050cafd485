import numpy as np
import pytest

from dsalpha import (
    Grid2D,
    ModelKind,
    ModelSpec,
    ParameterError,
    complex_field,
    compute_aux,
    grad_norm,
    hamiltonian,
    l2_norm,
    mass,
    nonlinearity,
)
import dsalpha.models as models_mod
from dsalpha.harness import gaussian_state
from dsalpha.models import potential_values
from conftest import count_calls, random_complex

ALL_KINDS = [ModelKind.DSE, ModelKind.RDS1, ModelKind.RDS2, ModelKind.RDS3]


def spec_for(kind, beta=1.0, rho=-1.0, nu=1.0, alpha=0.25):
    return ModelSpec(kind, beta, rho, nu, alpha if kind is not ModelKind.DSE else 0.0)


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.0)  # alpha=0 only for DSE
        with pytest.raises(ParameterError):
            ModelSpec(ModelKind.DSE, 1.0, -1.0, 0.0, 0.0)  # nu must be positive
        with pytest.raises(ParameterError):
            ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0, -0.1)

    def test_regime_flags(self):
        assert ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0).in_regime  # beta > min(rho, 0)
        assert not ModelSpec(ModelKind.DSE, -2.0, -1.0, 1.0).in_regime
        assert ModelSpec(ModelKind.RDS1, 1.0, 2.0, 1.0, 0.1).in_regime
        assert ModelSpec(ModelKind.RDS2, -1.0, -2.0, 1.0, 0.1).in_regime
        assert not ModelSpec(ModelKind.RDS2, -2.0, -1.0, 1.0, 0.1).in_regime
        assert ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1).in_regime


class TestComputeAux:
    @pytest.mark.parametrize("kind", [ModelKind.RDS1, ModelKind.RDS2, ModelKind.RDS3])
    def test_constant_field(self, grid_small, kind):
        c = 1.5 - 0.5j
        v = complex_field(grid_small, np.full((64, 64), c))
        aux = compute_aux(v, spec_for(kind))
        assert np.max(np.abs(aux.u.values - abs(c) ** 2)) < 1e-12
        assert np.max(np.abs(aux.pot.values)) < 1e-12

    def test_plane_wave_same_as_constant(self, grid_small):
        g = grid_small
        c = 0.8 + 0.1j
        v = complex_field(g, c * np.exp(1j * g.kx[2] * g.xg))
        aux = compute_aux(v, spec_for(ModelKind.RDS3))
        assert np.max(np.abs(aux.u.values - abs(c) ** 2)) < 1e-12
        assert np.max(np.abs(aux.pot.values)) < 1e-12

    def test_rds3_pot_contraction(self, grid_medium):
        # |pot|_2 <= ||v|^2|_2 from the composed multiplier bounds
        v = gaussian_state(grid_medium, 1.3, 1.5)
        aux = compute_aux(v, spec_for(ModelKind.RDS3))
        assert l2_norm(aux.pot) <= l2_norm(aux.intensity) + 1e-14

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_flow_and_hamiltonian_share_the_aux_pipeline(self, grid_medium, rng, kind):
        # the phase substep and the monitored Hamiltonian must see exactly the
        # fields compute_aux reports, bit for bit
        g = grid_medium
        spec = spec_for(kind, nu=1.3)
        v = complex_field(g, random_complex(rng, g))
        aux = compute_aux(v, spec)
        p = potential_values(v.values, g, spec)
        assert np.array_equal(p, spec.beta * aux.ueff.values - spec.rho * aux.pot.values)
        da = g.cell_area
        quartic = np.sum(aux.ueff.values * aux.intensity.values) * da
        flow = np.sum(aux.vel_x.values**2 + spec.nu * aux.vel_y.values**2) * da
        gradsq = grad_norm(v) ** 2
        expected = float(gradsq - 0.5 * spec.beta * quartic + 0.5 * spec.rho * flow)
        assert hamiltonian(v, spec) == expected

    def test_velocities_mean_free(self, grid_medium):
        v = gaussian_state(grid_medium, 1.0, 2.0)
        for kind in ALL_KINDS:
            aux = compute_aux(v, spec_for(kind))
            da = grid_medium.cell_area
            assert abs(np.sum(aux.vel_x.values) * da) < 1e-11
            assert abs(np.sum(aux.vel_y.values) * da) < 1e-11


def _dft_matrix(n):
    m = np.fft.fftfreq(n) * n
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(m, j) / n) / np.sqrt(n)


def _oracle_nonlinearity(v, grid, spec):
    """Direct-summation DFT oracle mirroring the dealiased product pipeline."""
    fx = _dft_matrix(grid.nx)
    fy = _dft_matrix(grid.ny)

    def dft(a):
        return fx @ a @ fy.T

    def idft(a):
        return fx.conj().T @ a @ fy.conj()

    mx = np.abs(np.fft.fftfreq(grid.nx) * grid.nx)
    my = np.abs(np.fft.fftfreq(grid.ny) * grid.ny)
    zero = (mx[:, None] > grid.nx / 3) | (my[None, :] > grid.ny / 3)

    def cut(a):
        out = a.copy()
        out[zero] = 0
        return out

    kx = 2 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    kxg, kyg = np.meshgrid(kx, ky, indexing="ij")
    k2 = kxg**2 + kyg**2
    bsym = 1.0 / (1.0 + spec.alpha**2 * k2)
    denom = kxg**2 + spec.nu * kyg**2
    esym = np.divide(kxg**2, denom, out=np.zeros_like(denom), where=denom > 0)

    vd = idft(cut(dft(v)))
    intensity = (vd * vd.conj()).real
    ih = cut(dft(intensity))
    if spec.kind in (ModelKind.RDS1, ModelKind.RDS3):
        ueff = idft(bsym * ih).real
    else:
        ueff = intensity
    if spec.kind in (ModelKind.RDS2, ModelKind.RDS3):
        pot = idft(bsym * esym * bsym * ih).real
    else:
        pot = idft(esym * ih).real
    return (spec.beta * ueff - spec.rho * pot) * vd


class TestNonlinearity:
    def test_zero_maps_to_zero(self, grid_small):
        v = complex_field(grid_small, np.zeros((64, 64)))
        assert np.all(nonlinearity(v, spec_for(ModelKind.RDS3)).values == 0)

    def test_constant_rds3(self, grid_small):
        c = 1.1 + 0.7j
        v = complex_field(grid_small, np.full((64, 64), c))
        out = nonlinearity(v, spec_for(ModelKind.RDS3))
        assert np.max(np.abs(out.values - 1.0 * abs(c) ** 2 * c)) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_against_direct_dft_oracle(self, kind):
        g = Grid2D(16, 16, 12.0, 12.0)
        v = gaussian_state(g, 1.2, 1.5, center=(0.4, -0.6), chirp=0.1)
        spec = spec_for(kind)
        got = nonlinearity(v, spec).values
        want = _oracle_nonlinearity(v.values, g, spec)
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_gauge_invariance_quarter_turns(self, grid_medium, rng):
        # the continuum identity is exact; the transforms reorder floating
        # point operations, so near-machine agreement is the sharp statement
        v = complex_field(grid_medium, random_complex(rng, grid_medium))
        spec = spec_for(ModelKind.RDS3)
        base = nonlinearity(v, spec).values
        scale = np.max(np.abs(base))
        for phase in (1j, -1.0, -1j):
            rotated = complex_field(grid_medium, phase * v.values)
            diff = np.max(np.abs(nonlinearity(rotated, spec).values - phase * base))
            assert diff < 1e-14 * scale

    def test_gauge_invariance_generic_angle(self, grid_medium, rng):
        v = complex_field(grid_medium, random_complex(rng, grid_medium))
        spec = spec_for(ModelKind.RDS2)
        base = nonlinearity(v, spec).values
        ph = np.exp(0.7343j)
        rotated = complex_field(grid_medium, ph * v.values)
        diff = np.max(np.abs(nonlinearity(rotated, spec).values - ph * base))
        assert diff < 1e-12 * np.max(np.abs(base))

    @pytest.mark.parametrize("kind", [ModelKind.RDS1, ModelKind.RDS2, ModelKind.RDS3])
    def test_alpha_to_zero_second_order(self, grid_medium, kind):
        # |F_alpha(v) - F_dse(v)| = O(alpha^2): halving alpha quarters the gap
        v = gaussian_state(grid_medium, 1.1, 1.7)
        dse = nonlinearity(v, ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)).values
        gaps = []
        for alpha in (0.2, 0.1):
            out = nonlinearity(v, ModelSpec(kind, 1.0, -1.0, 1.0, alpha)).values
            gaps.append(l2_norm(complex_field(grid_medium, out - dse)))
        assert 3.5 < gaps[0] / gaps[1] < 4.5

    def test_mass_conservation_mechanism(self, grid_medium):
        # Im int F(v) conj(v) = 0 since both potentials are real
        v = gaussian_state(grid_medium, 1.4, 1.2, chirp=0.3)
        F = nonlinearity(v, spec_for(ModelKind.RDS3)).values
        val = np.sum(F * np.conj(v.values)) * grid_medium.cell_area
        assert abs(val.imag) < 1e-10 * abs(val.real)


class TestMassAndHamiltonian:
    def test_mass_zero_and_constant(self, grid_small):
        g = grid_small
        assert mass(complex_field(g, np.zeros((64, 64)))) == 0.0
        c = 1.2 - 0.9j
        v = complex_field(g, np.full((64, 64), c))
        assert mass(v) == pytest.approx(abs(c) ** 2 * g.lx * g.ly, rel=1e-14)

    def test_mass_gaussian(self):
        g = Grid2D(256, 256, 32.0, 32.0)
        v = gaussian_state(g, 1.0, 1.0)  # exp(-r^2/2): integral of |v|^2 is pi
        assert abs(mass(v) - np.pi) < 1e-10

    def test_hamiltonian_zero(self, grid_small):
        v = complex_field(grid_small, np.zeros((64, 64)))
        for kind in ALL_KINDS:
            assert hamiltonian(v, spec_for(kind)) == 0.0

    @pytest.mark.parametrize("kind, transforms", [
        (ModelKind.DSE, 5), (ModelKind.RDS1, 6), (ModelKind.RDS2, 5), (ModelKind.RDS3, 6),
    ])
    def test_hamiltonian_transforms_v_once(self, grid_small, rng, monkeypatch, kind, transforms):
        # one fft2 of v feeds both the gradient term and the intensity; the
        # rest are the intensity pipeline (2), u_eff for RDS1/3 (1) and the
        # mean flow (2)
        v = complex_field(grid_small, random_complex(rng, grid_small))
        calls = count_calls(monkeypatch, models_mod, "fft2", "ifft2")
        hamiltonian(v, spec_for(kind))
        assert len(calls) == transforms

    def test_hamiltonian_plane_wave_rds3(self, grid_small):
        g = grid_small
        c = 1.3 + 0.4j
        k = g.kx[2]
        v = complex_field(g, c * np.exp(1j * k * g.xg))
        expect = (k**2 - 1.0 * abs(c) ** 2 / 2) * abs(c) ** 2 * g.lx * g.ly
        assert hamiltonian(v, spec_for(ModelKind.RDS3)) == pytest.approx(expect, rel=1e-12)

    def test_hamiltonian_dse_gaussian_quadrature_oracle(self):
        # independent path: analytic Gaussian gradient and explicit
        # direct-summation DFT for the mean-flow velocities, all integrated
        # by composite trapezoid (= rectangle rule on the periodic box)
        g = Grid2D(128, 128, 16.0, 16.0)
        A, w = 1.3, 1.0
        v = gaussian_state(g, A, w)
        spec = ModelSpec(ModelKind.DSE, 1.0, 1.0, 1.0)
        got = hamiltonian(v, spec)

        da = g.cell_area
        r2 = g.r2
        intensity = (A * np.exp(-r2 / (2 * w**2))) ** 2
        grad_term = np.sum(intensity * r2 / w**4) * da
        quart = np.sum(intensity**2) * da

        fx = _dft_matrix(g.nx)
        fy = _dft_matrix(g.ny)
        ih = fx @ intensity.astype(complex) @ fy.T
        kx = 2 * np.pi * np.fft.fftfreq(g.nx, d=g.dx)
        ky = 2 * np.pi * np.fft.fftfreq(g.ny, d=g.dy)
        kxg, kyg = np.meshgrid(kx, ky, indexing="ij")
        denom = kxg**2 + spec.nu * kyg**2
        exx = np.divide(kxg**2, denom, out=np.zeros_like(denom), where=denom > 0)
        exy = np.divide(kxg * kyg, denom, out=np.zeros_like(denom), where=denom > 0)
        phi_x = (fx.conj().T @ (exx * ih) @ fy.conj()).real
        phi_y = (fx.conj().T @ (exy * ih) @ fy.conj()).real
        flow = np.sum(phi_x**2 + spec.nu * phi_y**2) * da

        expect = grad_term - 0.5 * spec.beta * quart + 0.5 * spec.rho * flow
        assert got == pytest.approx(expect, rel=1e-8)

    def test_hamiltonian_dse_gaussian_analytic_sanity(self):
        # continuum closed form: H = pi A^2 [1 - beta A^2 w^2/4 + rho A^2 w^2/8];
        # the discrete mean-free convention for the k=0 cell shifts the flow
        # term by ~(1/4) mass(|v|^2)^2/area, so agreement is only O(1/area)
        g = Grid2D(256, 256, 32.0, 32.0)
        A, w = 1.3, 1.0
        v = gaussian_state(g, A, w)
        spec = ModelSpec(ModelKind.DSE, 1.0, 1.0, 1.0)
        expect = np.pi * A**2 * (1 - A**2 * w**2 / 4 + A**2 * w**2 / 8)
        assert hamiltonian(v, spec) == pytest.approx(expect, rel=5e-3)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_conjugate_reflection_invariance(self, grid_medium, rng, kind):
        v = complex_field(grid_medium, random_complex(rng, grid_medium))
        refl = np.roll(np.roll(v.values[::-1, ::-1], 1, axis=0), 1, axis=1)
        w = complex_field(grid_medium, np.conj(refl))
        spec = spec_for(kind)
        assert mass(w) == pytest.approx(mass(v), rel=1e-12)
        assert hamiltonian(w, spec) == pytest.approx(hamiltonian(v, spec), rel=1e-12)
