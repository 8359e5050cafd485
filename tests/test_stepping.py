import numpy as np
import pytest

from dsalpha import (
    Grid2D,
    ModelKind,
    ModelSpec,
    ParameterError,
    RunStatus,
    StepControl,
    complex_field,
    hamiltonian,
    integrate,
    l2_norm,
)
from dsalpha.harness import gaussian_state
from dsalpha.stepping import MAX_MASS_DRIFT


def diff_norm(a, b, grid):
    return l2_norm(complex_field(grid, a.values - b.values))


def run_fixed(v, spec, dt, n, stepper="strang"):
    """n fixed steps of size dt through integrate; the state at t = n*dt."""
    ctrl = StepControl(adaptive=False, dt=dt, dt_max=dt, t_end=n * dt)
    out = integrate(v, spec, ctrl, record_every=10**9, stepper=stepper)
    assert out.steps == n
    return out.final_state


class TestStrangStep:
    def test_plane_wave_exact(self, grid_small):
        # constant-intensity states are exact for the splitting: both
        # substeps act by the same commuting phases as the true flow
        g = grid_small
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        c = 1.1 - 0.3j
        k = g.kx[2]
        v = complex_field(g, c * np.exp(1j * k * g.xg))
        dt = 0.37
        out = run_fixed(v, spec, dt, 1)
        exact = v.values * np.exp(1j * (-(k**2) + 1.0 * abs(c) ** 2) * dt)
        assert np.max(np.abs(out.values - exact)) < 1e-12 * abs(c)

    @pytest.mark.filterwarnings("ignore:DSE run with beta=0.0")
    def test_free_propagator_unitary(self, grid_medium, rng):
        from conftest import random_complex

        spec = ModelSpec(ModelKind.DSE, 0.0, 0.0, 1.0)
        v = complex_field(grid_medium, random_complex(rng, grid_medium))
        out = run_fixed(v, spec, 0.01, 1)
        assert abs(l2_norm(out) - l2_norm(v)) / l2_norm(v) < 1e-13

    def test_richardson_third_order_local_error(self):
        g = Grid2D(128, 128, 16.0, 16.0)
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        v0 = gaussian_state(g, 1.2, 1.0)
        dt = 0.02
        e1 = diff_norm(run_fixed(v0, spec, dt, 1), run_fixed(v0, spec, dt / 64, 64), g)
        e2 = diff_norm(run_fixed(v0, spec, dt / 2, 1), run_fixed(v0, spec, dt / 64, 32), g)
        assert 6.5 < e1 / e2 < 9.5

    def test_time_reversal(self):
        # the flow is reversible under conjugation, conj o S_dt o conj = S_-dt,
        # so one step, a conjugation, one more step and a conjugation return
        # to the start without a negative dt
        g = Grid2D(128, 128, 32.0, 32.0)
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        v0 = gaussian_state(g, 1.0, 1.0, chirp=0.2)
        fwd = run_fixed(v0, spec, 0.01, 1)
        back = run_fixed(complex_field(g, fwd.values.conj()), spec, 0.01, 1)
        back = complex_field(g, back.values.conj())
        assert diff_norm(back, v0, g) / l2_norm(v0) < 1e-10

    def test_zero_dt_rejected(self):
        with pytest.raises(ParameterError):
            StepControl(dt=0.0)


class TestIfrk4CrossValidation:
    def test_agrees_with_strang(self):
        g = Grid2D(128, 128, 32.0, 32.0)
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.2)
        v = gaussian_state(g, 1.0, 1.5)
        dt, n = 2e-3, 50
        a = run_fixed(v, spec, dt, n, "strang")
        b = run_fixed(v, spec, dt, n, "ifrk4")
        # independent discretizations of the same flow agree to scheme order
        assert diff_norm(a, b, g) / l2_norm(v) < 1e-6


class TestIntegrate:
    def test_zero_field_reaches_end(self, grid_small):
        v = complex_field(grid_small, np.zeros((64, 64)))
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        out = integrate(v, spec, StepControl(dt=1e-2, adaptive=False, t_end=0.1))
        assert out.status is RunStatus.REACHED_T_END
        assert all(r.mass == 0 and r.hamiltonian == 0 for r in out.records)

    def test_t_end_zero_single_record(self, grid_small):
        v = complex_field(grid_small, np.ones((64, 64)))
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        out = integrate(v, spec, StepControl(dt=1e-2, t_end=0.0))
        assert out.status is RunStatus.REACHED_T_END
        assert len(out.records) == 1 and out.records[0].t == 0.0

    def test_unknown_stepper_rejected(self, grid_small):
        v = complex_field(grid_small, np.ones((64, 64)))
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        with pytest.raises(ParameterError, match="stepper"):
            integrate(v, spec, StepControl(t_end=0.0), stepper="rk4")

    def test_mass_conserved_to_roundoff(self):
        g = Grid2D(128, 128, 32.0, 32.0)
        spec = ModelSpec(ModelKind.RDS1, 1.0, 1.0, 1.0, 0.3)
        v = gaussian_state(g, 1.0, 1.5)
        ctrl = StepControl(dt=5e-3, adaptive=False, t_end=2.0)
        out = integrate(v, spec, ctrl, record_every=50)
        assert out.status is RunStatus.REACHED_T_END
        assert out.max_mass_drift < 1e-11

    def test_hamiltonian_drift_second_order(self):
        g = Grid2D(128, 128, 32.0, 32.0)
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        v = gaussian_state(g, 1.0, 1.5)
        H0 = hamiltonian(v, spec)

        def drift(dt):
            ctrl = StepControl(dt=dt, dt_max=dt, adaptive=False, t_end=2.0)
            out = integrate(v, spec, ctrl, record_every=10**9)
            return abs(out.records[-1].hamiltonian - H0)

        assert 3.5 < drift(0.02) / drift(0.01) < 4.5

    def test_blow_up_detected_on_amp_threshold(self):
        g = Grid2D(128, 128, 16.0, 16.0)
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        v = gaussian_state(g, 2.4, 1.0)  # well above critical mass
        ctrl = StepControl(
            dt=1e-3, dt_min=1e-10, dt_max=1e-3, adaptive=True, cfl_const=0.1,
            t_end=5.0, amp_max=12.0,
        )
        out = integrate(v, spec, ctrl, record_every=5)
        assert out.status is RunStatus.BLOW_UP_DETECTED
        assert out.records[-1].max_amp > 12.0
        assert out.t_final < 5.0

    def test_dt_underflow_status(self):
        g = Grid2D(128, 128, 16.0, 16.0)
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        v = gaussian_state(g, 2.4, 1.0)
        ctrl = StepControl(
            dt=1e-3, dt_min=5e-4, dt_max=1e-3, adaptive=True, cfl_const=0.1,
            t_end=5.0, amp_max=1e9,
        )
        out = integrate(v, spec, ctrl, record_every=5)
        assert out.status is RunStatus.DT_UNDERFLOW

    def test_non_conservative_step_is_not_a_blow_up(self):
        # fixed-step IFRK4 at dt = 0.01 loses stability on this focusing
        # Gaussian: its mass drift grows from 1e-9 towards O(1) long before
        # max|v| nears amp_max.  The run stops as unstable, with a record
        # at the stopping time, while Strang from the same state conserves
        # mass to roundoff over the same stretch
        g = Grid2D(128, 128, 16.0, 16.0)
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        v = gaussian_state(g, 2.2, 1.2, chirp=0.1)
        ctrl = StepControl(dt=0.01, dt_max=0.01, adaptive=False, t_end=1.0)
        out = integrate(v, spec, ctrl, record_every=5, stepper="ifrk4")
        assert out.status is RunStatus.NUMERICAL_INSTABILITY
        assert out.max_mass_drift > MAX_MASS_DRIFT
        last = out.records[-1]
        assert last.t == out.t_final < 0.35
        assert abs(last.mass - out.records[0].mass) > MAX_MASS_DRIFT * out.records[0].mass
        assert last.max_amp < 1e6 * out.records[0].max_amp
        strang = integrate(v, spec, StepControl(dt=0.01, dt_max=0.01, adaptive=False,
                                                t_end=out.t_final), record_every=5)
        assert strang.status is RunStatus.REACHED_T_END
        assert strang.max_mass_drift < 1e-12

    def test_regularized_twin_stays_bounded(self):
        g = Grid2D(128, 128, 16.0, 16.0)
        dse = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        rds = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.2)
        v = gaussian_state(g, 2.4, 1.0)
        ctrl = StepControl(
            dt=1e-3, dt_min=1e-10, dt_max=1e-3, adaptive=True, cfl_const=0.1,
            t_end=1.5, amp_max=12.0,
        )
        blow = integrate(v, dse, ctrl, record_every=5)
        ok = integrate(v, rds, ctrl, record_every=5)
        assert blow.status is RunStatus.BLOW_UP_DETECTED
        assert ok.status is RunStatus.REACHED_T_END
        gn = [r.grad_norm for r in ok.records]
        assert max(gn) / min(gn) < 20
