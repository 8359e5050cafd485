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
import dsalpha.stepping as stepping_mod
from dsalpha.harness import gaussian_state
from dsalpha.models import mass, potential_values
from dsalpha.spectral import fft2, grad_norm_spectrum, ifft2
from dsalpha.stepping import MAX_MASS_DRIFT
from conftest import count_transforms, random_complex
from oracles import meshes


def diff_norm(a, b, grid):
    return l2_norm(complex_field(grid, a.values - b.values))


def run_fixed(v, spec, dt, n, stepper="strang"):
    """n fixed steps of size dt through integrate; the state at t = n*dt."""
    ctrl = StepControl(adaptive=False, dt=dt, dt_max=dt, t_end=n * dt, stepper=stepper)
    out = integrate(v, spec, ctrl, record_every=10**9)
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
        xg, _, _, _ = meshes(g)
        v = complex_field(g, c * np.exp(1j * k * xg))
        dt = 0.37
        out = run_fixed(v, spec, dt, 1)
        exact = v.values * np.exp(1j * (-(k**2) + 1.0 * abs(c) ** 2) * dt)
        assert np.max(np.abs(out.values - exact)) < 1e-12 * abs(c)

    @pytest.mark.filterwarnings("ignore:DSE run with beta=0.0")
    def test_free_propagator_unitary(self, grid_medium, rng):
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

    def test_fixed_steps_summing_short_of_t_end_take_no_extra_step(self):
        # ten steps of 0.01 sum to 0.09999999999999999: the last of them
        # ends the run at t_end instead of leaving a step of about 1e-17
        g = Grid2D(16, 16, 8.0, 8.0)
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.3)
        ctrl = StepControl(dt=1e-2, dt_max=1e-2, adaptive=False, t_end=0.1)
        out = integrate(gaussian_state(g, 1.5, 1.0), spec, ctrl, record_every=1)
        assert out.steps == 10
        assert out.records[-1].t == 0.1 and out.t_final == 0.1
        assert min(r.dt for r in out.records) >= 1e-15

    def test_unknown_stepper_rejected(self):
        with pytest.raises(ParameterError, match="stepper"):
            StepControl(stepper="rk4")

    @pytest.mark.parametrize("sample, record_every, match", [
        (np.nan, 1, "v0 must be finite"), (np.inf, 1, "v0 must be finite"),
        (1.0, 0, "record_every"),
    ])
    def test_bad_input_rejected(self, sample, record_every, match):
        g = Grid2D(16, 16, 8.0, 8.0)
        v = gaussian_state(g, 1.5, 1.0)
        v.values[3, 5] = sample
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.3)
        with pytest.raises(ParameterError, match=match):
            integrate(v, spec, StepControl(t_end=0.01), record_every=record_every)

    @pytest.mark.parametrize("stepper", ["strang", "ifrk4"])
    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("amplitude", [1e160, 1e100])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_v0_rejected(self, stepper, adaptive, amplitude):
        # every sample of a 1e160 Gaussian is finite but its |v0|^2 peak is
        # not; a 1e100 Gaussian's |v0|^2 is finite but its H (|v0|^4) is
        # not.  The t = 0 pass and record reject both, without a numpy warning
        g = Grid2D(16, 16, 8.0, 8.0)
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.3)
        ctrl = StepControl(adaptive=adaptive, t_end=0.01, stepper=stepper)
        with pytest.raises(ParameterError, match="v0 must be finite"):
            integrate(gaussian_state(g, amplitude, 1.0), spec, ctrl)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_stops_as_blow_up_without_a_record(self):
        # IFRK4 from amplitude 1e70 overflows in its first step: the run
        # stops as a blow-up with only the healthy t = 0 record, without a
        # numpy warning, and returns the non-finite state
        g = Grid2D(32, 32, 8.0, 8.0)
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.3)
        ctrl = StepControl(dt=1e-3, dt_max=1e-3, adaptive=False, t_end=0.01, stepper="ifrk4")
        out = integrate(gaussian_state(g, 1e70, 1.0), spec, ctrl, record_every=1)
        assert np.isfinite(out.records[0].hamiltonian)
        assert out.status is RunStatus.BLOW_UP_DETECTED and out.steps == 1
        assert [r.t for r in out.records] == [0.0]
        assert not np.isfinite(out.final_state.values).all()

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
        ctrl = StepControl(dt=0.01, dt_max=0.01, adaptive=False, t_end=1.0, stepper="ifrk4")
        out = integrate(v, spec, ctrl, record_every=5)
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


def reference_strang(v0, spec, dt, n, record_every, snapshot_every):
    """Fixed-dt Strang loop written from potential_values, fft2 and ifft2.

    Every potential is computed afresh from the state it acts on; half
    phases are fused between steps and closed at records and snapshots, as
    integrate does.  Returns {step: state} at records and at snapshots.
    """
    g = v0.grid
    phase = np.exp(-1j * dt * g.k2)
    v = v0.values.copy()
    pending = 0.0
    records = {0: v.copy()}
    snaps = {0: v.copy()} if snapshot_every else {}
    for step in range(1, n + 1):
        v = v * np.exp(1j * (pending + 0.5 * dt) * potential_values(v, g, spec))
        v = ifft2(phase * fft2(v))
        pending = 0.5 * dt
        emit = step % record_every == 0 or step == n
        snap = snapshot_every and step % snapshot_every == 0
        if emit or snap:
            v = v * np.exp(1j * pending * potential_values(v, g, spec))
            pending = 0.0
        if emit:
            records[step] = v.copy()
        if snap:
            snaps[step] = v.copy()
    return records, snaps


def transform_counts(monkeypatch):
    """Count every transform at the scipy.fft entry points; the returned
    function gives (complex, real) so far, and its `names` the entry points
    called.  A DCT, which an EvenGrid makes for each of its transforms,
    counts as complex or real by its input."""
    calls = count_transforms(monkeypatch,
                             label=lambda name, args: (name, np.iscomplexobj(args[0])))

    def counts():
        real = sum(name in ("rfft2", "irfft2") or (name == "dctn" and not cplx)
                   for name, cplx in calls)
        return len(calls) - real, real

    counts.names = lambda: {name for name, _ in calls}
    return counts


def even_noisy_state(g, centre):
    """A Gaussian plus noise, mirror-symmetrized about index 0 in x and in y
    and rolled to centre: exactly even about that grid point, and peaked
    there."""
    rng = np.random.default_rng(7)
    v = np.roll(gaussian_state(g, 1.5, 1.0).values, (-(g.nx // 2), -(g.ny // 2)), axis=(0, 1))
    v = v + 0.3 * random_complex(rng, g)
    v = 0.5 * (v + np.roll(v[::-1, :], 1, axis=0))
    v = 0.5 * (v + np.roll(v[:, ::-1], 1, axis=1))
    v = np.roll(v, centre, axis=(0, 1))
    assert np.unravel_index(np.argmax(np.abs(v)), v.shape) == centre
    return complex_field(g, v)


def off_centre_gaussian(g):
    """A Gaussian centred on a grid point off the box centre: even about it
    except in the tails, which the periodic box wraps unevenly."""
    return gaussian_state(g, 1.5, 1.0, center=(2 * g.dx, -3 * g.dy))


class TestLeanStep:
    """The loop carries the potential of its state into the next step: a
    Strang step computes it from its linear substep's spectrum, a record
    from its own transform.  It may not be used once the state moved."""

    DT, N = 2.0**-7, 15  # binary dt: t = step*dt exactly, no truncated last step

    @pytest.mark.parametrize("kind", [ModelKind.DSE, ModelKind.RDS3])
    @pytest.mark.parametrize("record_every", [1, 3, 7])
    @pytest.mark.parametrize("snapshot_every", [0, 4])
    def test_matches_reference_loop(self, monkeypatch, kind, record_every, snapshot_every):
        # a noisy state has O(1) content beyond 2/3 Nyquist, so the
        # potential of a phase-rotated state differs from the unrotated one
        # and a stale spectrum or potential shows far above roundoff
        g = Grid2D(32, 32, 8.0, 8.0)
        rng = np.random.default_rng(7)
        v0 = complex_field(g, gaussian_state(g, 1.5, 1.0).values
                           + 0.3 * random_complex(rng, g))
        names = self.check_against_reference(monkeypatch, v0, kind, record_every, snapshot_every)
        assert "dctn" not in names

    @pytest.mark.parametrize("kind", [ModelKind.DSE, ModelKind.RDS3])
    @pytest.mark.parametrize("record_every", [1, 3, 7])
    @pytest.mark.parametrize("snapshot_every", [0, 4])
    def test_even_state_matches_reference_loop(
        self, monkeypatch, kind, record_every, snapshot_every
    ):
        # the even parametrization: the same noise, mirror-symmetrized about
        # an off-centre grid point, steps on the quarter grid and must match
        # the full-grid reference loop to the same bounds
        g = Grid2D(32, 32, 8.0, 8.0)
        v0 = even_noisy_state(g, (3, 27))
        names = self.check_against_reference(monkeypatch, v0, kind, record_every, snapshot_every)
        assert names == {"dctn"}

    def check_against_reference(self, monkeypatch, v0, kind, record_every, snapshot_every):
        """Run integrate and the reference loop on v0 and compare them; the
        scipy.fft entry points integrate called."""
        g = v0.grid
        spec = ModelSpec(kind, 1.0, -1.0, 1.0, 0.3 if kind is ModelKind.RDS3 else 0.0)
        snaps = {}
        ctrl = StepControl(adaptive=False, dt=self.DT, dt_max=self.DT, t_end=self.N * self.DT)
        with monkeypatch.context() as mp:
            counts = transform_counts(mp)
            out = integrate(v0, spec, ctrl, record_every=record_every,
                            snapshot_every=snapshot_every,
                            snapshot_writer=lambda step, t, f: snaps.setdefault(step, f.values))
        want_records, want_snaps = reference_strang(
            v0, spec, self.DT, self.N, record_every, snapshot_every)
        scale = np.max(np.abs(v0.values))
        assert out.steps == self.N
        assert [round(r.t / self.DT) for r in out.records] == sorted(want_records)
        for r in out.records:
            want = want_records[round(r.t / self.DT)]
            f = complex_field(g, want)
            assert r.grad_norm == pytest.approx(grad_norm_spectrum(fft2(want), g), rel=1e-12)
            assert r.hamiltonian == pytest.approx(hamiltonian(f, spec), rel=1e-12)
            assert r.max_amp == pytest.approx(np.max(np.abs(want)), rel=1e-12)
            assert r.mass == pytest.approx(mass(f), rel=1e-12)
        assert out.final_state.grid is g
        assert np.max(np.abs(out.final_state.values - want_records[self.N])) < 1e-12 * scale
        assert sorted(snaps) == sorted(want_snaps)
        for step, values in snaps.items():
            assert np.max(np.abs(values - want_snaps[step])) < 1e-12 * scale
        return counts.names()

    @pytest.mark.parametrize("kind", [ModelKind.DSE, ModelKind.RDS3])
    def test_transforms_per_fused_step(self, monkeypatch, kind):
        # a fused step: ifft2 of the dealiased carried spectrum, rfft2/irfft2
        # of the potential, fft2/ifft2 of the linear substep.  Fixed: the two
        # records (2 complex + 2 real each); the first step's potential comes
        # from the first record and the closing half phase adds one pipeline.
        # A centred Gaussian steps on the quarter grid, every transform a DCT
        g = Grid2D(32, 32, 8.0, 8.0)
        names = self.check_transforms_per_fused_step(monkeypatch, gaussian_state(g, 1.5, 1.0), kind)
        assert names == {"dctn"}

    @pytest.mark.parametrize("kind", [ModelKind.DSE, ModelKind.RDS3])
    def test_transforms_per_fused_step_full_grid(self, monkeypatch, kind):
        g = Grid2D(32, 32, 8.0, 8.0)
        names = self.check_transforms_per_fused_step(monkeypatch, off_centre_gaussian(g), kind)
        assert names == {"fft2", "ifft2", "rfft2", "irfft2"}

    def check_transforms_per_fused_step(self, monkeypatch, v0, kind):
        """The transform counts of 4 and 9 fixed steps from v0; the scipy.fft
        entry points called."""
        spec = ModelSpec(kind, 1.0, -1.0, 1.0, 0.3 if kind is ModelKind.RDS3 else 0.0)
        for n in (4, 9):
            ctrl = StepControl(adaptive=False, dt=self.DT, dt_max=self.DT, t_end=n * self.DT)
            with monkeypatch.context() as mp:
                counts = transform_counts(mp)
                assert integrate(v0, spec, ctrl, record_every=10**9).steps == n
            assert counts() == (3 * n + 4, 2 * n + 4)
        return counts.names()

    def test_step_after_a_record_runs_no_potential_pipeline(self, monkeypatch):
        # the record's potential is that of the state the next step starts
        # from, so the next pipeline run is the one closing that step.  A
        # centred Gaussian steps on the quarter grid
        g = Grid2D(32, 32, 8.0, 8.0)
        self.check_step_after_a_record(monkeypatch, gaussian_state(g, 1.5, 1.0), g.even)

    def test_step_after_a_record_runs_no_potential_pipeline_full_grid(self, monkeypatch):
        g = Grid2D(32, 32, 8.0, 8.0)
        self.check_step_after_a_record(monkeypatch, off_centre_gaussian(g), g)

    def check_step_after_a_record(self, monkeypatch, v0, stepping_grid):
        # only outermost calls are logged: a record and a pipeline make
        # transforms of their own, and the linear substep is the one ifft2
        # of the grid the loop steps on that neither makes
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.3)
        events, depth = [], [0]

        def logged(name, inner):
            def wrapper(*args, **kwargs):
                depth[0] += 1
                try:
                    out = inner(*args, **kwargs)
                finally:
                    depth[0] -= 1
                if depth[0] == 0:
                    events.append(name)
                return out
            return wrapper

        for owner, name, attr in ((stepping_mod, "record", "_record"),
                                  (stepping_mod, "pipeline", "_intensity_and_potential"),
                                  (stepping_grid, "linear", "ifft2")):
            monkeypatch.setattr(owner, attr, logged(name, getattr(owner, attr)))
        n = 6
        ctrl = StepControl(adaptive=False, dt=self.DT, dt_max=self.DT, t_end=n * self.DT)
        integrate(v0, spec, ctrl, record_every=1)
        assert events == ["record"] + ["linear", "pipeline", "record"] * n

    @pytest.mark.parametrize("stepper", ["strang", "ifrk4"])
    @pytest.mark.parametrize("case", ["centred", "one_ulp", "off_centre"])
    def test_full_grid_unless_exactly_even(self, monkeypatch, case, stepper):
        # the grid follows the state, not the stepper: a centred Gaussian,
        # even bit for bit, makes only DCTs; one ulp off in one sample and
        # an off-centre Gaussian make none
        g = Grid2D(32, 32, 8.0, 8.0)
        v0 = gaussian_state(g, 1.5, 1.0)
        if case == "one_ulp":
            v0.values[3, 5] = np.nextafter(v0.values[3, 5].real, 1.0) + 1j * v0.values[3, 5].imag
        elif case == "off_centre":
            v0 = off_centre_gaussian(g)
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.3)
        ctrl = StepControl(adaptive=False, dt=self.DT, dt_max=self.DT, t_end=3 * self.DT,
                           stepper=stepper)
        with monkeypatch.context() as mp:
            counts = transform_counts(mp)
            out = integrate(v0, spec, ctrl, record_every=1)
        assert out.steps == 3
        assert out.final_state.grid is g
        if case == "centred":
            assert counts.names() == {"dctn"}
        else:
            assert "dctn" not in counts.names()

    @pytest.mark.parametrize("kind, beta, alpha", [
        (ModelKind.DSE, 1.0, 0.0), (ModelKind.RDS2, -0.5, 0.2), (ModelKind.RDS3, 1.0, 0.3),
    ])
    def test_even_ifrk4_matches_full_grid_reference(self, monkeypatch, kind, beta, alpha):
        # IFRK4 on the quarter against the full-grid IFRK4: a loop of
        # ifrk4_step on Grid2D Fields from the even noisy state, with a
        # record every third step
        g = Grid2D(32, 32, 8.0, 8.0)
        v0 = even_noisy_state(g, (3, 27))
        spec = ModelSpec(kind, beta, -1.0, 1.0, alpha)
        ctrl = StepControl(adaptive=False, dt=self.DT, dt_max=self.DT, t_end=self.N * self.DT,
                           stepper="ifrk4")
        with monkeypatch.context() as mp:
            counts = transform_counts(mp)
            out = integrate(v0, spec, ctrl, record_every=3)
        assert counts.names() == {"dctn"}
        want = {0: v0.values}
        v = v0
        for step in range(1, self.N + 1):
            v = stepping_mod.ifrk4_step(v, spec, self.DT)
            want[step] = v.values
        assert out.steps == self.N
        assert [round(r.t / self.DT) for r in out.records] == [0, 3, 6, 9, 12, 15]
        for r in out.records:
            w = want[round(r.t / self.DT)]
            f = complex_field(g, w)
            assert r.grad_norm == pytest.approx(grad_norm_spectrum(fft2(w), g), rel=1e-12)
            assert r.hamiltonian == pytest.approx(hamiltonian(f, spec), rel=1e-12)
            assert r.max_amp == pytest.approx(np.max(np.abs(w)), rel=1e-12)
            assert r.mass == pytest.approx(mass(f), rel=1e-12)
        assert out.final_state.grid is g
        scale = np.max(np.abs(v0.values))
        assert np.max(np.abs(out.final_state.values - want[self.N])) < 1e-12 * scale

    def test_ifrk4_stage_potential_from_stage_spectrum(self, monkeypatch):
        # each of the four stages: ifft2 of its spectrum, the potential
        # pipeline on that spectrum (1 complex + 2 real), fft2 of P*v; plus
        # the fft2 in and the ifft2 out
        g = Grid2D(32, 32, 8.0, 8.0)
        v = gaussian_state(g, 1.5, 1.0)
        counts = transform_counts(monkeypatch)
        stepping_mod.ifrk4_step(v, ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.3), self.DT)
        assert counts() == (14, 8)
