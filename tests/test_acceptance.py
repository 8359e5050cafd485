"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Criterion 5 is expected to FAIL: it pins the modulation
inner products to closed-form constants that are inconsistent (by an exact
factor of 2) with the linearized correction systems whose solves it checks,
and additionally the coupled profile's mean flow decays only algebraically,
so no closed form is reachable at 1e-6 relative on a finite box.  The sharp
identities the solver does satisfy are verified in test_modulation.py; this
criterion is kept at its stated values and tolerances rather than weakened.
"""

import time

import numpy as np
import pytest

from dsalpha import (
    Grid2D,
    ModelKind,
    ModelSpec,
    ModulationConstants,
    RunStatus,
    StepControl,
    collapse_fit,
    complex_field,
    e_multiplier,
    helmholtz_inverse,
    integrate,
    integrate_reduced,
    l2_norm,
    solve_linearized,
)
from dsalpha.config import RunConfig
from dsalpha.harness import (
    gaussian_amplitude_for_mass,
    gaussian_state,
    run_simulation,
)
from dsalpha.snapshots import read_snapshot, write_snapshot
from dsalpha.stepping import DiagnosticsRecord
from oracles import cubic_profile_critical_mass, meshes


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# flagship blow-up / regularization pair, shared by criteria 3 and 7
# ---------------------------------------------------------------------------

BIG_N = 1280
BIG_BOX = 17.5
BIG_WIDTH = 2.5
T_END_PAIR = 2.6


@pytest.fixture(scope="module")
def dichotomy_pair(coupled_ground):
    g = Grid2D(BIG_N, BIG_N, BIG_BOX, BIG_BOX)
    amp = gaussian_amplitude_for_mass(2.0 * coupled_ground.mass, BIG_WIDTH)
    v0 = gaussian_state(g, amp, BIG_WIDTH)
    ctrl = StepControl(
        dt=1e-3, dt_min=1e-11, dt_max=5e-3, adaptive=True, cfl_const=0.2,
        t_end=T_END_PAIR, amp_max=120.0 * amp,
    )
    t0 = time.time()
    dse = integrate(v0, ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0, 0.0), ctrl, record_every=3)
    t_dse = time.time() - t0
    t0 = time.time()
    rds = integrate(v0, ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1), ctrl, record_every=3)
    t_rds = time.time() - t0
    return dse, rds, t_dse, t_rds


class TestCriterion1OperatorExactness:
    def test_criterion_1(self):
        t0 = time.time()
        g = Grid2D(64, 64, 2 * np.pi, 2 * np.pi)
        ok = True
        notes = []

        # plane-wave symbol values against closed forms
        xg, yg, _, _ = meshes(g)
        pw = complex_field(g, np.exp(1j * (g.kx[1] * xg + g.ky[1] * yg)))
        b = helmholtz_inverse(pw, 1.0)  # |k|^2 = 2 -> 1/3
        err_b = np.max(np.abs(b.values - pw.values / 3.0))
        exx = e_multiplier(pw, 2.0, "xx")  # kx = ky, nu=2 -> 1/3
        err_e = np.max(np.abs(exx.values - pw.values / 3.0))
        px = complex_field(g, np.exp(1j * g.kx[3] * xg))
        err_e1 = np.max(np.abs(e_multiplier(px, 1.5, "xx").values - px.values))
        ok &= err_b < 1e-13 and err_e < 1e-13 and err_e1 < 1e-13
        notes.append(f"symbol errs {err_b:.1e}/{err_e:.1e}/{err_e1:.1e}")

        # contraction bounds on 100 random fields
        rng = np.random.default_rng(11)
        worst_b = worst_e = 0.0
        for _ in range(100):
            f = complex_field(
                g, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
            )
            nf = l2_norm(f)
            worst_b = max(worst_b, l2_norm(helmholtz_inverse(f, 0.4)) / nf)
            worst_e = max(worst_e, l2_norm(e_multiplier(f, 0.8, "xx")) / nf)
        ok &= worst_b <= 1.0 and worst_e <= 1.0
        notes.append(f"max |B|/|f|={worst_b:.6f}, |E|/|f|={worst_e:.6f}")

        elapsed = time.time() - t0
        ok &= elapsed < 1.0
        _report(1, ok, f"{'; '.join(notes)}; runtime {elapsed:.2f}s < 1s")


class TestCriterion2Conservation:
    def test_criterion_2(self):
        t0 = time.time()
        g = Grid2D(128, 128, 32.0, 32.0)
        v = gaussian_state(g, 1.0, 1.5)
        specs = {
            "RDS1": ModelSpec(ModelKind.RDS1, 1.0, 1.0, 1.0, 0.2),
            "RDS2": ModelSpec(ModelKind.RDS2, -0.5, -1.0, 1.0, 0.2),
            "RDS3": ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.2),
        }
        ok = True
        notes = []
        from dsalpha import hamiltonian as ham

        for name, spec in specs.items():
            t_model = time.time()
            H0 = ham(v, spec)
            drifts = {}
            mass_drift = 0.0
            for dt in (0.02, 0.01):
                ctrl = StepControl(dt=dt, dt_max=dt, adaptive=False, t_end=5.0)
                out = integrate(v, spec, ctrl, record_every=10**9)
                drifts[dt] = abs(out.records[-1].hamiltonian - H0) / abs(H0)
                mass_drift = max(mass_drift, out.max_mass_drift)
            ratio = drifts[0.02] / drifts[0.01]
            t_model = time.time() - t_model
            ok &= mass_drift < 1e-11 and 3.5 < ratio < 4.5 and t_model < 120.0
            notes.append(f"{name}: mass {mass_drift:.1e}, H ratio {ratio:.2f}, {t_model:.0f}s")
        _report(2, ok, "; ".join(notes) + f"; total {time.time() - t0:.0f}s")


@pytest.mark.slow
class TestCriterion3Dichotomy:
    def test_criterion_3(self, dichotomy_pair):
        dse, rds, t_dse, t_rds = dichotomy_pair
        gn_dse = np.array([r.grad_norm for r in dse.records])
        growth = gn_dse.max() / gn_dse[0]
        gn_rds = np.array([r.grad_norm for r in rds.records])
        h = len(gn_rds) // 2
        bounded = gn_rds[h:].max() / gn_rds[h:].min()
        ok = (
            dse.status is RunStatus.BLOW_UP_DETECTED
            and growth > 100.0
            and rds.status is RunStatus.REACHED_T_END
            and bounded < 10.0
            and rds.max_mass_drift < 1e-11
        )
        _report(
            3,
            ok,
            f"DSE {dse.status.value} grad x{growth:.0f} (t*={dse.t_final:.2f}); "
            f"RDS3 {rds.status.value} 2nd-half grad max/min {bounded:.2f}, "
            f"mass drift {rds.max_mass_drift:.1e}; runtimes {t_dse:.0f}s+{t_rds:.0f}s",
        )


class TestCriterion4GroundState:
    def test_criterion_4(self, townes, coupled_ground):
        t0 = time.time()
        ok = townes.residual < 1e-10 and coupled_ground.residual < 1e-10
        notes = [f"residuals {townes.residual:.1e}/{coupled_ground.residual:.1e}"]

        # cubic-limit mass against the pre-built high-resolution oracle
        _, oracle_mass = cubic_profile_critical_mass()
        ok &= abs(townes.mass - 11.7008) < 1e-3
        ok &= abs(townes.mass - oracle_mass) < 1e-4
        notes.append(f"mass {townes.mass:.5f} (oracle {oracle_mass:.5f})")

        # threshold experiment at the coupled parameters
        g = Grid2D(256, 256, 16.0, 16.0)
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0, 0.0)
        results = {}
        for ratio, t_end in ((0.9, 1.5), (2.0, 3.0)):
            amp = gaussian_amplitude_for_mass(ratio * coupled_ground.mass, 1.2)
            v0 = gaussian_state(g, amp, 1.2)
            ctrl = StepControl(
                dt=1e-3, dt_min=1e-11, dt_max=4e-3, adaptive=True, cfl_const=0.2,
                t_end=t_end, amp_max=14.0 * amp,
            )
            out = integrate(v0, spec, ctrl, record_every=5)
            gn = [r.grad_norm for r in out.records]
            results[ratio] = (out.status, max(gn) / gn[0])
        ok &= results[0.9][0] is RunStatus.REACHED_T_END and results[0.9][1] < 3.0
        ok &= results[2.0][0] is RunStatus.BLOW_UP_DETECTED
        notes.append(
            f"0.9x mass: {results[0.9][0].value} (grad x{results[0.9][1]:.2f}); "
            f"2.0x mass: {results[2.0][0].value}"
        )
        elapsed = time.time() - t0
        ok &= elapsed < 60.0
        _report(4, ok, "; ".join(notes) + f"; runtime {elapsed:.0f}s < 60s")


class TestCriterion5LinearizedIdentities:
    def test_criterion_5(self, coupled_ground):
        # EXPECTED RED.  The correction systems are solved faithfully (their
        # residuals and the sharp scaling-pair identities are verified in
        # test_modulation.py); the closed-form constants asserted here are
        # exactly half of what those systems produce, and the algebraic
        # mean-flow tail adds an O(box^-2) floor on top.  Values and
        # tolerances kept as stated.
        t0 = time.time()
        gs = coupled_ground
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        gy = solve_linearized(gs, spec, "GY")
        hz = solve_linearized(gs, spec, "HZ")

        want_gy = gs.second_moment / 16.0
        rel_gy = abs(gy.inner_with_S - want_gy) / abs(want_gy)
        want_hz = 0.25 * (1.0 - 2.0 * (-1.0) / 2.0) * gs.grad_S2_sq
        rel_hz = abs(hz.inner_with_S - want_hz) / abs(want_hz)
        ok = rel_gy < 1e-6 and rel_hz < 1e-4
        _report(
            5,
            ok,
            f"int(SG)={gy.inner_with_S:.6f} vs closed form {want_gy:.6f} "
            f"(rel {rel_gy:.3f}, = 2nd_moment/8 to {abs(gy.inner_with_S / (gs.second_moment / 8) - 1):.1e}); "
            f"int(SH)={hz.inner_with_S:.4f} vs closed form {want_hz:.4f} (rel {rel_hz:.3f}); "
            f"solver residuals {gy.residual:.1e}/{hz.residual:.1e}; runtime {time.time() - t0:.0f}s",
        )


class TestCriterion6ReducedDynamics:
    def test_criterion_6(self):
        t0 = time.time()
        c = ModulationConstants(C1=1.0, C2=2.0, C3=1.0, C4=0.0, S_mass=11.7)
        ok = True
        notes = []

        traj = integrate_reduced(c, 0.0, 1.0, -1.0, 10.0)
        exact = np.sqrt(np.maximum(1.0 - 2.0 * traj.t, 0.0))
        mask = traj.L > 1e-3
        err = np.max(np.abs(traj.L[mask] - exact[mask]))
        ok &= traj.collapsed and err < 1e-8
        notes.append(f"alpha=0 collapse err {err:.1e}")

        traj2 = integrate_reduced(c, 0.1, 1.0, -1.0, 2.0)
        ok &= abs(traj2.l_min - 0.1) < 1e-4
        notes.append(f"L_min(0.1)={traj2.l_min:.6f}")

        alphas = np.array([0.05, 0.1, 0.2, 0.4])
        lmins = [integrate_reduced(c, a, 1.0, -1.0, 3.0).l_min for a in alphas]
        slope = np.polyfit(np.log(alphas), np.log(lmins), 1)[0]
        ok &= abs(slope - 1.0) < 0.05
        notes.append(f"sweep slope {slope:.4f}")

        elapsed = time.time() - t0
        ok &= elapsed < 10.0
        _report(6, ok, "; ".join(notes) + f"; runtime {elapsed:.1f}s < 10s")


@pytest.mark.slow
class TestCriterion7CollapseFit:
    def test_criterion_7(self, dichotomy_pair):
        t0 = time.time()
        ok = True
        notes = []

        # synthetic exact-law recovery
        ts = np.linspace(0.0, 0.999, 400)
        recs = [
            DiagnosticsRecord(t=float(t), dt=1e-3, mass=1.0, hamiltonian=0.0,
                              grad_norm=float((1 - t) ** -0.5), max_amp=1.0,
                              L_est=float(np.sqrt(1 - t)))
            for t in ts
        ]
        fit = collapse_fit(recs)
        ok &= abs(fit.t_star - 1.0) < 1e-6 and abs(fit.exponent - 0.5) < 1e-6
        notes.append(f"synthetic t*={fit.t_star:.8f}, p={fit.exponent:.8f}")

        # real desk-scale run
        dse = dichotomy_pair[0]
        fit2 = collapse_fit(dse.records)
        ok &= 0.4 < fit2.exponent < 0.6
        notes.append(f"real run p={fit2.exponent:.3f} (t*={fit2.t_star:.3f})")

        _report(7, ok, "; ".join(notes) + f"; fit runtime {time.time() - t0:.1f}s")


class TestCriterion8Infrastructure:
    def test_criterion_8(self, tmp_path):
        t0 = time.time()
        ok = True
        notes = []

        # snapshot bit-exact round trip
        rng = np.random.default_rng(3)
        g = Grid2D(32, 32, 8.0, 8.0)
        f = complex_field(g, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        path = tmp_path / "rt.snap"
        write_snapshot(path, f, 0.5, spec)
        back, t, _ = read_snapshot(path)
        ok &= np.array_equal(back.values, f.values) and t == 0.5
        notes.append("snapshot round trip bit-exact")

        def cfg(outdir, **kw):
            c = RunConfig(
                kind=ModelKind.RDS3, beta=1.0, rho=-1.0, nu=1.0, alpha=0.2,
                nx=64, ny=64, lx=16.0, ly=16.0,
                control=StepControl(dt=2e-3, dt_min=1e-10, dt_max=2e-3, adaptive=True,
                                    cfl_const=0.1, t_end=0.2),
                ic_amplitude=1.5, ic_width=1.2,
                output_dir=str(tmp_path / outdir), record_every=5,
            )
            for k, v in kw.items():
                setattr(c, k, v)
            return c

        # deterministic reruns: byte-identical diagnostics
        a = run_simulation(cfg("det_a"))
        b = run_simulation(cfg("det_b"))
        with open(a.diagnostics_path, "rb") as f1, open(b.diagnostics_path, "rb") as f2:
            ok &= f1.read() == f2.read()
        notes.append("rerun CSVs byte-identical")

        # checkpoint/resume agreement
        full = run_simulation(cfg("full", snapshot_every=25))
        mid = full.snapshot_paths[len(full.snapshot_paths) // 2]
        res = run_simulation(cfg("res"), resume_from=mid)
        ra, rb = full.outcome.records[-1], res.outcome.records[-1]
        agree = all(
            abs(getattr(ra, n) - getattr(rb, n)) <= 1e-12 * max(abs(getattr(ra, n)), 1e-300)
            for n in ("t", "mass", "hamiltonian", "grad_norm", "max_amp", "L_est")
        )
        ok &= agree
        notes.append("checkpoint-resume agrees to 1e-12")

        _report(8, ok, "; ".join(notes) + f"; runtime {time.time() - t0:.1f}s")
