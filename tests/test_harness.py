import json
import os

import numpy as np
import pytest

from dsalpha import ConfigError, Grid2D, ModelKind, ModelSpec, RunStatus, complex_field
from dsalpha.cli import main as cli_main
from dsalpha.config import RunConfig, load_config
from dsalpha.harness import (
    CSV_HEADER,
    gaussian_amplitude_for_mass,
    gaussian_state,
    read_diagnostics_csv,
    run_simulation,
    sweep_alpha,
    write_csv,
    write_diagnostics_csv,
)
from dsalpha.snapshots import read_snapshot, write_snapshot
from dsalpha.stepping import StepControl


def base_config(tmp_path, **overrides):
    step = dict(dt=2e-3, dt_min=1e-10, dt_max=2e-3, adaptive=True, cfl_const=0.1, t_end=0.2)
    for name in [k for k in overrides if k in StepControl.__dataclass_fields__]:
        step[name] = overrides.pop(name)
    cfg = RunConfig(
        kind=ModelKind.RDS3,
        beta=1.0,
        rho=-1.0,
        nu=1.0,
        alpha=0.2,
        nx=64,
        ny=64,
        lx=16.0,
        ly=16.0,
        control=StepControl(**step),
        ic_amplitude=1.5,
        ic_width=1.2,
        output_dir=str(tmp_path / "out"),
        record_every=5,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


class TestRunSimulation:
    def test_t_end_zero(self, tmp_path):
        cfg = base_config(tmp_path, t_end=0.0, snapshot_every=10)
        arts = run_simulation(cfg)
        assert arts.outcome.status is RunStatus.REACHED_T_END
        recs = read_diagnostics_csv(arts.diagnostics_path)
        assert len(recs) == 1 and recs[0].t == 0.0
        assert len(arts.snapshot_paths) == 1  # the t=0 snapshot
        assert os.path.exists(arts.final_snapshot_path)

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = base_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg2 = base_config(tmp_path, output_dir=str(tmp_path / "b"))
        a = run_simulation(cfg1)
        b = run_simulation(cfg2)
        with open(a.diagnostics_path, "rb") as f1, open(b.diagnostics_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_csv_round_trip_lossless(self, tmp_path):
        cfg = base_config(tmp_path)
        arts = run_simulation(cfg)
        recs = arts.outcome.records
        back = read_diagnostics_csv(arts.diagnostics_path)
        for r, s in zip(recs, back):
            assert r.t == s.t and r.mass == s.mass and r.hamiltonian == s.hamiltonian

    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path):
        # full run writes snapshots; resuming from mid-run must land on the
        # same final diagnostics to 1e-12 (bit-equal state, memoryless dt law)
        full = base_config(tmp_path, output_dir=str(tmp_path / "full"),
                           t_end=0.2, snapshot_every=25)
        a = run_simulation(full)
        mid = a.snapshot_paths[len(a.snapshot_paths) // 2]

        resumed = base_config(tmp_path, output_dir=str(tmp_path / "res"),
                              t_end=0.2, snapshot_every=0)
        b = run_simulation(resumed, resume_from=mid)
        ra, rb = a.outcome.records[-1], b.outcome.records[-1]
        assert rb.t == pytest.approx(ra.t, rel=1e-12)
        for fname in ("mass", "hamiltonian", "grad_norm", "max_amp", "L_est"):
            va, vb = getattr(ra, fname), getattr(rb, fname)
            assert vb == pytest.approx(va, rel=1e-12, abs=1e-300)

    def test_final_snapshot_reloads(self, tmp_path):
        cfg = base_config(tmp_path)
        arts = run_simulation(cfg)
        field, t, meta = read_snapshot(arts.final_snapshot_path)
        assert t == pytest.approx(cfg.control.t_end)
        assert meta["alpha"] == cfg.alpha
        assert np.array_equal(field.values, arts.outcome.final_state.values)

    def test_ifrk4_adaptive_with_snapshots(self, tmp_path):
        # the initial dt_raw = cfl_const/max|v|^2 sits 2% above dt_max/2, so
        # the focusing of max|v| (about 3% by t_end) drops the step a level
        cfg = base_config(tmp_path, stepper="ifrk4", snapshot_every=10,
                          cfl_const=1.02 * 1.5**2 * 1e-3, t_end=0.1)
        arts = run_simulation(cfg)
        outcome = arts.outcome
        assert outcome.status is RunStatus.REACHED_T_END
        assert len(arts.snapshot_paths) == 1 + outcome.steps // 10
        assert all(os.path.exists(p) for p in arts.snapshot_paths)
        # the first record carries the configured dt, the last may be truncated
        levels = {r.dt for r in outcome.records[1:-1]}
        assert levels == {cfg.control.dt_max / 2, cfg.control.dt_max / 4}

    @pytest.mark.parametrize(
        "name, value",
        [("kind", ModelKind.RDS1), ("beta", 0.5), ("rho", -0.5), ("nu", 2.0), ("alpha", 0.3)],
    )
    def test_resume_under_another_model_rejected(self, tmp_path, name, value):
        arts = run_simulation(base_config(tmp_path, output_dir=str(tmp_path / "a"), t_end=0.0))
        other = base_config(tmp_path, output_dir=str(tmp_path / "b"), t_end=0.0)
        setattr(other, name, value)
        with pytest.raises(ConfigError, match=f"model.{name}"):
            run_simulation(other, resume_from=arts.final_snapshot_path)

    def test_ic_file_may_seed_another_model(self, tmp_path):
        arts = run_simulation(base_config(tmp_path, output_dir=str(tmp_path / "a"), t_end=0.0))
        dse = base_config(tmp_path, output_dir=str(tmp_path / "b"), t_end=0.0,
                          kind=ModelKind.DSE, alpha=0.0, ic_kind="file",
                          ic_path=arts.final_snapshot_path)
        assert run_simulation(dse).outcome.status is RunStatus.REACHED_T_END

    def test_ic_from_file(self, tmp_path):
        cfg = base_config(tmp_path, output_dir=str(tmp_path / "one"), t_end=0.0)
        arts = run_simulation(cfg)
        cfg2 = base_config(tmp_path, output_dir=str(tmp_path / "two"), t_end=0.0)
        cfg2.ic_kind = "file"
        cfg2.ic_path = arts.final_snapshot_path
        arts2 = run_simulation(cfg2)
        assert np.array_equal(
            arts2.outcome.final_state.values, arts.outcome.final_state.values
        )


class TestAtomicArtifacts:
    def test_failed_csv_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, "a,b", [(1.0, 2.0), (3.0, 4.0)])
        before = path.read_bytes()
        # the second row cannot be formatted: the write fails after the
        # header and the first row have gone out
        with pytest.raises(ValueError):
            write_csv(path, "a,b", [(5.0, 6.0), ("not a number", 7.0)])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["table.csv"]


class TestSweep:
    def test_rows_sorted_and_deterministic(self, tmp_path):
        cfg = base_config(tmp_path, t_end=0.1, reduced_t_end=1.0)
        rows, path = sweep_alpha(cfg, [0.4, 0.2, 0.2])
        assert [r[0] for r in rows] == [0.2, 0.2, 0.4]
        assert rows[0] == rows[1]  # duplicated alpha gives identical rows
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "alpha,L_min_pde,L_min_reduced,C1,C2"

    def test_reduced_l_min_positive_and_increasing_in_alpha(self, tmp_path):
        cfg = base_config(tmp_path, t_end=0.05, reduced_t_end=2.0)
        rows, _ = sweep_alpha(cfg, [0.1, 0.2, 0.4])
        lred = [r[2] for r in rows]
        assert all(v > 0 for v in lred)
        assert lred[0] < lred[1] < lred[2]

    def test_abort_keeps_the_cause(self, tmp_path, coupled_ground):
        path = tmp_path / "small.snap"
        g = Grid2D(32, 32, 16.0, 16.0)
        write_snapshot(path, complex_field(g, np.zeros((32, 32))), 0.0,
                       ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1))
        cfg = base_config(tmp_path, ic_kind="file", ic_path=str(path))
        with pytest.raises(ConfigError, match="does not match") as info:
            sweep_alpha(cfg, [0.1, 0.2], ground=coupled_ground)
        assert "alpha=0.1" in str(info.value)
        assert "does not match" in str(info.value.__cause__)

    def test_rejects_bad_alphas(self, tmp_path):
        cfg = base_config(tmp_path)
        with pytest.raises(ConfigError):
            sweep_alpha(cfg, [0.1])
        with pytest.raises(ConfigError):
            sweep_alpha(cfg, [0.1, -0.2])
        # a RunConfig built in code can hold any float list in sweep_alphas
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="finite"):
                sweep_alpha(cfg, [0.1, bad])


CONFIG_TEMPLATE = """
model.kind = rds3
model.beta = 1.0
model.rho = -1.0
model.nu = 1.0
model.alpha = 0.2
grid.nx = 64
grid.ny = 64
grid.lx = 16
grid.ly = 16
step.dt = 2e-3
step.dt_max = 2e-3
step.t_end = 0.05
ic.amplitude = 1.5
ic.width = 1.2
output.record_every = 5
output.dir = {out}
"""


UNSTABLE_IFRK4_CONFIG = """
model.kind = dse
model.beta = 1.0
model.rho = -1.0
model.nu = 1.0
grid.nx = 128
grid.ny = 128
grid.lx = 16
grid.ly = 16
step.dt = 0.01
step.dt_max = 0.01
step.adaptive = false
step.stepper = ifrk4
step.t_end = 1.0
ic.amplitude = 2.2
ic.width = 1.2
ic.chirp = 0.1
output.record_every = 5
output.dir = {out}
"""


class TestCli:
    def test_simulate_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "out"))
        assert cli_main(["simulate", str(cfg)]) == 0
        assert "status=reached_t_end" in capsys.readouterr().out

    def test_ground_state_meta_records_stages(self, tmp_path, capsys):
        # 64^2 has a half grid: the Townes stage and the target stage on its
        # quarter, then the target stage on the grid's
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "out"))
        assert cli_main(["ground-state", str(cfg)]) == 0
        meta = json.loads((tmp_path / "out" / "ground_meta.json").read_text())
        stages = meta["stages"]
        assert [s["shape"] for s in stages[-2:]] == [[17, 17], [33, 33]]
        assert [s["rho"] for s in stages[-2:]] == [-1.0, -1.0] and stages[0]["rho"] == 0.0
        assert all(s["sweeps"] > 0 for s in stages)
        assert stages[-1]["residual"] == meta["residual"]

    def test_numerical_instability_exit_zero(self, tmp_path, capsys):
        # fixed-step IFRK4 past its stability limit: a scientific outcome,
        # reported in the status line, not a blow-up and not an error
        cfg = tmp_path / "run.cfg"
        cfg.write_text(UNSTABLE_IFRK4_CONFIG.format(out=tmp_path / "out"))
        assert cli_main(["simulate", str(cfg)]) == 0
        assert "status=numerical_instability" in capsys.readouterr().out
        recs = read_diagnostics_csv(tmp_path / "out" / "diagnostics.csv")
        assert recs[-1].t < 1.0

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.kind = nosuch\nmodel.beta=1\nmodel.rho=1\nmodel.nu=1\n")
        assert cli_main(["simulate", str(cfg)]) == 2

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "out") + "run.seed = 0\n")
        assert cli_main(["simulate", str(cfg)]) == 2
        assert "run.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, solver", [
        (["modulation"], "dsalpha.cli.ground_state_for"),
        (["sweep", "--alphas=0.1,0.2"], "dsalpha.harness.ground_state_for"),
    ])
    def test_reduced_dynamics_on_dse_exit_two(self, tmp_path, capsys, monkeypatch, argv, solver):
        # the reduced dynamics exist for the RDS kinds only; the config is
        # rejected before any ground-state solve
        solves = []
        monkeypatch.setattr(solver, lambda *a, **k: solves.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "out").replace("rds3", "dse"))
        assert cli_main([argv[0], str(cfg), *argv[1:]]) == 2
        assert "regularized kinds only" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize("argv, solver", [
        (["modulation"], "dsalpha.cli.ground_state_for"),
        (["sweep", "--alphas=0.1,0.2"], "dsalpha.harness.ground_state_for"),
    ])
    def test_zero_step_t_end_is_no_reduced_horizon_exit_two(
        self, tmp_path, capsys, monkeypatch, coupled_ground, argv, solver
    ):
        # step.t_end = 0 is a valid simulation, but the reduced ODE falls
        # back to it when reduced.t_end is unset and needs a positive horizon
        monkeypatch.setattr(solver, lambda *a, **k: coupled_ground)
        cfg = tmp_path / "run.cfg"
        text = CONFIG_TEMPLATE.format(out=tmp_path / "out")
        cfg.write_text(text.replace("step.t_end = 0.05", "step.t_end = 0"))
        assert cli_main([argv[0], str(cfg), *argv[1:]]) == 2
        assert "set reduced.t_end" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["ground-state"], ["modulation"], ["sweep", "--alphas=0.1,0.2"],
    ])
    def test_missing_output_dir_exit_two(self, tmp_path, capsys, argv):
        cfg = tmp_path / "run.cfg"
        text = CONFIG_TEMPLATE.replace("output.dir = {out}\n", "")
        assert "output.dir" not in text
        cfg.write_text(text)
        assert cli_main([argv[0], str(cfg), *argv[1:]]) == 2
        assert "output.dir is required" in capsys.readouterr().err

    def test_fit_subcommand(self, tmp_path, capsys):
        ts = np.linspace(0.0, 0.999, 300)
        from dsalpha.stepping import DiagnosticsRecord

        recs = [
            DiagnosticsRecord(t=float(t), dt=1e-3, mass=1.0, hamiltonian=0.0,
                              grad_norm=float((1 - t) ** -0.5), max_amp=1.0,
                              L_est=float(np.sqrt(1 - t)))
            for t in ts
        ]
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, recs)
        with open(path, "a") as fh:
            fh.write("\n")  # a trailing blank line is skipped
        assert cli_main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "exponent=" in out
        assert (tmp_path / "diag_b_of_tau.csv").exists()

    @pytest.mark.parametrize("row", ["0.5,1e-3,1,0,2,1,oops", "0.5,1e-3,1,0,2,1",
                                     "0.5,1e-3,1,0,2,1,0.5,9"])
    def test_fit_malformed_csv_exit_two(self, tmp_path, capsys, row):
        # an input-format error names path:line; inf (L_est at zero
        # gradient) is a number, and blank lines are skipped
        path = tmp_path / "diag.csv"
        path.write_text(f"{CSV_HEADER}\n0,1e-3,1,0,0,1,inf\n\n{row}\n")
        assert cli_main(["fit", str(path)]) == 2
        assert f"{path}:4: expected 7 numbers" in capsys.readouterr().err

    def test_fit_insufficient_data_exit_two(self, tmp_path):
        from dsalpha.stepping import DiagnosticsRecord

        recs = [
            DiagnosticsRecord(t=float(t), dt=1e-3, mass=1.0, hamiltonian=0.0,
                              grad_norm=1.0, max_amp=1.0, L_est=float(np.sqrt(1.01 - t)))
            for t in np.linspace(0, 1, 10)
        ]
        path = tmp_path / "short.csv"
        write_diagnostics_csv(path, recs)
        assert cli_main(["fit", str(path)]) == 2
