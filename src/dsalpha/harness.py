"""Run orchestration: initial data, diagnostics persistence, the flagship
experiments, and checkpoint/resume.

Diagnostics go to CSV with 17-significant-digit formatting so that every
f64 round-trips losslessly; identical configs produce byte-identical files.
Scientific outcomes (including blow-up) are successes: they are reported in
the status field, never through the exit code.
"""

import os
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .fields import Field, complex_field
from .grid import Grid2D
from .ground_state import GroundState, solve_ground_state
from .models import ModelSpec, ModelKind
from .modulation import ReducedState, compute_constants, integrate_reduced
from .snapshots import atomic_open, read_snapshot, write_snapshot
from .spectral import fft2, grad_norm_spectrum
from .stepping import DiagnosticsRecord, RunOutcome, integrate

CSV_HEADER = "t,dt,mass,hamiltonian,grad_norm,max_amp,L_est"


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path, header: str, rows) -> None:
    """The header line, then one line per row of floats in format_float;
    written atomically (snapshots.atomic_open)."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def write_diagnostics_csv(path, records: List[DiagnosticsRecord]) -> None:
    write_csv(
        path,
        CSV_HEADER,
        ((r.t, r.dt, r.mass, r.hamiltonian, r.grad_norm, r.max_amp, r.L_est) for r in records),
    )


def read_diagnostics_csv(path) -> List[DiagnosticsRecord]:
    """The records of a diagnostics CSV; blank lines are skipped, and any
    other row that is not seven numbers is a ConfigError naming path:line."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected diagnostics header in {path}: {header!r}")
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                records.append(DiagnosticsRecord(*(float(v) for v in line.split(","))))
            except (ValueError, TypeError):  # a non-number; a row of the wrong length
                raise ConfigError(
                    f"{path}:{lineno}: expected 7 numbers, got {line.strip()!r}"
                ) from None
    return records


def build_grid(cfg: RunConfig) -> Grid2D:
    return Grid2D(cfg.nx, cfg.ny, cfg.lx, cfg.ly)


def build_spec(cfg: RunConfig) -> ModelSpec:
    return ModelSpec(cfg.kind, cfg.beta, cfg.rho, cfg.nu, cfg.alpha)


def gaussian_state(grid: Grid2D, amplitude, width, center=(0.0, 0.0), chirp=0.0) -> Field:
    """amplitude * exp(-r^2/(2 width^2)) * exp(i chirp r^2), centered."""
    r2 = (grid.x[:, None] - center[0]) ** 2 + (grid.y[None, :] - center[1]) ** 2
    values = amplitude * np.exp(-r2 / (2.0 * width**2)) * np.exp(1j * chirp * r2)
    return complex_field(grid, values)


def gaussian_amplitude_for_mass(target_mass, width) -> float:
    """Amplitude giving |v|_2^2 = target_mass for the Gaussian above."""
    return float(np.sqrt(target_mass / (np.pi * width**2)))


def initial_state(cfg: RunConfig, grid: Grid2D) -> Field:
    if cfg.ic_kind == "gaussian":
        center = (cfg.ic_center_x, cfg.ic_center_y)
        return gaussian_state(grid, cfg.ic_amplitude, cfg.ic_width, center, cfg.ic_chirp)
    field, _, _ = read_snapshot(cfg.ic_path)
    if field.grid != grid:
        raise ConfigError(
            f"initial-condition file grid {field.grid} does not match config grid {grid}"
        )
    return field


def ground_state_for(cfg: RunConfig, grid: Optional[Grid2D] = None) -> GroundState:
    if grid is None:
        grid = Grid2D(*cfg.ground_grid) if cfg.ground_grid is not None else build_grid(cfg)
    return solve_ground_state(grid, cfg.beta, cfg.rho, cfg.nu, cfg.petviashvili)


def prepare_output_dir(cfg: RunConfig, purpose: str) -> None:
    """Create output.dir and check it is writable; unset, it is a ConfigError."""
    if not cfg.output_dir:
        raise ConfigError(f"output.dir is required {purpose}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    if not os.access(cfg.output_dir, os.W_OK):
        raise ConfigError(f"output directory not writable: {cfg.output_dir}")


def require_regularized(cfg: RunConfig, command: str) -> None:
    """The reduced dynamics (modulation, sweep) exist for the RDS kinds only."""
    if cfg.kind is ModelKind.DSE:
        raise ConfigError(f"{command} applies to the regularized kinds only")


def reduced_dynamics(cfg: RunConfig, ground: GroundState):
    """(constants, trajectory) of the reduced scale ODE for cfg's model and
    reduced.* data; the horizon is reduced.t_end, else step.t_end, which a
    simulation may set to 0 but the reduced ODE may not."""
    t_end = cfg.reduced_t_end if cfg.reduced_t_end is not None else cfg.control.t_end
    if t_end <= 0:
        raise ConfigError(
            f"reduced.t_end is unset and step.t_end = {t_end} is no positive horizon for "
            "the reduced dynamics; set reduced.t_end"
        )
    reduced0 = ReducedState.initial(cfg.reduced_l0, cfg.reduced_lt0, cfg.alpha, b0=cfg.reduced_b0)
    consts = compute_constants(ground, build_spec(cfg), reduced0)
    traj = integrate_reduced(consts, cfg.alpha, cfg.reduced_l0, cfg.reduced_lt0, t_end)
    return consts, traj


@dataclass
class SimulationArtifacts:
    outcome: RunOutcome
    diagnostics_path: str
    final_snapshot_path: str
    snapshot_paths: List[str]


def run_simulation(
    cfg: RunConfig,
    resume_from: Optional[str] = None,
    grad_ref: Optional[float] = None,
) -> SimulationArtifacts:
    """Run one simulation as configured, writing all artifacts to disk."""
    prepare_output_dir(cfg, "to run a simulation")

    grid = build_grid(cfg)
    spec = build_spec(cfg)

    t0 = 0.0
    if resume_from is not None:
        v0, t0, meta = read_snapshot(resume_from)
        if v0.grid != grid:
            raise ConfigError(f"checkpoint grid {v0.grid} does not match config grid {grid}")
        for name, value in meta.items():
            if value != getattr(spec, name):
                raise ConfigError(
                    f"checkpoint model.{name} {value} does not match config "
                    f"model.{name} {getattr(spec, name)}"
                )
    else:
        v0 = initial_state(cfg, grid)

    control = replace(cfg.control, t_end=max(cfg.control.t_end - t0, 0.0))

    snapshot_paths = []

    def writer(step, t, field):
        path = os.path.join(cfg.output_dir, f"snapshot_{step:08d}.snap")
        write_snapshot(path, field, t0 + t, spec)
        snapshot_paths.append(path)

    outcome = integrate(
        v0,
        spec,
        control,
        record_every=cfg.record_every,
        grad_ref=grad_ref,
        snapshot_every=cfg.snapshot_every,
        snapshot_writer=writer if cfg.snapshot_every > 0 else None,
    )

    # shift record times by the resume offset so files compose
    if t0 != 0.0:
        for r in outcome.records:
            r.t += t0
        outcome.t_final += t0

    diag_path = os.path.join(cfg.output_dir, "diagnostics.csv")
    write_diagnostics_csv(diag_path, outcome.records)
    final_path = os.path.join(cfg.output_dir, "final.snap")
    write_snapshot(final_path, outcome.final_state, outcome.t_final, spec)

    print(
        f"status={outcome.status.value} t_final={format_float(outcome.t_final)} "
        f"steps={outcome.steps} records={len(outcome.records)} "
        f"mass_drift={outcome.max_mass_drift:.3e}"
    )
    return SimulationArtifacts(
        outcome=outcome,
        diagnostics_path=diag_path,
        final_snapshot_path=final_path,
        snapshot_paths=snapshot_paths,
    )


SWEEP_HEADER = "alpha,L_min_pde,L_min_reduced,C1,C2"


def sweep_alpha(cfg: RunConfig, alphas: List[float], ground: Optional[GroundState] = None):
    """One row per alpha: deepest focusing scale of the PDE run and of the
    reduced dynamics, with the constants used.  Rows are ordered by alpha.
    """
    if len(alphas) < 2:
        raise ConfigError("sweep needs at least 2 alpha values")
    if not all(0 < a < np.inf for a in alphas):
        raise ConfigError(f"sweep alphas must all be positive and finite, got {alphas}")
    require_regularized(cfg, "sweep")
    prepare_output_dir(cfg, "for a sweep")

    if ground is None:
        ground = ground_state_for(cfg)
    gS = grad_norm_spectrum(fft2(ground.S.values.astype(np.complex128)), ground.grid)

    rows = []
    completed = []
    for alpha in sorted(alphas):
        try:
            sub = replace(
                cfg, alpha=alpha, output_dir=os.path.join(cfg.output_dir, f"alpha_{alpha:.6g}")
            )
            arts = run_simulation(sub, grad_ref=gS)
            l_min_pde = min(r.L_est for r in arts.outcome.records)
            consts, traj = reduced_dynamics(sub, ground)
            rows.append((alpha, l_min_pde, traj.l_min, consts.C1, consts.C2))
            completed.append(alpha)
        except ConfigError as exc:
            raise ConfigError(
                f"sweep aborted at alpha={alpha}; completed rows: {completed}: {exc}"
            ) from exc

    path = os.path.join(cfg.output_dir, "sweep.csv")
    write_csv(path, SWEEP_HEADER, rows)
    return rows, path
