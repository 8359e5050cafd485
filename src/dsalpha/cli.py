"""Command-line interface.

Subcommands: simulate, ground-state, modulation, sweep, fit.  Exit code 0
covers every scientific outcome (blow-up and numerical instability
included); 2 flags configuration errors (an invalid value in any section,
a resume under another model, modulation or sweep on a DSE config) or
input-format errors, 1 unexpected I/O failures.
"""

import argparse
import json
import os
import sys

from .config import load_config, parse_alphas
from .errors import ConfigError, DsalphaError, InsufficientDataError, SnapshotFormatError
from .harness import (
    build_spec,
    format_float,
    ground_state_for,
    prepare_output_dir,
    read_diagnostics_csv,
    reduced_dynamics,
    require_regularized,
    run_simulation,
    sweep_alpha,
    write_csv,
)
from .modulation import collapse_fit, solve_linearized
from .snapshots import atomic_open, write_snapshot


def _cmd_simulate(args):
    cfg = load_config(args.config)
    run_simulation(cfg, resume_from=args.resume)
    return 0


def _cmd_ground_state(args):
    cfg = load_config(args.config)
    prepare_output_dir(cfg, "for ground-state solves")
    gs = ground_state_for(cfg)
    spec = build_spec(cfg)
    s_path = os.path.join(cfg.output_dir, "ground_S.snap")
    x_path = os.path.join(cfg.output_dir, "ground_X.snap")
    write_snapshot(s_path, gs.S, 0.0, spec)
    write_snapshot(x_path, gs.X, 0.0, spec)
    meta = {
        "lambda": gs.lam,
        "residual": gs.residual,
        "mass": gs.mass,
        "grad_S2_sq": gs.grad_S2_sq,
        "second_moment": gs.second_moment,
        "beta": gs.beta,
        "rho": gs.rho,
        "nu": gs.nu,
        "stages": [vars(stage) for stage in gs.stages],
    }
    with atomic_open(os.path.join(cfg.output_dir, "ground_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    print(
        f"ground state: residual={gs.residual:.3e} mass={format_float(gs.mass)} "
        f"files={s_path},{x_path}"
    )
    return 0


def _cmd_modulation(args):
    cfg = load_config(args.config)
    require_regularized(cfg, "modulation")
    prepare_output_dir(cfg, "for modulation runs")
    spec = build_spec(cfg)
    gs = ground_state_for(cfg)
    consts, traj = reduced_dynamics(cfg, gs)
    gy = solve_linearized(gs, spec, "GY")
    hz = solve_linearized(gs, spec, "HZ")

    const_path = os.path.join(cfg.output_dir, "constants.csv")
    write_csv(
        const_path,
        "C1,C2,C3,C4,S_mass,inner_SG,inner_SH,residual_GY,residual_HZ",
        [(consts.C1, consts.C2, consts.C3, consts.C4, consts.S_mass,
          gy.inner_with_S, hz.inner_with_S, gy.residual, hz.residual)],
    )
    traj_path = os.path.join(cfg.output_dir, "reduced_trajectory.csv")
    write_csv(
        traj_path,
        "t,L,L_t,tau,b,eps",
        ((s.t, s.L, s.L_t, s.tau, s.b, s.eps) for s in traj.states),
    )
    print(
        f"modulation: C1={format_float(consts.C1)} C2={format_float(consts.C2)} "
        f"L_min={format_float(traj.l_min)} q_drift={traj.q_drift:.3e} "
        f"files={const_path},{traj_path}"
    )
    return 0


def _cmd_sweep(args):
    cfg = load_config(args.config)
    alphas = parse_alphas(args.alphas, "--alphas") if args.alphas else cfg.sweep_alphas
    rows, path = sweep_alpha(cfg, alphas)
    print(f"sweep: {len(rows)} rows -> {path}")
    return 0


def _cmd_fit(args):
    records = read_diagnostics_csv(args.diagnostics)
    fit = collapse_fit(records)
    print(
        f"fit: t_star={format_float(fit.t_star)} exponent={format_float(fit.exponent)} "
        f"rms={fit.fit_rms:.3e}"
    )
    out = args.output or (os.path.splitext(args.diagnostics)[0] + "_b_of_tau.csv")
    write_csv(out, "tau,b", zip(fit.tau, fit.b))
    print(f"b(tau) table -> {out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="dsalpha",
        description="Pseudospectral simulator and modulation toolkit for the "
        "elliptic-elliptic wave-envelope systems and their Helmholtz regularizations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run one simulation from a config file")
    s.add_argument("config")
    s.add_argument("--resume", default=None, help="snapshot file to resume from")
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("ground-state", help="solve the steady profile pair")
    s.add_argument("config")
    s.set_defaults(func=_cmd_ground_state)

    s = sub.add_parser("modulation", help="constants, linearized solves, reduced dynamics")
    s.add_argument("config")
    s.set_defaults(func=_cmd_modulation)

    s = sub.add_parser("sweep", help="alpha sweep of the deepest focusing scale")
    s.add_argument("config")
    s.add_argument("--alphas", default=None, help="comma-separated alpha values")
    s.set_defaults(func=_cmd_sweep)

    s = sub.add_parser("fit", help="fit collapse laws from a diagnostics CSV")
    s.add_argument("diagnostics")
    s.add_argument("--output", default=None, help="b(tau) table destination")
    s.set_defaults(func=_cmd_fit)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SnapshotFormatError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DsalphaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
