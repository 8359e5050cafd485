"""Flat key=value run configuration.

The format is deliberately parser-free: one "dotted.key = value" pair per
line, "#" starts a comment.  A key not listed here is an error.  Recognized
keys (defaults in brackets):

    model.kind              dse | rds1 | rds2 | rds3
    model.beta  model.rho   reals
    model.nu                positive real
    model.alpha             nonnegative real (0 only for dse)

    grid.nx  grid.ny        even integers >= 8            [256, 256]
    grid.lx  grid.ly        positive reals                [64, 64]

    step.dt                 initial/fixed step            [1e-3]
    step.dt_min step.dt_max step bounds                   [1e-12, 1e-2]
    step.adaptive           true | false                  [true]
    step.cfl_const          phase-advance bound           [0.1]
    step.t_end              final time                    [1.0]
    step.amp_max            blow-up amplitude threshold   [1e6 * initial max|v|]
    step.stepper            strang | ifrk4                [strang]
                            (both honour step.adaptive and output.snapshot_every)

    ic.kind                 gaussian | file               [gaussian]
    ic.amplitude ic.width   Gaussian parameters           [1.0, 1.0]
    ic.center_x ic.center_y Gaussian center               [0, 0]
    ic.chirp                quadratic phase coefficient   [0.0]
    ic.path                 snapshot path for ic.kind=file

    output.dir              output directory              [required for runs]
    output.record_every     record cadence in steps       [10]
    output.snapshot_every   snapshot cadence in steps, 0=off  [0]

    ground.gamma ground.tol ground.max_iter ground.continuation_steps
                            Petviashvili settings         [1.5, 1e-10, 2000, 8]
    ground.nx ground.ny ground.lx ground.ly
                            ground-state grid             [grid.* values]

    reduced.l0 reduced.lt0  initial scale data            [1.0, -1.0]
    reduced.b0              initial b (default (l0*lt0)^2)
    reduced.t_end           reduced-ODE horizon           [step.t_end]

    sweep.alphas            comma-separated alpha list (CLI --alphas overrides)
"""

import os
from dataclasses import dataclass, field
from typing import List, Optional

from .errors import ConfigError
from .models import ModelKind


def parse_kv_file(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, value = stripped.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def _take(pairs, key, default=None, cast=float):
    """Remove key from pairs and return its value cast, or the default."""
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    raw = pairs.pop(key)
    try:
        if cast is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc


@dataclass
class RunConfig:
    kind: ModelKind
    beta: float
    rho: float
    nu: float
    alpha: float

    nx: int = 256
    ny: int = 256
    lx: float = 64.0
    ly: float = 64.0

    dt: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    adaptive: bool = True
    cfl_const: float = 0.1
    t_end: float = 1.0
    amp_max: Optional[float] = None
    stepper: str = "strang"

    ic_kind: str = "gaussian"
    ic_amplitude: float = 1.0
    ic_width: float = 1.0
    ic_center: tuple = (0.0, 0.0)
    ic_chirp: float = 0.0
    ic_path: Optional[str] = None

    output_dir: Optional[str] = None
    record_every: int = 10
    snapshot_every: int = 0

    ground_gamma: float = 1.5
    ground_tol: float = 1e-10
    ground_max_iter: int = 2000
    ground_continuation_steps: int = 8
    ground_grid: Optional[tuple] = None  # (nx, ny, lx, ly); defaults to run grid

    reduced_l0: float = 1.0
    reduced_lt0: float = -1.0
    reduced_b0: Optional[float] = None
    reduced_t_end: Optional[float] = None

    sweep_alphas: List[float] = field(default_factory=list)


def load_config(path) -> RunConfig:
    pairs = parse_kv_file(path)

    kind_raw = _take(pairs, "model.kind", cast=str).lower()
    try:
        kind = ModelKind(kind_raw)
    except ValueError:
        raise ConfigError(f"model.kind must be one of dse/rds1/rds2/rds3, got {kind_raw!r}")

    cfg = RunConfig(
        kind=kind,
        beta=_take(pairs, "model.beta"),
        rho=_take(pairs, "model.rho"),
        nu=_take(pairs, "model.nu"),
        alpha=_take(pairs, "model.alpha", 0.0),
        nx=_take(pairs, "grid.nx", 256, int),
        ny=_take(pairs, "grid.ny", 256, int),
        lx=_take(pairs, "grid.lx", 64.0),
        ly=_take(pairs, "grid.ly", 64.0),
        dt=_take(pairs, "step.dt", 1e-3),
        dt_min=_take(pairs, "step.dt_min", 1e-12),
        dt_max=_take(pairs, "step.dt_max", 1e-2),
        adaptive=_take(pairs, "step.adaptive", True, bool),
        cfl_const=_take(pairs, "step.cfl_const", 0.1),
        t_end=_take(pairs, "step.t_end", 1.0),
        amp_max=_take(pairs, "step.amp_max") if "step.amp_max" in pairs else None,
        stepper=_take(pairs, "step.stepper", "strang", str).lower(),
        ic_kind=_take(pairs, "ic.kind", "gaussian", str).lower(),
        ic_amplitude=_take(pairs, "ic.amplitude", 1.0),
        ic_width=_take(pairs, "ic.width", 1.0),
        ic_center=(_take(pairs, "ic.center_x", 0.0), _take(pairs, "ic.center_y", 0.0)),
        ic_chirp=_take(pairs, "ic.chirp", 0.0),
        ic_path=pairs.pop("ic.path", None),
        output_dir=pairs.pop("output.dir", None),
        record_every=_take(pairs, "output.record_every", 10, int),
        snapshot_every=_take(pairs, "output.snapshot_every", 0, int),
        ground_gamma=_take(pairs, "ground.gamma", 1.5),
        ground_tol=_take(pairs, "ground.tol", 1e-10),
        ground_max_iter=_take(pairs, "ground.max_iter", 2000, int),
        ground_continuation_steps=_take(pairs, "ground.continuation_steps", 8, int),
        reduced_l0=_take(pairs, "reduced.l0", 1.0),
        reduced_lt0=_take(pairs, "reduced.lt0", -1.0),
        reduced_b0=_take(pairs, "reduced.b0") if "reduced.b0" in pairs else None,
        reduced_t_end=_take(pairs, "reduced.t_end") if "reduced.t_end" in pairs else None,
    )
    if any(k in pairs for k in ("ground.nx", "ground.ny", "ground.lx", "ground.ly")):
        cfg.ground_grid = (
            _take(pairs, "ground.nx", cfg.nx, int),
            _take(pairs, "ground.ny", cfg.ny, int),
            _take(pairs, "ground.lx", cfg.lx),
            _take(pairs, "ground.ly", cfg.ly),
        )
    if "sweep.alphas" in pairs:
        raw = pairs.pop("sweep.alphas")
        try:
            cfg.sweep_alphas = [float(a) for a in raw.split(",") if a.strip()]
        except ValueError:
            raise ConfigError(f"sweep.alphas: cannot parse {raw!r}")
    if pairs:
        raise ConfigError("unknown config key " + ", ".join(repr(k) for k in sorted(pairs)))

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.stepper not in ("strang", "ifrk4"):
        raise ConfigError(f"step.stepper must be strang or ifrk4, got {cfg.stepper!r}")
    if cfg.ic_kind not in ("gaussian", "file"):
        raise ConfigError(f"ic.kind must be gaussian or file, got {cfg.ic_kind!r}")
    if cfg.ic_kind == "file":
        if not cfg.ic_path:
            raise ConfigError("ic.kind=file requires ic.path")
        if not os.path.exists(cfg.ic_path):
            raise ConfigError(f"initial-condition file not found: {cfg.ic_path}")
    if cfg.record_every < 1 or cfg.snapshot_every < 0:
        raise ConfigError("output cadences must be positive (snapshots: 0 disables)")
    # the remaining parameter checks reuse the domain-type validators
    from .grid import Grid2D
    from .models import ModelSpec
    from .errors import ParameterError

    try:
        Grid2D(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
        ModelSpec(cfg.kind, cfg.beta, cfg.rho, cfg.nu, cfg.alpha)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
