"""Flat key=value run configuration.

The format is deliberately parser-free: one "dotted.key = value" pair per
line, "#" starts a comment.  A key not listed here is an error, and so are
a repeated key, a non-finite number (nan, inf) and an invalid value in any
section: every setting is checked by the object it configures, when that
object is built, so a RunConfig built in code is checked as a loaded one
is.  Each key sets one field (_KEYS) of RunConfig, StepControl
(step.*) or PetviashviliConfig (ground.tol, ground.max_iter,
ground.continuation_steps); a key left out keeps that field's default.

    model.kind              dse | rds1 | rds2 | rds3      (required)
    model.beta  model.rho   reals                         (required)
    model.nu                positive real                 (required)
    model.alpha             nonnegative real (0 only for dse)

    grid.nx  grid.ny        even integers >= 8
    grid.lx  grid.ly        positive reals

    step.dt                 fixed step (adaptive: only the t=0 record's dt)
    step.dt_min step.dt_max step bounds
    step.adaptive           true | false
    step.cfl_const          phase-advance bound
    step.t_end              final time
    step.amp_max            blow-up amplitude threshold
    step.stepper            strang | ifrk4, both honouring step.adaptive
                            and output.snapshot_every

    ic.kind                 gaussian | file
    ic.amplitude ic.width   Gaussian amplitude and positive width
    ic.center_x ic.center_y Gaussian center
    ic.chirp                quadratic phase coefficient
    ic.path                 snapshot path for ic.kind=file

    output.dir              output directory (required for runs)
    output.record_every     record cadence in steps
    output.snapshot_every   snapshot cadence in steps, 0=off

    ground.tol ground.max_iter ground.continuation_steps
                            Petviashvili settings
    ground.nx ground.ny ground.lx ground.ly
                            ground-state grid (default: the grid.* values)

    reduced.l0 reduced.lt0  initial scale data
    reduced.b0              initial b (default (l0*lt0)^2)
    reduced.t_end           positive reduced-ODE horizon (default step.t_end)

    sweep.alphas            comma-separated alpha list (CLI --alphas overrides)
"""

import math
import os
from dataclasses import dataclass, field, replace
from typing import List, Optional

from .errors import ConfigError, ParameterError, require_finite
from .grid import check_grid
from .ground_state import PetviashviliConfig
from .models import ModelKind, ModelSpec
from .modulation import ReducedState
from .stepping import StepControl


def parse_kv_file(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    pairs, first_line = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            pairs[key], first_line[key] = value, lineno
    return pairs


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


def _finite(raw: str) -> float:
    """The float cast of every config number: nan and inf are errors."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def parse_alphas(raw: str, source: str) -> List[float]:
    """A comma-separated list of finite alphas (sweep.alphas, --alphas)."""
    try:
        return [_finite(a) for a in raw.split(",") if a.strip()]
    except ValueError:
        raise ConfigError(f"{source}: cannot parse {raw!r} as finite numbers") from None


def _build(section, factory, *args, **kwargs):
    """factory(*args, **kwargs), its ParameterError reported as a ConfigError."""
    try:
        return factory(*args, **kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass
class RunConfig:
    kind: ModelKind
    beta: float
    rho: float
    nu: float
    alpha: float = 0.0

    nx: int = 256
    ny: int = 256
    lx: float = 64.0
    ly: float = 64.0

    control: StepControl = field(default_factory=StepControl)

    ic_kind: str = "gaussian"
    ic_amplitude: float = 1.0
    ic_width: float = 1.0
    ic_center_x: float = 0.0
    ic_center_y: float = 0.0
    ic_chirp: float = 0.0
    ic_path: Optional[str] = None

    output_dir: Optional[str] = None
    record_every: int = 10
    snapshot_every: int = 0

    petviashvili: PetviashviliConfig = field(default_factory=PetviashviliConfig)
    ground_grid: Optional[tuple] = None  # (nx, ny, lx, ly); defaults to run grid

    reduced_l0: float = 1.0
    reduced_lt0: float = -1.0
    reduced_b0: Optional[float] = None
    reduced_t_end: Optional[float] = None

    sweep_alphas: List[float] = field(default_factory=list)

    def __post_init__(self):
        """The checks of every run setting outside step.* and ground.*,
        whether the config was loaded or built in code."""
        require_finite(self, ConfigError)
        if self.ic_kind not in ("gaussian", "file"):
            raise ConfigError(f"ic.kind must be gaussian or file, got {self.ic_kind!r}")
        if self.ic_width <= 0:
            raise ConfigError(f"ic.width must be positive, got {self.ic_width}")
        if self.ic_kind == "file":
            if not self.ic_path:
                raise ConfigError("ic.kind=file requires ic.path")
            if not os.path.exists(self.ic_path):
                raise ConfigError(f"initial-condition file not found: {self.ic_path}")
        if self.record_every < 1 or self.snapshot_every < 0:
            raise ConfigError("output cadences must be positive (snapshots: 0 disables)")
        if self.reduced_t_end is not None and self.reduced_t_end <= 0:
            raise ConfigError(f"reduced.t_end must be positive, got {self.reduced_t_end}")
        _build("grid", check_grid, self.nx, self.ny, self.lx, self.ly)
        if self.ground_grid is not None:
            _build("ground", check_grid, *self.ground_grid)
        _build("model", ModelSpec, self.kind, self.beta, self.rho, self.nu, self.alpha)
        _build("reduced", ReducedState.initial, self.reduced_l0, self.reduced_lt0, self.alpha,
               b0=self.reduced_b0)


# every config key: the object that owns it, its field there, its cast.  The
# ground.* grid keys are check_grid's arguments, defaulting to the run grid.
_KEYS = {
    "model.kind": (RunConfig, "kind", lambda raw: ModelKind(raw.lower())),
    "model.beta": (RunConfig, "beta", _finite),
    "model.rho": (RunConfig, "rho", _finite),
    "model.nu": (RunConfig, "nu", _finite),
    "model.alpha": (RunConfig, "alpha", _finite),
    "grid.nx": (RunConfig, "nx", int),
    "grid.ny": (RunConfig, "ny", int),
    "grid.lx": (RunConfig, "lx", _finite),
    "grid.ly": (RunConfig, "ly", _finite),
    "step.dt": (StepControl, "dt", _finite),
    "step.dt_min": (StepControl, "dt_min", _finite),
    "step.dt_max": (StepControl, "dt_max", _finite),
    "step.adaptive": (StepControl, "adaptive", _bool),
    "step.cfl_const": (StepControl, "cfl_const", _finite),
    "step.t_end": (StepControl, "t_end", _finite),
    "step.amp_max": (StepControl, "amp_max", _finite),
    "step.stepper": (StepControl, "stepper", str.lower),
    "ic.kind": (RunConfig, "ic_kind", str.lower),
    "ic.amplitude": (RunConfig, "ic_amplitude", _finite),
    "ic.width": (RunConfig, "ic_width", _finite),
    "ic.center_x": (RunConfig, "ic_center_x", _finite),
    "ic.center_y": (RunConfig, "ic_center_y", _finite),
    "ic.chirp": (RunConfig, "ic_chirp", _finite),
    "ic.path": (RunConfig, "ic_path", str),
    "output.dir": (RunConfig, "output_dir", str),
    "output.record_every": (RunConfig, "record_every", int),
    "output.snapshot_every": (RunConfig, "snapshot_every", int),
    "ground.tol": (PetviashviliConfig, "tol", _finite),
    "ground.max_iter": (PetviashviliConfig, "max_iter", int),
    "ground.continuation_steps": (PetviashviliConfig, "continuation_steps", int),
    "ground.nx": (check_grid, "nx", int),
    "ground.ny": (check_grid, "ny", int),
    "ground.lx": (check_grid, "lx", _finite),
    "ground.ly": (check_grid, "ly", _finite),
    "reduced.l0": (RunConfig, "reduced_l0", _finite),
    "reduced.lt0": (RunConfig, "reduced_lt0", _finite),
    "reduced.b0": (RunConfig, "reduced_b0", _finite),
    "reduced.t_end": (RunConfig, "reduced_t_end", _finite),
    "sweep.alphas": (RunConfig, "sweep_alphas", lambda raw: parse_alphas(raw, "sweep.alphas")),
}


def load_config(path) -> RunConfig:
    pairs = parse_kv_file(path)
    for key in ("model.kind", "model.beta", "model.rho", "model.nu"):
        if key not in pairs:
            raise ConfigError(f"missing required config key {key!r}")
    unknown = sorted(set(pairs) - set(_KEYS))
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(repr(k) for k in unknown))
    given = {RunConfig: {}, StepControl: {}, PetviashviliConfig: {}, check_grid: {}}
    for key, raw in pairs.items():
        owner, name, cast = _KEYS[key]
        try:
            given[owner][name] = cast(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc

    cfg = RunConfig(
        control=_build("step", StepControl, **given[StepControl]),
        petviashvili=_build("ground", PetviashviliConfig, **given[PetviashviliConfig]),
        **given[RunConfig],
    )
    if given[check_grid]:
        run_grid = {"nx": cfg.nx, "ny": cfg.ny, "lx": cfg.lx, "ly": cfg.ly}
        cfg = replace(cfg, ground_grid=tuple({**run_grid, **given[check_grid]}.values()))
    return cfg
