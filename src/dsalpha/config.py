"""Flat key=value run configuration.

The format is deliberately parser-free: one "dotted.key = value" pair per
line, "#" starts a comment.  A key not listed here is an error, and so are
a repeated key, a non-finite number (nan, inf) and an invalid value in any
section: every setting is checked here, at load, by the object it
configures.  Recognized keys (defaults in brackets):

    model.kind              dse | rds1 | rds2 | rds3
    model.beta  model.rho   reals
    model.nu                positive real
    model.alpha             nonnegative real (0 only for dse)

    grid.nx  grid.ny        even integers >= 8            [256, 256]
    grid.lx  grid.ly        positive reals                [64, 64]

    step.dt                 initial/fixed step
    step.dt_min step.dt_max step bounds
    step.adaptive           true | false
    step.cfl_const          phase-advance bound
    step.t_end              final time
    step.amp_max            blow-up amplitude threshold
                            (defaults: those of stepping.StepControl)
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
                            Petviashvili settings
                            (defaults: those of ground_state.PetviashviliConfig)
    ground.nx ground.ny ground.lx ground.ly
                            ground-state grid             [grid.* values]

    reduced.l0 reduced.lt0  initial scale data            [1.0, -1.0]
    reduced.b0              initial b (default (l0*lt0)^2)
    reduced.t_end           reduced-ODE horizon           [step.t_end]

    sweep.alphas            comma-separated alpha list (CLI --alphas overrides)
"""

import math
import os
from dataclasses import dataclass, field
from typing import List, Optional

from .errors import ConfigError, ParameterError
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


_REQUIRED = object()

# the config keys step.<field> and ground.<field>, with their casts
_STEP_CASTS = {"dt": _finite, "dt_min": _finite, "dt_max": _finite, "adaptive": _bool,
               "cfl_const": _finite, "t_end": _finite, "amp_max": _finite}
_GROUND_CASTS = {"gamma": _finite, "tol": _finite, "max_iter": int, "continuation_steps": int}


def _take(pairs, key, default=_REQUIRED, cast=_finite):
    """Remove key from pairs and return its value cast, or the default."""
    if key not in pairs:
        if default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    raw = pairs.pop(key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc


def _section(pairs, prefix, casts) -> dict:
    """The keys prefix.<name> present in pairs, cast and keyed by name."""
    return {
        name: _take(pairs, f"{prefix}.{name}", cast=cast)
        for name, cast in casts.items()
        if f"{prefix}.{name}" in pairs
    }


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
    alpha: float

    nx: int = 256
    ny: int = 256
    lx: float = 64.0
    ly: float = 64.0

    control: StepControl = field(default_factory=StepControl)
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

    petviashvili: PetviashviliConfig = field(default_factory=PetviashviliConfig)
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
        control=_build("step", StepControl, **_section(pairs, "step", _STEP_CASTS)),
        stepper=_take(pairs, "step.stepper", "strang", str).lower(),
        ic_kind=_take(pairs, "ic.kind", "gaussian", str).lower(),
        ic_amplitude=_take(pairs, "ic.amplitude", 1.0),
        ic_width=_take(pairs, "ic.width", 1.0),
        ic_center=(_take(pairs, "ic.center_x", 0.0), _take(pairs, "ic.center_y", 0.0)),
        ic_chirp=_take(pairs, "ic.chirp", 0.0),
        ic_path=_take(pairs, "ic.path", None, str),
        output_dir=_take(pairs, "output.dir", None, str),
        record_every=_take(pairs, "output.record_every", 10, int),
        snapshot_every=_take(pairs, "output.snapshot_every", 0, int),
        petviashvili=_build(
            "ground", PetviashviliConfig, **_section(pairs, "ground", _GROUND_CASTS)
        ),
        reduced_l0=_take(pairs, "reduced.l0", 1.0),
        reduced_lt0=_take(pairs, "reduced.lt0", -1.0),
        reduced_b0=_take(pairs, "reduced.b0", None),
        reduced_t_end=_take(pairs, "reduced.t_end", None),
    )
    if any(k in pairs for k in ("ground.nx", "ground.ny", "ground.lx", "ground.ly")):
        cfg.ground_grid = (
            _take(pairs, "ground.nx", cfg.nx, int),
            _take(pairs, "ground.ny", cfg.ny, int),
            _take(pairs, "ground.lx", cfg.lx),
            _take(pairs, "ground.ly", cfg.ly),
        )
        _build("ground", check_grid, *cfg.ground_grid)
    if "sweep.alphas" in pairs:
        cfg.sweep_alphas = parse_alphas(pairs.pop("sweep.alphas"), "sweep.alphas")
    if pairs:
        raise ConfigError("unknown config key " + ", ".join(repr(k) for k in sorted(pairs)))

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
    _build("grid", check_grid, cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    _build("model", ModelSpec, cfg.kind, cfg.beta, cfg.rho, cfg.nu, cfg.alpha)
    _build("reduced", ReducedState.initial, cfg.reduced_l0, cfg.reduced_lt0, cfg.alpha,
           b0=cfg.reduced_b0)
    return cfg
