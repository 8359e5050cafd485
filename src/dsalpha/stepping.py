"""Time evolution of i v_t + Lap v + F(v) = 0 for any of the four systems.

The default stepper is Strang splitting between the free propagator (exact
diagonal phase exp(-i|k|^2 dt) in spectral space) and the nonlinear flow.
Because every potential in these systems is real, the nonlinear substep is
an exact pointwise phase rotation that leaves |v| invariant, so the scheme
conserves the discrete mass to roundoff and Hamiltonian drift is the sole
error metric.  An integrating-factor RK4 stepper is provided as a second
implementation for cross-validation.  integrate is the one loop that runs
either stepper.

The loop fuses the trailing half phase of one step with the leading half
phase of the next (they see the same |v| and hence the same potential),
paying the full split cost only at record boundaries.  It stops at t_end,
at dt underflow, at blow-up (amp_max), or, before the amplitude test, with
NUMERICAL_INSTABILITY once the relative mass drift passes
MAX_MASS_DRIFT: a conservative flow cannot drift, so a step that does is
non-conservative (IFRK4 beyond its stability limit) rather than a collapse.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

import numpy as np

from .errors import ParameterError
from .fields import Field
from .models import ModelSpec, mass, hamiltonian, potential_values
from .spectral import fft2, grad_norm_spectrum, ifft2

# Relative mass drift beyond which a run stops as NUMERICAL_INSTABILITY.
# Strang steps conserve mass to roundoff (4.5e-14 when a 384^2 DSE collapse
# trips amp_max) and stable IFRK4 runs stay below 1e-12, so the bound sits
# far above any healthy run and far below the O(1) drift of a step that
# has lost stability.
MAX_MASS_DRIFT = 1e-6


class RunStatus(Enum):
    REACHED_T_END = "reached_t_end"
    BLOW_UP_DETECTED = "blow_up_detected"
    DT_UNDERFLOW = "dt_underflow"
    NUMERICAL_INSTABILITY = "numerical_instability"


@dataclass
class StepControl:
    """Step-size policy and stopping thresholds.

    When adaptive, dt = clip(cfl_const / max|v|^2, dt_min, dt_max), which
    keeps the nonlinear phase advance per step bounded near focusing.
    amp_max is the absolute blow-up amplitude threshold; None means
    1e6 times the initial max|v|.
    """

    dt: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    adaptive: bool = True
    cfl_const: float = 0.1
    t_end: float = 1.0
    amp_max: Optional[float] = None

    def __post_init__(self):
        if self.dt <= 0 or self.dt_min <= 0 or self.dt_max <= 0:
            raise ParameterError("time steps must be positive")
        if not (self.dt_min <= self.dt <= self.dt_max):
            raise ParameterError(
                f"need dt_min <= dt <= dt_max, got {self.dt_min}, {self.dt}, {self.dt_max}"
            )
        if self.t_end < 0:
            raise ParameterError("t_end must be nonnegative")
        if self.cfl_const <= 0:
            raise ParameterError(f"cfl_const must be positive, got {self.cfl_const}")
        if self.amp_max is not None and self.amp_max <= 0:
            raise ParameterError(f"amp_max must be positive, got {self.amp_max}")


@dataclass
class DiagnosticsRecord:
    t: float
    dt: float
    mass: float
    hamiltonian: float
    grad_norm: float
    max_amp: float
    L_est: float


@dataclass
class RunOutcome:
    status: RunStatus
    t_final: float
    records: List[DiagnosticsRecord]
    max_mass_drift: float = 0.0
    steps: int = 0


def ifrk4_step(v: Field, spec: ModelSpec, dt: float) -> Field:
    """Integrating-factor RK4 step; cross-validation stepper.

    Works on w(t) = exp(-i t Lap) v(t), for which w' = i exp(-i t Lap) F(v).
    """
    g = v.grid
    half = np.exp(-0.5j * dt * g.k2)
    full = half * half

    def rhs(wh, prop):
        # prop maps the stage spectrum back to physical time of the stage
        vv = ifft2(wh * prop)
        return 1j * fft2(potential_values(vv, g, spec) * vv) / prop

    one = np.ones_like(g.k2)
    wh = fft2(v.values)
    k1 = rhs(wh, one)
    k2 = rhs(wh + 0.5 * dt * k1, half)
    k3 = rhs(wh + 0.5 * dt * k2, half)
    k4 = rhs(wh + dt * k3, full)
    wh = wh + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return Field(g, ifft2(wh * full))


def _record(g, spec, t, dt, values, grad_ref):
    vh = fft2(values)
    gn = grad_norm_spectrum(vh, g)
    f = Field(g, values)
    return DiagnosticsRecord(
        t=t,
        dt=dt,
        mass=mass(f),
        hamiltonian=hamiltonian(f, spec),
        grad_norm=gn,
        max_amp=float(np.max(np.abs(values))),
        L_est=grad_ref / gn if gn > 0 else np.inf,
    )


def integrate(
    v0: Field,
    spec: ModelSpec,
    control: StepControl,
    record_every: int = 10,
    grad_ref: Optional[float] = None,
    snapshot_every: int = 0,
    snapshot_writer: Optional[Callable[[int, float, Field], None]] = None,
    stepper: str = "strang",
) -> RunOutcome:
    """Step from t=0 to t_end, amp_max, dt underflow or a mass drift above
    MAX_MASS_DRIFT, whichever first.

    stepper is "strang" (the default) or "ifrk4"; both share the step-size
    policy, records, snapshots and stopping rules of this loop.

    A DiagnosticsRecord is emitted every record_every steps (and always at
    the first and last step); the running mass drift is tracked every step.
    grad_ref sets the normalization of the focusing-scale column
    L_est = grad_ref / |grad v|_2; the default 1.0 makes L_est an absolute
    inverse-gradient scale (callers with a ground state pass |grad S|_2),
    and keeps the column independent of where a checkpointed run resumed.
    """
    if record_every < 1:
        raise ParameterError("record_every must be a positive step count")
    if stepper not in ("strang", "ifrk4"):
        raise ParameterError(f"stepper must be strang or ifrk4, got {stepper!r}")
    spec.warn_if_out_of_regime()
    g = v0.grid
    da = g.cell_area

    values = np.array(v0.values, dtype=np.complex128, copy=True)
    t = 0.0
    m0 = np.sum((values * values.conj()).real) * da
    amp0 = float(np.max(np.abs(values)))
    amp_max = control.amp_max if control.amp_max is not None else 1e6 * max(amp0, 1e-300)
    if grad_ref is None:
        grad_ref = 1.0

    records: List[DiagnosticsRecord] = [_record(g, spec, t, control.dt, values, grad_ref)]
    max_drift = 0.0
    status = RunStatus.REACHED_T_END
    steps = 0
    dt_last = control.dt
    overflowed = False
    pending_half = 0.0  # dt/2 of nonlinear phase owed to the current state

    # adaptive steps are quantized to dt_max * 2^-m (rounding down, so the
    # phase-advance bound still holds); the free-propagator multiplier is
    # then reused across steps instead of re-exponentiated
    phase_cache = {}

    def linear_phase(dt):
        ph = phase_cache.get(dt)
        if ph is None:
            if len(phase_cache) > 48:
                phase_cache.clear()
            ph = np.exp(-1j * dt * g.k2)
            phase_cache[dt] = ph
        return ph

    def close_half():
        nonlocal values, pending_half
        if pending_half != 0.0:
            values = values * np.exp(1j * pending_half * potential_values(values, g, spec))
            pending_half = 0.0

    if snapshot_writer is not None and snapshot_every > 0:
        snapshot_writer(0, t, Field(g, values.copy()))

    while t < control.t_end:
        if control.adaptive:
            amp2 = float(np.max((values * values.conj()).real))
            dt_raw = control.cfl_const / amp2 if amp2 > 0 else control.dt_max
            if dt_raw >= control.dt_max:
                dt = control.dt_max
            else:
                dt = control.dt_max * 2.0 ** -int(np.ceil(np.log2(control.dt_max / dt_raw)))
        else:
            dt = control.dt
        if dt < control.dt_min:
            status = RunStatus.DT_UNDERFLOW
            break
        last = t + dt >= control.t_end
        if last:
            dt = control.t_end - t

        if stepper == "strang":
            # leading half phase (fused with whatever half is pending)
            values = values * np.exp(
                1j * (pending_half + 0.5 * dt) * potential_values(values, g, spec)
            )
            values = ifft2(linear_phase(dt) * fft2(values))
            pending_half = 0.5 * dt
        else:
            values = ifrk4_step(Field(g, values), spec, dt).values

        t = control.t_end if last else t + dt
        steps += 1

        dt_last = dt
        if not np.isfinite(values).all():
            # numerical overflow: the computable shadow of blow-up;
            # keep the last healthy record rather than logging garbage
            status = RunStatus.BLOW_UP_DETECTED
            overflowed = True
            break

        m = np.sum((values * values.conj()).real) * da
        if m0 > 0:
            max_drift = max(max_drift, abs(m - m0) / m0)
        if max_drift > MAX_MASS_DRIFT:
            status = RunStatus.NUMERICAL_INSTABILITY
        elif float(np.max(np.abs(values))) > amp_max:
            status = RunStatus.BLOW_UP_DETECTED
        if status is not RunStatus.REACHED_T_END:
            close_half()
            records.append(_record(g, spec, t, dt, values, grad_ref))
            break

        emit = (steps % record_every == 0) or last
        snap = snapshot_writer is not None and snapshot_every > 0 and steps % snapshot_every == 0
        if emit or snap:
            close_half()
            if emit:
                records.append(_record(g, spec, t, dt, values, grad_ref))
            if snap:
                snapshot_writer(steps, t, Field(g, values.copy()))

    close_half()
    if not overflowed and records[-1].t != t:
        records.append(_record(g, spec, t, dt_last, values, grad_ref))

    out = RunOutcome(
        status=status,
        t_final=t,
        records=records,
        max_mass_drift=max_drift,
        steps=steps,
    )
    out.final_state = Field(g, values)
    return out

