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
paying the full split cost only at record and snapshot boundaries.  Next
to v it carries one optional quantity, the potential P of v, which a Strang
step computes at once from the spectrum phase * fft2(v) of its linear
substep, and a record from the one fft2 of v it makes for both the gradient
norm and H.  P is dropped as soon as v changes without it (a closing half
phase, an IFRK4 step), and a Strang step transforms v again only then.  A
fused step thus makes 3 complex and 2 real transforms (ifft2 of the
dealiased spectrum, rfft2/irfft2 of the potential, fft2/ifft2 of the linear
substep), and a record makes 2 complex and 2 real ones.

Steps of either stepper from a state even about a grid point run on the
EvenGrid quarter of its grid, (nx/2+1) x (ny/2+1) samples, where each
transform above is a DCT-I.  The flow commutes with whole-cell shifts, so
the loop rolls the centre to index 0; and every operator of the flow keeps
evenness in x and in y (the Laplacian, the E and Helmholtz symbols, the
2/3 mask and the pointwise phase), so the state stays even and the quarter
holds all of it.  Records, mass and amplitude tests are taken on the
quarter with its weighted sum; snapshots and the final state are expanded
to full-grid Fields and rolled back.  The test at entry is exact: one
candidate centre, the peak of |v0|, and bitwise equality of v0 under both
reflections about it.  A state that is even only to roundoff, or not at
all, steps on the full grid, so nothing is projected and the two paths
differ only by roundoff.  A centred radial profile passes, since Grid2D's
coordinates are mirror-exact.

The loop stops at t_end, at dt underflow, at blow-up (amp_max), or, before
the amplitude test, with NUMERICAL_INSTABILITY once the relative mass drift
passes MAX_MASS_DRIFT: a conservative flow cannot drift, so a step that
does is non-conservative (IFRK4 beyond its stability limit) rather than a
collapse.  Overflow is tested first, on that pass's peak of |v|^2: a nan or
inf sample, or |v|^2 past the float range, stops the run as a blow-up with
no record of the overflowed state; that test and a finite t = 0 H admit v0.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

import numpy as np

from .errors import ParameterError, require_finite
from .fields import Field
from .grid import is_even
from .models import ModelSpec, _hamiltonian_and_potential, _intensity_and_potential, mass
from .spectral import grad_norm_spectrum

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
    keeps the nonlinear phase advance per step bounded near focusing, and
    no step is made with dt: it is only the dt column of the t = 0 record.
    amp_max is the absolute blow-up amplitude threshold; None means
    1e6 times the initial max|v|.  stepper is "strang" or "ifrk4"; both
    share the step-size policy, records, snapshots and stopping rules of
    integrate.
    """

    dt: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    adaptive: bool = True
    cfl_const: float = 0.1
    t_end: float = 1.0
    amp_max: Optional[float] = None
    stepper: str = "strang"

    def __post_init__(self):
        require_finite(self)
        if not 0 < self.dt_min <= self.dt <= self.dt_max:
            raise ParameterError(
                f"need 0 < dt_min <= dt <= dt_max, got {self.dt_min}, {self.dt}, {self.dt_max}")
        if self.t_end < 0:
            raise ParameterError("t_end must be nonnegative")
        if self.cfl_const <= 0:
            raise ParameterError(f"cfl_const must be positive, got {self.cfl_const}")
        if self.amp_max is not None and self.amp_max <= 0:
            raise ParameterError(f"amp_max must be positive, got {self.amp_max}")
        if self.stepper not in ("strang", "ifrk4"):
            raise ParameterError(f"stepper must be strang or ifrk4, got {self.stepper!r}")


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
    final_state: Field
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
        vh = wh * prop
        vv = g.ifft2(vh)
        return 1j * g.fft2(_intensity_and_potential(vh, g, spec)[1] * vv) / prop

    wh = g.fft2(v.values)
    k1 = rhs(wh, 1.0)
    k2 = rhs(wh + 0.5 * dt * k1, half)
    k3 = rhs(wh + 0.5 * dt * k2, half)
    k4 = rhs(wh + dt * k3, full)
    wh = wh + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return Field(g, g.ifft2(wh * full))


def _mass_and_peak(values, g):
    """Mass and max|v|^2 from one |v|^2 pass (mass drift, amplitude test, dt)."""
    intensity = (values * values.conj()).real
    return g.sum(intensity) * g.cell_area, float(np.max(intensity))


def _phase(theta):
    """exp(i theta) for real theta, from cos and sin (a third of np.exp's time)."""
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _record(g, spec, t, dt, values, grad_ref):
    """The DiagnosticsRecord of values, and the potential P of values.

    One fft2 of values feeds both the gradient norm and H; P is returned so
    that the next step's leading half phase need not compute it again.
    """
    vh = g.fft2(values)
    gn = grad_norm_spectrum(vh, g)
    h, p = _hamiltonian_and_potential(vh, gn, g, spec)
    record = DiagnosticsRecord(
        t=t,
        dt=dt,
        mass=mass(Field(g, values)),
        hamiltonian=h,
        grad_norm=gn,
        max_amp=float(np.max(np.abs(values))),
        L_est=grad_ref / gn if gn > 0 else np.inf,
    )
    return record, p


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a status, not a warning
def integrate(
    v0: Field,
    spec: ModelSpec,
    control: StepControl,
    record_every: int = 10,
    grad_ref: float = 1.0,
    snapshot_every: int = 0,
    snapshot_writer: Optional[Callable[[int, float, Field], None]] = None,
) -> RunOutcome:
    """Step from t=0 to t_end, amp_max, dt underflow or a mass drift above
    MAX_MASS_DRIFT, whichever first, with control.stepper.

    A DiagnosticsRecord is emitted every record_every steps (and always at
    the first and last step); the running mass drift is tracked every step.
    grad_ref sets the normalization of the focusing-scale column
    L_est = grad_ref / |grad v|_2; the default 1.0 makes L_est an absolute
    inverse-gradient scale (callers with a ground state pass |grad S|_2),
    and keeps the column independent of where a checkpointed run resumed.
    """
    if record_every < 1:
        raise ParameterError("record_every must be a positive step count")
    spec.warn_if_out_of_regime()
    values = np.array(v0.values, dtype=np.complex128, copy=True)
    g, centre = v0.grid, None
    peak = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    rolled = np.roll(values, (-peak[0], -peak[1]), axis=(0, 1))
    if is_even(rolled):
        centre, g = peak, g.even
        values = g.restrict(rolled)
    del rolled  # a full-grid copy, not to be held for the whole run

    def full_field(values):
        """values as a Field on v0's grid: a quarter is expanded and rolled back."""
        if centre is None:
            return Field(g, values)
        return Field(v0.grid, np.roll(g.expand(values), centre, axis=(0, 1)))

    t = 0.0
    # besides values, the loop may know their potential P (left by a Strang
    # step or a record); it is None from the moment values change without it
    m0, amp2 = _mass_and_peak(values, g)
    record, potential = _record(g, spec, t, control.dt, values, grad_ref)
    # a nan or inf sample, or |v0|^2 or H past the float range (L_est may be inf)
    if not (np.isfinite(amp2) and np.isfinite(record.hamiltonian)):
        raise ParameterError("v0 must be finite, with |v0|^2 and H in the float range")
    records: List[DiagnosticsRecord] = [record]
    amp_max = control.amp_max if control.amp_max is not None else 1e6 * max(record.max_amp, 1e-300)
    amp2_max = amp_max * amp_max  # saturates at inf, where amp_max**2 raises
    max_drift = 0.0
    status = RunStatus.REACHED_T_END
    steps = 0
    dt_last = control.dt
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
        nonlocal values, pending_half, potential
        if pending_half != 0.0:
            values *= _phase(pending_half * potential)
            pending_half = 0.0
            potential = None

    def emit_record(t, dt):
        nonlocal potential
        record, potential = _record(g, spec, t, dt, values, grad_ref)
        records.append(record)

    if snapshot_writer is not None and snapshot_every > 0:
        snapshot_writer(0, t, full_field(values.copy()))

    while t < control.t_end:
        if control.adaptive:
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
        # a sum of fixed steps can fall short of t_end by up to an ulp of
        # t_end per step; a remainder that small is roundoff, not a step
        last = t + dt >= control.t_end - (steps + 1) * np.spacing(control.t_end)
        if last:
            dt = control.t_end - t

        if control.stepper == "strang":
            if potential is None:
                potential = _intensity_and_potential(g.fft2(values), g, spec)[1]
            # leading half phase (fused with whatever half is pending)
            values *= _phase((pending_half + 0.5 * dt) * potential)
            # in place: one more 384^2 temporary per step made a dichotomy
            # run fault 0.55 M times instead of 9 k (getrusage)
            spectrum = g.fft2(values)
            spectrum *= linear_phase(dt)
            values = g.ifft2(spectrum)
            potential = _intensity_and_potential(spectrum, g, spec)[1]
            pending_half = 0.5 * dt
        else:
            values = ifrk4_step(Field(g, values), spec, dt).values
            potential = None

        t = control.t_end if last else t + dt
        steps += 1

        dt_last = dt
        m, amp2 = _mass_and_peak(values, g)
        if not np.isfinite(amp2):
            # numerical overflow, the computable shadow of blow-up (a nan
            # or inf sample makes the peak one); keep the last healthy record
            status = RunStatus.BLOW_UP_DETECTED
            break
        if m0 > 0:
            max_drift = max(max_drift, abs(m - m0) / m0)
        if max_drift > MAX_MASS_DRIFT:
            status = RunStatus.NUMERICAL_INSTABILITY
        elif amp2 > amp2_max:
            status = RunStatus.BLOW_UP_DETECTED
        if status is not RunStatus.REACHED_T_END:
            break

        emit = (steps % record_every == 0) or last
        snap = snapshot_writer is not None and snapshot_every > 0 and steps % snapshot_every == 0
        if emit or snap:
            close_half()
            if emit:
                emit_record(t, dt)
            if snap:
                snapshot_writer(steps, t, full_field(values.copy()))

    close_half()
    if np.isfinite(amp2) and records[-1].t != t:  # no record of an overflowed state
        emit_record(t, dt_last)

    return RunOutcome(
        status=status,
        t_final=t,
        records=records,
        final_state=full_field(values),
        max_mass_drift=max_drift,
        steps=steps,
    )

