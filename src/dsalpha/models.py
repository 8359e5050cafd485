"""The four wave-envelope systems: right-hand sides and invariants.

All four share the structure i v_t + Lap v + F(v) = 0 with a real potential

    F(v) = (beta * u_eff - rho * pot) * v,

and differ in how the intensity |v|^2 is smoothed before it enters u_eff
and the nonlocal potential pot:

    kind   u_eff        pot                  conserved Hamiltonian terms
    DSE    |v|^2        E(|v|^2)             |grad v|^2 - (b/2)|v|^4 + (r/2)(phix^2+nu phiy^2)
    RDS1   B(|v|^2)     E(|v|^2)             |grad v|^2 - (b/2)u|v|^2 + (r/2)(phix^2+nu phiy^2)
    RDS2   |v|^2        B(E(B(|v|^2)))       |grad v|^2 - (b/2)|v|^4 + (r/2)(psix^2+nu psiy^2)
    RDS3   B(|v|^2)     B(E(B(|v|^2)))       |grad v|^2 - (b/2)u|v|^2 + (r/2)(psix^2+nu psiy^2)

with B the Helmholtz inverse (Id - alpha^2 Lap)^{-1} and E the anisotropic
Poisson velocity operator.  Cubic products are formed in physical space
with a 2/3-rule dealias applied to each factor's spectrum, which prevents
aliasing-driven spurious growth near focusing.
"""

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ParameterError
from .fields import PHYSICAL, Field, real_field
from .grid import Grid2D
from .spectral import dealias_spectrum, fft2, grad_norm_spectrum, ifft2


class ModelKind(Enum):
    DSE = "dse"
    RDS1 = "rds1"
    RDS2 = "rds2"
    RDS3 = "rds3"


# Which kinds smooth the cubic term (u = B(|v|^2)) / the nonlocal term.
_SMOOTH_CUBIC = {ModelKind.RDS1, ModelKind.RDS3}
_SMOOTH_NONLOCAL = {ModelKind.RDS2, ModelKind.RDS3}


@dataclass(frozen=True)
class ModelSpec:
    """System selector plus physical parameters.

    nu > 0 selects the elliptic-elliptic case.  alpha is the regularization
    length; it must be positive for the RDS kinds and is ignored by DSE
    (alpha = 0 is only meaningful there).
    """

    kind: ModelKind
    beta: float
    rho: float
    nu: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.nu <= 0:
            raise ParameterError(f"nu must be positive, got {self.nu}")
        if self.alpha < 0:
            raise ParameterError(f"alpha must be nonnegative, got {self.alpha}")
        if self.kind is not ModelKind.DSE and self.alpha <= 0:
            raise ParameterError(f"{self.kind.name} requires alpha > 0")

    @property
    def in_regime(self) -> bool:
        """Whether (beta, rho) sit in the regime motivating this system.

        DSE: the blow-up regime beta > min(rho, 0); RDS1: rho > 0 < beta;
        RDS2: rho < beta < 0; RDS3: rho < 0 < beta.  Computed, not
        enforced: exploration outside the regimes is legitimate.
        """
        b, r = self.beta, self.rho
        if self.kind is ModelKind.DSE:
            return b > min(r, 0.0)
        if self.kind is ModelKind.RDS1:
            return r > 0 and b > 0
        if self.kind is ModelKind.RDS2:
            return r < b < 0
        return r < 0 and b > 0

    def warn_if_out_of_regime(self):
        if not self.in_regime:
            warnings.warn(
                f"{self.kind.name} run with beta={self.beta}, rho={self.rho} "
                "is outside the regime motivating this system",
                stacklevel=2,
            )


@dataclass
class AuxFields:
    """Auxiliary real fields derived from one amplitude state.

    u is the Helmholtz-smoothed intensity (None for DSE).  pot is the field
    multiplying -rho*v in the equation.  vel_x/vel_y are the mean-flow
    velocity components entering the Hamiltonian: (phi_x, phi_y) for
    DSE/RDS1, (psi_x, psi_y) for RDS2/RDS3.  All outputs of E are mean-free
    by the zero-mode convention.
    """

    intensity: Field
    u: Optional[Field]
    ueff: Field
    pot: Field
    vel_x: Field
    vel_y: Field


def _dealiased_intensity(vh, grid: Grid2D, spec: ModelSpec):
    """From the spectrum vh of v: I = |v_d|^2 and the spectra of I and of B(I).

    The B(I) spectrum is None for DSE, which smooths nothing; every other
    kind needs it for u_eff, pot or the mean flow.
    """
    vd = ifft2(dealias_spectrum(vh, grid))
    # drop a caller's temporary spectrum before the next allocations; held
    # here and in hamiltonian, it raised a 384^2 DSE run's page faults by 27%
    del vh
    intensity = (vd * vd.conj()).real
    ih = dealias_spectrum(fft2(intensity), grid)
    uh = None if spec.kind is ModelKind.DSE else grid.helmholtz_symbol(spec.alpha) * ih
    return intensity, ih, uh


def _ueff(intensity, uh, spec: ModelSpec):
    return ifft2(uh).real if spec.kind in _SMOOTH_CUBIC else intensity


def _pot(ih, uh, grid: Grid2D, spec: ModelSpec):
    e_xx = grid.e_symbol(spec.nu, "xx")
    if spec.kind in _SMOOTH_NONLOCAL:
        # pot = B(E(B(|v|^2)))
        return ifft2(grid.helmholtz_symbol(spec.alpha) * e_xx * uh).real
    # pot = E(|v|^2) = phi_x
    return ifft2(e_xx * ih).real


def _mean_flow(ih, uh, grid: Grid2D, spec: ModelSpec):
    """(phi_x, phi_y) from |v|^2, or (psi_x, psi_y) with Delta_nu psi = u_x."""
    fh = uh if spec.kind in _SMOOTH_NONLOCAL else ih
    return (
        ifft2(grid.e_symbol(spec.nu, "xx") * fh).real,
        ifft2(grid.e_symbol(spec.nu, "xy") * fh).real,
    )


def compute_aux(v: Field, spec: ModelSpec) -> AuxFields:
    """Solve the auxiliary (elliptic) subsystem for a physical-space v."""
    v.require_space(PHYSICAL)
    g = v.grid
    intensity, ih, uh = _dealiased_intensity(fft2(v.values), g, spec)
    u = None if uh is None else ifft2(uh).real
    vel_x, vel_y = _mean_flow(ih, uh, g, spec)
    wrap = lambda a: real_field(g, a)
    return AuxFields(
        intensity=wrap(intensity),
        u=None if u is None else wrap(u),
        ueff=wrap(u if spec.kind in _SMOOTH_CUBIC else intensity),
        pot=wrap(_pot(ih, uh, g, spec)),
        vel_x=wrap(vel_x),
        vel_y=wrap(vel_y),
    )


def potential_values(v_values, grid: Grid2D, spec: ModelSpec):
    """Real potential P with F(v) = P*v; used by the phase substep."""
    intensity, ih, uh = _dealiased_intensity(fft2(v_values), grid, spec)
    return spec.beta * _ueff(intensity, uh, spec) - spec.rho * _pot(ih, uh, grid, spec)


def nonlinearity(v: Field, spec: ModelSpec) -> Field:
    """F(v) = beta*u_eff*v - rho*pot*v with the third factor dealiased too."""
    v.require_space(PHYSICAL)
    g = v.grid
    p = potential_values(v.values, g, spec)
    vd = ifft2(dealias_spectrum(fft2(v.values), g))
    return Field(g, p * vd, PHYSICAL)


def mass(v: Field) -> float:
    """Quadrature of |v|^2 over the box (the conserved L2 energy)."""
    return float(np.sum((v.values * v.values.conj()).real) * v.grid.cell_area)


def hamiltonian(v: Field, spec: ModelSpec) -> float:
    """The conserved Hamiltonian of the active system.

    The gradient term is evaluated spectrally; the interaction terms reuse
    the same dealiased auxiliary pipeline as the dynamics so that the
    monitored quantity matches the flow actually being integrated.
    """
    v.require_space(PHYSICAL)
    g = v.grid
    da = g.cell_area
    vh = fft2(v.values)
    gradsq = grad_norm_spectrum(vh, g) ** 2
    intensity, ih, uh = _dealiased_intensity(vh, g, spec)
    del vh  # see _dealiased_intensity
    ueff = _ueff(intensity, uh, spec)
    vel_x, vel_y = _mean_flow(ih, uh, g, spec)
    quartic = np.sum(ueff * intensity) * da
    flow = np.sum(vel_x**2 + spec.nu * vel_y**2) * da
    return float(gradsq - 0.5 * spec.beta * quartic + 0.5 * spec.rho * flow)

