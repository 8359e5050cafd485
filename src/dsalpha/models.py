"""The four wave-envelope systems: right-hand sides and invariants.

All four share the structure i v_t + Lap v + F(v) = 0 with a real potential
F(v) = P v.  P is linear in the dealiased intensity spectrum: with
I = |v_d|^2 (v_d the 2/3-rule dealiased v) and keep the 2/3 mask,

    P = local * I + irfft2(Q * rfft2(I)),

    kind   local   Q
    DSE    beta    keep * (-rho E)
    RDS1   0       keep * (beta B - rho E)
    RDS2   beta    keep * (-rho B E B)
    RDS3   0       keep * (beta B - rho B E B)

with B the Helmholtz inverse (Id - alpha^2 Lap)^{-1} and E the anisotropic
Poisson velocity operator (its xx symbol).  Q is one real-layout symbol per
(grid, model), built on first use from the grid's own and cached there.  Each
interaction energy is a quadratic form in I with variational derivative P,
so every kind conserves

    H = |grad v|_2^2 - (1/2) int I P,

which on the grid equals the mean-flow form exactly (|E_xx|^2 + nu|E_xy|^2
= E_xx mode by mode; B and the dealias mask are real and diagonal).  The
cubic product is formed in physical space from the dealiased v, which
prevents aliasing-driven spurious growth near focusing.

The pipeline runs on the grid it is given, through that grid's transforms,
symbols and quadrature sum: a Grid2D, or the EvenGrid quarter on which the
stepping loop holds a state even about a grid point.  Every operator above
keeps evenness in x and in y (each symbol is even in kx and ky, the 2/3
mask is symmetric, and I and P are pointwise), so both grids give the same
P, H and mass up to roundoff.
"""

import warnings
from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError, require_finite
from .fields import Field
from .grid import Grid2D
from .spectral import dealias_spectrum, grad_norm_spectrum


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
        require_finite(self)
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


def _potential_symbol(grid: Grid2D, spec: ModelSpec):
    """(local, Q) of the table in the module docstring; Q on the grid's real layout."""

    def build():
        e = grid.real_symbol("e", spec.nu, "xx")
        if spec.kind in _SMOOTH_NONLOCAL:
            b = grid.real_symbol("helmholtz", spec.alpha)
            e = b * e * b
        q = -spec.rho * e
        if spec.kind in _SMOOTH_CUBIC:
            q = q + spec.beta * grid.real_symbol("helmholtz", spec.alpha)
        q[grid.real_symbol("dealias_zero")] = 0.0
        return q

    local = 0.0 if spec.kind in _SMOOTH_CUBIC else spec.beta
    return local, grid.cached(("potential", spec), build)


def _intensity_and_potential(vh, grid: Grid2D, spec: ModelSpec):
    """From the spectrum vh of v: I = |v_d|^2 and the potential P.

    One complex transform (v_d) and two real ones (rfft2 of I, irfft2 of Q*I^).
    """
    local, q = _potential_symbol(grid, spec)
    vd = grid.ifft2(dealias_spectrum(vh, grid))
    intensity = (vd * vd.conj()).real
    del vd  # free v_d before the real transforms allocate theirs
    p = grid.irfft2(q * grid.rfft2(intensity))
    if local:
        p += local * intensity
    return intensity, p


def potential_values(v_values, grid: Grid2D, spec: ModelSpec):
    """Real potential P with F(v) = P*v, from the physical values of v.

    The stepping loop calls _intensity_and_potential on a spectrum it has.
    """
    return _intensity_and_potential(grid.fft2(v_values), grid, spec)[1]


def mass(v: Field) -> float:
    """Quadrature of |v|^2 over the box (the conserved L2 energy)."""
    return float(v.grid.sum((v.values * v.values.conj()).real) * v.grid.cell_area)


def hamiltonian(v: Field, spec: ModelSpec) -> float:
    """The conserved Hamiltonian H = |grad v|_2^2 - (1/2) int I P.

    The gradient term is evaluated spectrally; I and P are the arrays the
    phase substep uses, so the monitored quantity is that of the flow
    actually being integrated.
    """
    vh = v.grid.fft2(v.values)
    return _hamiltonian_and_potential(vh, grad_norm_spectrum(vh, v.grid), v.grid, spec)[0]


def _hamiltonian_and_potential(vh, grad_norm, grid: Grid2D, spec: ModelSpec):
    """H and P of v from its spectrum vh and |grad v|_2 (taken from vh).

    The record's path: with the fft2 that gave vh, H costs 2 complex and 2
    real transforms, and P serves the step after the record.
    """
    intensity, p = _intensity_and_potential(vh, grid, spec)
    return float(grad_norm**2 - 0.5 * grid.sum(intensity * p) * grid.cell_area), p
