"""Ground states of the coupled steady system by Petviashvili iteration.

Solves, with lambda fixed to 1 (other values reachable by rescaling),

    Lap S - S + beta S^3 - rho S X = 0,      X = E(S^2),

as the single fixed-point equation S = (1 - Lap)^{-1} [beta S^3 - rho S E(S^2)]
stabilized by the Petviashvili factor M^gamma.  The nonlinearity is cubic
(E is linear), so the standard exponent gamma = 3/2 applies.  The iterate
is symmetrized to be even in both variables every sweep: this pins
translation invariance and enforces the evenness under which the
linearized solves downstream are well posed.  Each sweep evaluates S's
spectrum and X = E(S^2) once, for the updated iterate, and uses them for its
residual and the next sweep; the stored X is that of the returned S.

Starting the coupled iteration cold at large |rho| can stagnate, so the
solver continues in rho from the rho = 0 cubic ground state (the Townes
profile) in equal steps.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateLimitError, ParameterError
from .fields import Field, check_same_grid, real_field
from .grid import Grid2D
from .spectral import fft2, ifft2, l2_norm_values


@dataclass
class PetviashviliConfig:
    gamma: float = 1.5
    tol: float = 1e-10
    max_iter: int = 2000
    continuation_steps: int = 8

    def __post_init__(self):
        if not 1.0 < self.gamma < 2.0:
            raise ParameterError(f"stabilization exponent must be in (1, 2), got {self.gamma}")
        if self.tol <= 0 or self.max_iter < 1 or self.continuation_steps < 1:
            raise ParameterError("invalid Petviashvili configuration")


@dataclass
class GroundState:
    """Converged (S, X) pair with the scalars the modulation module needs.

    X is always derived as E(S^2) from the stored S; mass is |S|_2^2,
    grad_S2_sq is int |grad(S^2)|^2 and second_moment is int |xi|^2 S^2.
    """

    S: Field
    X: Field
    lam: float
    residual: float
    mass: float
    grad_S2_sq: float
    second_moment: float
    beta: float
    rho: float
    nu: float

    @property
    def grid(self):
        return self.S.grid


def symmetrize_even(a):
    """Project onto the subspace even in x and in y (grid reflection)."""
    a = 0.5 * (a + np.roll(a[::-1, :], 1, axis=0))
    a = 0.5 * (a + np.roll(a[:, ::-1], 1, axis=1))
    return a


def _spectrum_and_x(S, e_xx):
    """(fft2(S), X = E(S^2)) of one profile."""
    return fft2(S), ifft2(e_xx * fft2(S * S)).real


def _residual_values(S, Sh, X, grid, beta, rho):
    return ifft2(-grid.k2 * Sh).real - S + beta * S**3 - rho * S * X


def residual_norm(S: Field, X: Field, beta: float, rho: float, nu: float) -> float:
    """L2 defect of both steady equations.

    The second equation's defect vanishes identically when X = E(S^2); it
    is still measured so that externally supplied pairs are checked.
    """
    g = check_same_grid(S, X)
    Sh, X_of_S = _spectrum_and_x(S.values, g.e_symbol(nu, "xx"))
    r1 = _residual_values(S.values, Sh, X_of_S, g, beta, rho)
    # defect of Delta_nu X - (S^2)_xx
    lhs = ifft2(-(g.kxg**2 + nu * g.kyg**2) * fft2(X.values)).real
    rhs = ifft2(-(g.kxg**2) * fft2(S.values**2)).real
    return l2_norm_values(r1, g) + l2_norm_values(lhs - rhs, g)


def _petviashvili(S, grid, beta, rho, nu, cfg):
    """Iterate at fixed parameters from S; returns (S, X = E(S^2), residual)."""
    inv = grid.inverse_one_minus_laplacian_symbol()
    e_xx = grid.e_symbol(nu, "xx")
    scale0 = float(np.max(np.abs(S)))
    residual = np.inf
    Sh, X = _spectrum_and_x(S, e_xx)
    for _ in range(cfg.max_iter):
        Nh = fft2(beta * S**3 - rho * S * X)
        denom = float(np.real(np.sum(np.conj(Sh) * Nh)))
        if denom <= 0:
            raise DegenerateLimitError(
                "Petviashvili normalization lost positivity; "
                "no focusing ground state at these parameters"
            )
        M = float(np.sum((1.0 + grid.k2) * np.abs(Sh) ** 2)) / denom
        S = symmetrize_even(M**cfg.gamma * ifft2(inv * Nh).real)
        if float(np.max(np.abs(S))) < 1e-8 * scale0:
            raise DegenerateLimitError("iterate collapsed to the trivial solution")
        Sh, X = _spectrum_and_x(S, e_xx)
        residual = l2_norm_values(_residual_values(S, Sh, X, grid, beta, rho), grid)
        if residual < cfg.tol:
            return S, X, residual
    raise ConvergenceError(
        f"Petviashvili did not reach tol={cfg.tol} in {cfg.max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
    )


def solve_ground_state(
    grid: Grid2D,
    beta: float,
    rho: float,
    nu: float,
    cfg: PetviashviliConfig = None,
) -> GroundState:
    """Continuation in rho from the Townes profile to the requested rho."""
    if nu <= 0:
        raise ParameterError(f"nu must be positive, got {nu}")
    if beta <= 0:
        warnings.warn(
            f"beta={beta} <= 0: the focusing fixed-point iteration may not converge",
            stacklevel=2,
        )
    cfg = cfg or PetviashviliConfig()

    # Townes-like seed; amplitude near the known peak value of the cubic profile
    S, X, residual = _petviashvili(2.2 * np.exp(-grid.r2 / 2.0), grid, beta, 0.0, nu, cfg)
    if rho != 0.0:
        for k in range(1, cfg.continuation_steps + 1):
            rho_k = rho * k / cfg.continuation_steps
            S, X, residual = _petviashvili(S, grid, beta, rho_k, nu, cfg)

    da = grid.cell_area
    f = S * S
    grad_f_sq = float(np.sum(grid.k2 * np.abs(fft2(f)) ** 2) * da)
    return GroundState(
        S=real_field(grid, S),
        X=real_field(grid, X),
        lam=1.0,
        residual=float(residual),
        mass=float(np.sum(f) * da),
        grad_S2_sq=grad_f_sq,
        second_moment=float(np.sum(grid.r2 * f) * da),
        beta=beta,
        rho=rho,
        nu=nu,
    )
