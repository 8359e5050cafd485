"""Ground states of the coupled steady system by Petviashvili iteration.

Solves, with lambda fixed to 1 (other values reachable by rescaling),

    Lap S - S + beta S^3 - rho S X = 0,      X = E(S^2),

as the single fixed-point equation S = (1 - Lap)^{-1} [beta S^3 - rho S E(S^2)]
stabilized by the Petviashvili factor M^{3/2}.  The nonlinearity is cubic
(E is linear), and for degree p = 3 the exponent p/(p - 1) = 3/2 zeroes the
sweep's eigenvalue p - gamma (p - 1) along S itself.  Each sweep evaluates
S's spectrum, X = E(S^2) and the spectrum of the nonlinearity once, for the
updated iterate, and uses them for its residual (in spectral space, by
Plancherel) and the next sweep; the stored X is that of the returned S.

Starting the coupled iteration cold at large |rho| can stagnate, so the
solver continues in rho from the rho = 0 cubic ground state (the Townes
profile) in equal steps.  Only the target stage's state is returned, so the
Townes stage and the intermediate rho stages stop at the looser tolerance
max(tol, sqrt(tol)) and only the target stage (rho itself) runs to `tol`:
the returned residual still meets `tol`, and each loose stage only has to
hand the next one a start inside its basin of convergence (Pelinovsky &
Stepanyants, SIAM J. Numer. Anal. 42, 2004).  With rho = 0 no stage comes
before the target stage.

Every stage runs on an EvenGrid quarter with DCT-I transforms.  The centred
seed is even about index 0 bit for bit, and every symbol is even in kx and
ky, so the iterates stay even: the quarter sweep makes the full grid's
iterates, and evenness (which pins translation invariance) is the grid
itself rather than a projection.  Where the grid has a half (grid.half), the
loose stages and then the target stage, to `tol`, run on the quarter of
grid.half, a quarter of the samples.  Their state is carried to the grid's
quarter by band-limited interpolation (EvenGrid.prolong), and the target
stage is finished there to `tol`: nested iteration (Briggs, Henson &
McCormick, A Multigrid Tutorial, 2000).  The grid's stage then starts within
the half grid's discretization gap and needs a few sweeps.  Where the grid
has no half (grid.half is None) every stage runs once, on grid.even.
GroundState.stages records each stage run: its rho, quarter shape, sweeps
and residual.  S and X are expanded to full-grid Fields at the end;
residual_norm stays on complex full-grid transforms as the independent
check.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConvergenceError, DegenerateLimitError, GridMismatchError, ParameterError,
                     require_finite)
from .fields import Field
from .grid import Grid2D
from .spectral import fft2, ifft2, l2_norm_values


@dataclass
class PetviashviliConfig:
    tol: float = 1e-10
    max_iter: int = 2000
    continuation_steps: int = 8

    def __post_init__(self):
        require_finite(self)
        if self.tol <= 0 or self.max_iter < 1 or self.continuation_steps < 1:
            raise ParameterError("invalid Petviashvili configuration")


@dataclass
class StageStats:
    """One Petviashvili stage of a solve: its rho, the shape of the quarter
    it ran on, its sweeps and the residual it stopped at."""

    rho: float
    shape: tuple
    sweeps: int
    residual: float


@dataclass
class GroundState:
    """Converged (S, X) pair with the scalars the modulation module needs.

    X is always derived as E(S^2) from the stored S; mass is |S|_2^2,
    grad_S2_sq is int |grad(S^2)|^2 and second_moment is int |xi|^2 S^2.
    stages holds the solve's StageStats in the order the stages ran.
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
    stages: tuple = ()

    @property
    def grid(self):
        return self.S.grid


def symmetrize_even(a):
    """The sweep marker: called once per Petviashvili sweep, on the new
    iterate, and nowhere else.  The iterate lives on an EvenGrid quarter, so
    it is even by construction and this returns it unchanged.  bench/ counts
    sweeps by patching it, until the benchmark reads solver statistics."""
    return a


def residual_norm(S: Field, X: Field, beta: float, rho: float, nu: float) -> float:
    """L2 defect of both steady equations.

    The second equation's defect vanishes identically when X = E(S^2); it
    is still measured so that externally supplied pairs are checked.  This
    check runs on complex transforms in physical space, independently of
    the solver's real transforms and spectral residual.
    """
    if S.grid != X.grid:
        raise GridMismatchError(f"S on {S.grid} and X on {X.grid}")
    g = S.grid
    s = S.values
    X_of_S = ifft2(g.e_symbol(nu, "xx") * fft2(s * s)).real
    r1 = ifft2(-g.k2 * fft2(s)).real - s + beta * s**3 - rho * s * X_of_S
    # defect of Delta_nu X - (S^2)_xx
    kx2, ky2 = g.kx[:, None] ** 2, g.ky[None, :] ** 2
    lhs = ifft2(-(kx2 + nu * ky2) * fft2(X.values)).real
    rhs = ifft2(-kx2 * fft2(s**2)).real
    return l2_norm_values(r1, g) + l2_norm_values(lhs - rhs, g)


def _petviashvili(S, grid, beta, rho, nu, cfg):
    """Iterate at fixed parameters from S on the EvenGrid quarter grid;
    returns (S, X = E(S^2), residual) on that quarter and the sweeps made."""
    inv = grid.real_symbol("helmholtz", 1.0)  # (1 - Lap)^{-1}
    e_xx = grid.real_symbol("e", nu, "xx")
    one_minus_lap = grid.real_symbol("one_minus_laplacian")
    scale0 = float(np.max(np.abs(S)))

    def evaluate(S):
        """S's spectrum, X = E(S^2), the nonlinearity's spectrum, residual.

        The residual (1 - Lap) S - N(S) is measured in spectral space
        (Plancherel), so N's spectrum serves both it and the next sweep.
        """
        Sh = grid.rfft2(S)
        X = grid.irfft2(e_xx * grid.rfft2(S * S))
        Nh = grid.rfft2(beta * S**3 - rho * S * X)
        defect = grid.sum(np.abs(Nh - one_minus_lap * Sh) ** 2)
        return Sh, X, Nh, math.sqrt(defect * grid.cell_area)

    Sh, X, Nh, residual = evaluate(S)
    for sweep in range(1, cfg.max_iter + 1):
        denom = grid.sum((np.conj(Sh) * Nh).real)
        if denom <= 0:
            raise DegenerateLimitError(
                "Petviashvili normalization lost positivity; "
                "no focusing ground state at these parameters"
            )
        M = grid.sum(one_minus_lap * np.abs(Sh) ** 2) / denom
        # 3/2 = p/(p - 1) for the cubic N (module docstring)
        S = symmetrize_even(M**1.5 * grid.irfft2(inv * Nh))
        if float(np.max(np.abs(S))) < 1e-8 * scale0:
            raise DegenerateLimitError("iterate collapsed to the trivial solution")
        Sh, X, Nh, residual = evaluate(S)
        if residual < cfg.tol:
            return S, X, residual, sweep
    raise ConvergenceError(
        f"Petviashvili stage rho={rho:g} did not reach tol={cfg.tol:g} in "
        f"{cfg.max_iter} iterations (last residual {residual:.3e})",
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

    # the Townes seed stage, then rho in equal steps, then the target stage at
    # rho; only the target stage's state is kept, so the stages before it stop
    # at sqrt(tol).  With a half grid they all run on its quarter, and the
    # target stage is finished on the grid's
    n = cfg.continuation_steps
    earlier = [] if rho == 0.0 else [0.0] + [rho * k / n for k in range(1, n)]
    loose = replace(cfg, tol=max(cfg.tol, math.sqrt(cfg.tol)))
    stage_grid = grid.half if grid.half is not None else grid
    stage, q = stage_grid.even, grid.even
    stages = []

    def run(S, on, rho_k, stage_cfg):
        S, X, residual, sweeps = _petviashvili(S, on, beta, rho_k, nu, stage_cfg)
        stages.append(StageStats(rho_k, on.shape, sweeps, float(residual)))
        return S, X, residual

    # amplitude near the known peak value of the cubic profile
    S = 2.2 * np.exp(-stage.restrict(stage_grid.r2) / 2.0)
    for rho_k in earlier:
        S, _, _ = run(S, stage, rho_k, loose)
    S, X, residual = run(S, stage, rho, cfg)
    if stage is not q:
        S, X, residual = run(q.prolong(S, stage), q, rho, cfg)

    da = grid.cell_area
    f = S * S
    return GroundState(
        S=Field(grid, q.expand(S)),
        X=Field(grid, q.expand(X)),
        lam=1.0,
        residual=float(residual),
        mass=float(q.sum(f) * da),
        grad_S2_sq=float(q.sum(q.k2 * np.abs(q.rfft2(f)) ** 2) * da),
        second_moment=float(q.sum(q.restrict(grid.r2) * f) * da),
        beta=beta,
        rho=rho,
        nu=nu,
        stages=tuple(stages),
    )
