"""Reduced focusing dynamics: linearized profile corrections, the constants
they define, the boundary-case scale ODE, and collapse-law fitting.

The linearized systems share one self-adjoint operator.  With S the ground
profile, X = E(S^2) and A(g) = Lap g - g + 3 beta S^2 g - rho X g
- 2 rho S E(S g), the second unknown is eliminated through the Poisson
multiplier and the two solves become

    GY:  A(G) = -(1/4)|xi|^2 S,                    Y = 2 E(S G)
    HZ:  A(H) = -beta S Lap(S^2) + rho S Lap(X)
                + rho S E(Lap(S^2)),               Z = 2 E(S H) + E(Lap(S^2))

Both are solved by preconditioned MINRES restricted to fields even in each
variable; the adjoint kernel of the full block system is spanned by odd
(translation) modes, so the symmetry restriction enforces solvability
orthogonality without constructing antiderivative fields.  The restriction
is structural: S is even about index 0 bit for bit (a GroundState that is
not raises SymmetryViolationError), so the operator, the preconditioner
and the right-hand sides run on the grid's EvenGrid quarter with DCT-I
transforms.  The quarter's quadrature weights w carry the full grid's
inner product, so MINRES solves w A(u) = w b with preconditioner B(u / w),
both symmetric, and makes the full-grid iterates.  The corrections are
expanded to full-grid Fields, and the odd-kernel overlap is checked on
the expanded solution with the grid's real transforms.

The reduced scale dynamics integrates the saturated (equality) form of the
modulation inequality,

    L_tt = (C2 alpha^2 / C1) L^{-5} - (C3 / C1) L^{-3},

which conserves Q = L_t^2 + (C2 alpha^2 / (2 C1)) L^{-4} - (C3/C1) L^{-2}
and therefore keeps L away from zero for alpha > 0.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import LinearOperator, minres

from .errors import (
    ConvergenceError,
    InsufficientDataError,
    ParameterError,
    SymmetryViolationError,
)
from .fields import Field
from .ground_state import GroundState
from .models import ModelKind, ModelSpec
from .spectral import l2_norm_values

# Samples kept of a reduced trajectory that t_eval does not fix.
MAX_SAMPLES = 4000


@dataclass
class ModulationConstants:
    """Scalar coefficients of the reduced scale dynamics.

    C1 and C2 use the closed forms tied to the ground profile (C1 from the
    second moment, C2 model-dependent from int |grad S^2|^2); C3 and C4 are
    set by the initial reduced state.  Positivity of C1 and C2 is what
    makes the regularization bound the scale away from zero.
    """

    C1: float
    C2: float
    C3: float
    C4: float
    S_mass: float


@dataclass
class ReducedState:
    """One sample of the reduced dynamics (scale L and companions)."""

    t: float
    L: float
    L_t: float
    tau: float
    b: float
    eps: float

    @classmethod
    def initial(cls, L0: float, Lt0: float, alpha: float,
                b0: Optional[float] = None) -> "ReducedState":
        """Initial reduced data; b0 defaults to a^2 = (L0 Lt0)^2 (zero initial a_tau)."""
        if L0 <= 0:
            raise ParameterError("initial scale L0 must be positive")
        if b0 is None:
            b0 = (L0 * Lt0) ** 2
        return cls(t=0.0, L=L0, L_t=Lt0, tau=0.0, b=b0, eps=(alpha / L0) ** 2)


@dataclass
class ReducedTrajectory:
    states: List[ReducedState]
    l_min: float
    collapsed: bool
    q_drift: float

    @property
    def t(self):
        return np.array([s.t for s in self.states])

    @property
    def L(self):
        return np.array([s.L for s in self.states])


@dataclass
class LinearizedSolution:
    """A GY or HZ correction pair with its solve's status.

    residual is the relative residual of the first equation; info is
    MINRES's exit code (0 converged, > 0 stopped at its iteration limit)
    and iterations the number of MINRES iterations it made.
    """

    first: Field
    second: Field
    mode: str
    residual: float
    inner_with_S: float
    info: int
    iterations: int


_C2_COEFF = {
    # multiplier of int |grad S^2|^2 in the closed form, per model kind
    ModelKind.RDS1: lambda beta, rho, nu: beta / 4.0,
    ModelKind.RDS2: lambda beta, rho, nu: -rho / (2.0 * (nu + 1.0)),
    ModelKind.RDS3: lambda beta, rho, nu: 0.25 * (beta - 2.0 * rho / (1.0 + nu)),
}


def compute_constants(
    ground: GroundState, spec: ModelSpec, reduced0: ReducedState
) -> ModulationConstants:
    """Constants of the reduced dynamics from a converged ground state."""
    if spec.kind not in _C2_COEFF:
        raise ParameterError("reduced-dynamics constants are defined for the RDS kinds only")
    C1 = ground.second_moment / 16.0
    C2 = _C2_COEFF[spec.kind](spec.beta, spec.rho, spec.nu) * ground.grad_S2_sq
    if C1 <= 0 or C2 <= 0:
        raise ParameterError(
            f"reduced constants must be positive in a valid regime, got C1={C1}, C2={C2}"
        )
    C3 = C1 * reduced0.b + C2 * reduced0.eps
    consts = ModulationConstants(C1=C1, C2=C2, C3=C3, C4=math.nan, S_mass=ground.mass)
    consts.C4 = reduced_first_integral(consts, spec.alpha, reduced0.L, reduced0.L_t)
    return consts


# ---------------------------------------------------------------------------
# linearized profile corrections
# ---------------------------------------------------------------------------

def _check_even(ground):
    """Raise unless S is even about index 0 in x and in y bit for bit, and X
    to the roundoff of the real transforms that made it from S."""
    e = ground.grid.even
    S, X = ground.S.values, ground.X.values
    if not np.array_equal(e.expand(e.restrict(S)), S):
        raise SymmetryViolationError("ground-state S is not even about index 0")
    if np.max(np.abs(e.expand(e.restrict(X)) - X)) > 1e-12 * np.max(np.abs(X)):
        raise SymmetryViolationError("ground-state X is not even about index 0")


def solve_linearized(ground: GroundState, spec: ModelSpec, mode: str) -> LinearizedSolution:
    """Solve the GY or HZ correction system on the even quarter grid."""
    if mode not in ("GY", "HZ"):
        raise ParameterError(f"mode must be 'GY' or 'HZ', got {mode!r}")
    _check_even(ground)
    g = ground.grid
    e = g.even
    S = e.restrict(ground.S.values)
    X = e.restrict(ground.X.values)
    beta, rho, nu = ground.beta, ground.rho, ground.nu
    e_xx = e.real_symbol("e", nu, "xx")
    inv = e.real_symbol("helmholtz", 1.0)  # (1 - Lap)^{-1}
    w = e.weights

    f = S * S

    if mode == "GY":
        rhs = -0.25 * e.restrict(g.r2) * S
    else:
        lap_fh = -e.k2 * e.rfft2(f)
        lap_f = e.irfft2(lap_fh)
        lap_X = e.irfft2(-e.k2 * e.rfft2(X))
        e_lap_f = e.irfft2(e_xx * lap_fh)
        rhs = -beta * S * lap_f + rho * S * lap_X + rho * S * e_lap_f
    rhs_norm = l2_norm_values(rhs, e)

    coeff = 3.0 * beta * f - rho * X

    def apply_a(u):
        lap_u = e.irfft2(-e.k2 * e.rfft2(u))
        nonloc = S * e.irfft2(e_xx * e.rfft2(S * u))
        return lap_u - u + coeff * u - 2.0 * rho * nonloc

    # the full grid's Euclidean inner product is the w-weighted one on the
    # quarter, so w A and B(./w) are symmetric and MINRES on them makes the
    # full-grid iterates of the even right-hand side
    def matvec(u):
        return (w * apply_a(u.reshape(e.shape))).ravel()

    def apply_pre(u):
        return e.irfft2(inv * e.rfft2(u.reshape(e.shape) / w)).ravel()

    iterations = 0

    def count(xk):
        nonlocal iterations
        iterations += 1

    n = w.size
    A = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    P = LinearOperator((n, n), matvec=apply_pre, dtype=np.float64)
    sol, info = minres(A, (w * rhs).ravel(), M=P, rtol=1e-12,
                       maxiter=40 * int(math.isqrt(g.nx * g.ny)) + 20000, callback=count)
    if info < 0:
        raise ConvergenceError(f"linearized {mode} MINRES broke down (info={info})")
    first_q = sol.reshape(e.shape)

    residual = l2_norm_values(apply_a(first_q) - rhs, e)
    rel_res = residual / rhs_norm if rhs_norm > 0 else residual
    if rhs_norm > 0 and rel_res > 1e-8:
        raise ConvergenceError(
            f"linearized {mode} solve stagnated at relative residual {rel_res:.3e}",
            residual=rel_res,
        )

    # translation (adjoint-kernel) contamination must be at roundoff level
    first = e.expand(first_q)
    s_x = g.irfft2(1j * g.kx[:, None] * g.rfft2(ground.S.values))
    norm_first = l2_norm_values(first, g)
    if norm_first > 0:
        overlap = abs(np.sum(first * s_x)) * g.cell_area
        denom = norm_first * l2_norm_values(s_x, g)
        if denom > 0 and overlap / denom > 1e-8:
            raise SymmetryViolationError(
                f"linearized {mode} solution has odd-kernel overlap {overlap / denom:.3e}"
            )

    second = 2.0 * e.irfft2(e_xx * e.rfft2(S * first_q))
    if mode == "HZ":
        second = second + e_lap_f

    return LinearizedSolution(
        first=Field(g, first),
        second=Field(g, e.expand(second)),
        mode=mode,
        residual=float(rel_res),
        inner_with_S=float(e.sum(S * first_q) * g.cell_area),
        info=int(info),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# reduced scale ODE
# ---------------------------------------------------------------------------

def reduced_first_integral(constants: ModulationConstants, alpha: float, L: float,
                           L_t: float) -> float:
    """Q = L_t^2 + (C2 a^2/(2 C1)) L^-4 - (C3/C1) L^-2, conserved by the ODE."""
    c2a = constants.C2 * alpha**2 / (2.0 * constants.C1)
    return L_t**2 + c2a / L**4 - (constants.C3 / constants.C1) / L**2


def integrate_reduced(
    constants: ModulationConstants,
    alpha: float,
    L0: float,
    Lt0: float,
    t_end: float,
    t_eval=None,
) -> ReducedTrajectory:
    """Integrate the boundary-case scale ODE.

    For alpha = 0 the run stops at collapse (L below 1e-6 L0); for
    alpha > 0 it runs to t_end and reports the observed minimum of L
    (refined at the turning points where L_t = 0).  Conservation of the
    first integral Q is tracked relative to the largest of its terms at
    each sample (near collapse the terms grow like L^-2 and cancel, so a
    fixed scale would only measure f64 cancellation noise).  t_eval
    requests samples at given times instead of the solver's own steps.
    """
    if L0 <= 0 or t_end <= 0:
        raise ParameterError(f"L0 and t_end must be positive, got {L0}, {t_end}")
    c1, c2, c3 = constants.C1, constants.C2, constants.C3
    k5 = c2 * alpha**2 / c1
    k3 = c3 / c1
    floor = 1e-6 * L0

    def rhs(t, y):
        L, Lt, _ = y
        return (Lt, k5 / L**5 - k3 / L**3, 1.0 / L**2)

    def collapse_event(t, y):
        return y[0] - floor

    collapse_event.terminal = True
    collapse_event.direction = -1

    def turning_event(t, y):
        return y[1]

    turning_event.terminal = False

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        (L0, Lt0, 0.0),
        method="DOP853",
        rtol=1e-12,
        atol=(1e-14 * L0, 1e-14 * max(abs(Lt0), 1.0), 1e-14),
        events=(collapse_event, turning_event),
        t_eval=t_eval,
        dense_output=False,
    )
    if sol.status < 0:
        raise ConvergenceError(f"reduced ODE integration failed: {sol.message}")

    ts, ys = sol.t, sol.y
    if np.any(ys[0] <= 0):
        raise ConvergenceError("reduced ODE reached L <= 0 (step-size failure)")

    # thin to at most MAX_SAMPLES, always keeping the endpoints
    idx = np.arange(len(ts))
    if t_eval is None and len(ts) > MAX_SAMPLES:
        idx = np.unique(np.linspace(0, len(ts) - 1, MAX_SAMPLES).astype(int))

    q0 = reduced_first_integral(constants, alpha, L0, Lt0)
    states = []
    q_drift = 0.0
    for i in idx:
        L, Lt, tau = ys[0][i], ys[1][i], ys[2][i]
        eps = (alpha / L) ** 2
        states.append(
            ReducedState(t=ts[i], L=L, L_t=Lt, tau=tau, b=(c3 - c2 * eps) / c1, eps=eps)
        )
        qscale = max(abs(q0), Lt**2, abs(k5) / L**4, abs(k3) / L**2, 1e-300)
        q_drift = max(
            q_drift, abs(reduced_first_integral(constants, alpha, L, Lt) - q0) / qscale
        )

    l_min = float(np.min(ys[0]))
    turn = sol.y_events[1]
    if len(turn):
        l_min = min(l_min, float(np.min(turn[:, 0])))
    collapsed = len(sol.t_events[0]) > 0
    return ReducedTrajectory(states=states, l_min=l_min, collapsed=collapsed, q_drift=q_drift)


# ---------------------------------------------------------------------------
# collapse-law fitting
# ---------------------------------------------------------------------------

@dataclass
class CollapseFit:
    t_star: float
    exponent: float
    tau: np.ndarray
    b: np.ndarray
    fit_rms: float = 0.0


def _power_fit(t, L):
    """Fit log L = p log(t* - t) + c with t* a free parameter."""
    t_last = t[-1]
    span = t_last - t[0]

    def sse(dt_star):
        x = np.log(t_last + dt_star - t)
        y = np.log(L)
        A = np.vstack([x, np.ones_like(x)]).T
        coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
        if res.size:
            return float(res[0])
        return float(np.sum((A @ coef - y) ** 2))

    opt = minimize_scalar(
        sse, bounds=(1e-14 * max(span, 1.0), 2.0 * span), method="bounded",
        options={"xatol": 1e-15 * max(span, 1.0)},
    )
    dt_star = float(opt.x)
    x = np.log(t_last + dt_star - t)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, _, _, _ = np.linalg.lstsq(A, np.log(L), rcond=None)
    rms = float(np.sqrt(np.mean((A @ coef - np.log(L)) ** 2)))
    return t_last + dt_star, float(coef[0]), rms


def _smoothed_second_derivative(t, L):
    """Second derivative by local 5-point quadratic fits (non-uniform t)."""
    n = len(t)
    out = np.empty(n)
    for i in range(n):
        lo = max(0, min(i - 2, n - 5))
        sl = slice(lo, lo + 5)
        ts = t[sl] - t[i]
        c = np.polyfit(ts, L[sl], 2)
        out[i] = 2.0 * c[0]
    return out


def collapse_fit(records, min_records: int = 50) -> CollapseFit:
    """Fit t* and the power-law exponent of the focusing scale.

    Uses the maximal strictly-decreasing tail of the L_est column as the
    focusing window; raw second differences of a measured L are unusable,
    so b = -L^3 L_tt comes from a 5-point smoothed second derivative.
    """
    t = np.array([r.t for r in records], dtype=float)
    L = np.array([r.L_est for r in records], dtype=float)
    keep = np.isfinite(L) & (L > 0)
    t, L = t[keep], L[keep]

    # maximal strictly decreasing suffix
    i = len(L) - 1
    while i > 0 and L[i - 1] > L[i]:
        i -= 1
    t_w, L_w = t[i:], L[i:]
    if len(L_w) < min_records:
        raise InsufficientDataError(
            f"only {len(L_w)} records in the focusing window, need >= {min_records}"
        )

    t_star, exponent, rms = _power_fit(t_w, L_w)

    tau = np.concatenate([[0.0], np.cumsum(np.diff(t_w) * 0.5 * (L_w[1:] ** -2 + L_w[:-1] ** -2))])
    L_tt = _smoothed_second_derivative(t_w, L_w)
    b = -(L_w**3) * L_tt
    return CollapseFit(t_star=t_star, exponent=exponent, tau=tau, b=b, fit_rms=rms)
