"""Reduced focusing dynamics: linearized profile corrections, the constants
they define, the boundary-case scale ODE, and collapse-law fitting.

The linearized systems share one self-adjoint operator.  With S the ground
profile, X = E(S^2) and A(g) = Lap g - g + 3 beta S^2 g - rho X g
- 2 rho S E(S g), the second unknown is eliminated through the Poisson
multiplier and the two solves become

    GY:  A(G) = -(1/4)|xi|^2 S,                    Y = 2 E(S G)
    HZ:  A(H) = -beta S Lap(S^2) + rho S Lap(X)
                + rho S E(Lap(S^2)),               Z = 2 E(S H) + E(Lap(S^2))

Both are solved by preconditioned MINRES (minres below) restricted to
fields even in each variable; the adjoint kernel of the full block system
is spanned by odd (translation) modes, so the symmetry restriction enforces
solvability orthogonality without constructing antiderivative fields.  The
restriction is structural: S is even about index 0 bit for bit (a
GroundState that is not raises SymmetryViolationError), so the operator,
the preconditioner and the right-hand sides run on the grid's EvenGrid
quarter with DCT-I transforms.  MINRES takes its inner products as the
quarter's weighted sum, which is the full grid's, and the (1 - Lap)^{-1}
preconditioner is split between the two sides of the operator, so MINRES
runs on a system symmetric in that inner product in a rescaled spectral
unknown, makes the full-grid iterates of the preconditioned system, and
costs 4 transforms per iteration.  Its reductions are numpy's pairwise sums
on one thread, so the corrections do not depend on the BLAS or FFT thread
counts.  Evenness is checked on the inputs only: the corrections are
expanded from the quarter to full-grid Fields, mirror images about index 0
bit for bit, so they have no odd (translation) component to check.

The reduced scale dynamics integrates the saturated (equality) form of the
modulation inequality,

    L_tt = (C2 alpha^2 / C1) L^{-5} - (C3 / C1) L^{-3},

which conserves Q = L_t^2 + (C2 alpha^2 / (2 C1)) L^{-4} - (C3/C1) L^{-2}
and therefore keeps L away from zero for alpha > 0.  Its integrator,
solve_ivp, is imported on first use: the package imports only scipy.fft.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    ConvergenceError,
    InsufficientDataError,
    ParameterError,
    SymmetryViolationError,
)
from .fields import Field
from .grid import is_even
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
        try:  # ** raises OverflowError where a square leaves the float range
            b, eps = ((L0 * Lt0) ** 2 if b0 is None else b0), (alpha / L0) ** 2
        except OverflowError:
            b = eps = math.inf
        if not (math.isfinite(b) and math.isfinite(eps)):
            raise ParameterError(f"b or eps is not finite for L0={L0}, Lt0={Lt0}, alpha={alpha}")
        return cls(t=0.0, L=L0, L_t=Lt0, tau=0.0, b=b, eps=eps)


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

def _even_quarters(ground):
    """The EvenGrid quarters of S and X, which must be even about index 0 in
    x and in y: S bit for bit, X to the roundoff of the transforms from S."""
    e = ground.grid.even
    S, X = ground.S.values, ground.X.values
    if not is_even(S):
        raise SymmetryViolationError("ground-state S is not even about index 0")
    X_q = e.restrict(X)
    if np.max(np.abs(e.expand(X_q) - X)) > 1e-12 * np.max(np.abs(X)):
        raise SymmetryViolationError("ground-state X is not even about index 0")
    return e.restrict(S), X_q


def minres(A, b, rtol=1e-12, maxiter=1000, callback=None, inner=lambda u, v: np.sum(u * v)):
    """MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12, 1975) for A x = b
    from x = 0, with A a callable applying an operator symmetric in the inner
    product inner(u, v).  Stops, with info 0, where the recurrences' estimates
    give ||r|| <= rtol ||A|| ||x|| or ||A r|| <= rtol ||A|| ||r||, x is at
    roundoff or A's condition estimate exceeds 0.1/eps; at maxiter iterations
    it returns info = maxiter.  callback(x) follows each iteration; x is
    updated in place.  Returns (x, info)."""
    eps = np.finfo(float).eps
    x, w, w2 = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)
    beta1 = beta = phibar = math.sqrt(inner(b, b))
    if beta1 == 0:
        return x, 0
    r1 = r2 = y = b
    oldb = dbar = epsln = tnorm2 = gmax = sn = 0.0
    cs, gmin = -1.0, math.inf
    for _ in range(maxiter):
        v = y / beta
        y = A(v)
        if oldb:
            y = y - (beta / oldb) * r1
        alfa = inner(v, y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        oldb, beta = beta, math.sqrt(inner(y, y))
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # the plane rotation that eliminates beta from the tridiagonal's column
        oldeps, delta = epsln, cs * dbar + sn * alfa
        gbar, epsln, dbar = sn * dbar - cs * alfa, sn * beta, -cs * beta
        root, gamma = math.hypot(gbar, dbar), max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w, w2 = (v - oldeps * w2 - delta * w) / gamma, w
        x += phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm, xnorm = math.sqrt(tnorm2), math.sqrt(inner(x, x))
        if callback is not None:
            callback(x)
        if (phibar <= rtol * anorm * xnorm or root <= rtol * anorm
                or anorm * xnorm * eps >= beta1 or gmax >= 0.1 / eps * gmin):
            return x, 0
    return x, maxiter


def solve_linearized(ground: GroundState, spec: ModelSpec, mode: str) -> LinearizedSolution:
    """Solve the GY or HZ correction system on the even quarter grid by
    MINRES with the (1 - Lap)^{-1} preconditioner split between the sides of
    the operator: 4 DCT-I per iteration, none for a preconditioner step."""
    if mode not in ("GY", "HZ"):
        raise ParameterError(f"mode must be 'GY' or 'HZ', got {mode!r}")
    S, X = _even_quarters(ground)
    g = ground.grid
    e = g.even
    beta, rho, nu = ground.beta, ground.rho, ground.nu
    e_xx = e.real_symbol("e", nu, "xx")
    inv = e.real_symbol("helmholtz", 1.0)  # (1 - Lap)^{-1}
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

    def apply_c(u):
        """A(u) without its -(1 - Lap) u part: the potential and the nonlocal term."""
        return coeff * u - 2.0 * rho * S * e.irfft2(e_xx * e.rfft2(S * u))

    def apply_a(u):
        return e.irfft2(-e.k2 * e.rfft2(u)) - u + apply_c(u)

    # Split preconditioning.  With T the quarter's DCT-I (T = T^{-1}, unitary
    # in the w-weighted inner product e.sum(a * b), which is the full grid's
    # Euclidean one) and b = inv, u = T[sqrt(b) z] turns A u = rhs into
    # K z = sqrt(b) T[rhs] with K z = -z + sqrt(b) T[C u], C = apply_c.  K is
    # symmetric in that inner product, and MINRES on it makes the iterates of
    # A preconditioned by B.  B cancels A's -(1 - Lap) into -z, so an
    # iteration makes 4 transforms: u from z, the two of C's nonlocal term,
    # and T[C u].
    root_b = np.sqrt(inv)

    def to_u(z):
        return e.irfft2(root_b * z)

    steps = []
    sol, info = minres(lambda z: root_b * e.rfft2(apply_c(to_u(z))) - z, root_b * e.rfft2(rhs),
                       rtol=1e-12, maxiter=40 * int(math.isqrt(g.nx * g.ny)) + 20000,
                       callback=steps.append, inner=lambda u, v: e.sum(u * v))
    first_q = to_u(sol)

    residual = l2_norm_values(apply_a(first_q) - rhs, e)
    rel_res = residual / rhs_norm if rhs_norm > 0 else residual
    if rhs_norm > 0 and rel_res > 1e-8:
        raise ConvergenceError(
            f"linearized {mode} solve stagnated at relative residual {rel_res:.3e}",
            residual=rel_res,
        )

    second = 2.0 * e.irfft2(e_xx * e.rfft2(S * first_q))
    if mode == "HZ":
        second = second + e_lap_f

    return LinearizedSolution(
        first=Field(g, e.expand(first_q)),
        second=Field(g, e.expand(second)),
        mode=mode,
        residual=float(rel_res),
        inner_with_S=float(e.sum(S * first_q) * g.cell_area),
        info=int(info),
        iterations=len(steps),
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
    from scipy.integrate import solve_ivp

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

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        (L0, Lt0, 0.0),
        method="DOP853",
        rtol=1e-12,
        atol=(1e-14 * L0, 1e-14 * max(abs(Lt0), 1.0), 1e-14),
        events=(collapse_event, turning_event),
        t_eval=t_eval,
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


def _golden_section(f, a, b, xatol):
    """A local minimizer of f on [a, b] to within xatol, by golden-section
    search (Kiefer, Proc. AMS 4, 1953): each step keeps the sub-bracket
    around the lower of its two interior points and reuses that point."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xatol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return c if fc <= fd else d


def _power_fit(t, L):
    """Fit log L = p log(t* - t) + c with t* a free parameter."""
    t_last, y = t[-1], np.log(L)
    span = t_last - t[0]

    def line(dt_star):
        """The least-squares (p, c) at t* = t_last + dt_star, and its rms misfit."""
        A = np.vstack([np.log(t_last + dt_star - t), np.ones_like(t)]).T
        coef = np.linalg.lstsq(A, y, rcond=None)[0]
        return coef, float(np.sqrt(np.mean((A @ coef - y) ** 2)))

    scale = max(span, 1.0)
    dt_star = _golden_section(lambda d: line(d)[1], 1e-14 * scale, 2.0 * span, 1e-15 * scale)
    coef, rms = line(dt_star)
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
