from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, minres

from dsalpha import (
    Grid2D,
    InsufficientDataError,
    ModelKind,
    ModelSpec,
    ModulationConstants,
    ParameterError,
    ReducedState,
    SymmetryViolationError,
    collapse_fit,
    compute_constants,
    integrate_reduced,
    reduced_first_integral,
    solve_ground_state,
    solve_linearized,
)
import dsalpha.modulation as modulation
from dsalpha.ground_state import GroundState
from dsalpha.fields import Field
from dsalpha.spectral import fft2, ifft2
from dsalpha.stepping import DiagnosticsRecord
from conftest import count_transforms
from oracles import even_part, meshes


def synthetic_gaussian_ground(grid):
    """Not a true steady profile; exercises the quadrature paths only."""
    S = np.exp(-grid.r2 / 2.0)
    X = ifft2(grid.e_symbol(1.0, "xx") * fft2(S * S)).real
    f = S * S
    da = grid.cell_area
    grad_f_sq = float(np.sum(grid.k2 * np.abs(fft2(f)) ** 2) * da)
    return GroundState(
        S=Field(grid, S),
        X=Field(grid, X),
        lam=1.0,
        residual=0.0,
        mass=float(np.sum(f) * da),
        grad_S2_sq=grad_f_sq,
        second_moment=float(np.sum(grid.r2 * f) * da),
        beta=1.0,
        rho=-1.0,
        nu=1.0,
    )


class TestComputeConstants:
    @pytest.fixture(scope="class")
    def synth(self):
        return synthetic_gaussian_ground(Grid2D(256, 256, 32.0, 32.0))

    def test_gaussian_second_moment(self, synth):
        # int |xi|^2 exp(-|xi|^2) = pi, so C1 = pi/16
        spec = ModelSpec(ModelKind.RDS1, 1.0, 1.0, 1.0, 0.1)
        c = compute_constants(synth, spec, ReducedState.initial(1.0, -1.0, 0.1))
        assert c.C1 == pytest.approx(np.pi / 16, rel=1e-10)

    def test_gaussian_rds1_c2(self, synth):
        # int |grad exp(-|xi|^2)|^2 = pi and the RDS1 coefficient is beta/4
        spec = ModelSpec(ModelKind.RDS1, 1.0, 1.0, 1.0, 0.1)
        c = compute_constants(synth, spec, ReducedState.initial(1.0, -1.0, 0.1))
        assert c.C2 == pytest.approx(np.pi / 4, rel=1e-10)

    def test_gaussian_rds3_c2(self, synth):
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        c = compute_constants(synth, spec, ReducedState.initial(1.0, -1.0, 0.1))
        assert c.C2 == pytest.approx(np.pi / 2, rel=1e-10)

    def test_c3_c4_assembly(self, synth):
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.2)
        r0 = ReducedState.initial(L0=2.0, Lt0=-0.5, alpha=0.2, b0=0.7)
        c = compute_constants(synth, spec, r0)
        assert c.C3 == pytest.approx(c.C1 * 0.7 + c.C2 * 0.01, rel=1e-12)
        want_c4 = 0.25 + (c.C2 * 0.04 / (2 * c.C1)) / 16 - (c.C3 / c.C1) / 4
        assert c.C4 == pytest.approx(want_c4, rel=1e-12)

    def test_dse_rejected(self, synth):
        spec = ModelSpec(ModelKind.DSE, 1.0, -1.0, 1.0)
        with pytest.raises(ParameterError):
            compute_constants(synth, spec, ReducedState.initial(1.0, -1.0, 0.0))

    def test_negative_c2_regime_rejected(self, synth):
        spec = ModelSpec(ModelKind.RDS1, -1.0, 1.0, 1.0, 0.1)  # beta < 0
        with pytest.raises(ParameterError):
            compute_constants(synth, spec, ReducedState.initial(1.0, -1.0, 0.1))


class TestSolveLinearized:
    def test_gy_scaling_identity_cubic_limit(self, townes):
        # at rho = 0 the profile has no mean-flow tail, so the discrete solve
        # reproduces the continuum identity int(S G) = (1/8) int |xi|^2 S^2
        # essentially to solver precision
        spec = ModelSpec(ModelKind.RDS1, 1.0, 0.0, 1.0, 0.1)
        sol = solve_linearized(townes, spec, "GY")
        assert sol.residual < 1e-8
        assert sol.inner_with_S == pytest.approx(townes.second_moment / 8.0, rel=1e-8)

    def test_gy_scaling_identity_coupled(self, coupled_ground):
        # the coupled mean flow decays only algebraically (~ |xi|^-2), so box
        # truncation limits the agreement to O(box^-2) ~ 2e-3 at box 48
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        sol = solve_linearized(coupled_ground, spec, "GY")
        assert sol.residual < 1e-8
        assert sol.inner_with_S == pytest.approx(coupled_ground.second_moment / 8.0, rel=3e-3)

    def test_hz_exact_identity_coupled(self, coupled_ground):
        # pairing the correction system against the scaling mode gives
        # 2 int(S H) = beta int |grad S^2|^2 + 2 rho int S^2 Lap X exactly in
        # the continuum; the same box tail bounds the discrete agreement
        gs = coupled_ground
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        sol = solve_linearized(gs, spec, "HZ")
        assert sol.residual < 1e-8
        g = gs.grid
        lap_x = ifft2(-g.k2 * fft2(gs.X.values)).real
        f = gs.S.values**2
        exact = 0.5 * gs.beta * gs.grad_S2_sq + gs.rho * float(np.sum(f * lap_x) * g.cell_area)
        assert sol.inner_with_S == pytest.approx(exact, rel=3e-3)

    def test_gy_and_hz_inherit_same_truncation_error(self, coupled_ground):
        # both identities are continuum statements; their discrete deviations
        # come from the same slowly decaying tail and agree to ~1e-4
        gs = coupled_ground
        spec = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        gy = solve_linearized(gs, spec, "GY")
        hz = solve_linearized(gs, spec, "HZ")
        dev_gy = gy.inner_with_S / (gs.second_moment / 8.0)
        g = gs.grid
        lap_x = ifft2(-g.k2 * fft2(gs.X.values)).real
        f = gs.S.values**2
        exact = 0.5 * gs.beta * gs.grad_S2_sq + gs.rho * float(np.sum(f * lap_x) * g.cell_area)
        dev_hz = hz.inner_with_S / exact
        assert dev_gy == pytest.approx(dev_hz, abs=2e-4)

    def test_solutions_even_in_both_variables(self, townes):
        spec = ModelSpec(ModelKind.RDS1, 1.0, 0.0, 1.0, 0.1)
        sol = solve_linearized(townes, spec, "GY")
        G = sol.first.values
        assert np.max(np.abs(G - np.roll(G[::-1, :], 1, axis=0))) < 1e-10 * np.max(np.abs(G))
        assert np.max(np.abs(G - np.roll(G[:, ::-1], 1, axis=1))) < 1e-10 * np.max(np.abs(G))

    def test_second_component_consistency(self, townes):
        # Y must satisfy the discrete anisotropic-Poisson relation
        spec = ModelSpec(ModelKind.RDS1, 1.0, 0.0, 1.0, 0.1)
        sol = solve_linearized(townes, spec, "GY")
        g = townes.grid
        _, _, kxg, kyg = meshes(g)
        lhs = -(kxg**2 + kyg**2 * 1.0) * fft2(sol.second.values)
        rhs = -2.0 * kxg**2 * fft2(townes.S.values * sol.first.values)
        scale = np.max(np.abs(rhs)) or 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale

    @pytest.mark.parametrize("mode", ["GY", "HZ"])
    def test_minres_status_carried(self, townes, mode):
        sol = solve_linearized(townes, ModelSpec(ModelKind.RDS1, 1.0, 0.0, 1.0, 0.1), mode)
        assert sol.info == 0
        assert sol.iterations > 0

    def test_unknown_mode_rejected(self, townes):
        with pytest.raises(ParameterError):
            solve_linearized(townes, ModelSpec(ModelKind.RDS1, 1.0, 0.0, 1.0, 0.1), "QQ")


def full_grid_minres(ground, mode):
    """The linearized solve on the full grid's real layout, projected onto
    the even subspace: the quarter-grid solve's reference.  Returns the
    correction pair, the relative residual and the MINRES iterations."""
    g = ground.grid
    S, X = ground.S.values, ground.X.values
    beta, rho = ground.beta, ground.rho
    e_xx, k2 = g.real_symbol("e", ground.nu, "xx"), g.real_symbol("k2")
    inv = g.real_symbol("helmholtz", 1.0)
    if mode == "GY":
        rhs = -0.25 * g.r2 * S
    else:
        lap_fh = -k2 * g.rfft2(S * S)
        e_lap_f = g.irfft2(e_xx * lap_fh)
        lap_X = g.irfft2(-k2 * g.rfft2(X))
        rhs = -beta * S * g.irfft2(lap_fh) + rho * S * lap_X + rho * S * e_lap_f
    rhs = even_part(rhs)

    def apply_a(u):
        u = u.reshape(g.shape)
        nonloc = S * g.irfft2(e_xx * g.rfft2(S * u))
        return (g.irfft2(-k2 * g.rfft2(u)) - u + (3.0 * beta * S * S - rho * X) * u
                - 2.0 * rho * nonloc).ravel()

    n = g.nx * g.ny
    A = LinearOperator((n, n), matvec=apply_a, dtype=np.float64)
    P = LinearOperator((n, n), matvec=lambda u: g.irfft2(inv * g.rfft2(u.reshape(g.shape))).ravel(),
                       dtype=np.float64)
    iterations = []
    sol, info = minres(A, rhs.ravel(), M=P, rtol=1e-12, maxiter=20000,
                       callback=iterations.append)
    assert info == 0
    first = even_part(sol.reshape(g.shape))
    second = 2.0 * g.irfft2(e_xx * g.rfft2(S * first)) + (e_lap_f if mode == "HZ" else 0.0)
    rel_res = np.linalg.norm(apply_a(first) - rhs.ravel()) / np.linalg.norm(rhs)
    return first, second, rel_res, len(iterations)


def symmetric_indefinite(rng, n=40):
    """A dense symmetric matrix with eigenvalues of both signs, and a b."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.concatenate([-np.geomspace(0.5, 5.0, n // 2), np.geomspace(0.2, 3.0, n - n // 2)])
    return (q * eig) @ q.T, rng.standard_normal(n)


class TestMinres:
    def test_matches_dense_solve(self, rng):
        M, b = symmetric_indefinite(rng)
        steps = []
        x, info = modulation.minres(lambda v: M @ v, b, rtol=1e-12, maxiter=200,
                                    callback=steps.append)
        want = np.linalg.solve(M, b)
        # past n = 40 iterations: the Lanczos vectors lose orthogonality
        assert info == 0 and 0 < len(steps) < 200
        assert np.max(np.abs(x - want)) < 1e-9 * np.max(np.abs(want))

    def test_weighted_inner_product(self, rng):
        # W^{-1} M is symmetric in <a, c> = sum(w a c), not in the plain sum
        M, b = symmetric_indefinite(rng)
        w = rng.uniform(0.5, 2.0, b.size)
        x, info = modulation.minres(lambda v: (M @ v) / w, b / w, rtol=1e-12, maxiter=200,
                                    inner=lambda a, c: np.sum(w * a * c))
        want = np.linalg.solve(M, b)
        assert info == 0
        assert np.max(np.abs(x - want)) < 1e-9 * np.max(np.abs(want))

    def test_iteration_limit_sets_info(self, rng):
        M, b = symmetric_indefinite(rng)
        steps = []
        x, info = modulation.minres(lambda v: M @ v, b, maxiter=5, callback=steps.append)
        assert info == 5 and len(steps) == 5
        assert np.linalg.norm(M @ x - b) > 1e-6 * np.linalg.norm(b)

    def test_zero_right_hand_side(self):
        x, info = modulation.minres(lambda v: 2.0 * v, np.zeros(7))
        assert info == 0 and not x.any()


class TestQuarterGridSolve:
    SPEC = ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)

    @pytest.fixture(scope="class")
    def ground(self, grid_medium):
        return solve_ground_state(grid_medium, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("mode", ["GY", "HZ"])
    def test_matches_full_grid_minres(self, ground, mode):
        # the Krylov space of an even right-hand side is even, so the
        # split-preconditioned quarter-grid MINRES makes the full-grid
        # iterates; its stopping test sees them in other variables, so it
        # may stop one iteration apart
        sol = solve_linearized(ground, self.SPEC, mode)
        first, second, rel_res, iterations = full_grid_minres(ground, mode)
        assert abs(sol.iterations - iterations) <= 1
        assert sol.residual < 1e-8 and rel_res < 1e-8
        for got, want in ((sol.first.values, first), (sol.second.values, second)):
            assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("mode", ["GY", "HZ"])
    def test_makes_only_dcts(self, ground, mode, monkeypatch):
        names = count_transforms(monkeypatch)
        solve_linearized(ground, self.SPEC, mode)
        assert set(names) == {"dctn"}

    @pytest.mark.parametrize("mode", ["GY", "HZ"])
    def test_corrections_are_mirror_exact(self, ground, mode):
        # both corrections equal their mirror image about index 0 in x and
        # in y bit for bit, as S does, so their overlap with the odd
        # translation mode dS/dx is a sum of pairs that cancel
        sol = solve_linearized(ground, self.SPEC, mode)
        g = ground.grid
        for w in (sol.first.values, sol.second.values):
            assert np.array_equal(w[1:], w[:0:-1]) and np.array_equal(w[:, 1:], w[:, :0:-1])
        s_x = ifft2(1j * g.kx[:, None] * fft2(ground.S.values)).real
        first = sol.first.values
        overlap = abs(np.sum(first * s_x)) / (np.linalg.norm(first) * np.linalg.norm(s_x))
        assert overlap < 1e-14

    @pytest.mark.parametrize("mode, fixed", [
        # T[rhs] and u from z (2), the residual check's A(u) (4) and the second
        # component (2); HZ's right-hand side adds Lap(S^2), E(Lap S^2) and
        # Lap X (5)
        ("GY", 8), ("HZ", 13),
    ])
    def test_minres_iteration_makes_four_transforms(self, ground, mode, fixed, monkeypatch):
        # u from z, S u, E(S u) and T[C u]: the (1 - Lap)^{-1} preconditioner
        # is folded into the operator and costs no transform of its own
        names = count_transforms(monkeypatch)
        sol = solve_linearized(ground, self.SPEC, mode)
        assert sol.iterations > 0
        assert names.count("dctn") == 4 * sol.iterations + fixed

    @pytest.mark.parametrize("name", ["S", "X"])
    def test_ground_state_not_even_raises(self, ground, name):
        # a one-cell shift moves the profile's centre off index 0
        shifted = Field(ground.grid, np.roll(getattr(ground, name).values, 1, axis=0))
        with pytest.raises(SymmetryViolationError, match=f"{name} is not even"):
            solve_linearized(replace(ground, **{name: shifted}), self.SPEC, "GY")


class TestIntegrateReduced:
    CONSTANTS = ModulationConstants(C1=1.0, C2=2.0, C3=1.0, C4=0.0, S_mass=11.7)

    @pytest.mark.parametrize("L0, Lt0, t_star, tau_exact", [
        # u = 1 - 2t: a fall from the start, t* = 1/2
        (1.0, -1.0, 0.5, lambda t: -0.5 * np.log1p(-2.0 * t)),
        # u = (21/16)(16/15 - t)(t + 16/35): a rise to the turning point at
        # t = 32/105, then the fall to t* = 16/15
        (0.8, 0.5, 16 / 15,
         lambda t: 0.5 * np.log((16 / 15) * (t + 16 / 35) / ((16 / 15 - t) * (16 / 35)))),
    ])
    def test_exact_collapse_solution(self, L0, Lt0, t_star, tau_exact):
        # alpha=0, C1=C3=1: u = L^2 solves u_tt = 2Q, so u = L0^2 + 2 L0 Lt0 t
        # + Q t^2 with Q = Lt0^2 - 1/L0^2, and tau = int_0^t ds/u(s)
        traj = integrate_reduced(self.CONSTANTS, 0.0, L0, Lt0, 10.0)
        assert traj.collapsed
        t, L = traj.t, traj.L
        tau = np.array([s.tau for s in traj.states])
        u = L0**2 + 2.0 * L0 * Lt0 * t + (Lt0**2 - L0**-2) * t**2
        mask = L > 1e-3
        assert np.max(np.abs(L[mask] - np.sqrt(u[mask]))) < 1e-8
        # tau's error is L's relative error, which grows like 1/L near t*
        mask = L > 1e-2
        assert np.max(np.abs(tau[mask] - tau_exact(t[mask]))) < 1e-8
        assert traj.t[-1] == pytest.approx(t_star, abs=1e-9)
        # the trajectory ends at the located crossing of 1e-6 L0
        assert traj.l_min == traj.L[-1] <= 1e-6 * L0

    def test_alpha_bounce_l_min(self):
        # worked example: L_min = 0.1000 within 1e-4; the sharp value is the
        # root of the conserved first integral
        traj = integrate_reduced(self.CONSTANTS, 0.1, 1.0, -1.0, 2.0)
        assert not traj.collapsed
        assert abs(traj.l_min - 0.1) < 1e-4
        from scipy.optimize import brentq

        q = reduced_first_integral(self.CONSTANTS, 0.1, 1.0, -1.0)
        w = brentq(lambda u: 0.01 * u**2 - u - q, 1.0, 1e8)
        assert traj.l_min == pytest.approx(w**-0.5, abs=1e-8)

    def test_decreases_from_rest(self):
        traj = integrate_reduced(self.CONSTANTS, 0.0, 1.0, 0.0, 0.05)
        assert traj.L[-1] < 1.0

    def test_q_conservation(self):
        for alpha in (0.0, 0.1):
            traj = integrate_reduced(self.CONSTANTS, alpha, 1.0, -1.0, 2.0)
            assert traj.q_drift < 1e-8

    def test_positivity_bound(self):
        # quantified no-collapse statement: L_min >= alpha sqrt(C2/(2 C3)) (1 - 5%)
        for alpha in (0.05, 0.1, 0.2, 0.4):
            traj = integrate_reduced(self.CONSTANTS, alpha, 1.0, -1.0, 3.0)
            assert traj.l_min >= alpha * np.sqrt(2.0 / 2.0) * 0.95

    def test_l_min_scaling_slope(self):
        alphas = np.array([0.05, 0.1, 0.2, 0.4])
        lmins = [integrate_reduced(self.CONSTANTS, a, 1.0, -1.0, 3.0).l_min for a in alphas]
        slope = np.polyfit(np.log(alphas), np.log(lmins), 1)[0]
        assert abs(slope - 1.0) < 0.05

    def test_b_consistency_along_trajectory(self):
        # a_tau + a^2 from finite differences in tau matches the ODE-side
        # b = -L^3 L_tt; normalized against the local magnitude since b has
        # an isolated zero crossing on bounce trajectories
        te = np.linspace(0.0, 2.0, 20001)
        traj = integrate_reduced(self.CONSTANTS, 0.1, 1.0, -1.0, 2.0, t_eval=te)
        L = traj.L
        Lt = np.array([s.L_t for s in traj.states])
        tau = np.array([s.tau for s in traj.states])
        b = np.array([s.b for s in traj.states])
        a = -Lt * L
        a_tau = np.gradient(a, tau)
        resid = np.abs(a_tau + a * a - b)
        scale = np.maximum(np.abs(b), np.abs(a_tau) + a * a)
        rel = resid[5:-5] / scale[5:-5]
        assert np.max(rel) < 1e-4

    def test_invalid_l0(self):
        with pytest.raises(ParameterError):
            integrate_reduced(self.CONSTANTS, 0.1, -1.0, -1.0, 1.0)

    def test_long_run_thinned_to_max_samples(self, monkeypatch):
        # a bounded oscillation over 100 time units takes about 33000
        # accepted steps; at most MAX_SAMPLES of them are kept, both
        # endpoints among them
        traj = integrate_reduced(self.CONSTANTS, 0.1, 1.0, -0.5, 100.0)
        with monkeypatch.context() as m:
            m.setattr(modulation, "MAX_SAMPLES", 10**9)  # every accepted step
            steps = integrate_reduced(self.CONSTANTS, 0.1, 1.0, -0.5, 100.0).t
        assert len(steps) > modulation.MAX_SAMPLES == len(traj.states) == 4000
        assert traj.t[0] == 0.0 and traj.t[-1] == steps[-1] == 100.0
        assert np.all(np.diff(traj.t) > 0) and set(traj.t) <= set(steps)

    @pytest.mark.parametrize("t_eval", [[-0.1, 1.0], [0.0, 2.5], [0.5, 0.5], [1.0, 0.5],
                                        [0.5, np.nan], [], [[0.5]]])
    def test_bad_t_eval_rejected(self, t_eval):
        # outside [0, t_end], not increasing, empty or not one-dimensional
        with pytest.raises(ParameterError, match="t_eval"):
            integrate_reduced(self.CONSTANTS, 0.1, 1.0, -1.0, 2.0, t_eval=t_eval)

    def test_t_eval_stops_at_collapse(self):
        # samples come from the continuous extension, up to the collapse at t* = 1/2
        traj = integrate_reduced(self.CONSTANTS, 0.0, 1.0, -1.0, 1.0,
                                 t_eval=[0.0, 0.25, 0.5, 0.75])
        assert traj.collapsed and list(traj.t) == [0.0, 0.25]
        assert traj.L[1] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_nonpositive_horizon_rejected(self, t_end):
        # a negative horizon would integrate the scale ODE backwards in time
        with pytest.raises(ParameterError, match="t_end"):
            integrate_reduced(self.CONSTANTS, 0.1, 1.0, -1.0, t_end)


def _records_from_law(ts, t_star, power):
    L = (t_star - ts) ** power
    return [
        DiagnosticsRecord(t=float(t), dt=1e-3, mass=1.0, hamiltonian=0.0,
                          grad_norm=1.0 / float(l), max_amp=1.0, L_est=float(l))
        for t, l in zip(ts, L)
    ]


def bounded_power_fit(t, L):
    """t* and p of log L = p log(t* - t) + c by scipy's bounded scalar
    minimizer (Brent) over the same bracket and xatol as collapse_fit."""
    from scipy.optimize import minimize_scalar

    span, scale = t[-1] - t[0], max(t[-1] - t[0], 1.0)

    def line(dt_star):
        A = np.vstack([np.log(t[-1] + dt_star - t), np.ones_like(t)]).T
        coef, res, _, _ = np.linalg.lstsq(A, np.log(L), rcond=None)
        return coef[0], float(res[0])

    opt = minimize_scalar(lambda d: line(d)[1], bounds=(1e-14 * scale, 2.0 * span),
                          method="bounded", options={"xatol": 1e-15 * scale})
    return t[-1] + opt.x, line(opt.x)[0]


class TestCollapseFit:
    @pytest.mark.parametrize("t_star, power, noise", [
        (1.0, 0.5, 0.0), (2.3, 0.62, 0.0), (1.0, 0.5, 1e-4), (3.1, 0.45, 3e-4),
    ])
    def test_golden_section_matches_bounded_brent(self, rng, t_star, power, noise):
        ts = np.linspace(0.0, 0.999 * t_star, 400)
        recs = _records_from_law(ts, t_star, power)
        for r in recs:
            r.L_est *= 1.0 + noise * rng.standard_normal()
        fit = collapse_fit(recs)
        # the fit's window is the strictly decreasing tail, as long as tau
        window = slice(len(recs) - len(fit.tau), None)
        want_t, want_p = bounded_power_fit(ts[window], np.array([r.L_est for r in recs])[window])
        assert fit.t_star == pytest.approx(want_t, rel=1e-6)
        assert fit.exponent == pytest.approx(want_p, rel=1e-6)

    def test_recovers_exact_power_law(self):
        ts = np.linspace(0.0, 0.999, 400)
        fit = collapse_fit(_records_from_law(ts, 1.0, 0.5))
        assert abs(fit.t_star - 1.0) < 1e-6
        assert abs(fit.exponent - 0.5) < 1e-6

    def test_reduced_ode_trajectory_last_decade(self):
        c = ModulationConstants(C1=1.0, C2=2.0, C3=1.0, C4=0.0, S_mass=11.7)
        traj = integrate_reduced(c, 0.0, 1.0, -1.0, 10.0)
        recs = [
            DiagnosticsRecord(t=s.t, dt=0.0, mass=1.0, hamiltonian=0.0,
                              grad_norm=1.0 / s.L, max_amp=1.0, L_est=s.L)
            for s in traj.states
            if 1e-3 < s.L < 1e-2
        ]
        fit = collapse_fit(recs, min_records=30)
        assert abs(fit.exponent - 0.5) < 1e-3

    def test_b_table_positive_decreasing_for_slowing_collapse(self):
        # for L = sqrt(t*-t), b = -L^3 L_tt is exactly 1/4 in the interior
        ts = np.linspace(0.0, 0.99, 300)
        fit = collapse_fit(_records_from_law(ts, 1.0, 0.5))
        inner = fit.b[5:-5]
        assert np.all(inner > 0)
        assert np.max(np.abs(inner - 0.25)) < 1e-2
        assert fit.tau[0] == 0.0 and np.all(np.diff(fit.tau) > 0)

    def test_insufficient_records(self):
        ts = np.linspace(0.0, 0.9, 20)
        with pytest.raises(InsufficientDataError):
            collapse_fit(_records_from_law(ts, 1.0, 0.5))
