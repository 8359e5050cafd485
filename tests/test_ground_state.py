from dataclasses import replace

import numpy as np
import pytest

from dsalpha import (
    ConvergenceError,
    DegenerateLimitError,
    Field,
    Grid2D,
    GridMismatchError,
    PetviashviliConfig,
    ParameterError,
    e_multiplier,
    l2_norm,
    residual_norm,
    solve_ground_state,
)
import dsalpha.ground_state as gs_mod
from conftest import count_calls, count_transforms
from oracles import cubic_profile_critical_mass, even_part, prolong

# frozen from the shooting oracle (see oracles.py); the oracle is also run
# live in test_cubic_limit_matches_shooting_oracle
CUBIC_CENTER = 2.2062008646
CUBIC_MASS = 11.7008960


class TestCubicLimit:
    def test_cubic_limit_matches_shooting_oracle(self, townes):
        s0, mass = cubic_profile_critical_mass()
        assert abs(s0 - CUBIC_CENTER) < 1e-6
        assert abs(mass - CUBIC_MASS) < 1e-5
        assert abs(townes.mass - mass) < 1e-4
        assert abs(townes.S.values.max() - s0) < 1e-6

    def test_residual_below_tolerance(self, townes):
        assert townes.residual < 1e-10

    def test_defining_property(self, townes):
        # X agrees with the velocity operator applied to S^2, and the
        # first-equation defect is at tolerance
        g = townes.grid
        X2 = e_multiplier(Field(g, townes.S.values**2), 1.0, "xx")
        assert np.max(np.abs(X2.values - townes.X.values)) < 1e-12
        assert residual_norm(townes.S, townes.X, 1.0, 0.0, 1.0) < 2e-10


class TestOneEvaluationPerIterate:
    @pytest.mark.parametrize("name", ["townes", "coupled_ground"])
    def test_stored_X_is_that_of_returned_S(self, request, name):
        # bit for bit: an X taken from the iterate before its last update
        # would differ at roundoff
        gs = request.getfixturevalue(name)
        e = gs.grid.even
        S = e.restrict(gs.S.values)
        X = e.irfft2(e.real_symbol("e", gs.nu, "xx") * e.rfft2(S * S))
        assert np.array_equal(gs.X.values, e.expand(X))

    def test_petviashvili_sweep_makes_five_transforms(self, monkeypatch):
        # all DCT-I on quarters: per sweep the (1 - Lap)^{-1} update, then
        # the new iterate's spectrum, X (2) and the spectrum of N, which
        # serves both the spectral residual and the next sweep; per fixed-rho
        # solve 4 for the seed's; at the end the spectrum of S^2; and 2 for
        # the prolongation from the half grid's quarter.  No FFT is made.
        cfg = PetviashviliConfig(continuation_steps=2)
        transforms = count_transforms(monkeypatch)
        sweeps = count_calls(monkeypatch, gs_mod, "symmetrize_even")
        solve_ground_state(Grid2D(64, 64, 24.0, 24.0), 1.0, -1.0, 1.0, cfg)
        solves = 1 + cfg.continuation_steps
        assert len(sweeps) > 0
        assert len(transforms) == 5 * len(sweeps) + 4 * solves + 1 + 2
        assert set(transforms) == {"dctn"}

    def test_returned_residual_is_the_physical_one(self, coupled_ground):
        # the spectral (Plancherel) residual the solver stops on equals the
        # first equation's physical-space defect; X = E(S^2), so the second
        # equation adds only roundoff to residual_norm
        gs = coupled_ground
        physical = residual_norm(gs.S, gs.X, gs.beta, gs.rho, gs.nu)
        assert abs(gs.residual - physical) < 1e-12


def continuation(g, beta, rho, nu, cfg, stage_grid, loose_cfg):
    """The continuation along solve_ground_state's stages, written out on
    quarters: every stage before the last on stage_grid.even (stage_grid is
    g or g.half) under loose_cfg, then the last on g.even under cfg.
    Returns the full-grid S and X and the last stage's residual."""
    n = cfg.continuation_steps
    stage, q = stage_grid.even, g.even
    S = stage.restrict(2.2 * np.exp(-stage_grid.r2 / 2.0))
    for k in range(n):
        S, _, _ = gs_mod._petviashvili(S, stage, beta, rho * k / n, nu, loose_cfg)
    if stage is not q:
        S = q.prolong(S, stage)
    S, X, residual = gs_mod._petviashvili(S, q, beta, rho, nu, cfg)
    return q.expand(S), q.expand(X), residual


class TestLooseIntermediateStages:
    def test_matches_all_stages_tight_with_fewer_sweeps(self, monkeypatch):
        # the reference holds every stage to tol, stage by stage, along the
        # solver's path (the stages before the last on the half grid); the
        # solver holds all but the last to sqrt(tol) and must land on the
        # same state
        g = Grid2D(64, 64, 24.0, 24.0)
        beta, rho, nu = 1.0, -1.0, 1.0
        cfg = PetviashviliConfig(continuation_steps=4)
        sweeps = count_calls(monkeypatch, gs_mod, "symmetrize_even")

        S, _, _ = continuation(g, beta, rho, nu, cfg, g.half, cfg)
        tight_sweeps = len(sweeps)
        sweeps.clear()

        gs = solve_ground_state(g, beta, rho, nu, cfg)
        assert np.max(np.abs(gs.S.values - S)) < 1e-12
        assert gs.residual < cfg.tol
        assert 0 < len(sweeps) < tight_sweeps


class TestHalfGridStages:
    def test_matches_all_stages_on_the_grid(self, coupled_ground, grid_gs):
        # the loose stages on the half grid only change the last stage's
        # start, so the returned state moves by less than tol
        cfg = PetviashviliConfig()
        loose = PetviashviliConfig(tol=np.sqrt(cfg.tol))
        S, _, _ = continuation(grid_gs, 1.0, -1.0, 1.0, cfg, grid_gs, loose)
        assert np.max(np.abs(coupled_ground.S.values - S)) < cfg.tol
        mass = np.sum(S * S) * grid_gs.cell_area
        assert coupled_ground.mass == pytest.approx(mass, rel=1e-11)

    def test_grid_without_a_half_runs_every_stage_on_it(self):
        # 66 / 2 = 33 is odd, so the half grid fails check_grid
        g = Grid2D(66, 66, 24.0, 24.0)
        assert g.half is None
        cfg = PetviashviliConfig(continuation_steps=2)
        loose = PetviashviliConfig(tol=np.sqrt(cfg.tol))
        S, X, residual = continuation(g, 1.0, -1.0, 1.0, cfg, g, loose)
        gs = solve_ground_state(g, 1.0, -1.0, 1.0, cfg)
        assert np.array_equal(gs.S.values, S) and np.array_equal(gs.X.values, X)
        assert gs.residual == residual


def full_grid_reference(monkeypatch, g, beta, rho, nu, cfg):
    """The continuation as it ran on the full grid's real layout: every sweep
    projected onto the even subspace by even_part, the loose stages on
    g.half where it exists and rho != 0, and the interpolation onto g by
    numpy's full-plane FFT.  Returns the last stage's S and its mass."""
    n = cfg.continuation_steps
    earlier = [] if rho == 0.0 else [rho * k / n for k in range(n)]
    loose = replace(cfg, tol=max(cfg.tol, np.sqrt(cfg.tol)))
    stage = g.half if earlier and g.half is not None else g
    with monkeypatch.context() as m:
        m.setattr(gs_mod, "symmetrize_even", even_part)
        S = 2.2 * np.exp(-stage.r2 / 2.0)
        for rho_k in earlier:
            S, _, _ = gs_mod._petviashvili(S, stage, beta, rho_k, nu, loose)
        if stage is not g:
            S = prolong(g, S)
        S, _, _ = gs_mod._petviashvili(S, g, beta, rho, nu, cfg)
    return S, np.sum(S * S) * g.cell_area


class TestQuarterMatchesFullGrid:
    """The sweep on the even quarter makes the full grid's projected iterates."""

    def test_ground_state_matches_the_full_grid_sweep(self, monkeypatch, coupled_ground, grid_gs):
        S, mass = full_grid_reference(monkeypatch, grid_gs, 1.0, -1.0, 1.0, PetviashviliConfig())
        assert np.max(np.abs(coupled_ground.S.values - S)) < 1e-12
        assert coupled_ground.mass == pytest.approx(mass, rel=1e-12)

    @pytest.mark.parametrize("n, box, beta, rho", [
        # converging cases, each n, box and (beta, rho) at least once
        (16, 8.0, 1.0, -1.0), (16, 64.0, 0.5, -2.0), (32, 16.0, 1.0, 0.0),
        (32, 32.0, 1.0, 0.5), (48, 32.0, 0.5, -2.0), (48, 64.0, 1.0, -1.0),
        (64, 8.0, 1.0, 0.5), (64, 16.0, 1.0, 0.0),
        # stages that lose positivity, and one that stalls
        (16, 8.0, 1.0, 10.0), (64, 64.0, 0.2, 5.0), (32, 16.0, 1.0, 3.0),
    ])
    def test_raises_exactly_where_the_full_grid_sweep_raises(self, monkeypatch, n, box, beta, rho):
        g = Grid2D(n, n, box, box)
        cfg = PetviashviliConfig(max_iter=400)

        def outcome(solve):
            try:
                return solve()
            except (ConvergenceError, DegenerateLimitError) as exc:
                return type(exc), str(exc).split(" (last residual")[0]

        got = outcome(lambda: solve_ground_state(g, beta, rho, 1.0, cfg).mass)
        want = outcome(lambda: full_grid_reference(monkeypatch, g, beta, rho, 1.0, cfg)[1])
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)


class TestCoupledGroundState:
    def test_residual_and_symmetry(self, coupled_ground):
        gs = coupled_ground
        assert gs.residual < 1e-10
        S = gs.S.values
        sx = S - np.roll(S[::-1, :], 1, axis=0)
        sy = S - np.roll(S[:, ::-1], 1, axis=1)
        g = gs.grid
        assert l2_norm(Field(g, sx)) < 1e-12
        assert l2_norm(Field(g, sy)) < 1e-12
        assert S[g.nx // 2, g.ny // 2] > 0
        assert S.max() == S[g.nx // 2, g.ny // 2]

    def test_focusing_coupling_lowers_mass(self, townes, grid_gs):
        # rho < 0 adds a second focusing channel (the mean-flow term enters
        # the Hamiltonian with a negative-definite contribution), so the
        # critical mass drops below the cubic-only value.
        gs_half = solve_ground_state(grid_gs, 1.0, -0.5, 1.0)
        assert gs_half.mass < townes.mass
        assert 9.0 < gs_half.mass < 9.6  # oracle continuation run: 9.313

    def test_defocusing_coupling_raises_mass(self, townes, grid_gs):
        gs = solve_ground_state(grid_gs, 1.0, 0.5, 1.0)
        assert gs.mass > townes.mass

    def test_grid_refinement_consistency(self):
        # from a resolved baseline (dx ~ 0.2) doubling the grid moves the
        # mass below 1e-8 relative; coarser baselines are limited by their
        # own spectral tail, not by the refinement
        cfg = PetviashviliConfig(continuation_steps=4)
        a = solve_ground_state(Grid2D(192, 192, 40.0, 40.0), 1.0, -1.0, 1.0, cfg)
        b = solve_ground_state(Grid2D(384, 384, 40.0, 40.0), 1.0, -1.0, 1.0, cfg)
        assert abs(a.mass - b.mass) / b.mass < 1e-8


class TestResidualNorm:
    def test_zero_profile(self, grid_small):
        z = Field(grid_small, np.zeros((64, 64)))
        assert residual_norm(z, z, 1.0, -1.0, 1.0) == 0.0

    def test_rejects_pair_on_different_grids(self, grid_small):
        S = Field(grid_small, np.zeros((64, 64)))
        X = Field(Grid2D(64, 64, 8.0, 8.0), np.zeros((64, 64)))
        with pytest.raises(GridMismatchError):
            residual_norm(S, X, 1.0, -1.0, 1.0)

    def test_perturbation_scales_linearly(self, townes):
        # residual of S + eps*delta tracks the linearization eps*|L delta|
        g = townes.grid
        rng = np.random.default_rng(7)
        delta = rng.standard_normal((g.nx, g.ny))
        delta /= l2_norm(Field(g, delta))
        X = townes.X

        def res(eps):
            S = Field(g, townes.S.values + eps * delta)
            Xs = e_multiplier(Field(g, S.values**2), 1.0, "xx")
            return residual_norm(S, Xs, 1.0, 0.0, 1.0)

        r3, r5 = res(1e-3), res(1e-5)
        assert 0.1 < (r3 / 1e-3) / (r5 / 1e-5) < 10.0


class TestSolverGuards:
    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            PetviashviliConfig(tol=-1)

    def test_nonconvergence_reports_residual(self):
        # the Townes seed stage fails first; a continuation follows it, so
        # it was held to sqrt(tol), and the error names that stage and bound
        g = Grid2D(64, 64, 24.0, 24.0)
        cfg = PetviashviliConfig(tol=1e-10, max_iter=3, continuation_steps=1)
        with pytest.raises(ConvergenceError, match="stage rho=0 did not reach tol=1e-05 ") as exc:
            solve_ground_state(g, 1.0, -1.0, 1.0, cfg)
        assert exc.value.residual is not None and exc.value.residual > 0

    def test_single_stage_is_held_to_tol(self):
        g = Grid2D(64, 64, 24.0, 24.0)
        cfg = PetviashviliConfig(tol=1e-10, max_iter=3)
        with pytest.raises(ConvergenceError, match="stage rho=0 did not reach tol=1e-10 "):
            solve_ground_state(g, 1.0, 0.0, 1.0, cfg)

    def test_nonpositive_beta_warns(self):
        g = Grid2D(64, 64, 24.0, 24.0)
        cfg = PetviashviliConfig(max_iter=5, continuation_steps=1)
        with pytest.warns(UserWarning):
            try:
                solve_ground_state(g, -1.0, 0.0, 1.0, cfg)
            except Exception:
                pass  # the defocusing iteration is allowed to fail after warning
