"""Eulerian steppers: step control, fixed points, conservation, failures."""

import numpy as np
import pytest
from dataclasses import replace

import nsdv
from nsdv.errors import InputError, NumericalFailure, VacuumBlowup
from nsdv.eulerian import (
    SolverConfig,
    damp_effective_velocity,
    recover_velocity,
    run,
    stable_dt,
    step_effective,
    step_primitive,
)
from nsdv.initdata import build_initial, regression_scenarios
from nsdv.model import FluidState, Grid1D, ModelParams


def mp(alpha, gamma, L=8.0):
    return ModelParams(alpha=alpha, gamma=gamma, half_length=L)


class TestStableDt:
    def test_explicit_formula(self):
        # dx = 0.01: advective 0.01/sqrt(2), diffusive 5e-5; cfl 0.4 -> 2e-5
        g = Grid1D(1001, 5.0)
        assert g.dx == pytest.approx(0.01, rel=1e-14)
        p = mp(0.75, 2.0, L=5.0)
        s = FluidState(time=0.0, rho=np.ones(1001), u=np.zeros(1001))
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0, diffusion_treatment="explicit")
        assert stable_dt(s, g, cfg, p) == pytest.approx(2e-5, rel=1e-12)

    def test_semi_implicit_drops_diffusive_bound(self):
        g = Grid1D(1001, 5.0)
        p = mp(0.75, 2.0, L=5.0)
        s = FluidState(time=0.0, rho=np.ones(1001), u=np.zeros(1001))
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0)
        assert stable_dt(s, g, cfg, p) == pytest.approx(0.4 * 0.01 / np.sqrt(2.0), rel=1e-12)

    def test_advective_bound_uses_u_plus_c(self):
        g = Grid1D(1001, 5.0)
        p = mp(0.75, 2.0, L=5.0)
        u = np.zeros(1001)
        u[500] = 1.0
        s = FluidState(time=0.0, rho=np.ones(1001), u=u)
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0)
        assert stable_dt(s, g, cfg, p) == pytest.approx(
            0.4 * 0.01 / (1.0 + np.sqrt(2.0)), rel=1e-12
        )

    def test_effective_formulation_keeps_diffusive_bound(self):
        g = Grid1D(1001, 5.0)
        p = mp(0.75, 2.0, L=5.0)
        s = FluidState(time=0.0, rho=np.ones(1001), u=np.zeros(1001))
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0, formulation="effective")
        assert stable_dt(s, g, cfg, p) == pytest.approx(2e-5, rel=1e-12)

    def test_nan_state_raises(self):
        g = Grid1D(11, 1.0)
        p = mp(0.75, 2.0, L=1.0)
        u = np.zeros(11)
        u[5] = np.nan
        s = FluidState(time=0.0, rho=np.ones(11), u=u)
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0)
        with pytest.raises(NumericalFailure):
            stable_dt(s, g, cfg, p)


class TestFixedPoint:
    @pytest.mark.parametrize("treatment", ["explicit", "semi_implicit"])
    def test_primitive_equilibrium(self, treatment):
        g = Grid1D(129, 4.0)
        p = mp(0.75, 2.0, L=4.0)
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0, diffusion_treatment=treatment)
        s = FluidState(time=0.0, rho=np.ones(129), u=np.zeros(129))
        dt = stable_dt(s, g, cfg, p)
        for _ in range(200):
            s = step_primitive(s, dt, g, cfg, p)
        assert np.max(np.abs(s.rho - 1.0)) <= 1e-12
        assert np.max(np.abs(s.u)) <= 1e-12

    def test_effective_equilibrium(self):
        g = Grid1D(129, 4.0)
        p = mp(0.75, 2.0, L=4.0)
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0, formulation="effective")
        rho, v = np.ones(129), np.zeros(129)
        dt = 1e-4
        for k in range(200):
            rho, v = step_effective(rho, v, k * dt, dt, g, cfg, p)
        assert np.max(np.abs(rho - 1.0)) <= 1e-12
        assert np.max(np.abs(v)) <= 1e-12


class TestConservationAndDamping:
    def test_mass_conserved_per_step(self):
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        m0 = np.sum(s.rho) * g.dx
        for _ in range(20):
            dt = stable_dt(s, g, cfg.solver, p)
            s2 = step_primitive(s, dt, g, cfg.solver, p)
            drift = abs(np.sum(s2.rho) - np.sum(s.rho)) * g.dx
            assert drift <= 1e-12 * m0
            s = s2

    def test_exact_exponential_damping(self):
        # rho frozen at 1, u = 0: v decays exactly as exp(-gamma t) node-wise
        p = mp(0.75, 2.0)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(64)
        u = np.zeros(64)
        rho = np.ones(64)
        dt, steps = 0.01, 50
        out = v.copy()
        for _ in range(steps):
            out = damp_effective_velocity(out, u, rho, dt, p)
        np.testing.assert_allclose(out, v * np.exp(-p.gamma * dt * steps), rtol=1e-12)

    def test_velocity_recovery_roundtrip(self, grid):
        from conftest import smooth_state
        from nsdv.effective import effective_velocity

        p = mp(0.75, 2.0)
        s = smooth_state(grid)
        v = effective_velocity(s, grid, p)
        u_back = recover_velocity(s.rho, v, grid, p)
        # recovery commutes with the definition up to stencil commutation error
        assert np.max(np.abs(u_back - s.u)) <= 10.0 * grid.dx**2


class TestFailures:
    def test_huge_dt_override_is_numerical_failure(self):
        cfg0 = regression_scenarios(n_cells=257)["smooth_bump"]
        g = cfg0.grid()
        solver = SolverConfig(
            t_end=1.0,
            output_cadence=0.5,
            diffusion_treatment="explicit",
            dt_override=g.dx,  # far above the dx^2/2 diffusive limit
        )
        s, _, _ = build_initial(cfg0)
        with pytest.raises(NumericalFailure) as err:
            run(s, solver, g, cfg0.model, build_diagnostics=False)
        assert err.value.time is not None and err.value.time < 1.0

    def test_vacuum_floor_step(self):
        # expansion acting on a density already at ~1.5x the floor
        g = Grid1D(101, 1.0)
        p = mp(0.75, 2.0, L=1.0)
        rho = np.full(101, 1.5e-10)
        rho[0] = rho[-1] = 1.0
        u = np.tanh(5 * g.coords)
        s = FluidState(time=0.0, rho=rho, u=u)
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0, advection_order=1)
        # one step whose divergence drains ~45% of the center density
        with pytest.raises(VacuumBlowup) as err:
            step_primitive(s, 0.09, g, cfg, p)
        assert err.value.node is not None and err.value.time == pytest.approx(0.09)

    def test_run_records_partial_trajectory_on_blowup(self):
        from nsdv.initdata import InitialData, ScenarioConfig

        cfg = ScenarioConfig(
            model=ModelParams(alpha=2.0, gamma=2.0, half_length=10.0),
            n_cells=128,
            solver=SolverConfig(
                t_end=3.0, output_cadence=0.25, cfl_number=0.4, advection_order=1
            ),
            initial=InitialData(kind="rarefaction", amplitude=25.0),
        )
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        assert traj.blowup is not None
        assert 0.0 < traj.blowup.time < 3.0
        assert traj.snapshots[-1].time < 3.0
        assert traj.diagnostics.violation_flags["blowup"][-1]


class TestRun:
    def test_equilibrium_trajectory(self, grid, equilibrium):
        p = mp(0.75, 2.0)
        cfg = SolverConfig(t_end=0.3, output_cadence=0.1)
        traj = run(equilibrium, cfg, grid, p)
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3], atol=1e-12)
        for s in traj.snapshots:
            assert np.max(np.abs(s.rho - 1.0)) <= 1e-13
            assert np.max(np.abs(s.u)) <= 1e-13

    def test_smooth_bump_completes(self):
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model, build_diagnostics=False)
        assert traj.blowup is None
        assert traj.snapshots[-1].time == pytest.approx(1.0, rel=1e-9)
        assert min(float(np.min(x.rho)) for x in traj.snapshots) > 0.5

    def test_smooth_bump_regression_fixture(self):
        # frozen reference values for the N=257 smooth-bump run; any scheme
        # change that shifts the trajectory shows up here first
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        d = run(s, cfg.solver, cfg.grid(), cfg.model).diagnostics
        assert d.energy[0] == pytest.approx(0.01253314137315496, rel=1e-7)
        assert d.energy[-1] == pytest.approx(0.008584515146887312, rel=1e-7)
        assert d.energy_diss_accum[-1] == pytest.approx(0.004087160209556596, rel=1e-7)
        assert d.bd_entropy[-1] == pytest.approx(0.0066195977605720295, rel=1e-7)
        assert d.y_max[-1] == pytest.approx(8.117594482142115, rel=1e-7)
        assert d.rho_max[-1] == pytest.approx(1.0445773235409235, rel=1e-7)
        assert d.bv_norm_v[-1] == pytest.approx(0.10351132912686983, rel=1e-7)

    def test_snapshot_times_with_unaligned_t_end(self, grid, equilibrium):
        # t_end not a cadence multiple: the final instant is still recorded
        p = mp(0.75, 2.0)
        cfg = SolverConfig(t_end=0.25, output_cadence=0.1)
        traj = run(equilibrium, cfg, grid, p)
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.25], atol=1e-12)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert len(traj.energy_diss_accum) == len(traj.snapshots)

    def test_every_solver_shares_the_cadence_contract(self):
        # t=0, each cadence multiple, and t_end when it is not one
        from nsdv.lagrangian import run_lagrangian
        from nsdv.stability import twin_run_stability

        sol = SolverConfig(t_end=0.13, output_cadence=0.05)
        cfg = replace(regression_scenarios()["smooth_bump"], n_cells=129, solver=sol)
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        expected = [0.0, 0.05, 0.1, 0.13]
        np.testing.assert_allclose(run(s, sol, g, p).times, expected, atol=1e-12)
        np.testing.assert_allclose(run_lagrangian(s, sol, g, p).times, expected, atol=1e-12)
        np.testing.assert_allclose(twin_run_stability(cfg, 1e-6).times, expected, atol=1e-12)

    def test_boundary_reset_every_snapshot(self):
        cfg = regression_scenarios(n_cells=129)["rarefaction"]
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model, build_diagnostics=False)
        for snap in traj.snapshots:
            assert snap.rho[0] == 1.0 and snap.rho[-1] == 1.0
            assert snap.u[0] == 0.0 and snap.u[-1] == 0.0

    def test_initial_time_must_be_zero(self, grid):
        p = mp(0.75, 2.0)
        s = FluidState(time=0.5, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))
        with pytest.raises(InputError):
            run(s, SolverConfig(t_end=1.0, output_cadence=0.5), grid, p)

    def test_self_convergence_against_refined_reference(self):
        base = regression_scenarios()["smooth_bump"]
        p = base.model
        ref_cfg = replace(base, n_cells=1025, solver=SolverConfig(t_end=0.25, output_cadence=0.25))
        sref, _, _ = build_initial(ref_cfg)
        ref = run(sref, ref_cfg.solver, ref_cfg.grid(), p, build_diagnostics=False).snapshots[-1]
        errs = {}
        for n in (129, 257):
            cfg = replace(base, n_cells=n, solver=ref_cfg.solver)
            s0, _, _ = build_initial(cfg)
            g = cfg.grid()
            fin = run(s0, cfg.solver, g, p, build_diagnostics=False).snapshots[-1]
            stride = 1024 // (n - 1)
            err = np.sqrt(np.sum((fin.rho - ref.rho[::stride]) ** 2) * g.dx) + np.sqrt(
                np.sum((fin.u - ref.u[::stride]) ** 2) * g.dx
            )
            errs[n] = err
            assert err <= 0.5 * g.dx  # L2 error <= C*dx with small C
        assert np.log2(errs[129] / errs[257]) >= 1.0

    def test_cross_formulation_agreement_quick(self):
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        sol = SolverConfig(t_end=0.5, output_cadence=0.5)
        fp = run(s, sol, g, p, build_diagnostics=False).snapshots[-1]
        fe = run(
            s, replace(sol, formulation="effective"), g, p, build_diagnostics=False
        ).snapshots[-1]
        dist = np.sqrt(np.sum((fp.rho - fe.rho) ** 2) * g.dx) + np.sqrt(
            np.sum((fp.u - fe.u) ** 2) * g.dx
        )
        assert dist <= 0.5 * g.dx


class TestSolverConfigValidation:
    def test_cfl_range(self):
        with pytest.raises(InputError):
            SolverConfig(t_end=1.0, output_cadence=0.1, cfl_number=1.2)

    def test_bad_enum_values(self):
        with pytest.raises(InputError):
            SolverConfig(t_end=1.0, output_cadence=0.1, formulation="banana")
        with pytest.raises(InputError):
            SolverConfig(t_end=1.0, output_cadence=0.1, diffusion_treatment="magic")
        with pytest.raises(InputError):
            SolverConfig(t_end=1.0, output_cadence=0.1, advection_order=3)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("t_end", np.inf),
            ("t_end", np.nan),
            ("output_cadence", np.inf),
            ("dt_override", np.inf),
            ("dt_override", np.nan),
            ("dt_override", 0.0),
            ("dt_override", -1e-3),
        ],
    )
    def test_non_finite_or_non_positive_times(self, name, value):
        with pytest.raises(InputError):
            SolverConfig(**{"t_end": 1.0, "output_cadence": 0.1, name: value})
