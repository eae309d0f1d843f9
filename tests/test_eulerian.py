"""Eulerian steppers: step control, fixed points, conservation, failures."""

import numpy as np
import pytest
from dataclasses import replace

import nsdv
from conftest import shipped_scenario, smooth_state
from nsdv.diagnostics import build_series
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
from nsdv.initdata import build_initial
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
        u = recover_velocity(rho, v, g, p)
        dt = 1e-4
        for k in range(200):
            rho, v, u = step_effective(rho, v, u, k * dt, dt, g, cfg, p)
        assert np.max(np.abs(rho - 1.0)) <= 1e-12
        assert np.max(np.abs(v)) <= 1e-12


class TestConservationAndDamping:
    def test_mass_conserved_per_step(self):
        cfg = shipped_scenario("smooth_bump", 257)
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
        from nsdv.effective import effective_velocity

        p = mp(0.75, 2.0)
        s = smooth_state(grid)
        v = effective_velocity(s, grid, p)
        u_back = recover_velocity(s.rho, v, grid, p)
        # recovery commutes with the definition up to stencil commutation error
        assert np.max(np.abs(u_back - s.u)) <= 10.0 * grid.dx**2


class TestFailures:
    def test_huge_dt_override_is_numerical_failure(self):
        cfg0 = shipped_scenario("smooth_bump", 257)
        g = cfg0.grid()
        solver = SolverConfig(
            t_end=1.0,
            output_cadence=0.5,
            diffusion_treatment="explicit",
            dt_override=g.dx,  # far above the dx^2/2 diffusive limit
        )
        s, _, _ = build_initial(cfg0)
        with pytest.raises(NumericalFailure) as err:
            run(s, solver, g, cfg0.model)
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

    @staticmethod
    def drain_node_50(dt):
        # (rho, v) near vacuum with v diverging only at node 50: one effective
        # step takes rho[50] to (1 - dt/dx) * 1.5e-10 and leaves every other
        # node above the floor
        g = Grid1D(101, 1.0)
        p = mp(0.75, 2.0, L=1.0)
        rho = np.full(101, 1.5e-10)
        rho[0] = rho[-1] = 1.0
        v = np.zeros(101)
        v[49], v[51] = -1.0, 1.0
        cfg = SolverConfig(
            t_end=1.0, output_cadence=1.0, formulation="effective", advection_order=1
        )
        return step_effective(rho, v, recover_velocity(rho, v, g, p), 0.0, dt * g.dx, g, cfg, p)

    def test_vacuum_floor_step_effective(self):
        with pytest.raises(VacuumBlowup) as err:
            self.drain_node_50(0.45)
        assert err.value.node == 50
        assert err.value.time == pytest.approx(0.45 * 0.02)

    def test_overshooting_step_effective_is_negative_density(self):
        with pytest.raises(NumericalFailure, match="negative density") as err:
            self.drain_node_50(2.0)
        assert err.value.time == pytest.approx(2.0 * 0.02)

    def test_run_records_partial_trajectory_on_blowup(self):
        cfg = shipped_scenario("vacuum_stress")
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        assert traj.blowup is not None
        assert 0.0 < traj.blowup.time < 3.0
        assert traj.snapshots[-1].time < 3.0
        assert build_series(traj).violation_flags["blowup"][-1]


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
        cfg = shipped_scenario("smooth_bump", 257)
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        assert traj.blowup is None
        assert traj.snapshots[-1].time == pytest.approx(1.0, rel=1e-9)
        assert min(float(np.min(x.rho)) for x in traj.snapshots) > 0.5

    def test_smooth_bump_regression_fixture(self):
        # frozen reference values for the N=257 smooth-bump run; any scheme
        # change that shifts the trajectory shows up here first
        cfg = shipped_scenario("smooth_bump", 257)
        s, _, _ = build_initial(cfg)
        d = build_series(run(s, cfg.solver, cfg.grid(), cfg.model))
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

        cfg = shipped_scenario("smooth_bump", 129, t_end=0.13, output_cadence=0.05)
        s, _, _ = build_initial(cfg)
        g, p, sol = cfg.grid(), cfg.model, cfg.solver
        expected = [0.0, 0.05, 0.1, 0.13]
        np.testing.assert_allclose(run(s, sol, g, p).times, expected, atol=1e-12)
        np.testing.assert_allclose(run_lagrangian(s, sol, g, p).times, expected, atol=1e-12)
        np.testing.assert_allclose(twin_run_stability(cfg, 1e-6).times, expected, atol=1e-12)

    def test_drive_hands_each_recorded_state_to_record(self, monkeypatch):
        # same setup as the cadence contract: t=0, 0.05, 0.1 and t_end 0.13
        cfg = shipped_scenario("smooth_bump", 129, t_end=0.13, output_cadence=0.05)
        s, _, _ = build_initial(cfg)
        stepped = [s]
        real_step = nsdv.eulerian.step_primitive

        def counting_step(*args, **kwargs):
            stepped.append(real_step(*args, **kwargs))
            return stepped[-1]

        monkeypatch.setattr(nsdv.eulerian, "step_primitive", counting_step)
        seen = []
        # each state is handed over right after the step that made it, before the next step
        traj = run(s, cfg.solver, cfg.grid(), cfg.model,
                   on_snapshot=lambda state: seen.append((state, stepped[-1])))
        assert len(seen) == len(traj.snapshots) == 4
        for (state, latest), snap in zip(seen, traj.snapshots):
            assert state is snap and latest is snap
        np.testing.assert_allclose([st.time for st, _ in seen], [0.0, 0.05, 0.1, 0.13], atol=1e-12)

    def test_boundary_reset_every_snapshot(self):
        cfg = shipped_scenario("rarefaction", 129)
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        for snap in traj.snapshots:
            assert snap.rho[0] == 1.0 and snap.rho[-1] == 1.0
            assert snap.u[0] == 0.0 and snap.u[-1] == 0.0

    def test_initial_time_must_be_zero(self, grid):
        p = mp(0.75, 2.0)
        s = FluidState(time=0.5, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))
        with pytest.raises(InputError):
            run(s, SolverConfig(t_end=1.0, output_cadence=0.5), grid, p)

    def test_self_convergence_against_refined_reference(self):
        ref_cfg = shipped_scenario("smooth_bump", 1025, t_end=0.25, output_cadence=0.25)
        p = ref_cfg.model
        sref, _, _ = build_initial(ref_cfg)
        ref = run(sref, ref_cfg.solver, ref_cfg.grid(), p).snapshots[-1]
        errs = {}
        for n in (129, 257):
            cfg = replace(ref_cfg, n_cells=n)
            s0, _, _ = build_initial(cfg)
            g = cfg.grid()
            fin = run(s0, cfg.solver, g, p).snapshots[-1]
            stride = 1024 // (n - 1)
            err = np.sqrt(np.sum((fin.rho - ref.rho[::stride]) ** 2) * g.dx) + np.sqrt(
                np.sum((fin.u - ref.u[::stride]) ** 2) * g.dx
            )
            errs[n] = err
            assert err <= 0.5 * g.dx  # L2 error <= C*dx with small C
        assert np.log2(errs[129] / errs[257]) >= 1.0

    def test_cross_formulation_agreement_quick(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        sol = SolverConfig(t_end=0.5, output_cadence=0.5)
        fp = run(s, sol, g, p).snapshots[-1]
        fe = run(
            s, replace(sol, formulation="effective"), g, p
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
