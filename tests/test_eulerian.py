"""Eulerian steppers: step control, fixed points, conservation, failures."""

import tracemalloc
import weakref

import numpy as np
import pytest
from dataclasses import replace

import nsdv
from conftest import run_states, shipped_scenario, smooth_state
from nsdv import model, stencils
from nsdv.diagnostics import build_series
from nsdv.effective import compute_effective_fields, effective_velocity
from nsdv.errors import InputError, NumericalFailure, VacuumBlowup
from nsdv.eulerian import (
    SolverConfig,
    damp_effective_velocity,
    drive,
    recover_velocity,
    run,
    stable_dt,
    step_effective,
    step_primitive,
)
from nsdv.initdata import build_initial
from nsdv.model import RHO_FLOOR, FluidState, Grid1D, ModelParams
from nsdv.stencils import ddx


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

    @pytest.mark.parametrize(
        "field, value", [("u", np.inf), ("u", -np.inf), ("rho", np.nan), ("rho", np.inf)]
    )
    @pytest.mark.parametrize("gamma", [2.0, 1.0])
    def test_non_finite_state_raises(self, field, value, gamma):
        # gamma = 1 makes the sound speed 1 whatever rho is
        g = Grid1D(11, 1.0)
        p = mp(0.75, gamma, L=1.0)
        fields = {"rho": np.ones(11), "u": np.zeros(11)}
        fields[field][5] = value
        s = FluidState(time=0.0, **fields)
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0)
        with pytest.raises(NumericalFailure, match="non-finite state"):
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
        s = FluidState(time=0.0, rho=rho, u=recover_velocity(rho, v, g, p), v=v)
        for _ in range(200):
            s = step_effective(s, 1e-4, g, cfg, p)
        assert np.max(np.abs(s.rho - 1.0)) <= 1e-12
        assert np.max(np.abs(s.v)) <= 1e-12


class TestConservationAndDamping:
    def test_mass_conserved_per_step(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s = build_initial(cfg)
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


class TestEffectiveState:
    CFG = SolverConfig(t_end=1.0, output_cadence=1.0, formulation="effective")

    def test_caller_state_starts_the_pair_as_the_explicit_start(self, grid):
        # a state without v starts (v, u) from rho and u, and the step is
        # bitwise the one from that explicit start
        p = mp(0.75, 2.0)
        s = smooth_state(grid)
        v = effective_velocity(s, grid, p)
        u = recover_velocity(s.density, v, grid, p)
        want = step_effective(FluidState(time=0.0, rho=s.density, u=u, v=v), 1e-4, grid,
                              self.CFG, p)
        got = step_effective(s, 1e-4, grid, self.CFG, p)
        assert got.time == want.time == 1e-4
        for name in ("rho", "u", "v"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(got.u, recover_velocity(got.density, got.v, grid, p))

    def test_state_with_v_steps_its_own_u(self, grid):
        # u = 0 on the state, far from recover_velocity(rho, v): the transport
        # term vanishes and v is only damped, v * exp(-dt f1(rho)) inside
        p = mp(0.75, 2.0)
        s = smooth_state(grid)
        v = np.sin(grid.coords) * np.exp(-grid.coords**2)
        assert np.max(np.abs(recover_velocity(s.density, v, grid, p))) > 1e-3
        dt = 1e-4
        got = step_effective(FluidState(time=0.0, rho=s.density, u=np.zeros(grid.n_cells), v=v),
                             dt, grid, self.CFG, p)
        damped = v * np.exp(-dt * model.f1(s.rho, p))
        np.testing.assert_array_equal(got.v[1:-1], damped[1:-1])


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
        s = build_initial(cfg0)
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
        s = FluidState(time=0.0, rho=rho, u=recover_velocity(rho, v, g, p), v=v)
        return step_effective(s, dt * g.dx, g, cfg, p)

    def test_vacuum_floor_step_effective(self):
        with pytest.raises(VacuumBlowup) as err:
            self.drain_node_50(0.45)
        assert err.value.node == 50
        assert err.value.time == pytest.approx(0.45 * 0.02)

    def test_overshooting_step_effective_is_negative_density(self):
        with pytest.raises(NumericalFailure, match="negative density") as err:
            self.drain_node_50(2.0)
        assert err.value.time == pytest.approx(2.0 * 0.02)

    # Each case: the new density a step makes, and the failure it must raise.
    # Failures come in this order: any NaN or inf, then density <= 0, then
    # the first node at or below RHO_FLOOR.
    NEW_DENSITY_FAILURES = {
        "nan": (NumericalFailure, "non-finite fields at t="),
        "+inf": (NumericalFailure, "non-finite fields at t="),
        "-inf": (NumericalFailure, "non-finite fields at t="),
        "negative": (NumericalFailure, "negative density at t=.* [(]unstable step[)]"),
        "zero": (NumericalFailure, "negative density at t=.* [(]unstable step[)]"),
        "below_floor": (VacuumBlowup, "density hit the vacuum floor at node {node}, t="),
        "at_floor": (VacuumBlowup, "density hit the vacuum floor at node {node}, t="),
    }

    def assert_new_density_failure(self, case, node, step):
        cls, message = self.NEW_DENSITY_FAILURES[case]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(cls, match=message.format(node=node)) as err:
                step()
        if cls is VacuumBlowup:
            assert err.value.node == node
        return err.value

    @pytest.mark.parametrize("case", list(NEW_DENSITY_FAILURES))
    def test_new_density_checks_primitive(self, case):
        # At rest, with unit dt, the new density is 1 + g_rho: the source
        # alone puts each anomaly into it.  +inf and -inf come with finite
        # densities <= 0 beside them, so that a check which missed them would
        # report a negative density instead.
        g = Grid1D(11, 1.0)
        p = mp(0.75, 2.0, L=1.0)
        rho, g_rho = np.ones(11), np.zeros(11)
        g_rho[[3, 7]] = {
            "nan": [0.0, np.nan],
            "+inf": [-2.0, np.inf],
            "-inf": [-np.inf, -2.0],
            "negative": [-2.0, -0.5],
            "zero": [-0.5, -1.0],
            "below_floor": [-(1.0 - 0.5 * RHO_FLOOR), -(1.0 - 0.2 * RHO_FLOOR)],
            "at_floor": [0.0, 0.0],
        }[case]
        if case == "at_floor":
            rho[[4, 6]] = RHO_FLOOR
        s = FluidState(time=0.0, rho=rho, u=np.zeros(11))
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0)
        node = {"below_floor": 3, "at_floor": 4}.get(case)
        err = self.assert_new_density_failure(
            case, node, lambda: step_primitive(s, 1.0, g, cfg, p, forcing=(g_rho, np.zeros(11)))
        )
        assert err.time == 1.0

    @staticmethod
    def effective_case(case):
        # The inputs (rho, v, dt) of one first-order effective step on 101
        # nodes whose new density shows the case; dt = dx = 0.02.
        rho, v, dt = np.ones(101), np.zeros(101), 0.02
        big = 1.7e308
        if case == "nan":
            v[50] = np.nan
        elif case in ("+inf", "-inf"):
            # Opposed velocities of 1.7e308 beside node 50 make interface
            # fluxes of +-1.7e308 there, whose difference overflows.  Inflow
            # gives node 50 +inf and its neighbours densities far below 0;
            # outflow gives it -inf and them densities far above 1.
            inflow = case == "+inf"
            rho[[49, 51] if inflow else 50] = 2.0
            v[49], v[51] = (big, -big) if inflow else (-big, big)
        elif case == "at_floor":  # a step too short to move a density of RHO_FLOOR
            rho[[4, 60]] = RHO_FLOOR
            dt = 1e-300
        else:
            # v = -+a beside node 50 drains it to 1 - a; nothing else moves
            a = 1.0 - {"negative": -0.5, "zero": 0.0, "below_floor": 0.5 * RHO_FLOOR}[case]
            v[49], v[51] = -a, a
        return rho, v, dt

    @pytest.mark.parametrize("case", list(NEW_DENSITY_FAILURES))
    def test_new_density_checks_effective(self, case):
        g = Grid1D(101, 1.0)
        p = mp(0.75, 2.0, L=1.0)
        rho, v, dt = self.effective_case(case)
        cfg = SolverConfig(
            t_end=1.0, output_cadence=1.0, formulation="effective", advection_order=1
        )
        node = {"below_floor": 50, "at_floor": 4}.get(case)
        err = self.assert_new_density_failure(
            case, node,
            lambda: step_effective(FluidState(time=0.0, rho=rho, u=np.zeros(101), v=v), dt, g,
                                   cfg, p)
        )
        assert err.time == dt

    def test_run_records_partial_trajectory_on_blowup(self):
        cfg = shipped_scenario("vacuum_stress")
        s = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        assert traj.blowup is not None
        assert 0.0 < traj.blowup.time < 3.0
        assert traj.times[-1] < 3.0
        # the integrals are recorded with the times, none after the blow-up
        assert (len(traj.energy_diss_accum) == len(traj.bd_diss_accum)
                == len(traj.scalars) == len(traj.times))
        assert build_series(traj).violation_flags["blowup"][-1]


class TestRun:
    def test_equilibrium_trajectory(self, grid, equilibrium):
        p = mp(0.75, 2.0)
        cfg = SolverConfig(t_end=0.3, output_cadence=0.1)
        traj, snaps = run_states(equilibrium, cfg, grid, p)
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3], atol=1e-12)
        for s in snaps:
            assert np.max(np.abs(s.rho - 1.0)) <= 1e-13
            assert np.max(np.abs(s.u)) <= 1e-13

    def test_smooth_bump_completes(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s = build_initial(cfg)
        traj, snaps = run_states(s, cfg.solver, cfg.grid(), cfg.model)
        assert traj.blowup is None
        assert snaps[-1].time == pytest.approx(1.0, rel=1e-9)
        assert min(float(np.min(x.rho)) for x in snaps) > 0.5

    def test_smooth_bump_regression_fixture(self):
        # frozen reference values for the N=257 smooth-bump run; any scheme
        # change that shifts the trajectory shows up here first
        cfg = shipped_scenario("smooth_bump", 257)
        s = build_initial(cfg)
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
        assert len(traj.energy_diss_accum) == len(traj.scalars) == len(traj.times)

    def test_every_solver_shares_the_cadence_contract(self):
        # t=0, each cadence multiple, and t_end when it is not one
        from nsdv.lagrangian import run_lagrangian
        from nsdv.stability import twin_run_stability

        cfg = shipped_scenario("smooth_bump", 129, t_end=0.13, output_cadence=0.05)
        s = build_initial(cfg)
        g, p, sol = cfg.grid(), cfg.model, cfg.solver
        expected = [0.0, 0.05, 0.1, 0.13]
        np.testing.assert_allclose(run(s, sol, g, p).times, expected, atol=1e-12)
        np.testing.assert_allclose(run_lagrangian(s, sol, g, p).times, expected, atol=1e-12)
        np.testing.assert_allclose(twin_run_stability(cfg, 1e-6).times, expected, atol=1e-12)

    def test_drive_hands_each_recorded_state_to_record(self, monkeypatch):
        # same setup as the cadence contract: t=0, 0.05, 0.1 and t_end 0.13
        cfg = shipped_scenario("smooth_bump", 129, t_end=0.13, output_cadence=0.05)
        s = build_initial(cfg)
        stepped = [s]
        real_step = nsdv.eulerian.step_primitive

        def counting_step(*args, **kwargs):
            stepped.append(real_step(*args, **kwargs))
            return stepped[-1]

        monkeypatch.setattr(nsdv.eulerian, "step_primitive", counting_step)
        seen = []
        # each state is handed over with its effective fields right after the
        # step that made it, before the next step
        traj = run(s, cfg.solver, cfg.grid(), cfg.model,
                   on_snapshot=lambda state, eff: seen.append((state, eff, stepped[-1])))
        assert len(seen) == len(traj.times) == 4
        for state, eff, latest in seen:
            assert latest is state
            want = compute_effective_fields(state, cfg.grid(), cfg.model)
            for name in ("v", "w1", "y", "udot"):
                np.testing.assert_array_equal(getattr(eff, name), getattr(want, name))
        np.testing.assert_array_equal([st.time for st, _, _ in seen], traj.times)
        np.testing.assert_allclose(traj.times, [0.0, 0.05, 0.1, 0.13], atol=1e-12)

    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    def test_recorded_states_share_mu_with_their_fields(self, formulation):
        # each recorded state's mu is the one its step, stable_dt and rates
        # read from state.density: its effective fields do not compute it again
        cfg = shipped_scenario("smooth_bump", 129, t_end=0.13, output_cadence=0.05,
                               formulation=formulation)
        p = cfg.model
        seen = []
        run(build_initial(cfg), cfg.solver, cfg.grid(), p,
            on_snapshot=lambda state, eff: seen.append((state, eff)))
        assert len(seen) == 4
        for state, eff in seen:
            assert eff.mu is state.density.power(p.alpha)

    def test_drive_keeps_no_recorded_state(self, grid):
        # a record that keeps nothing leaves every recorded state, the
        # initial one included, unreferenced once drive returns
        p = mp(0.75, 2.0)
        cfg = SolverConfig(t_end=0.3, output_cadence=0.1)
        n = grid.n_cells
        times, refs = [], []
        drive(
            FluidState(time=0.0, rho=1.0 + 0.1 * np.exp(-grid.coords**2), u=np.zeros(n)),
            cfg,
            lambda state: stable_dt(state, grid, cfg, p),
            lambda state, t, h: step_primitive(state, h, grid, cfg, p),
            lambda t, state: (times.append(t), refs.append(weakref.ref(state))),
        )
        np.testing.assert_allclose(times, [0.0, 0.1, 0.2, 0.3], atol=1e-12)
        assert len(refs) == 4
        assert all(ref() is None for ref in refs)

    def test_run_memory_does_not_grow_with_snapshot_count(self):
        # the shipped config at cadence 0.05 (21 snapshots) and 0.01 (101);
        # run keeps a dozen scalars per recorded state, not the state, so
        # its traced peak grows by far less than one N=1024 array per added
        # snapshot
        stencils._ptsv()  # LAPACK dptsv, found once, outside the traced peaks
        peaks = {}
        for cadence, count in ((0.05, 21), (0.01, 101)):
            cfg = shipped_scenario("smooth_bump", output_cadence=cadence)
            s = build_initial(cfg)
            tracemalloc.start()
            try:
                traj = run(s, cfg.solver, cfg.grid(), cfg.model)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(traj.times) == count
        assert peaks[101] - peaks[21] < 80 * cfg.n_cells * 8 // 4, peaks

    @staticmethod
    def reference_run(initial, cfg, grid, p):
        # run written out as a plain loop over the public stable_dt and
        # steps, with the two dissipation rates spelled out from
        # model.viscosity, and drive's clipping of each step to the next
        # cadence multiple and t_end
        eps = 1e-12 * max(1.0, cfg.t_end)
        effective = cfg.formulation == "effective"
        if effective:
            v = effective_velocity(initial, grid, p)
            u = recover_velocity(initial.rho, v, grid, p)
        state, t, k_out, e_acc, bd_acc = initial, 0.0, 1, 0.0, 0.0
        snapshots, e_diss, bd_diss = [state], [0.0], [0.0]
        while t < cfg.t_end - eps:
            next_out = k_out * cfg.output_cadence
            h = min(stable_dt(state, grid, cfg, p), next_out - t, cfg.t_end - t)
            rho = state.rho
            mu = model.viscosity(rho, p)
            e_acc += h * float(np.sum(mu * ddx(state.u, grid) ** 2) * grid.dx)
            coeff = mu * p.gamma * rho ** (p.gamma - 1.0) / (rho * rho)
            bd_acc += h * float(np.sum(coeff * ddx(rho, grid) ** 2) * grid.dx)
            if effective:
                state = step_effective(FluidState(time=t, rho=state.density, u=u, v=v), h, grid,
                                       cfg, p)
                v, u = state.v, state.u
            else:
                state = step_primitive(state, h, grid, cfg, p)
            t += h
            if t >= next_out - eps or t >= cfg.t_end - eps:
                snapshots.append(state)
                e_diss.append(e_acc)
                bd_diss.append(bd_acc)
                k_out += 1
        return snapshots, e_diss, bd_diss

    @pytest.mark.parametrize(
        "formulation, alpha", [("primitive", 0.75), ("effective", 0.75), ("effective", 1.0)]
    )
    def test_run_matches_plain_loop_reference(self, formulation, alpha):
        # alpha = 1 with gamma = 2 takes phi's and f2's log branches
        cfg = shipped_scenario("smooth_bump", 129, formulation=formulation)
        cfg = replace(cfg, model=replace(cfg.model, alpha=alpha))
        g, p = cfg.grid(), cfg.model
        s = build_initial(cfg)
        traj, got_snapshots = run_states(s, cfg.solver, g, p)
        snapshots, e_diss, bd_diss = self.reference_run(s, cfg.solver, g, p)
        assert len(got_snapshots) == len(snapshots) == 21
        np.testing.assert_array_equal(traj.times, [want.time for want in snapshots])
        for got, want in zip(got_snapshots, snapshots):
            assert got.time == want.time
            np.testing.assert_array_equal(got.rho, want.rho)
            np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(traj.energy_diss_accum, e_diss)
        np.testing.assert_array_equal(traj.bd_diss_accum, bd_diss)

    def test_boundary_reset_every_snapshot(self):
        cfg = shipped_scenario("rarefaction", 129)
        s = build_initial(cfg)
        _, snaps = run_states(s, cfg.solver, cfg.grid(), cfg.model)
        for snap in snaps:
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
        sref = build_initial(ref_cfg)
        ref = run_states(sref, ref_cfg.solver, ref_cfg.grid(), p)[1][-1]
        errs = {}
        for n in (129, 257):
            cfg = replace(ref_cfg, n_cells=n)
            s0 = build_initial(cfg)
            g = cfg.grid()
            fin = run_states(s0, cfg.solver, g, p)[1][-1]
            stride = 1024 // (n - 1)
            err = np.sqrt(np.sum((fin.rho - ref.rho[::stride]) ** 2) * g.dx) + np.sqrt(
                np.sum((fin.u - ref.u[::stride]) ** 2) * g.dx
            )
            errs[n] = err
            assert err <= 0.5 * g.dx  # L2 error <= C*dx with small C
        assert np.log2(errs[129] / errs[257]) >= 1.0

    def test_cross_formulation_agreement_quick(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        sol = SolverConfig(t_end=0.5, output_cadence=0.5)
        fp = run_states(s, sol, g, p)[1][-1]
        fe = run_states(s, replace(sol, formulation="effective"), g, p)[1][-1]
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
