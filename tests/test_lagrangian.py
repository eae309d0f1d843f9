"""Flow maps, frame transport, material-coordinate solver."""

import numpy as np
import pytest

from conftest import flow_series, run_states, shipped_scenario, velocity_states
from nsdv.errors import DomainExitError, HomeomorphismError, InputError, VacuumBlowup
from nsdv.eulerian import SolverConfig
from nsdv.initdata import build_initial
from nsdv.lagrangian import FlowMap, run_lagrangian, step_lagrangian, to_lagrangian
from nsdv.model import RHO_FLOOR, CheckedDensity, FluidState, Grid1D, ModelParams
from nsdv.stencils import ddx


def mp(alpha, gamma, L=8.0):
    return ModelParams(alpha=alpha, gamma=gamma, half_length=L)


class TestIntegrateFlow:
    def test_zero_velocity_identity(self):
        g = Grid1D(65, 2.0)
        states = velocity_states(g, np.linspace(0, 1, 6), lambda t, x: np.zeros_like(x))
        flows = flow_series(g, states)
        assert len(flows) == 6
        for flow in flows:
            np.testing.assert_array_equal(flow.x, g.coords)
            np.testing.assert_array_equal(flow.jacobian, np.ones(65))

    def test_constant_velocity_translation(self):
        g = Grid1D(65, 2.0)
        c = 0.37
        states = velocity_states(g, np.linspace(0, 1, 6), lambda t, x: np.full_like(x, c))
        for flow in flow_series(g, states, enforce_domain=False):
            np.testing.assert_allclose(flow.x, g.coords + c * flow.time, atol=1e-13)

    def test_linear_velocity_exponential_flow(self):
        # u = x frozen: X = x e^t, dX/dx = e^t.  u is sampled on the grid and
        # interpolation clamps beyond it, so X is checked only on particles
        # that have stayed inside [-L, L].
        g = Grid1D(65, 2.0)
        times = np.linspace(0, 0.5, 11)
        flows = flow_series(g, velocity_states(g, times, lambda t, x: x.copy()),
                            substeps=10, enforce_domain=False)
        h = (times[1] - times[0]) / 10
        for flow in flows:
            t = flow.time
            inside = np.abs(g.coords) * np.exp(t) <= g.half_length
            err = np.max(np.abs(flow.x - g.coords * np.exp(t))[inside])
            assert err <= 20.0 * np.exp(t) * g.half_length * h**2
            # dudx = 1 on every node: the exponential identity is exact
            np.testing.assert_allclose(flow.jacobian, np.exp(t), rtol=1e-12)

    def test_domain_exit_raises(self):
        g = Grid1D(65, 2.0)
        states = velocity_states(g, np.linspace(0, 5, 6), lambda t, x: np.ones_like(x))
        with pytest.raises(DomainExitError):
            flow_series(g, states)

    def test_jacobian_matches_map_difference_on_solver_run(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        _, snaps = run_states(s, SolverConfig(t_end=0.5, output_cadence=0.05), g, p)
        for flow in flow_series(g, snaps):
            # the exponential identity against the centered difference of X
            assert np.max(np.abs(flow.jacobian - ddx(flow.x, g))) <= 1e-4
            assert np.all(np.diff(flow.x) > 0)  # discrete homeomorphism
            assert np.all(flow.jacobian > 0)


def _sine_flows(g, t_end=0.5, n_rec=11):
    k = np.pi / g.half_length
    states = velocity_states(g, np.linspace(0, t_end, n_rec), lambda t, x: 0.3 * np.sin(k * x))
    return flow_series(g, states, substeps=8)


class TestTransport:
    def test_time_zero_identity(self):
        g = Grid1D(129, 2.0)
        flow = _sine_flows(g)[0]
        f = np.exp(-g.coords**2)
        np.testing.assert_array_equal(to_lagrangian(f, flow), f)

    def test_constant_exact(self):
        g = Grid1D(129, 2.0)
        flow = _sine_flows(g)[10]
        assert flow.time == 0.5
        f = np.full(129, 3.5)
        np.testing.assert_array_equal(to_lagrangian(f, flow), f)

    def test_non_monotone_map_rejected(self):
        g = Grid1D(5, 2.0)
        xm = np.array([-2.0, -1.0, -1.5, 1.0, 2.0])
        flow = FlowMap(grid=g, time=0.0, x=xm, jacobian=np.ones(5), u=np.zeros(5),
                       dudx=np.zeros(5))
        with pytest.raises(HomeomorphismError):
            to_lagrangian(np.ones(5), flow)


class TestStepLagrangian:
    def test_equilibrium_fixed_point(self):
        g = Grid1D(129, 4.0)
        p = mp(0.75, 2.0, L=4.0)
        rho0 = np.ones(129)
        state = (CheckedDensity.of(rho0.copy()), np.zeros(129), np.ones(129), g.coords.copy())
        for k in range(200):
            state = step_lagrangian(state, 1e-3, rho0, g, p, k * 1e-3)
        rho, u, jac, _ = state
        assert np.max(np.abs(rho.rho - 1.0)) <= 1e-12
        assert np.max(np.abs(u)) <= 1e-12
        assert np.max(np.abs(jac - 1.0)) <= 1e-12

    def test_particles_move_by_the_new_velocity(self):
        g = Grid1D(65, 4.0)
        p = mp(0.75, 2.0, L=4.0)
        x = g.coords
        rho0 = 1.0 + 0.2 * np.exp(-(x**2))
        state = (CheckedDensity.of(rho0.copy()), 0.1 * x * np.exp(-(x**2)), np.ones(65), x.copy())
        _, u_new, _, x_new = step_lagrangian(state, 1e-3, rho0, g, p, 0.0)
        assert np.max(np.abs(u_new)) > 1e-3
        np.testing.assert_array_equal(x_new, x + 1e-3 * u_new)

    def test_density_at_floor_is_vacuum_blowup(self):
        # one particle carries near-vacuum mass: the mass identity keeps its
        # density at the floor, reported with its node and the step's end time
        g = Grid1D(65, 4.0)
        rho0 = np.ones(65)
        rho0[40] = 0.5 * RHO_FLOOR
        with pytest.raises(VacuumBlowup) as err:
            state = (CheckedDensity.of(rho0.copy()), np.zeros(65), np.ones(65), g.coords.copy())
            step_lagrangian(state, 1e-3, rho0, g, mp(0.75, 2.0, L=4.0), time=0.25)
        assert err.value.node == 40
        assert err.value.time == 0.25 + 1e-3

    def test_run_lagrangian_raises_vacuum_blowup_with_its_node(self):
        # the same near-vacuum particle through the cadence loop: the first
        # step's blow-up propagates out of run_lagrangian, node and time kept
        g = Grid1D(65, 4.0)
        rho0 = np.ones(65)
        rho0[40] = 0.5 * RHO_FLOOR
        s = FluidState(time=0.0, rho=rho0, u=np.zeros(65))
        cfg = SolverConfig(t_end=0.5, output_cadence=0.1, dt_override=1e-3)
        with pytest.raises(VacuumBlowup) as err:
            run_lagrangian(s, cfg, g, mp(0.75, 2.0, L=4.0))
        assert err.value.node == 40
        assert err.value.time == 1e-3

    def test_mass_identity_exact_by_construction(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run_lagrangian(s, SolverConfig(t_end=0.5, output_cadence=0.1), g, p)
        for rho_k, jac_k in zip(traj.rho, traj.jacobian):
            np.testing.assert_allclose(jac_k * rho_k, s.rho, rtol=1e-13)

    def test_flow_inequality_bounds(self):
        # C(t)^{-1} inf rho0 <= dX/dx <= C(t) sup rho0 with
        # C(t) = max(rho_lag) * max(1/rho_lag) measured on the run
        cfg = shipped_scenario("smooth_bump", 257)
        s = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run_lagrangian(s, SolverConfig(t_end=0.5, output_cadence=0.1), g, p)
        lo, hi = float(np.min(s.rho)), float(np.max(s.rho))
        for rho_k, jac_k in zip(traj.rho, traj.jacobian):
            c_t = float(np.max(rho_k)) * float(np.max(1.0 / rho_k))
            assert np.min(jac_k) >= lo / c_t - 1e-12
            assert np.max(jac_k) <= hi * c_t + 1e-12

    def test_jacobian_positive_throughout(self):
        cfg = shipped_scenario("steepening", 129)
        s = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run_lagrangian(s, SolverConfig(t_end=1.0, output_cadence=0.1), g, p)
        for jac_k in traj.jacobian:
            assert np.all(jac_k > 0.0)

    def test_initial_time_must_be_zero(self):
        # as eulerian.run: a start at t=0.5 is rejected, not relabelled t=0
        g = Grid1D(65, 4.0)
        s = FluidState(time=0.5, rho=np.ones(65), u=np.zeros(65))
        with pytest.raises(InputError, match="start at t=0"):
            run_lagrangian(s, SolverConfig(t_end=1.0, output_cadence=0.5), g, mp(0.75, 2.0, L=4.0))

    def test_cross_solver_agreement(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        sol = SolverConfig(t_end=0.5, output_cadence=0.25)
        fp = run_states(s, sol, g, p)[1][-1]
        lag = run_lagrangian(s, sol, g, p)
        fl = lag.eulerian_state(len(lag.times) - 1)
        dist = np.sqrt(np.sum((fp.rho - fl.rho) ** 2) * g.dx) + np.sqrt(
            np.sum((fp.u - fl.u) ** 2) * g.dx
        )
        assert dist <= 0.5 * g.dx

