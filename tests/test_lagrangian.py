"""Flow maps, frame transport, material-coordinate solver."""

import numpy as np
import pytest

from conftest import shipped_scenario
from nsdv.errors import DomainExitError, HomeomorphismError, VacuumBlowup
from nsdv.eulerian import SolverConfig, run
from nsdv.initdata import build_initial
from nsdv.lagrangian import (
    FlowMap,
    TrajectorySampler,
    integrate_flow,
    run_lagrangian,
    step_lagrangian,
    to_lagrangian,
)
from nsdv.model import RHO_FLOOR, Grid1D, ModelParams
from nsdv.stencils import ddx


def mp(alpha, gamma, L=8.0):
    return ModelParams(alpha=alpha, gamma=gamma, half_length=L)


class StaticSampler:
    """Analytic velocity field u(t, x) with analytic d u/dx, for flow tests."""

    def __init__(self, fn, dfn, times):
        self.fn, self.dfn = fn, dfn
        self.times = np.asarray(times)

    def __call__(self, t, x):
        return self.fn(t, x)

    def dudx(self, t, x):
        return self.dfn(t, x)


class TestIntegrateFlow:
    def test_zero_velocity_identity(self):
        g = Grid1D(65, 2.0)
        sampler = StaticSampler(lambda t, x: np.zeros_like(x), lambda t, x: np.zeros_like(x),
                                np.linspace(0, 1, 6))
        flow = integrate_flow(sampler, g)
        for k in range(6):
            np.testing.assert_array_equal(flow.x_map[k], g.coords)
            np.testing.assert_array_equal(flow.jacobian[k], np.ones(65))

    def test_constant_velocity_translation(self):
        g = Grid1D(65, 2.0)
        c = 0.37
        sampler = StaticSampler(lambda t, x: np.full_like(x, c), lambda t, x: np.zeros_like(x),
                                np.linspace(0, 1, 6))
        flow = integrate_flow(sampler, g, enforce_domain=False)
        for k, t in enumerate(flow.times):
            np.testing.assert_allclose(flow.x_map[k], g.coords + c * t, atol=1e-13)

    def test_linear_velocity_exponential_flow(self):
        # u = x frozen: X = x e^t, dX/dx = e^t
        g = Grid1D(65, 2.0)
        times = np.linspace(0, 0.5, 11)
        sampler = StaticSampler(lambda t, x: x, lambda t, x: np.ones_like(x), times)
        flow = integrate_flow(sampler, g, substeps=10, enforce_domain=False)
        h = (times[1] - times[0]) / 10
        for k, t in enumerate(times):
            err = np.max(np.abs(flow.x_map[k] - g.coords * np.exp(t)))
            assert err <= 20.0 * np.exp(t) * g.half_length * h**2
            # dudx = 1: the exponential identity is exact
            np.testing.assert_allclose(flow.jacobian[k], np.exp(t), rtol=1e-12)

    def test_domain_exit_raises(self):
        g = Grid1D(65, 2.0)
        sampler = StaticSampler(lambda t, x: np.ones_like(x), lambda t, x: np.zeros_like(x),
                                np.linspace(0, 5, 6))
        with pytest.raises(DomainExitError):
            integrate_flow(sampler, g)

    def test_jacobian_matches_map_difference_on_solver_run(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run(s, SolverConfig(t_end=0.5, output_cadence=0.05), g, p)
        flow = integrate_flow(TrajectorySampler(g, traj.snapshots), g)
        for k in range(len(flow.times)):
            # the exponential identity against the centered difference of X
            assert np.max(np.abs(flow.jacobian[k] - ddx(flow.x_map[k], g))) <= 1e-4
            assert np.all(np.diff(flow.x_map[k]) > 0)  # discrete homeomorphism
            assert np.all(flow.jacobian[k] > 0)


def _sine_flow(g, t_end=0.5, n_rec=11):
    times = np.linspace(0, t_end, n_rec)
    k = np.pi / g.half_length
    sampler = StaticSampler(
        lambda t, x: 0.3 * np.sin(k * x),
        lambda t, x: 0.3 * k * np.cos(k * x),
        times,
    )
    return integrate_flow(sampler, g, substeps=8)


class TestTransport:
    def test_time_zero_identity(self):
        g = Grid1D(129, 2.0)
        flow = _sine_flow(g)
        f = np.exp(-g.coords**2)
        np.testing.assert_array_equal(to_lagrangian(f, flow, 0), f)

    def test_constant_exact(self):
        g = Grid1D(129, 2.0)
        flow = _sine_flow(g)
        f = np.full(129, 3.5)
        np.testing.assert_array_equal(to_lagrangian(f, flow, 10), f)  # t = 0.5

    def test_non_monotone_map_rejected(self):
        g = Grid1D(5, 2.0)
        xm = np.array([[-2.0, -1.0, -1.5, 1.0, 2.0]])
        flow = FlowMap(times=np.array([0.0]), x_map=xm, jacobian=np.ones((1, 5)), grid=g)
        with pytest.raises(HomeomorphismError):
            to_lagrangian(np.ones(5), flow, 0)


class TestStepLagrangian:
    def test_equilibrium_fixed_point(self):
        g = Grid1D(129, 4.0)
        p = mp(0.75, 2.0, L=4.0)
        rho0 = np.ones(129)
        rho, u, jac = rho0.copy(), np.zeros(129), np.ones(129)
        for _ in range(200):
            rho, u, jac = step_lagrangian(rho, u, jac, 1e-3, rho0, g, p)
        assert np.max(np.abs(rho - 1.0)) <= 1e-12
        assert np.max(np.abs(u)) <= 1e-12
        assert np.max(np.abs(jac - 1.0)) <= 1e-12

    def test_density_at_floor_is_vacuum_blowup(self):
        # one particle carries near-vacuum mass: the mass identity keeps its
        # density at the floor, reported with its node and the step's end time
        g = Grid1D(65, 4.0)
        rho0 = np.ones(65)
        rho0[40] = 0.5 * RHO_FLOOR
        with pytest.raises(VacuumBlowup) as err:
            step_lagrangian(rho0.copy(), np.zeros(65), np.ones(65), 1e-3, rho0, g,
                            mp(0.75, 2.0, L=4.0), time=0.25)
        assert err.value.node == 40
        assert err.value.time == 0.25 + 1e-3

    def test_mass_identity_exact_by_construction(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run_lagrangian(s, SolverConfig(t_end=0.5, output_cadence=0.1), g, p)
        for rho_k, jac_k in zip(traj.rho, traj.jacobian):
            np.testing.assert_allclose(jac_k * rho_k, s.rho, rtol=1e-13)

    def test_flow_inequality_bounds(self):
        # C(t)^{-1} inf rho0 <= dX/dx <= C(t) sup rho0 with
        # C(t) = max(rho_lag) * max(1/rho_lag) measured on the run
        cfg = shipped_scenario("smooth_bump", 257)
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run_lagrangian(s, SolverConfig(t_end=0.5, output_cadence=0.1), g, p)
        lo, hi = float(np.min(s.rho)), float(np.max(s.rho))
        for rho_k, jac_k in zip(traj.rho, traj.jacobian):
            c_t = float(np.max(rho_k)) * float(np.max(1.0 / rho_k))
            assert np.min(jac_k) >= lo / c_t - 1e-12
            assert np.max(jac_k) <= hi * c_t + 1e-12

    def test_jacobian_positive_throughout(self):
        cfg = shipped_scenario("steepening", 129)
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run_lagrangian(s, SolverConfig(t_end=1.0, output_cadence=0.1), g, p)
        for jac_k in traj.jacobian:
            assert np.all(jac_k > 0.0)

    def test_cross_solver_agreement(self):
        cfg = shipped_scenario("smooth_bump", 257)
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        sol = SolverConfig(t_end=0.5, output_cadence=0.25)
        fp = run(s, sol, g, p).snapshots[-1]
        lag = run_lagrangian(s, sol, g, p)
        fl = lag.eulerian_state(len(lag.times) - 1)
        dist = np.sqrt(np.sum((fp.rho - fl.rho) ** 2) * g.dx) + np.sqrt(
            np.sum((fp.u - fl.u) ** 2) * g.dx
        )
        assert dist <= 0.5 * g.dx

