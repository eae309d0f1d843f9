"""Flow maps, frame transport, material-coordinate solver, v decay."""

import numpy as np
import pytest

import nsdv
from nsdv.errors import DomainExitError, HomeomorphismError
from nsdv.eulerian import SolverConfig, Trajectory, run
from nsdv.initdata import build_initial, regression_scenarios
from nsdv.lagrangian import (
    FlowMap,
    TrajectorySampler,
    integrate_flow,
    lagrangian_density,
    run_lagrangian,
    step_lagrangian,
    to_eulerian,
    to_lagrangian,
    v_lagrangian_decay,
)
from nsdv.model import FluidState, Grid1D, ModelParams


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

    def test_jacobian_fd_agreement_on_solver_run(self):
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run(s, SolverConfig(t_end=0.5, output_cadence=0.05), g, p)
        flow = integrate_flow(TrajectorySampler(traj), g)
        assert flow.max_jacobian_discrepancy() <= 1e-4
        for k in range(len(flow.times)):
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
        np.testing.assert_array_equal(to_lagrangian(f, flow, 0.0), f)
        np.testing.assert_array_equal(to_eulerian(f, flow, 0.0), f)

    def test_constant_exact(self):
        g = Grid1D(129, 2.0)
        flow = _sine_flow(g)
        f = np.full(129, 3.5)
        np.testing.assert_array_equal(to_lagrangian(f, flow, 0.5), f)
        np.testing.assert_array_equal(to_eulerian(f, flow, 0.5), f)

    def test_round_trip_second_order(self):
        errs = {}
        for n in (129, 257):
            g = Grid1D(n, 2.0)
            flow = _sine_flow(g)
            f = np.exp(-g.coords**2)
            back = to_eulerian(to_lagrangian(f, flow, 0.5), flow, 0.5)
            errs[n] = np.max(np.abs(back - f))
            assert errs[n] <= 10.0 * g.dx**2
        assert errs[129] / errs[257] >= 3.0  # second-order decay

    def test_unknown_time_rejected(self):
        g = Grid1D(65, 2.0)
        flow = _sine_flow(g)
        with pytest.raises(nsdv.InputError):
            to_lagrangian(np.ones(65), flow, 0.123456)

    def test_non_monotone_map_rejected(self):
        g = Grid1D(5, 2.0)
        xm = np.array([[-2.0, -1.0, -1.5, 1.0, 2.0]])
        flow = FlowMap(times=np.array([0.0]), x_map=xm, jacobian=np.ones((1, 5)), grid=g)
        with pytest.raises(HomeomorphismError):
            to_lagrangian(np.ones(5), flow, 0.0)


class TestLagrangianDensity:
    def test_static_flow(self):
        g = Grid1D(65, 2.0)
        sampler = StaticSampler(lambda t, x: np.zeros_like(x), lambda t, x: np.zeros_like(x),
                                np.linspace(0, 1, 3))
        flow = integrate_flow(sampler, g)
        rho0 = 1.0 + 0.3 * np.exp(-g.coords**2)
        np.testing.assert_array_equal(lagrangian_density(flow, rho0, 1.0), rho0)

    def test_exponential_flow(self):
        g = Grid1D(65, 2.0)
        times = np.linspace(0, 0.5, 11)
        sampler = StaticSampler(lambda t, x: x, lambda t, x: np.ones_like(x), times)
        flow = integrate_flow(sampler, g, substeps=10, enforce_domain=False)
        rho0 = 1.0 + 0.3 * np.exp(-g.coords**2)
        np.testing.assert_allclose(
            lagrangian_density(flow, rho0, 0.5), rho0 * np.exp(-0.5), rtol=1e-12
        )

    def test_nonpositive_jacobian_rejected(self):
        g = Grid1D(5, 2.0)
        flow = FlowMap(
            times=np.array([0.0]),
            x_map=g.coords[None, :].copy(),
            jacobian=np.array([[1.0, 1.0, -0.5, 1.0, 1.0]]),
            grid=g,
        )
        with pytest.raises(HomeomorphismError):
            lagrangian_density(flow, np.ones(5), 0.0)


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

    def test_mass_identity_exact_by_construction(self):
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run_lagrangian(s, SolverConfig(t_end=0.5, output_cadence=0.1), g, p)
        for rho_k, jac_k in zip(traj.rho, traj.jacobian):
            np.testing.assert_allclose(jac_k * rho_k, s.rho, rtol=1e-13)

    def test_flow_inequality_bounds(self):
        # C(t)^{-1} inf rho0 <= dX/dx <= C(t) sup rho0 with
        # C(t) = max(rho_lag) * max(1/rho_lag) measured on the run
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run_lagrangian(s, SolverConfig(t_end=0.5, output_cadence=0.1), g, p)
        lo, hi = float(np.min(s.rho)), float(np.max(s.rho))
        for rho_k, jac_k in zip(traj.rho, traj.jacobian):
            c_t = float(np.max(rho_k)) * float(np.max(1.0 / rho_k))
            assert np.min(jac_k) >= lo / c_t - 1e-12
            assert np.max(jac_k) <= hi * c_t + 1e-12

    def test_jacobian_positive_throughout(self):
        cfg = regression_scenarios(n_cells=129)["steepening"]
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run_lagrangian(s, SolverConfig(t_end=1.0, output_cadence=0.1), g, p)
        for jac_k in traj.jacobian:
            assert np.all(jac_k > 0.0)

    def test_cross_solver_agreement(self):
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
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


class TestVDecay:
    def _equilibrium_traj(self, g, p, t_end=0.5, n=11):
        snaps = [
            FluidState(time=t, rho=np.ones(g.n_cells), u=np.zeros(g.n_cells))
            for t in np.linspace(0.0, t_end, n)
        ]
        zeros = np.zeros(n)
        return Trajectory(p, g, snaps, zeros, zeros.copy())

    def test_zero_initial_v_stays_zero(self):
        g = Grid1D(65, 2.0)
        p = mp(0.75, 2.0, L=2.0)
        rep = v_lagrangian_decay(self._equilibrium_traj(g, p), np.zeros(65))
        assert np.all(rep.ratio == 0.0)

    def test_pure_damping_exponential(self):
        # rho = 1, u = 0: v decays exactly as exp(-gamma t)
        g = Grid1D(65, 2.0)
        p = mp(0.75, 2.0, L=2.0)
        v0 = np.exp(-g.coords**2)
        rep = v_lagrangian_decay(self._equilibrium_traj(g, p), v0)
        np.testing.assert_allclose(rep.v_final, v0 * np.exp(-p.gamma * 0.5), rtol=1e-12)

    def test_smooth_scenario_envelope(self):
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, v0, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run(s, SolverConfig(t_end=0.5, output_cadence=0.05), g, p)
        rep = v_lagrangian_decay(traj, v0)
        assert np.all(np.isfinite(rep.envelope))
        assert np.all(np.diff(rep.envelope) >= 0.0)  # running max by construction
        assert rep.envelope[-1] <= 10.0 * (1.0 + np.max(np.abs(v0)))
