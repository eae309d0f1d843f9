"""Effective velocity/flux/pressure, convective derivative, y-equation residual."""

import numpy as np
import pytest

from conftest import shipped_scenario, smooth_state
from nsdv.effective import (
    compute_effective_fields,
    convective_derivative,
    effective_flux,
    effective_pressure,
    effective_velocity,
    y_residual,
)
from nsdv.errors import InputError
from nsdv.eulerian import SolverConfig, run, step_primitive
from nsdv.initdata import build_initial, manufactured_exact
from nsdv.model import FluidState, Grid1D, ModelParams, f2, phi, viscosity
from nsdv.stencils import ddx

# high-resolution limit of the y-equation mismatch of the manufactured fields
# (frozen at N=8193, see the refinement check below)
MMS_Y_MISMATCH = 0.154109860850145


def mp(alpha, gamma, L=8.0):
    return ModelParams(alpha=alpha, gamma=gamma, half_length=L)


class TestEffectiveVelocity:
    def test_constant_density_gives_u(self, grid):
        p = mp(0.75, 2.0)
        u = np.sin(grid.coords)
        s = FluidState(time=0.0, rho=np.full(grid.n_cells, 1.7), u=u)
        np.testing.assert_allclose(effective_velocity(s, grid, p), u, rtol=0, atol=1e-14)

    def test_alpha2_sine_density(self):
        # mu/rho^2 = 1 when alpha = 2, so v = u + d rho/dx = 0.1 cos(x)
        g = Grid1D(1024, np.pi)
        p = mp(2.0, 2.0, L=np.pi)
        s = FluidState(time=0.0, rho=1.0 + 0.1 * np.sin(g.coords), u=np.zeros(g.n_cells))
        v = effective_velocity(s, g, p)
        assert np.max(np.abs(v - 0.1 * np.cos(g.coords))) <= 10.0 * g.dx**2

    def test_chain_rule_form(self, grid):
        # v agrees with u + ddx(phi(rho)) up to stencil commutation error
        p = mp(0.75, 2.0)
        s = smooth_state(grid)
        v = effective_velocity(s, grid, p)
        v_chain = s.u + ddx(phi(s.rho, p), grid)
        assert np.max(np.abs(v - v_chain)) <= 10.0 * grid.dx**2

    def test_reformulation_consistency(self, grid):
        # rho*(v-u) - (mu/rho)*ddx(rho) = 0 node-wise to round-off
        p = mp(0.75, 2.0)
        s = smooth_state(grid)
        v = effective_velocity(s, grid, p)
        lhs = s.rho * (v - s.u) - viscosity(s.rho, p) / s.rho * ddx(s.rho, grid)
        assert np.max(np.abs(lhs)) <= 1e-14


class TestEffectiveFlux:
    def test_equilibrium_zero(self, grid, equilibrium):
        p = mp(0.75, 2.0)
        np.testing.assert_array_equal(effective_flux(equilibrium, grid, p), 0.0)

    def test_linear_velocity(self, grid):
        p = mp(0.75, 2.0)
        s = FluidState(time=0.0, rho=np.ones(grid.n_cells), u=grid.coords.copy())
        np.testing.assert_allclose(effective_flux(s, grid, p), 1.0, atol=1e-12)

    def test_pressure_offset(self, grid):
        p = mp(0.75, 2.0)
        s = FluidState(time=0.0, rho=np.full(grid.n_cells, 2.0), u=np.zeros(grid.n_cells))
        np.testing.assert_allclose(effective_flux(s, grid, p), -3.0, atol=1e-12)


class TestEffectivePressure:
    def test_equilibrium_power_branch(self, grid, equilibrium):
        p = mp(0.5 + 1e-3, 2.0)  # f2(1) = gamma/(gamma-alpha-1)
        y = effective_pressure(equilibrium, grid, p)
        np.testing.assert_allclose(y, f2(1.0, p), atol=1e-12)

    def test_equilibrium_exact_value(self, grid, equilibrium):
        # gamma=2, alpha just above 1/2: f2(1) ~ 2/0.5 = 4 at alpha=0.5
        p = ModelParams(alpha=0.50000001, gamma=2.0, half_length=8.0)
        y = effective_pressure(equilibrium, grid, p)
        assert y[0] == pytest.approx(4.0, rel=1e-6)

    def test_equilibrium_log_branch(self, grid, equilibrium):
        p = mp(1.0, 2.0)
        np.testing.assert_allclose(effective_pressure(equilibrium, grid, p), 0.0, atol=1e-12)

    def test_manufactured_state_analytic(self):
        # alpha=2 makes v = u + rho_x analytically tractable
        g = Grid1D(2048, np.pi)
        p = mp(2.0, 3.0, L=np.pi)
        a, b = 0.1, 0.05
        x = g.coords
        rho = 1.0 + a * np.sin(x)
        u = b * np.cos(x)
        s = FluidState(time=0.0, rho=rho, u=u)
        dv = -b * np.sin(x) - a * np.sin(x)  # d/dx (u + rho_x)
        y_exact = dv / rho + f2(rho, p)
        y = effective_pressure(s, g, p)
        # nested one-sided stencils carry a larger constant on the two
        # outermost nodes of this non-far-field synthetic state
        assert np.max(np.abs(y - y_exact)[2:-2]) <= 10.0 * g.dx**2
        assert np.max(np.abs(y - y_exact)) <= 100.0 * g.dx**2


class TestConvectiveDerivative:
    def test_equilibrium_zero(self, grid, equilibrium):
        p = mp(0.75, 2.0)
        np.testing.assert_allclose(convective_derivative(equilibrium, grid, p), 0.0, atol=1e-12)

    def test_sine_velocity_laplacian(self):
        g = Grid1D(1024, np.pi)
        p = mp(1.0, 2.0, L=np.pi)
        s = FluidState(time=0.0, rho=np.ones(g.n_cells), u=np.sin(g.coords))
        udot = convective_derivative(s, g, p)
        assert np.max(np.abs(udot + np.sin(g.coords))[2:-2]) <= 10.0 * g.dx**2
        assert np.max(np.abs(udot + np.sin(g.coords))) <= 500.0 * g.dx**2

    def test_matches_time_difference_oracle(self):
        # udot from the momentum balance vs (u(t+d)-u(t))/d + u u_x from a
        # solver micro-step
        cfg = shipped_scenario("smooth_bump", 513)
        state, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        delta = 1e-7
        scfg = SolverConfig(t_end=1.0, output_cadence=1.0, diffusion_treatment="explicit")
        nxt = step_primitive(state, delta, g, scfg, p)
        du_dt = (nxt.u - state.u) / delta
        oracle = du_dt + state.u * ddx(state.u, g)
        udot = convective_derivative(state, g, p)
        assert np.max(np.abs(udot - oracle)) <= 1e-3  # O(delta) + O(dx^2)


class TestYResidual:
    def test_equilibrium_trajectory_zero(self, grid):
        p = mp(0.75, 2.0)
        snaps = [
            FluidState(time=t, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))
            for t in (0.0, 0.1, 0.2)
        ]
        r = y_residual(*snaps, grid, p)
        assert r.max_norm == 0.0 and r.l2_norm == 0.0

    def test_rejects_bad_times_and_grids(self, grid):
        p = mp(0.75, 2.0)
        ones = np.ones(grid.n_cells)
        s0 = FluidState(time=0.0, rho=ones, u=0 * ones)
        s1 = FluidState(time=0.1, rho=ones, u=0 * ones)
        with pytest.raises(InputError):
            y_residual(s1, s0, s1, grid, p)
        small = FluidState(time=0.2, rho=np.ones(11), u=np.zeros(11))
        with pytest.raises(InputError):
            y_residual(s0, s1, small, grid, p)

    def test_refinement_order(self):
        # solver-time error held at O(dx^2) so the residual scales as
        # C*(dx^2 + cadence^2) with stable C
        worst = {}
        cs = {}
        for n, cad in ((129, 0.08), (257, 0.04)):
            g0 = shipped_scenario("smooth_bump", n).grid()
            cfg = shipped_scenario(
                "smooth_bump", n, t_end=0.4, output_cadence=cad, dt_override=0.2 * g0.dx**2
            )
            state, _, _ = build_initial(cfg)
            g, p = cfg.grid(), cfg.model
            traj = run(state, cfg.solver, g, p)
            r = max(
                y_residual(
                    traj.snapshots[k - 1], traj.snapshots[k], traj.snapshots[k + 1], g, p
                ).max_norm
                for k in range(1, len(traj.snapshots) - 1)
            )
            worst[n] = r
            cs[n] = r / (g.dx**2 + cad**2)
        order = np.log2(worst[129] / worst[257])
        assert order >= 1.0
        assert abs(cs[129] - cs[257]) <= 0.5 * cs[257]  # empirical C stable

    def test_manufactured_mismatch(self):
        # exact manufactured fields do not solve the homogeneous system; the
        # residual converges to their known forcing mismatch
        p = mp(0.75, 2.0, L=np.pi)
        g = Grid1D(1025, np.pi)
        t_mid, dt = 0.3, 1e-4
        snaps = []
        for t in (t_mid - dt, t_mid, t_mid + dt):
            rho, u = manufactured_exact("manufactured-1", t, g, p)
            snaps.append(FluidState(time=t, rho=rho, u=u))
        r = y_residual(*snaps, g, p)
        assert r.max_norm == pytest.approx(MMS_Y_MISMATCH, rel=1e-3)


def test_compute_effective_fields_boundary_invariants(grid):
    # far-field nodes: v = u, w1 = 0, y = f2(1)
    p = mp(0.75, 2.0)
    s = smooth_state(grid)
    eff = compute_effective_fields(s, grid, p)
    for idx in (0, -1):
        assert eff.v[idx] == pytest.approx(s.u[idx], abs=1e-12)
        assert eff.w1[idx] == pytest.approx(0.0, abs=1e-12)
        assert eff.y[idx] == pytest.approx(f2(1.0, p), abs=1e-10)
