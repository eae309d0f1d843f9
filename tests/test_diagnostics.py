"""Scalar functionals, envelopes, and monitor flags."""

import numpy as np
import pytest

from conftest import smooth_state
from nsdv.diagnostics import (
    FLAG_ORDER,
    bd_entropy,
    build_series,
    bv_norm,
    constantin_condition_holds,
    energy,
    hoff_A,
    hoff_A_series,
    hoff_B,
    hoff_B_series,
    oleinik_monitor,
    sigma,
    vacuum_monitor,
    y_comparison_ode,
)
from nsdv.errors import InputError
from nsdv.eulerian import SolverConfig, Trajectory, run
from nsdv.initdata import build_initial, regression_scenarios
from nsdv.model import FluidState, Grid1D, ModelParams, f2
from nsdv.stencils import ddx

# quadrature oracle: int 0.5*exp(-2x^2) dx = 0.5*sqrt(pi/2); the discrete sum
# matches it to machine precision (all boundary derivatives vanish)
HALF_GAUSS_ENERGY = 0.6266570686577501


def mp(alpha, gamma, L=8.0):
    return ModelParams(alpha=alpha, gamma=gamma, half_length=L)


def synthetic_traj(g, p, states, cadence=0.1):
    n = len(states)
    zeros = np.zeros(n)
    return Trajectory(p, g, states, zeros, zeros.copy())


def test_build_series_evaluates_each_snapshot_once(monkeypatch):
    import nsdv.diagnostics

    cfg = regression_scenarios(n_cells=129)["smooth_bump"]
    s, _, _ = build_initial(cfg)
    traj = run(s, cfg.solver, cfg.grid(), cfg.model, build_diagnostics=False)
    calls = []
    real = nsdv.diagnostics.compute_effective_fields

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nsdv.diagnostics, "compute_effective_fields", counting)
    build_series(traj)
    assert len(calls) == len(traj.snapshots)


class TestEnergy:
    def test_equilibrium_zero(self, grid, equilibrium):
        assert energy(equilibrium, grid, mp(0.75, 2.0)) == 0.0

    def test_gaussian_velocity_quadrature(self):
        g = Grid1D(2049, 8.0)
        p = mp(0.75, 2.0)
        s = FluidState(time=0.0, rho=np.ones(g.n_cells), u=np.exp(-g.coords**2))
        assert energy(s, g, p) == pytest.approx(HALF_GAUSS_ENERGY, abs=1e-9)

    def test_bd_equals_energy_for_flat_density(self, grid):
        p = mp(0.75, 2.0)
        s = FluidState(time=0.0, rho=np.ones(grid.n_cells), u=np.sin(grid.coords))
        assert bd_entropy(s, grid, p) == pytest.approx(energy(s, grid, p), rel=1e-12)

    def test_balance_holds_on_scenarios(self):
        for name, cfg in regression_scenarios(n_cells=257).items():
            s, _, _ = build_initial(cfg)
            traj = run(s, cfg.solver, cfg.grid(), cfg.model)
            d = traj.diagnostics
            assert not np.any(d.violation_flags["energy"]), name
            assert not np.any(d.violation_flags["bd"]), name

    def test_energy_plus_dissipation_nonincreasing(self):
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        d = traj.diagnostics
        total = d.energy + d.energy_diss_accum
        slack = 1e-3 * d.energy[0] + d.tolerance * np.diff(d.times)
        assert np.all(np.diff(total) <= slack)

    def test_bd_sup_bounded_by_initial_plus_budget(self):
        cfg = regression_scenarios(n_cells=257)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        d = traj.diagnostics
        assert np.max(d.bd_entropy) <= 1.05 * d.bd_entropy[0] + d.bd_diss_accum[-1]


class TestHoff:
    def test_sigma_weight(self):
        assert sigma(0.0) == 0.0
        assert sigma(0.5) == 0.5
        assert sigma(3.0) == 1.0

    def test_zero_at_time_zero_any_data(self, grid):
        p = mp(0.75, 2.0)
        s = smooth_state(grid, rho_amp=0.2, u_amp=0.3)
        traj = synthetic_traj(grid, p, [s])
        assert hoff_A_series(traj)[0] == 0.0
        assert hoff_B_series(traj)[0] == 0.0

    def test_equilibrium_identically_zero(self, grid):
        p = mp(0.75, 2.0)
        snaps = [
            FluidState(time=t, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))
            for t in np.linspace(0, 2, 5)
        ]
        traj = synthetic_traj(grid, p, snaps)
        assert np.all(hoff_A_series(traj) == 0.0)
        assert np.all(hoff_B_series(traj) == 0.0)
        assert hoff_A(traj) == 0.0 and hoff_B(traj) == 0.0

    def test_refinement_stability(self):
        base = regression_scenarios()["smooth_bump"]
        from dataclasses import replace

        sups = {}
        for n in (513, 1025):
            cfg = replace(base, n_cells=n)
            s, _, _ = build_initial(cfg)
            traj = run(s, cfg.solver, cfg.grid(), cfg.model, build_diagnostics=False)
            sups[n] = (np.max(hoff_A_series(traj)), np.max(hoff_B_series(traj)))
        assert abs(sups[513][0] - sups[1025][0]) <= 0.05 * sups[1025][0]
        assert abs(sups[513][1] - sups[1025][1]) <= 0.10 * sups[1025][1]


class TestYEnvelope:
    def test_equilibrium_growth_rate(self, grid):
        # gamma=3, alpha=1: y_env = f2(1) + 9 t, measured y stays at f2(1)
        p = mp(1.0, 3.0)
        snaps = [
            FluidState(time=t, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))
            for t in np.linspace(0, 1, 6)
        ]
        traj = synthetic_traj(grid, p, snaps)
        env = y_comparison_ode(traj)
        assert env.available and env.c_gamma == pytest.approx(9.0)
        np.testing.assert_allclose(env.y_env, f2(1.0, p) + 9.0 * traj.times, rtol=1e-12)

    def test_gamma_below_line_constant_envelope(self, grid):
        p = mp(0.75, 1.0)  # c_gamma = max(0, .) = 0
        snaps = [
            FluidState(time=t, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))
            for t in np.linspace(0, 1, 6)
        ]
        env = y_comparison_ode(synthetic_traj(grid, p, snaps))
        assert env.c_gamma == 0.0
        assert np.all(env.y_env == env.y_env[0])

    def test_log_branch_withheld(self, grid):
        p = mp(1.0, 2.0)
        snaps = [FluidState(time=0.0, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))]
        env = y_comparison_ode(synthetic_traj(grid, p, snaps))
        assert not env.available and env.y_env is None
        olk = oleinik_monitor(synthetic_traj(grid, p, snaps))
        assert not olk.available and olk.envelope is None


class TestOleinik:
    def test_equilibrium_passes(self, grid):
        p = mp(0.75, 2.0)
        snaps = [
            FluidState(time=t, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))
            for t in np.linspace(0, 1, 4)
        ]
        rep = oleinik_monitor(synthetic_traj(grid, p, snaps))
        assert np.all(rep.slope_max == 0.0)
        assert np.all(rep.ok)

    def test_one_sidedness(self):
        # steepening scenario: min slope grows strongly negative, the monitor
        # only ever constrains the max side
        cfg = regression_scenarios(n_cells=257)["steepening"]
        s, _, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        traj = run(s, cfg.solver, g, p, build_diagnostics=False)
        rep = oleinik_monitor(traj)
        assert np.all(rep.ok)
        from nsdv.effective import effective_velocity

        min_slope = min(
            float(np.min(ddx(effective_velocity(sn, g, p), g))) for sn in traj.snapshots
        )
        assert min_slope < -0.3  # steep negative side, unconstrained


class TestVacuum:
    def test_equilibrium_z_one(self, grid):
        p = mp(0.75, 1.0)
        snaps = [
            FluidState(time=t, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))
            for t in np.linspace(0, 1, 4)
        ]
        rep = vacuum_monitor(synthetic_traj(grid, p, snaps))
        assert rep.available
        assert np.all(rep.z == 1.0)
        assert np.all(rep.ok) and not np.any(rep.blowup)

    def test_unavailable_above_line(self, grid):
        p = mp(0.75, 2.0)  # gamma > alpha + 1
        snaps = [FluidState(time=0.0, rho=np.ones(grid.n_cells), u=np.zeros(grid.n_cells))]
        rep = vacuum_monitor(synthetic_traj(grid, p, snaps))
        assert not rep.available and rep.z_env is None

    def test_rarefaction_below_comparison(self):
        cfg = regression_scenarios(n_cells=257)["rarefaction"]
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model, build_diagnostics=False)
        rep = vacuum_monitor(traj)
        assert rep.available
        assert np.all(rep.ok)
        assert rep.z[-1] > 1.0  # density genuinely dips
        assert np.all(rep.z <= rep.z_env + rep.tolerance)


class TestBV:
    def test_monotone_field(self):
        g = Grid1D(101, 2.0)
        v = np.tanh(3 * g.coords)
        assert bv_norm(v, g, 2.0) == pytest.approx(abs(v[-1] - v[0]), rel=1e-12)

    def test_constant_zero(self):
        g = Grid1D(101, 2.0)
        assert bv_norm(np.full(101, 2.2), g, 1.0) == 0.0

    def test_sine_total_variation(self):
        g = Grid1D(1025, np.pi)
        tv = bv_norm(np.sin(g.coords), g, np.pi)
        assert tv == pytest.approx(4.0, abs=10 * g.dx)

    def test_window_validation(self):
        g = Grid1D(101, 2.0)
        with pytest.raises(InputError):
            bv_norm(np.ones(101), g, 3.0)


class TestSeries:
    def test_inv_rho_max_identity(self):
        cfg = regression_scenarios(n_cells=257)["rarefaction"]
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        d = traj.diagnostics
        for k, snap in enumerate(traj.snapshots):
            assert d.inv_rho_max[k] * float(np.min(snap.rho)) == pytest.approx(1.0, rel=1e-14)

    def test_flag_layout(self):
        cfg = regression_scenarios(n_cells=129)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        d = traj.diagnostics
        assert set(d.violation_flags) == set(FLAG_ORDER)
        bits = d.flag_bits(0)
        assert len(bits) == len(FLAG_ORDER) and set(bits) <= {"0", "1"}
        assert not d.any_violation()

    def test_series_axes_shared(self):
        cfg = regression_scenarios(n_cells=129)["smooth_bump"]
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        d = traj.diagnostics
        n = len(d.times)
        for name in (
            "energy",
            "energy_diss_accum",
            "bd_entropy",
            "bd_diss_accum",
            "hoff_A",
            "hoff_B",
            "y_max",
            "oleinik_slope",
            "inv_rho_max",
            "rho_max",
            "bv_norm_v",
            "w1_max",
        ):
            assert len(getattr(d, name)) == n, name

    def test_equilibrium_y_max_is_f2_of_one_both_branches(self):
        for alpha, gamma in ((0.75, 2.0), (1.0, 2.0)):
            g = Grid1D(129, 8.0)
            p = mp(alpha, gamma)
            s = FluidState(time=0.0, rho=np.ones(129), u=np.zeros(129))
            traj = run(s, SolverConfig(t_end=0.2, output_cadence=0.1), g, p)
            np.testing.assert_allclose(traj.diagnostics.y_max, f2(1.0, p), atol=1e-12)


class TestMonitorsFire:
    """The monitors must flag genuinely violating data, not pass vacuously."""

    def test_y_envelope_flag_fires(self, grid):
        # constant envelope (c_gamma = 0) but a later snapshot with a steep
        # positive v slope pushes y_max far above it
        p = mp(0.75, 1.0)
        n = grid.n_cells
        flat = FluidState(time=0.0, rho=np.ones(n), u=np.zeros(n))
        steep = FluidState(
            time=0.1, rho=np.ones(n), u=5.0 * grid.coords * np.exp(-grid.coords**2)
        )
        traj = synthetic_traj(grid, p, [flat, steep])
        series = build_series(traj)
        assert series.monitors_available["y_env"]
        assert bool(series.violation_flags["y_env"][1])

    def test_vacuum_flag_fires(self, grid):
        # a density crash far faster than the comparison ODE allows
        p = mp(0.75, 1.0)
        n = grid.n_cells
        flat = FluidState(time=0.0, rho=np.ones(n), u=np.zeros(n))
        crashed_rho = 1.0 - 0.9 * np.exp(-grid.coords**2)
        crashed = FluidState(time=0.05, rho=crashed_rho, u=np.zeros(n))
        series = build_series(synthetic_traj(grid, p, [flat, crashed]))
        assert series.monitors_available["vacuum"]
        assert bool(series.violation_flags["vacuum"][1])

    def test_energy_flag_fires(self, grid):
        # energy appearing from nowhere violates the balance budget
        p = mp(0.75, 2.0)
        n = grid.n_cells
        quiet = FluidState(time=0.0, rho=np.ones(n), u=0.01 * np.exp(-grid.coords**2))
        loud = FluidState(time=1.0, rho=np.ones(n), u=2.0 * np.exp(-grid.coords**2))
        series = build_series(synthetic_traj(grid, p, [quiet, loud]))
        assert bool(series.violation_flags["energy"][1])
        assert series.any_violation()

    def test_w1_flag_fires_on_deep_dip(self):
        # du0/dx = 0 satisfies the sign hypothesis, yet the pressure deficit
        # of a deep density dip puts w1(0) = 1 - rho^gamma above tolerance
        from nsdv.initdata import InitialData, ScenarioConfig
        from nsdv.model import ModelParams

        cfg = ScenarioConfig(
            model=ModelParams(alpha=1.5, gamma=2.0, half_length=10.0),
            n_cells=257,
            solver=SolverConfig(t_end=0.1, output_cadence=0.05),
            initial=InitialData(kind="smooth_bump", amplitude=-0.6, width=1.5),
        )
        s, _, _ = build_initial(cfg)
        assert constantin_condition_holds(s, cfg.grid(), cfg.model)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        d = traj.diagnostics
        assert d.monitors_available["w1_sign"]
        assert bool(d.violation_flags["w1_sign"][0])


class TestConstantinCondition:
    def test_holds_on_constantin_scenario(self):
        cfg = regression_scenarios(n_cells=257)["constantin"]
        s, _, _ = build_initial(cfg)
        assert constantin_condition_holds(s, cfg.grid(), cfg.model)

    def test_requires_alpha_above_one(self):
        cfg = regression_scenarios(n_cells=257)["rarefaction"]
        s, _, _ = build_initial(cfg)
        assert not constantin_condition_holds(s, cfg.grid(), cfg.model)

    def test_violating_slope_detected(self):
        g = Grid1D(257, 8.0)
        p = mp(1.5, 2.0)
        u = 3.0 * g.coords * np.exp(-g.coords**2)  # du/dx(0) = 3 > rho^0.5 = 1
        s = FluidState(time=0.0, rho=np.ones(257), u=u)
        assert not constantin_condition_holds(s, g, p)

    def test_w1_monitor_active_and_clean(self):
        cfg = regression_scenarios(n_cells=257)["constantin"]
        s, _, _ = build_initial(cfg)
        traj = run(s, cfg.solver, cfg.grid(), cfg.model)
        d = traj.diagnostics
        assert d.monitors_available["w1_sign"]
        assert not np.any(d.violation_flags["w1_sign"])
        assert np.max(d.w1_max) <= d.tolerance
