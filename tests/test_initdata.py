"""Mollifier, initial-data construction, manufactured solutions, validation."""

import numpy as np
import pytest

from conftest import SHIPPED
from nsdv import io
from nsdv.effective import effective_velocity
from nsdv.errors import ConfigError, InputError
from nsdv.eulerian import SolverConfig
from nsdv.initdata import (
    V0_PROFILES,
    InitialData,
    ScenarioConfig,
    build_initial,
    manufactured_boundary,
    manufactured_exact,
    manufactured_source,
    mollify,
)
from nsdv import initdata
from nsdv.model import Grid1D, ModelParams, phi
from nsdv.stencils import ddx


def mp(alpha=0.75, gamma=2.0, L=10.0):
    return ModelParams(alpha=alpha, gamma=gamma, half_length=L)


def scenario(initial, alpha=0.75, gamma=2.0, n=513, L=10.0):
    return ScenarioConfig(
        model=mp(alpha, gamma, L),
        n_cells=n,
        solver=SolverConfig(t_end=1.0, output_cadence=0.1),
        initial=initial,
    )


class TestMollify:
    def test_constant_preserved_exactly(self):
        g = Grid1D(257, 10.0)
        f = np.full(257, 2.5)
        np.testing.assert_array_equal(mollify(f, 4, g), f)

    def test_linear_preserved_in_interior(self):
        g = Grid1D(257, 10.0)
        out = mollify(g.coords.copy(), 4, g)
        # even kernel: odd moments vanish away from boundary influence
        np.testing.assert_allclose(out[20:-20], g.coords[20:-20], atol=1e-13)

    def test_step_sharpens_with_n(self):
        g = Grid1D(513, 10.0)
        step = np.where(g.coords < 0, 1.0, -1.0)
        away = np.abs(g.coords) > 1.0
        err8 = np.max(np.abs(mollify(step, 8, g) - step)[away])
        err64 = np.max(np.abs(mollify(step, 64, g) - step)[away])
        assert err64 < err8
        assert err64 <= 1e-12

    def test_support_exceeding_domain_rejected(self):
        g = Grid1D(65, 1.0)
        with pytest.raises(InputError):
            mollify(np.ones(65), 1, g)

    def test_kernel_narrower_than_cell_is_identity(self):
        g = Grid1D(65, 10.0)
        f = np.sin(g.coords)
        np.testing.assert_array_equal(mollify(f, 64, g), f)

    @pytest.mark.parametrize("profile", sorted(V0_PROFILES))
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_one_sided_slope_never_increases(self, profile, n):
        # discrete rendition of the convolution bound on difference quotients
        g = Grid1D(513, 10.0)
        _, v_raw = V0_PROFILES[profile](g.coords, mp())
        c_raw = float(np.max(np.diff(v_raw)) / g.dx)
        c_mol = float(np.max(np.diff(mollify(v_raw, n, g))) / g.dx)
        assert c_mol <= c_raw + 1e-12


class TestBuildInitial:
    def test_equilibrium(self):
        state, v0, c = build_initial(scenario(InitialData(kind="equilibrium")))
        assert np.all(state.rho == 1.0) and np.all(state.u == 0.0)
        assert np.all(v0 == 0.0)
        assert c == 0.0

    def test_flat_density_decreasing_v0(self):
        # rho = 1: the compatibility term vanishes and u0 = v0 exactly; for a
        # pure decreasing step the slope constant sits at the tails, ~0
        g = Grid1D(513, 10.0)
        p = mp()
        v_raw = -np.tanh(g.coords)
        v0 = mollify(v_raw, 16, g)
        u0 = v0 - ddx(phi(np.ones(513), p), g)
        np.testing.assert_allclose(u0, v0, atol=1e-14)
        c = float(np.max(np.diff(v0)) / g.dx)
        assert abs(c) <= 1e-6

    def test_from_v0_registry_profile(self):
        cfg = scenario(InitialData(kind="from_v0", profile="vstep_down", mollifier_n=16))
        state, v0, c = build_initial(cfg)
        # flat raw density: coupling term is zero away from the boundary reset
        np.testing.assert_allclose(state.u[2:-2], v0[2:-2], atol=1e-13)
        # the windowed profile owns a small positive tail slope
        assert 0.0 <= c <= 0.2

    def test_compatibility_coupling(self):
        cfg = scenario(InitialData(kind="from_v0", profile="bump_step", mollifier_n=16))
        state, v0, _ = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        # interior identity is exact; the boundary far-field reset perturbs
        # the outermost stencils at the profile-tail scale (~1e-11)
        np.testing.assert_allclose(
            (v0 - state.u)[2:-2], ddx(phi(state.rho, p), g)[2:-2], atol=1e-13
        )
        # the two v definitions differ only by stencil commutation, O(dx^2)
        np.testing.assert_allclose(effective_velocity(state, g, p), v0, atol=g.dx**2)

    def test_boundary_invariant(self):
        for path in SHIPPED:
            state, _, _ = build_initial(io.load_config(path))
            assert state.rho[0] == 1.0 and state.rho[-1] == 1.0, path.name
            assert state.u[0] == 0.0 and state.u[-1] == 0.0, path.name

    def test_farfield_violation_rejected(self):
        cfg = scenario(InitialData(kind="smooth_bump", amplitude=0.1, width=5.0))
        with pytest.raises(ConfigError):
            build_initial(cfg)

    def test_unknown_profile_rejected(self):
        cfg = scenario(InitialData(kind="from_v0", profile="nope", mollifier_n=4))
        with pytest.raises(ConfigError):
            build_initial(cfg)

    def test_shipped_configs_validate(self):
        for path in SHIPPED:
            build_initial(io.load_config(path))


class TestInitialDataValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            InitialData(kind="wave")

    def test_missing_parameters(self):
        with pytest.raises(ConfigError):
            InitialData(kind="smooth_bump", amplitude=0.1)
        with pytest.raises(ConfigError):
            InitialData(kind="from_v0", profile="vstep_down")

    def test_unused_parameters(self):
        with pytest.raises(ConfigError, match="does not use jump"):
            InitialData(kind="smooth_bump", amplitude=0.1, width=1.0, jump=0.2)
        with pytest.raises(ConfigError, match="does not use amplitude"):
            InitialData(kind="equilibrium", amplitude=0.1)

    def test_n_cells_minimum(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                model=mp(),
                n_cells=2,
                solver=SolverConfig(t_end=1.0, output_cadence=0.1),
                initial=InitialData(kind="equilibrium"),
            )


class TestManufactured:
    def test_zero_profile_zero_forcing(self):
        g = Grid1D(257, np.pi)
        p = mp(L=np.pi)
        g_rho, g_mom = manufactured_source("manufactured-zero", 0.3, g, p)
        assert np.all(g_rho == 0.0) and np.all(g_mom == 0.0)

    def test_forcing_decays_in_time(self):
        g = Grid1D(257, np.pi)
        p = mp(L=np.pi)
        g_rho, g_mom = manufactured_source("manufactured-1", 50.0, g, p)
        assert np.max(np.abs(g_rho)) <= 1e-15
        assert np.max(np.abs(g_mom)) <= 1e-15

    def test_matches_finite_difference_oracle(self):
        # independent check: 4th-order central differences in t and x of the
        # exact fields reproduce the closed-form sources
        p = mp(L=np.pi)
        g = Grid1D(2049, np.pi)
        t0, dt, dx = 0.3, 1e-5, g.dx

        def fields(t):
            return manufactured_exact("manufactured-1", t, g, p)

        coef = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dt)
        rho_t = sum(c * fields(t0 + k * dt)[0] for c, k in zip(coef, (-2, -1, 0, 1, 2)))
        u_t = sum(c * fields(t0 + k * dt)[1] for c, k in zip(coef, (-2, -1, 0, 1, 2)))

        def d4(f):
            out = np.zeros_like(f)
            out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12.0 * dx)
            return out

        rho, u = fields(t0)
        g_rho_fd = rho_t + d4(rho * u)
        g_mom_fd = (
            rho_t * u
            + rho * u_t
            + d4(rho * u**2)
            - d4(rho**p.alpha * d4(u))
            + d4(rho**p.gamma)
        )
        g_rho, g_mom = manufactured_source("manufactured-1", t0, g, p)
        inner = slice(8, -8)
        assert np.max(np.abs(g_rho[inner] - g_rho_fd[inner])) <= 1e-8
        assert np.max(np.abs(g_mom[inner] - g_mom_fd[inner])) <= 1e-8

    def test_boundary_is_exact_end_values(self):
        p = mp(L=np.pi)
        for g in (Grid1D(65, np.pi), Grid1D(257, 2.0)):
            for t in (0.0, 0.125, 0.3, 50.0):
                rho, u = manufactured_exact("manufactured-1", t, g, p)
                left, right = manufactured_boundary("manufactured-1", t, g, p)
                assert left == (rho[0], u[0]) and right == (rho[-1], u[-1])

    def test_calls_alternating_between_grids_match_cold_calls(self):
        # one grid per cache-key component: n_cells, grid half_length and the
        # model's half_length (which sets k); A differs from each in one only
        cases = {
            "A": (Grid1D(65, np.pi), mp(L=np.pi)),
            "n_cells": (Grid1D(129, np.pi), mp(L=np.pi)),
            "grid_L": (Grid1D(65, 2.0), mp(L=np.pi)),
            "model_L": (Grid1D(65, np.pi), mp(L=2.0)),
        }

        def evaluate(name, t):
            g, p = cases[name]
            return (
                *manufactured_exact("manufactured-1", t, g, p),
                *manufactured_source("manufactured-1", t, g, p),
            )

        cold = {}
        for name, (g, p) in cases.items():
            initdata._mms_factors.cache_clear()
            cold[name] = evaluate(name, 0.3)
            kx, decay = np.pi / p.half_length * g.coords, np.exp(-0.3)
            np.testing.assert_array_equal(cold[name][0], 1.0 + 0.1 * decay * np.cos(kx))
            np.testing.assert_array_equal(cold[name][1], 0.1 * decay * np.sin(kx))
        for name in ("A", "n_cells", "A", "grid_L", "A", "model_L", "A", "grid_L", "n_cells"):
            for got, want in zip(evaluate(name, 0.3), cold[name]):
                np.testing.assert_array_equal(got, want)

    def test_unknown_id_rejected(self):
        g = Grid1D(65, np.pi)
        with pytest.raises(InputError):
            manufactured_source("manufactured-42", 0.0, g, mp(L=np.pi))
