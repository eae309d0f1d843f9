"""The in-place kernels of the primitive step and the convergence study's
forcing, pinned bitwise against the expressions they replaced, and the
effective step's kernels pinned against their present allocating form.

Each oracle below is the earlier allocating form of a kernel, kept verbatim
as the reference: the in-place forms use only rewrites that are exact in IEEE
arithmetic, so every output must be equal bit for bit.  A buffer overwritten
before its last read shows at some grid sizes only, hence the spread of n.
The effective kernels (`ddx_upwind`, `step_effective`, the two in-loop
dissipation rates and the effective branch of `stable_dt`) are still in that
form; their oracles are copies of it, the gate any in-place rewrite must pass.
"""

import numpy as np
import pytest

from nsdv import eulerian, initdata, model
from nsdv.diagnostics import bd_dissipation_rate, energy_dissipation_rate
from nsdv.eulerian import SolverConfig, stable_dt, step_effective, step_primitive
from nsdv.initdata import manufactured_boundary, manufactured_source
from nsdv.model import FARFIELD, CheckedDensity, FluidState, Grid1D, ModelParams
from nsdv.stencils import ddx, ddx_upwind, solve_diffusion, solve_tridiagonal

SIZES = [3, 4, 5, 6, 129, 1025]
P = ModelParams(alpha=0.75, gamma=2.0, half_length=4.0)


# ------------------------------------------------------------------ oracles

def ddx_oracle(f, grid):
    out = np.empty_like(f)
    inv2dx = 0.5 / grid.dx
    out[1:-1] = (f[2:] - f[:-2]) * inv2dx
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) * inv2dx
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) * inv2dx
    return out


def upwind_interface_oracle(q, up, order):
    left = q[:-1].copy()
    right = q[1:].copy()
    if order == 2:
        d = q[1:] - q[:-1]
        left[1:] += 0.5 * d[:-1]
        right[:-1] -= 0.5 * d[1:]
    return np.where(up, left, right)


def solve_diffusion_oracle(a, w_ifc, r, rhs, left, right):
    diag = np.ones(len(a))
    diag[1:-1] = a[1:-1] + r * (w_ifc[1:] + w_ifc[:-1])
    off = -r * w_ifc
    off[0] = off[-1] = 0.0
    rhs = np.array(rhs, dtype=float)
    rhs[0], rhs[-1] = left, right
    rhs[1] += r * w_ifc[0] * left
    rhs[-2] += r * w_ifc[-1] * right
    return solve_tridiagonal(diag, off, rhs)


def step_primitive_oracle(state, dt, grid, cfg, p, forcing=None, boundary=(FARFIELD, FARFIELD)):
    density = CheckedDensity(state.rho)
    dx = grid.dx
    rho, u = state.rho, state.u
    mom = rho * u
    t_new = state.time + dt

    u_ifc = 0.5 * (u[:-1] + u[1:])
    up = u_ifc >= 0.0
    f_rho = upwind_interface_oracle(rho, up, cfg.advection_order) * u_ifc
    f_mom = upwind_interface_oracle(mom, up, cfg.advection_order) * u_ifc

    rho_new = rho.copy()
    rho_new[1:-1] -= (dt / dx) * (f_rho[1:] - f_rho[:-1])

    dpdx = ddx_oracle(model.pressure(density, p), grid)
    mom_star = mom.copy()
    mom_star[1:-1] -= (dt / dx) * (f_mom[1:] - f_mom[:-1]) + dt * dpdx[1:-1]

    if forcing is not None:
        g_rho, g_mom = forcing
        rho_new[1:-1] += dt * g_rho[1:-1]
        mom_star[1:-1] += dt * g_mom[1:-1]

    (rho_bl, u_bl), (rho_br, u_br) = boundary
    rho_new[0], rho_new[-1] = rho_bl, rho_br

    mu = model.viscosity(density, p)
    mu_ifc = 0.5 * (mu[:-1] + mu[1:])

    if cfg.diffusion_treatment == "explicit":
        visc = mu_ifc * (u[1:] - u[:-1]) / dx
        mom_star[1:-1] += (dt / dx) * (visc[1:] - visc[:-1])
        u_new = mom_star / rho_new
    else:
        u_new = solve_diffusion_oracle(rho_new, mu_ifc, dt / dx**2, mom_star, u_bl, u_br)

    u_new[0], u_new[-1] = u_bl, u_br
    return t_new, rho_new, u_new


def ddx_upwind_oracle(f, vel, grid):
    inv2dx = 0.5 / grid.dx
    invdx = 1.0 / grid.dx

    bwd = np.empty_like(f)  # for vel >= 0: look left
    bwd[2:] = (3.0 * f[2:] - 4.0 * f[1:-1] + f[:-2]) * inv2dx
    bwd[1] = (f[1] - f[0]) * invdx
    bwd[0] = (f[1] - f[0]) * invdx

    fwd = np.empty_like(f)  # for vel < 0: look right
    fwd[:-2] = (-3.0 * f[:-2] + 4.0 * f[1:-1] - f[2:]) * inv2dx
    fwd[-2] = (f[-1] - f[-2]) * invdx
    fwd[-1] = (f[-1] - f[-2]) * invdx

    return np.where(vel >= 0.0, bwd, fwd)


def step_effective_oracle(state, dt, grid, cfg, p):
    density = CheckedDensity(state.rho)
    if state.v is None:
        # effective_velocity, then recover_velocity
        v = state.u + model.viscosity(density, p) / state.rho**2 * ddx_oracle(state.rho, grid)
        u = v - ddx_oracle(model.phi(density, p), grid)
    else:
        v, u = state.v, state.u
    dx = grid.dx
    t_new = state.time + dt

    v_ifc = 0.5 * (v[:-1] + v[1:])
    f_adv = upwind_interface_oracle(density.rho, v_ifc >= 0.0, cfg.advection_order) * v_ifc
    phi2 = model.viscosity(density, p) / p.alpha
    f_diff = (phi2[1:] - phi2[:-1]) / dx

    rho_new = density.rho.copy()
    rho_new[1:-1] += (dt / dx) * (-(f_adv[1:] - f_adv[:-1]) + (f_diff[1:] - f_diff[:-1]))
    rho_new[0] = rho_new[-1] = FARFIELD[0]

    v_star = v - dt * u * ddx_upwind_oracle(v, u, grid)
    # damp_effective_velocity
    v_new = u + (v_star - u) * np.exp(-dt * model.f1(density, p))
    v_new[0] = v_new[-1] = FARFIELD[1]
    u_new = v_new - ddx_oracle(model.phi(CheckedDensity(rho_new), p), grid)
    return t_new, rho_new, u_new, v_new


def energy_dissipation_rate_oracle(state, grid, p):
    density = CheckedDensity(state.rho)
    return float((model.viscosity(density, p) * ddx_oracle(state.u, grid) ** 2).sum() * grid.dx)


def bd_dissipation_rate_oracle(state, grid, p):
    rho, density = state.rho, CheckedDensity(state.rho)
    coeff = model.viscosity(density, p) * p.gamma * density.power(p.gamma - 1.0) / (rho * rho)
    return float((coeff * ddx_oracle(rho, grid) ** 2).sum() * grid.dx)


def stable_dt_effective_oracle(state, grid, cfg, p):
    density = CheckedDensity(state.rho)
    speed = float((np.abs(state.u) + model.sound_speed(density, p)).max())
    bound = grid.dx / speed
    nu_max = float(density.power(p.alpha - 1.0).max())
    bound = min(bound, grid.dx**2 / (2.0 * nu_max))
    return cfg.cfl_number * bound


def manufactured_source_oracle(mms_id, t, grid, p):
    prof = initdata._mms(mms_id)
    k = np.pi / p.half_length
    c, s = initdata._mms_factors(p.half_length, grid.n_cells, grid.half_length)
    decay = np.exp(-t)

    rho, u = initdata._exact_fields(prof, decay, c, s)
    rho_t = -prof.a * decay * c
    rho_x = -prof.a * k * decay * s
    u_t = -prof.b * decay * s
    u_x = prof.b * k * decay * c
    u_xx = -prof.b * k**2 * decay * s

    g_rho = rho_t + rho_x * u + rho * u_x
    mu = rho**p.alpha
    mu_x = p.alpha * rho ** (p.alpha - 1.0) * rho_x
    press_x = p.gamma * rho ** (p.gamma - 1.0) * rho_x
    g_mom = (
        rho_t * u
        + rho * u_t
        + rho_x * u**2
        + 2.0 * rho * u * u_x
        - (mu_x * u_x + mu * u_xx)
        + press_x
    )
    return g_rho, g_mom


def manufactured_boundary_oracle(mms_id, t, grid, p):
    prof = initdata._mms(mms_id)
    c, s = initdata._mms_factors(p.half_length, grid.n_cells, grid.half_length)
    rho, u = initdata._exact_fields(prof, np.exp(-t), c[[0, -1]], s[[0, -1]])
    return (float(rho[0]), float(u[0])), (float(rho[1]), float(u[1]))


# ------------------------------------------------------------------- inputs

def seeded(n, seed=0):
    """A positive density near 1, a velocity of both signs, a positive
    nodal field and n-1 positive interface weights, all seeded by n."""
    rng = np.random.default_rng([seed, n])
    rho = rng.uniform(0.8, 1.2, n)
    u = rng.uniform(-0.3, 0.3, n)
    a = rng.uniform(0.5, 2.0, n)
    w = rng.uniform(0.1, 1.0, n - 1)
    return rng, rho, u, a, w


SIGNS = ["positive", "negative", "mixed"]
# The effective pins' grids: dx = 6/(n-1) is no power of two at n = 129 and
# 1025 (8/(n-1) is), so a rewrite that moves a factor such as dx**2 through
# a product rounds differently and shows.
EFFECTIVE_HALF_LENGTH = 3.0


def signed(rng, n, signs):
    """A velocity of magnitude in [0.05, 0.3] with the given signs; a mixed
    one changes sign at nodes 1 and n-2, where the upwind stencils are first
    order, and at random inside."""
    magnitude = rng.uniform(0.05, 0.3, n)
    if signs == "positive":
        return magnitude
    if signs == "negative":
        return -magnitude
    sign = np.where(rng.uniform(-1.0, 1.0, n) >= 0.0, 1.0, -1.0)
    sign[0], sign[1], sign[-2], sign[-1] = -1.0, 1.0, -1.0, 1.0
    return sign * magnitude


# -------------------------------------------------------------------- tests

@pytest.mark.parametrize("n", SIZES)
def test_ddx(n):
    _, rho, u, _, _ = seeded(n)
    grid = Grid1D(n, 4.0)
    for f in (rho, u):
        np.testing.assert_array_equal(ddx(f, grid), ddx_oracle(f, grid))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", SIZES)
def test_upwind_interface(n, order):
    rng, rho, u, _, _ = seeded(n)
    mixed = rng.uniform(-1.0, 1.0, n - 1) >= 0.0
    mixed[0], mixed[-1] = True, False  # both sides at the ends, whatever n
    # all up and all down read every left and every right value
    for up in (mixed, np.ones(n - 1, bool), np.zeros(n - 1, bool)):
        for q in (rho, u):
            q_in = q.copy()
            got = eulerian._upwind_interface(q, up, order)
            np.testing.assert_array_equal(got, upwind_interface_oracle(q, up, order))
            np.testing.assert_array_equal(q, q_in)


@pytest.mark.parametrize("r", [0.7, 240.0])
@pytest.mark.parametrize("n", SIZES)
def test_solve_diffusion(n, r):
    rng, _, _, a, w = seeded(n)
    rhs = rng.standard_normal(n)
    got = solve_diffusion(a, w, r, rhs, 0.3, -1.2)
    np.testing.assert_array_equal(got, solve_diffusion_oracle(a, w, r, rhs, 0.3, -1.2))


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("treatment", ["explicit", "semi_implicit"])
@pytest.mark.parametrize("n", SIZES)
def test_step_primitive(n, treatment, order, forced):
    rng, rho, u, _, _ = seeded(n)
    grid = Grid1D(n, 4.0)
    cfg = SolverConfig(
        t_end=1.0, output_cadence=1.0, diffusion_treatment=treatment, advection_order=order
    )
    dt = 0.05 * grid.dx * min(1.0, grid.dx)
    forcing = (rng.standard_normal(n), rng.standard_normal(n)) if forced else None
    boundary = ((1.05, 0.02), (0.97, -0.01))
    inputs = [rho, u, *(forcing or ())]
    copies = [f.copy() for f in inputs]
    state = FluidState(time=0.25, rho=rho, u=u)
    got = step_primitive(state, dt, grid, cfg, P, forcing=forcing, boundary=boundary)
    t_new, rho_new, u_new = step_primitive_oracle(
        state, dt, grid, cfg, P, forcing=forcing, boundary=boundary
    )
    assert got.time == t_new
    np.testing.assert_array_equal(got.rho, rho_new)
    np.testing.assert_array_equal(got.u, u_new)
    for f, f_in in zip(inputs, copies):  # the step reads its inputs only
        np.testing.assert_array_equal(f, f_in)


@pytest.mark.parametrize("mms_id", ["manufactured-1", "manufactured-zero"])
@pytest.mark.parametrize("n", SIZES)
def test_manufactured_source(n, mms_id):
    grid = Grid1D(n, np.pi)
    p = ModelParams(alpha=0.75, gamma=2.0, half_length=np.pi)
    # eight step times as the study accumulates them, and eight arbitrary ones
    t, dt = 0.3, 0.25 * grid.dx**2
    accumulated = [t]
    for _ in range(7):
        accumulated.append(accumulated[-1] + dt)
    arbitrary = np.random.default_rng(n).uniform(0.0, 2.0, 8).tolist()
    for ti in accumulated[:1] + arbitrary[:1]:
        for got, want in zip(manufactured_source(mms_id, ti, grid, p),
                             manufactured_source_oracle(mms_id, ti, grid, p)):
            assert got.shape == (n,)
            np.testing.assert_array_equal(got, want)
    for times in (accumulated, arbitrary):
        g_rho, g_mom = manufactured_source(mms_id, np.array(times), grid, p)
        assert g_rho.shape == g_mom.shape == (8, n)
        for i, ti in enumerate(times):
            want_rho, want_mom = manufactured_source_oracle(mms_id, ti, grid, p)
            np.testing.assert_array_equal(g_rho[i], want_rho)
            np.testing.assert_array_equal(g_mom[i], want_mom)


@pytest.mark.parametrize("n", SIZES)
def test_manufactured_boundary(n):
    p = ModelParams(alpha=0.75, gamma=2.0, half_length=np.pi)
    for grid in (Grid1D(n, np.pi), Grid1D(n, 2.0)):
        for t in (0.0, 0.125, 0.3, 50.0):
            got = manufactured_boundary("manufactured-1", t, grid, p)
            assert got == manufactured_boundary_oracle("manufactured-1", t, grid, p)
            assert all(type(v) is float for end in got for v in end)


@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("n", SIZES)
def test_ddx_upwind(n, signs):
    rng, rho, u, _, _ = seeded(n)
    grid = Grid1D(n, EFFECTIVE_HALF_LENGTH)
    vel = signed(rng, n, signs)
    for f in (rho, u):
        np.testing.assert_array_equal(ddx_upwind(f, vel, grid), ddx_upwind_oracle(f, vel, grid))


@pytest.mark.parametrize("with_v", [False, True], ids=["from_u", "carried_v"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("n", SIZES)
def test_step_effective(n, signs, order, with_v):
    rng, rho, _, _, _ = seeded(n)
    grid = Grid1D(n, EFFECTIVE_HALF_LENGTH)
    cfg = SolverConfig(
        t_end=1.0, output_cadence=1.0, formulation="effective", advection_order=order
    )
    dt = 0.05 * grid.dx * min(1.0, grid.dx)
    u = signed(rng, n, signs)
    v = signed(rng, n, signs) if with_v else None
    inputs = [rho, u] + ([v] if with_v else [])
    copies = [f.copy() for f in inputs]
    state = FluidState(time=0.25, rho=rho, u=u, v=v)
    got = step_effective(state, dt, grid, cfg, P)
    t_new, rho_new, u_new, v_new = step_effective_oracle(state, dt, grid, cfg, P)
    assert got.time == t_new
    np.testing.assert_array_equal(got.rho, rho_new)
    np.testing.assert_array_equal(got.u, u_new)
    np.testing.assert_array_equal(got.v, v_new)
    for f, f_in in zip(inputs, copies):  # the step reads its inputs only
        np.testing.assert_array_equal(f, f_in)


@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("n", SIZES)
def test_dissipation_rates(n, signs):
    # a last-bit change in some terms can leave the sum as it was, so each
    # seed gives the rates one more chance to show it
    grid = Grid1D(n, EFFECTIVE_HALF_LENGTH)
    for seed in range(16):
        rng, rho, _, _, _ = seeded(n, seed)
        state = FluidState(time=0.25, rho=rho, u=signed(rng, n, signs))
        for rate, oracle in (
            (energy_dissipation_rate, energy_dissipation_rate_oracle),
            (bd_dissipation_rate, bd_dissipation_rate_oracle),
        ):
            assert rate(state, grid, P) == oracle(state, grid, P)


@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("n", SIZES)
def test_stable_dt_effective(n, signs):
    # the advective bound sets dt on the coarsest grids, the diffusive one on
    # the finest; each seed gives one more rounding of either
    grid = Grid1D(n, EFFECTIVE_HALF_LENGTH)
    cfg = SolverConfig(t_end=1.0, output_cadence=1.0, formulation="effective")
    for seed in range(16):
        rng, rho, _, _, _ = seeded(n, seed)
        state = FluidState(time=0.25, rho=rho, u=signed(rng, n, signs))
        assert stable_dt(state, grid, cfg, P) == stable_dt_effective_oracle(state, grid, cfg, P)
