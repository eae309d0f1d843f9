"""Time integration of the compressible system on the truncated line.

Two formulations of the same dynamics:

  primitive:  d rho/dt + d(rho u)/dx = 0
              d(rho u)/dt + d(rho u^2)/dx - d/dx(rho**alpha du/dx) + dP/dx = 0

  effective:  the mass equation with u recovered from (rho, v) through
              u = v - ddx(phi(rho)), plus the damped transport
              dv/dt + u dv/dx + f1(rho)(v - u) = 0.

Discretization: conservative fluxes with upwind-biased reconstruction
(second order by default, first order available), central pressure gradient
and central diffusion, forward Euler in time with the diffusion optionally
solved implicitly (symmetric positive definite tridiagonal, frozen viscosity
coefficients).  The damping term of the effective formulation is integrated
with an exact exponential factor per step, so it never restricts the step size.

Boundary nodes are reset to the far-field state after every step.  Density
reaching RHO_FLOOR raises VacuumBlowup: it is reported, never clamped,
because clamping would silently violate every monitored estimate.

Each step takes a FluidState and returns the next one.  It makes the new
density with CheckedDensity.stepped before the velocity update and checks
the new velocity finite after it.  The new state keeps that density,
checked no more, so stable_dt, run's dissipation rates and the next step
evaluate each power of rho once per state; an effective step's state also
carries its v.  run evaluates each recorded state's effective fields once
and keeps only its diagnostics.snapshot_scalars, no state but the initial
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics, model
from .effective import compute_effective_fields, effective_velocity
from .errors import InputError, NumericalFailure, VacuumBlowup
from .model import FARFIELD, CheckedDensity, FluidState, Grid1D, ModelParams
from .stencils import ddx, ddx_upwind, solve_diffusion

@dataclass(frozen=True)
class SolverConfig:
    """Time-integration knobs shared by both Eulerian formulations, except
    `diffusion_treatment`, which applies to the primitive one only: the
    effective formulation always treats its mass diffusion explicitly."""

    t_end: float
    output_cadence: float
    cfl_number: float = 0.4
    formulation: str = "primitive"
    diffusion_treatment: str = "semi_implicit"
    advection_order: int = 2
    dt_override: float | None = None  # testing hook: bypass stable_dt entirely

    def __post_init__(self):
        if not 0.0 < self.cfl_number <= 0.9:
            raise InputError(f"cfl_number must lie in (0, 0.9], got {self.cfl_number}")
        if not 0.0 < self.t_end < math.inf:
            raise InputError(f"t_end must be positive and finite: {self.t_end}")
        if not 0.0 < self.output_cadence < math.inf:
            raise InputError(f"output_cadence must be positive and finite: {self.output_cadence}")
        if self.dt_override is not None and not 0.0 < self.dt_override < math.inf:
            raise InputError(f"dt_override must be positive and finite: {self.dt_override}")
        if self.formulation not in ("primitive", "effective"):
            raise InputError(f"unknown formulation {self.formulation!r}")
        if self.diffusion_treatment not in ("explicit", "semi_implicit"):
            raise InputError(f"unknown diffusion_treatment {self.diffusion_treatment!r}")
        if self.advection_order not in (1, 2):
            raise InputError("advection_order must be 1 or 2")


@dataclass
class Trajectory:
    """What the diagnostics read of a run: the initial state, the recorded
    times and each one's scalars, and the runner-accumulated dissipation."""

    params: ModelParams
    grid: Grid1D
    initial: FluidState
    times: np.ndarray
    scalars: list[dict]  # one snapshot_scalars dict per recorded time
    energy_diss_accum: np.ndarray
    bd_diss_accum: np.ndarray
    blowup: VacuumBlowup | None = None  # the one that ended the run early


def stable_dt(state: FluidState, grid: Grid1D, cfg: SolverConfig, p: ModelParams) -> float:
    """CFL-limited step: advective always, dx^2 diffusive bound when the
    diffusion is treated explicitly.

    The effective formulation always carries the diffusive bound: recovering
    u = v - ddx(phi(rho)) turns its mass equation into explicit nonlinear
    diffusion with coefficient rho**(alpha-1), the same bound.  A non-finite
    u or rho raises NumericalFailure.
    """
    if cfg.dt_override is not None:
        return cfg.dt_override
    density = state.density
    speed = float((np.abs(state.u) + model.sound_speed(density, p)).max())
    # A NaN or inf in u or rho makes the speed non-finite, except in rho at
    # gamma = 1, where c = 1 whatever rho is.
    if not math.isfinite(speed) or (p.gamma == 1.0 and not np.isfinite(state.rho).all()):
        raise NumericalFailure("non-finite state", time=state.time)
    bound = grid.dx / speed
    explicit_diffusion = cfg.diffusion_treatment == "explicit" or cfg.formulation == "effective"
    if explicit_diffusion:
        nu_max = float(density.power(p.alpha - 1.0).max())
        bound = min(bound, grid.dx**2 / (2.0 * nu_max))
    return cfg.cfl_number * bound


def _upwind_interface(q: np.ndarray, up: np.ndarray, order: int) -> np.ndarray:
    """Value of q at interfaces i+1/2, reconstructed from the upwind side:
    the left one where `up` (the interface velocity is >= 0), else the right.
    Second order adds half the upwind side's neighbour difference."""
    if order == 1:
        return np.where(up, q[:-1], q[1:])
    half = np.subtract(q[1:], q[:-1])
    half *= 0.5
    left = np.empty_like(half)
    left[0] = q[0]
    np.add(q[1:-1], half[:-1], out=left[1:])
    right = np.empty_like(half)
    right[-1] = q[-1]
    np.subtract(q[1:-1], half[1:], out=right[:-1])
    return np.where(up, left, right)


def step_primitive(
    state: FluidState,
    dt: float,
    grid: Grid1D,
    cfg: SolverConfig,
    p: ModelParams,
    forcing=None,
    boundary=(FARFIELD, FARFIELD),
) -> FluidState:
    """One conservative update of (rho, rho*u).

    Upwind fluxes for rho*u and rho*u^2, central pressure gradient, central
    diffusion (tridiagonal solve in u with frozen viscosity when
    semi-implicit).  `forcing`, when given, is a (g_rho, g_mom) pair of source
    fields; `boundary` the Dirichlet values ((rhoL, uL), (rhoR, uR)).
    """
    density = state.density
    dx = grid.dx
    rho, u = state.rho, state.u
    mom = rho * u
    t_new = state.time + dt

    u_ifc = np.add(u[:-1], u[1:])
    u_ifc *= 0.5
    up = u_ifc >= 0.0
    f_rho = _upwind_interface(rho, up, cfg.advection_order)
    f_rho *= u_ifc
    f_mom = _upwind_interface(mom, up, cfg.advection_order)
    f_mom *= u_ifc

    # rho_new = rho - (dt/dx) (f_rho[1:] - f_rho[:-1]) inside, built in place
    rho_new = np.empty_like(rho)
    inner = np.subtract(f_rho[1:], f_rho[:-1], out=rho_new[1:-1])
    inner *= dt / dx
    np.subtract(rho[1:-1], inner, out=inner)

    # mom_star = mom - ((dt/dx) (f_mom[1:] - f_mom[:-1]) + dt dpdx) inside,
    # in mom's own array, which is read no more
    dpdx = ddx(model.pressure(density, p), grid)
    dpdx *= dt
    flux = np.subtract(f_mom[1:], f_mom[:-1])
    flux *= dt / dx
    flux += dpdx[1:-1]
    mom_star = mom
    mom_star[1:-1] -= flux

    if forcing is not None:  # dt g, in flux's array, which is read no more
        g_rho, g_mom = forcing
        np.multiply(g_rho[1:-1], dt, out=flux)
        rho_new[1:-1] += flux
        np.multiply(g_mom[1:-1], dt, out=flux)
        mom_star[1:-1] += flux

    # read no more: released before the solve allocates its bands, which
    # keeps the step's peak memory at large N below the allocating form's
    del u_ifc, up, f_rho, f_mom, dpdx
    (rho_bl, u_bl), (rho_br, u_br) = boundary
    rho_new[0], rho_new[-1] = rho_bl, rho_br
    new = CheckedDensity.stepped(rho_new, t_new)

    mu = model.viscosity(density, p)  # frozen coefficients
    mu_ifc = np.add(mu[:-1], mu[1:])
    mu_ifc *= 0.5

    if cfg.diffusion_treatment == "explicit":
        visc = np.subtract(u[1:], u[:-1])
        visc *= mu_ifc
        visc /= dx
        np.subtract(visc[1:], visc[:-1], out=flux)
        flux *= dt / dx
        mom_star[1:-1] += flux
        u_new = mom_star
        u_new /= rho_new
    else:
        # rho_new*u_new - dt*d/dx(mu du_new/dx) = mom_star, Dirichlet ends
        u_new = solve_diffusion(rho_new, mu_ifc, dt / dx**2, mom_star, u_bl, u_br)

    u_new[0], u_new[-1] = u_bl, u_br
    NumericalFailure.check_finite(u_new, t_new)
    return FluidState(time=t_new, rho=new, u=u_new)


def damp_effective_velocity(v, u, rho, dt: float, p: ModelParams) -> np.ndarray:
    """Exact integration of dv/dt = -f1(rho)(v - u) with u, rho frozen."""
    return u + (v - u) * np.exp(-dt * model.f1(rho, p))


def recover_velocity(rho, v, grid: Grid1D, p: ModelParams) -> np.ndarray:
    """u = v - ddx(phi(rho)): inverts the effective-velocity definition up to
    the stencil commutation error."""
    return v - ddx(model.phi(rho, p), grid)


def step_effective(
    state: FluidState, dt: float, grid: Grid1D, cfg: SolverConfig, p: ModelParams
) -> FluidState:
    """One update of the (rho, v) pair: step_primitive's contract, unforced.

    The pair is the state's v and u.  A state without v, caller data, starts
    it with v = effective_velocity(state) and u = recover_velocity(rho, v),
    not state.u: the two differ by the stencil commutation error.  The mass
    flux splits as rho*u = rho*v - ddx(rho**alpha/alpha): upwind advection
    by v plus conservative central diffusion.  v is advected upwind and
    damped with the exact exponential factor.  The new state carries v and
    the u recovered from it, which the next step reads.
    """
    density = state.density
    if state.v is None:
        v = effective_velocity(state, grid, p)
        u = recover_velocity(density, v, grid, p)
    else:
        v, u = state.v, state.u
    dx = grid.dx
    t_new = state.time + dt

    v_ifc = 0.5 * (v[:-1] + v[1:])
    f_adv = _upwind_interface(density.rho, v_ifc >= 0.0, cfg.advection_order) * v_ifc
    phi2 = model.viscosity(density, p) / p.alpha
    f_diff = (phi2[1:] - phi2[:-1]) / dx

    rho_new = density.rho.copy()
    rho_new[1:-1] += (dt / dx) * (-(f_adv[1:] - f_adv[:-1]) + (f_diff[1:] - f_diff[:-1]))
    rho_new[0] = rho_new[-1] = FARFIELD[0]
    new = CheckedDensity.stepped(rho_new, t_new)

    v_star = v - dt * u * ddx_upwind(v, u, grid)
    v_new = damp_effective_velocity(v_star, u, density, dt, p)
    v_new[0] = v_new[-1] = FARFIELD[1]
    NumericalFailure.check_finite(v_new, t_new)
    return FluidState(time=t_new, rho=new, u=recover_velocity(new, v_new, grid, p), v=v_new)


def drive(initial, cfg: SolverConfig, dt, step, record):
    """The cadence loop shared by every solver.

    `dt(state)` proposes a step, clipped so that every multiple of
    cfg.output_cadence and t_end are hit exactly; `step(state, t, dt)` returns
    the next state.  Hands t=0, every cadence multiple and t_end with its
    state to `record(t, state)` as soon as it is recorded, and keeps no
    state, so a caller holds only the states it keeps.  Every failure of a
    step, VacuumBlowup included, propagates.
    """
    eps = 1e-12 * max(1.0, cfg.t_end)
    state, t, k_out = initial, 0.0, 1
    record(t, state)
    while t < cfg.t_end - eps:
        next_out = k_out * cfg.output_cadence
        h = min(dt(state), next_out - t, cfg.t_end - t)
        if h <= 0.0:
            raise NumericalFailure(f"non-positive step at t={t:.6g}", time=t)
        state = step(state, t, h)
        t += h
        if t >= next_out - eps or t >= cfg.t_end - eps:
            record(t, state)
            k_out += 1


def run(
    initial: FluidState,
    cfg: SolverConfig,
    grid: Grid1D,
    p: ModelParams,
    on_snapshot=None,
) -> Trajectory:
    """Integrate to t_end, recording scalars and dissipation at the cadence.

    The system is unforced, with far-field ends.  Before each step the
    energy and BD dissipation rates of the state it starts from are
    integrated in time by left rectangles.  Each recorded state's effective
    fields are evaluated once, for its snapshot_scalars and for
    `on_snapshot(state, eff)`, when given, which receives both as soon as the
    state is recorded (the CLI streams them to its output writer while
    stepping goes on); then the state is dropped.  A VacuumBlowup ends the
    run early and is recorded on the returned partial trajectory; other
    failures propagate.
    """
    if initial.n != grid.n_cells:
        raise InputError("initial state does not match the grid")
    if initial.time != 0.0:
        raise InputError("trajectories start at t=0")

    step = step_effective if cfg.formulation == "effective" else step_primitive
    acc = [0.0, 0.0]
    times, e_diss, bd_diss, scalars = [], [], [], []

    def advance(state, t, dt):
        acc[0] += dt * diagnostics.energy_dissipation_rate(state, grid, p)
        acc[1] += dt * diagnostics.bd_dissipation_rate(state, grid, p)
        return step(state, dt, grid, cfg, p)

    def record(t, state):
        times.append(t)
        e_diss.append(acc[0])
        bd_diss.append(acc[1])
        eff = compute_effective_fields(state, grid, p)
        scalars.append(diagnostics.snapshot_scalars(state, eff, grid, p))
        if on_snapshot is not None:
            on_snapshot(state, eff)

    blowup = None
    try:
        drive(initial, cfg, lambda state: stable_dt(state, grid, cfg, p), advance, record)
    except VacuumBlowup as exc:
        blowup = exc
    return Trajectory(
        params=p,
        grid=grid,
        initial=initial,
        times=np.array(times),
        scalars=scalars,
        energy_diss_accum=np.array(e_diss),
        bd_diss_accum=np.array(bd_diss),
        blowup=blowup,
    )
