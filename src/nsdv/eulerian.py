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
solved implicitly (tridiagonal, frozen viscosity coefficients).  The damping
term of the effective formulation is integrated with an exact exponential
factor per step, so it never restricts the step size.

Boundary nodes are reset to the far-field state after every step.  Density
reaching RHO_FLOOR raises VacuumBlowup: it is reported, never clamped,
because clamping would silently violate every monitored estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics, model
from .effective import effective_velocity
from .errors import InputError, NumericalFailure, VacuumBlowup
from .model import RHO_FLOOR, FluidState, Grid1D, ModelParams
from .stencils import ddx, ddx_upwind, solve_tridiagonal

_FARFIELD = ((1.0, 0.0), (1.0, 0.0))


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration knobs shared by both Eulerian formulations."""

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


@dataclass(frozen=True)
class BlowupInfo:
    time: float
    node: int


@dataclass
class Trajectory:
    """Snapshots at the diagnostic cadence plus runner-accumulated dissipation."""

    params: ModelParams
    grid: Grid1D
    snapshots: list[FluidState]
    energy_diss_accum: np.ndarray
    bd_diss_accum: np.ndarray
    diagnostics: "diagnostics.DiagnosticSeries | None" = None
    blowup: BlowupInfo | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])


def stable_dt(state: FluidState, grid: Grid1D, cfg: SolverConfig, p: ModelParams) -> float:
    """CFL-limited step: advective always, dx^2 diffusive bound when the
    diffusion is treated explicitly.

    The effective formulation always carries the diffusive bound: recovering
    u = v - ddx(phi(rho)) turns its mass equation into explicit nonlinear
    diffusion with coefficient rho**(alpha-1), the same bound.
    """
    if cfg.dt_override is not None:
        return cfg.dt_override
    if not (np.all(np.isfinite(state.rho)) and np.all(np.isfinite(state.u))):
        raise NumericalFailure("non-finite state", time=state.time)
    c = model.sound_speed(state.rho, p)
    bound = grid.dx / float(np.max(np.abs(state.u) + c))
    explicit_diffusion = cfg.diffusion_treatment == "explicit" or cfg.formulation == "effective"
    if explicit_diffusion:
        nu_max = float(np.max(state.rho ** (p.alpha - 1.0)))
        bound = min(bound, grid.dx**2 / (2.0 * nu_max))
    return cfg.cfl_number * bound


def _upwind_interface(q: np.ndarray, u_ifc: np.ndarray, order: int) -> np.ndarray:
    """Value of q at interfaces i+1/2, reconstructed from the upwind side."""
    left = q[:-1].copy()
    right = q[1:].copy()
    if order == 2:
        left[1:] += 0.5 * (q[1:-1] - q[:-2])
        right[:-1] -= 0.5 * (q[2:] - q[1:-1])
    return np.where(u_ifc >= 0.0, left, right)


def _check_new_state(rho_new, u_new, t_new):
    # Non-finite fields or negative density are scheme breakdown; only a
    # finite density in (0, RHO_FLOOR] is a physical vacuum approach.
    if not (np.all(np.isfinite(rho_new)) and np.all(np.isfinite(u_new))):
        raise NumericalFailure(f"non-finite fields at t={t_new:.6g}", time=t_new)
    if np.any(rho_new <= 0.0):
        raise NumericalFailure(
            f"negative density at t={t_new:.6g} (unstable step)", time=t_new
        )
    bad = rho_new <= RHO_FLOOR
    if np.any(bad):
        node = int(np.argmax(bad))
        raise VacuumBlowup(
            f"density hit the vacuum floor at node {node}, t={t_new:.6g}",
            time=t_new,
            node=node,
        )


def step_primitive(
    state: FluidState,
    dt: float,
    grid: Grid1D,
    cfg: SolverConfig,
    p: ModelParams,
    forcing=None,
    boundary=_FARFIELD,
) -> FluidState:
    """One conservative update of (rho, rho*u).

    Upwind fluxes for rho*u and rho*u^2, central pressure gradient, central
    diffusion (tridiagonal solve in u with frozen viscosity when
    semi-implicit).  `forcing`, when given, is a (g_rho, g_mom) pair of source
    fields; `boundary` the Dirichlet values ((rhoL, uL), (rhoR, uR)).
    """
    dx = grid.dx
    rho, u = state.rho, state.u
    mom = rho * u
    t_new = state.time + dt

    u_ifc = 0.5 * (u[:-1] + u[1:])
    f_rho = _upwind_interface(rho, u_ifc, cfg.advection_order) * u_ifc
    f_mom = _upwind_interface(mom, u_ifc, cfg.advection_order) * u_ifc

    rho_new = rho.copy()
    rho_new[1:-1] -= (dt / dx) * (f_rho[1:] - f_rho[:-1])

    dpdx = ddx(model.pressure(rho, p), grid)
    mom_star = mom.copy()
    mom_star[1:-1] -= (dt / dx) * (f_mom[1:] - f_mom[:-1]) + dt * dpdx[1:-1]

    if forcing is not None:
        g_rho, g_mom = forcing
        rho_new[1:-1] += dt * g_rho[1:-1]
        mom_star[1:-1] += dt * g_mom[1:-1]

    (rho_bl, u_bl), (rho_br, u_br) = boundary
    rho_new[0], rho_new[-1] = rho_bl, rho_br
    _check_new_state(rho_new, np.zeros(1), t_new)

    mu = model.viscosity(rho, p)  # frozen coefficients
    mu_ifc = 0.5 * (mu[:-1] + mu[1:])

    if cfg.diffusion_treatment == "explicit":
        visc = mu_ifc * (u[1:] - u[:-1]) / dx
        mom_star[1:-1] += (dt / dx) * (visc[1:] - visc[:-1])
        u_new = mom_star / rho_new
    else:
        # rho_new*u_new - dt*d/dx(mu du_new/dx) = mom_star, Dirichlet ends
        r = dt / dx**2
        diag = np.ones(grid.n_cells)
        lower = np.zeros(grid.n_cells)
        upper = np.zeros(grid.n_cells)
        rhs = mom_star.copy()
        diag[1:-1] = rho_new[1:-1] + r * (mu_ifc[1:] + mu_ifc[:-1])
        lower[1:-1] = -r * mu_ifc[:-1]
        upper[1:-1] = -r * mu_ifc[1:]
        rhs[0], rhs[-1] = u_bl, u_br
        u_new = solve_tridiagonal(lower, diag, upper, rhs)

    u_new[0], u_new[-1] = u_bl, u_br
    _check_new_state(rho_new, u_new, t_new)
    return FluidState(time=t_new, rho=rho_new, u=u_new)


def damp_effective_velocity(v, u, rho, dt: float, p: ModelParams) -> np.ndarray:
    """Exact integration of dv/dt = -f1(rho)(v - u) with u, rho frozen."""
    return u + (v - u) * np.exp(-dt * model.f1(rho, p))


def recover_velocity(rho, v, grid: Grid1D, p: ModelParams) -> np.ndarray:
    """u = v - ddx(phi(rho)): inverts the effective-velocity definition up to
    the stencil commutation error."""
    return v - ddx(model.phi(rho, p), grid)


def step_effective(
    rho: np.ndarray,
    v: np.ndarray,
    time: float,
    dt: float,
    grid: Grid1D,
    cfg: SolverConfig,
    p: ModelParams,
):
    """Advance the (rho, v) pair one step.

    The mass flux splits as rho*u = rho*v - ddx(rho**alpha/alpha): upwind
    advection by v plus conservative central diffusion.  v is advected upwind
    and damped with the exact exponential factor.
    """
    dx = grid.dx
    t_new = time + dt
    u = recover_velocity(rho, v, grid, p)

    v_ifc = 0.5 * (v[:-1] + v[1:])
    f_adv = _upwind_interface(rho, v_ifc, cfg.advection_order) * v_ifc
    phi2 = rho**p.alpha / p.alpha
    f_diff = (phi2[1:] - phi2[:-1]) / dx

    rho_new = rho.copy()
    rho_new[1:-1] += (dt / dx) * (-(f_adv[1:] - f_adv[:-1]) + (f_diff[1:] - f_diff[:-1]))
    rho_new[0] = rho_new[-1] = p.farfield_density
    _check_new_state(rho_new, np.zeros(1), t_new)

    v_star = v - dt * u * ddx_upwind(v, u, grid)
    v_new = damp_effective_velocity(v_star, u, rho, dt, p)
    v_new[0] = v_new[-1] = p.farfield_velocity

    _check_new_state(rho_new, v_new, t_new)
    return rho_new, v_new


def drive(initial, cfg: SolverConfig, dt, step, rates=()):
    """The cadence loop shared by every solver.

    `dt(state)` proposes a step, clipped so that every multiple of
    cfg.output_cadence and t_end are hit exactly; `step(state, t, dt)` returns
    the next state; each `rate(state)` is integrated in time by left
    rectangles.  Records t=0, every cadence multiple and t_end.  Returns
    (times, states, one array of accumulated integrals per rate, and the
    VacuumBlowup that ended the loop early or None).
    """
    eps = 1e-12 * max(1.0, cfg.t_end)
    state, t, k_out, blowup = initial, 0.0, 1, None
    acc = [0.0] * len(rates)
    times, states, accum = [t], [state], [list(acc)]
    while t < cfg.t_end - eps:
        next_out = k_out * cfg.output_cadence
        h = min(dt(state), next_out - t, cfg.t_end - t)
        if h <= 0.0:
            raise NumericalFailure(f"non-positive step at t={t:.6g}", time=t)
        for i, rate in enumerate(rates):
            acc[i] += h * rate(state)
        try:
            state = step(state, t, h)
        except VacuumBlowup as exc:
            blowup = exc
            break
        t += h
        if t >= next_out - eps or t >= cfg.t_end - eps:
            times.append(t)
            states.append(state)
            accum.append(list(acc))
            k_out += 1
    return times, states, [np.array(a) for a in zip(*accum)], blowup


def run(
    initial: FluidState,
    cfg: SolverConfig,
    grid: Grid1D,
    p: ModelParams,
    forcing=None,
    exact_boundary=None,
    build_diagnostics: bool = True,
) -> Trajectory:
    """Integrate to t_end, recording snapshots and dissipation at the cadence.

    `forcing(t) -> (g_rho, g_mom)` adds manufactured sources; `exact_boundary(t)
    -> ((rhoL, uL), (rhoR, uR))` overrides the far-field Dirichlet values (both
    used by the manufactured-solution studies).  A VacuumBlowup ends the run
    early and is recorded on the returned partial trajectory; other failures
    propagate.
    """
    if initial.n != grid.n_cells:
        raise InputError("initial state does not match the grid")
    if initial.time != 0.0:
        raise InputError("trajectories start at t=0")

    effective = cfg.formulation == "effective"
    if effective and (forcing is not None or exact_boundary is not None):
        raise InputError("manufactured sources run on the primitive formulation")
    v = effective_velocity(initial, grid, p) if effective else None

    def step(state, t, dt):
        nonlocal v
        if effective:
            rho, v = step_effective(state.rho, v, t, dt, grid, cfg, p)
            return FluidState(time=t + dt, rho=rho, u=recover_velocity(rho, v, grid, p))
        frc = forcing(t) if forcing is not None else None
        bc = exact_boundary(t + dt) if exact_boundary is not None else _FARFIELD
        return step_primitive(state, dt, grid, cfg, p, forcing=frc, boundary=bc)

    _, snapshots, (e_diss, bd_diss), exc = drive(
        initial,
        cfg,
        lambda state: stable_dt(state, grid, cfg, p),
        step,
        [
            lambda state: diagnostics.energy_dissipation_rate(state, grid, p),
            lambda state: diagnostics.bd_dissipation_rate(state, grid, p),
        ],
    )
    traj = Trajectory(
        params=p,
        grid=grid,
        snapshots=snapshots,
        energy_diss_accum=e_diss,
        bd_diss_accum=bd_diss,
        blowup=None if exc is None else BlowupInfo(time=exc.time, node=exc.node),
    )
    if build_diagnostics:
        traj.diagnostics = diagnostics.build_series(traj)
    return traj
