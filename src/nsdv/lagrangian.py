"""Flow-map integration, Eulerian/Lagrangian transport, and the solver in
material coordinates.

The flow map X solves dX/dt = u(t, X), X(0, x) = x; its space derivative
obeys dX/dx = exp(int_0^t du/dx(tau, X) dtau), which is what we accumulate.
A FlowMap is X at one recorded state of a run; start_flow gives the identity
at the first, and integrate_flow moves a map on to the next recorded state,
so a caller holds one map per run whatever the number of snapshots.
Composition with X moves fields between frames; X^{-1} is obtained by
monotone inversion of the sampled map rather than by integrating the
backward flow, so the inverse-pair property is exact up to interpolation.

In material coordinates mass conservation is algebraic, dX/dx * rho_lag =
rho0, and the momentum equation becomes a pure reaction-diffusion problem

    rho0 du/dt - d/dx( rho_lag*mu(rho_lag)/rho0 * du/dx ) + dP(rho_lag)/dx = 0

stepped semi-implicitly below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainExitError, HomeomorphismError, InputError, NumericalFailure
from .eulerian import drive
from .model import CheckedDensity, FluidState, Grid1D, ModelParams
from .stencils import ddx, solve_diffusion


@dataclass(frozen=True)
class FlowMap:
    """X(t, .) and its Jacobian, the exponential-identity product, at one
    recorded time t, with the u and du/dx of the state recorded then."""

    grid: Grid1D
    time: float
    x: np.ndarray
    jacobian: np.ndarray
    u: np.ndarray
    dudx: np.ndarray


def start_flow(state: FluidState, grid: Grid1D) -> FlowMap:
    """The identity map at a run's first recorded state."""
    return FlowMap(grid, state.time, grid.coords.copy(), np.ones(grid.n_cells), state.u,
                   ddx(state.u, grid))


def integrate_flow(
    flow: FlowMap, state: FluidState, substeps: int = 4, enforce_domain: bool = True
) -> FlowMap:
    """`flow` moved on to `state`, the run's next recorded state: per-particle
    midpoint RK2 along u, linear in time between the two states and in
    space between nodes, with du/dx feeding the exponential Jacobian
    identity.  Particles leaving [-L, L] raise DomainExitError unless
    `enforce_domain` is False (far-field u = 0 makes an exit a configuration
    problem, not physics)."""
    grid = flow.grid
    c = grid.coords
    t0, t1 = flow.time, state.time
    dudx = ddx(state.u, grid)

    def sample(f0, f1, t, x):
        w = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
        return (1.0 - w) * np.interp(x, c, f0) + w * np.interp(x, c, f1)

    limit = grid.half_length * (1.0 + 1e-9) + grid.dx
    h = (t1 - t0) / substeps
    t, x, jac = t0, flow.x, flow.jacobian
    for _ in range(substeps):
        x_mid = x + 0.5 * h * sample(flow.u, state.u, t, x)
        x = x + h * sample(flow.u, state.u, t + 0.5 * h, x_mid)
        jac = jac * np.exp(h * sample(flow.dudx, dudx, t + 0.5 * h, x_mid))
        t += h
        if enforce_domain and np.any(np.abs(x) > limit):
            i = int(np.argmax(np.abs(x)))
            raise DomainExitError(f"particle {i} left the domain at t={t:.6g} (x={x[i]:.6g})")
    return FlowMap(grid, t1, x, jac, state.u, dudx)


def _check_monotone(xk: np.ndarray, t: float):
    if np.any(np.diff(xk) <= 0.0):
        raise HomeomorphismError(f"flow map not strictly increasing at t={t:.6g}")


def to_lagrangian(field, flow: FlowMap) -> np.ndarray:
    """field composed with X at the flow's time: values the Eulerian field
    takes at the current particle positions."""
    _check_monotone(flow.x, flow.time)
    return np.interp(flow.x, flow.grid.coords, np.asarray(field, dtype=float))


@dataclass
class LagrangianTrajectory:
    """Material-coordinate run: fields live on the fixed particle-label grid."""

    params: ModelParams
    grid: Grid1D
    rho0: np.ndarray
    times: list
    rho: list  # rho_lag(t_k)
    u: list  # u_lag(t_k)
    jacobian: list  # dX/dx(t_k)
    x: list  # X(t_k)

    def eulerian_state(self, k: int) -> FluidState:
        """Push snapshot k back to the Eulerian grid (monotone inversion of X)."""
        xk = self.x[k]
        _check_monotone(xk, self.times[k])
        c = self.grid.coords
        return FluidState(
            time=self.times[k],
            rho=np.interp(c, xk, self.rho[k]),
            u=np.interp(c, xk, self.u[k]),
        )


def step_lagrangian(state, dt: float, rho0: np.ndarray, grid: Grid1D, p: ModelParams, time: float):
    """One semi-implicit step, from `time`, of run_lagrangian's (density, u,
    Jacobian, X) state; returns the next one.

    u advances through a tridiagonal solve with diffusion coefficient
    rho_lag*mu(rho_lag)/rho0, the Jacobian through d(dX/dx)/dt = du/dx and X
    by dt times the new u; the density is recomputed from the mass identity
    and checked as an Eulerian step's, by CheckedDensity.stepped, and u is
    checked finite.  The next stable dt and step share the new density's
    powers.
    """
    density, u_lag, jac, x = state
    if np.any(jac <= 0.0):
        raise HomeomorphismError(f"non-positive Jacobian entering step at t={time:.6g}")
    w = density.rho * model.viscosity(density, p) / rho0
    w_ifc = 0.5 * (w[:-1] + w[1:])
    dpdx = ddx(model.pressure(density, p), grid)
    rhs = rho0 * u_lag - dt * dpdx
    far = model.FARFIELD[1]
    u_new = solve_diffusion(rho0, w_ifc, dt / grid.dx**2, rhs, far, far)

    t_new = time + dt
    jac_new = jac + dt * ddx(u_new, grid)
    if np.any(jac_new <= 0.0):
        raise HomeomorphismError(f"Jacobian lost positivity at t={t_new:.6g}")
    new = CheckedDensity.stepped(rho0 / jac_new, t_new)
    NumericalFailure.check_finite(u_new, t_new)
    return new, u_new, jac_new, x + dt * u_new


def lagrangian_stable_dt(state, rho0, grid: Grid1D, p: ModelParams, cfg) -> float:
    """Sound CFL in material coordinates (wave speed c*rho_lag/rho0) plus a
    Jacobian-positivity guard, for the (density, u_lag, jac, x) state of
    run_lagrangian; cfg.dt_override when it is set, as in stable_dt."""
    if cfg.dt_override is not None:
        return cfg.dt_override
    density, u_lag, jac, _ = state
    c = model.sound_speed(density, p)
    speed = float(np.max(c * density.rho / rho0))
    dt = grid.dx / speed
    dudx_max = float(np.max(np.abs(ddx(u_lag, grid))))
    if dudx_max > 0.0:
        dt = min(dt, 0.45 * float(np.min(jac)) / dudx_max)
    return cfg.cfl_number * dt


def run_lagrangian(initial: FluidState, cfg, grid: Grid1D, p: ModelParams) -> LagrangianTrajectory:
    """Integrate the material-coordinate system to cfg.t_end, recording at
    cfg.output_cadence.  At t=0 the particle grid coincides with the Eulerian
    one, so `initial` seeds both rho0 and the fields."""
    if initial.n != grid.n_cells:
        raise InputError("initial state does not match the grid")
    if initial.time != 0.0:
        raise InputError("trajectories start at t=0")
    rho0 = initial.rho.copy()
    # the state is (density, u, jac, x): its stable dt and its step share the
    # powers of rho in density, which the record strips
    start = (initial.density, initial.u.copy(), np.ones(grid.n_cells), grid.coords.copy())
    states = []
    times, _, blowup = drive(
        start,
        cfg,
        lambda state: lagrangian_stable_dt(state, rho0, grid, p, cfg),
        lambda state, t, dt: step_lagrangian(state, dt, rho0, grid, p, t),
        record=lambda s: states.append((s[0].rho, *s[1:])),
    )
    if blowup is not None:
        raise blowup
    rho, u, jacobian, x = (list(fields) for fields in zip(*states))
    return LagrangianTrajectory(
        params=p, grid=grid, rho0=rho0, times=times, rho=rho, u=u, jacobian=jacobian, x=x
    )
