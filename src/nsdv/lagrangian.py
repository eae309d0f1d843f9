"""Flow-map integration, Eulerian/Lagrangian transport, and the solver in
material coordinates.

The flow map X solves dX/dt = u(t, X), X(0, x) = x; its space derivative
obeys dX/dx = exp(int_0^t du/dx(tau, X) dtau), which is what we accumulate
(the centered difference of X is kept as a consistency check).  Composition
with X moves fields between frames; X^{-1} is obtained by monotone inversion
of the sampled map rather than by integrating the backward flow, so the
inverse-pair property is exact up to interpolation.

In material coordinates mass conservation is algebraic, dX/dx * rho_lag =
rho0, and the momentum equation becomes a pure reaction-diffusion problem

    rho0 du/dt - d/dx( rho_lag*mu(rho_lag)/rho0 * du/dx ) + dP(rho_lag)/dx = 0

stepped semi-implicitly below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import (
    DomainExitError,
    HomeomorphismError,
    InputError,
    NumericalFailure,
    VacuumBlowup,
)
from .eulerian import drive
from .model import RHO_FLOOR, FluidState, Grid1D, ModelParams
from .stencils import ddx, solve_tridiagonal


@dataclass(frozen=True)
class FlowMap:
    """X(t, .) and its Jacobian sampled at the recorded times.

    jacobian holds the exponential-identity product; jacobian_fd() recomputes
    it by differencing x_map, and the two must agree to second order.
    """

    times: np.ndarray
    x_map: np.ndarray  # (n_times, n_nodes)
    jacobian: np.ndarray
    grid: Grid1D

    def index_of(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise InputError(f"time {t} not among the recorded flow times")
        return k

    def jacobian_fd(self, k: int) -> np.ndarray:
        return ddx(self.x_map[k], self.grid)

    def max_jacobian_discrepancy(self) -> float:
        return float(
            max(
                np.max(np.abs(self.jacobian[k] - self.jacobian_fd(k)))
                for k in range(len(self.times))
            )
        )


class TrajectorySampler:
    """Velocity sampler over a solver trajectory: linear interpolation in time
    between snapshots and linear interpolation in space."""

    def __init__(self, traj):
        self.grid = traj.grid
        self.times = traj.times
        self._u = [s.u for s in traj.snapshots]
        self._dudx = [ddx(s.u, traj.grid) for s in traj.snapshots]

    def _pair(self, t):
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(max(k, 0), len(self.times) - 2)
        w = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        return k, min(max(w, 0.0), 1.0)

    def __call__(self, t, x):
        k, w = self._pair(t)
        c = self.grid.coords
        return (1.0 - w) * np.interp(x, c, self._u[k]) + w * np.interp(x, c, self._u[k + 1])

    def dudx(self, t, x):
        k, w = self._pair(t)
        c = self.grid.coords
        return (1.0 - w) * np.interp(x, c, self._dudx[k]) + w * np.interp(
            x, c, self._dudx[k + 1]
        )


def integrate_flow(
    sampler, grid: Grid1D, substeps: int = 4, enforce_domain: bool = True
) -> FlowMap:
    """Per-particle midpoint RK2 along the sampled velocity, recorded at the
    sampler's snapshot times.

    `sampler(t, x)` returns velocities; `sampler.dudx(t, x)` feeds the
    exponential Jacobian identity.  Particles leaving [-L, L] raise
    DomainExitError unless `enforce_domain` is False (far-field u = 0 makes
    an exit a configuration problem, not physics).
    """
    times = np.asarray(sampler.times, dtype=float)
    x = grid.coords.copy()
    jac = np.ones_like(x)
    xs = [x.copy()]
    js = [jac.copy()]
    limit = grid.half_length * (1.0 + 1e-9) + grid.dx

    for k in range(len(times) - 1):
        t0, t1 = times[k], times[k + 1]
        h = (t1 - t0) / substeps
        t = t0
        for _ in range(substeps):
            x_mid = x + 0.5 * h * sampler(t, x)
            x = x + h * sampler(t + 0.5 * h, x_mid)
            jac = jac * np.exp(h * sampler.dudx(t + 0.5 * h, x_mid))
            t += h
            if enforce_domain and np.any(np.abs(x) > limit):
                i = int(np.argmax(np.abs(x)))
                raise DomainExitError(
                    f"particle {i} left the domain at t={t:.6g} (x={x[i]:.6g})"
                )
        xs.append(x.copy())
        js.append(jac.copy())

    return FlowMap(times=times, x_map=np.array(xs), jacobian=np.array(js), grid=grid)


def _check_monotone(xk: np.ndarray, t: float):
    if np.any(np.diff(xk) <= 0.0):
        raise HomeomorphismError(f"flow map not strictly increasing at t={t:.6g}")


def to_lagrangian(field, flow: FlowMap, t: float) -> np.ndarray:
    """field composed with X(t, .): values the Eulerian field takes at the
    current particle positions."""
    k = flow.index_of(t)
    _check_monotone(flow.x_map[k], t)
    return np.interp(flow.x_map[k], flow.grid.coords, np.asarray(field, dtype=float))


def to_eulerian(field, flow: FlowMap, t: float) -> np.ndarray:
    """field composed with X^{-1}(t, .), by monotone inversion of x_map."""
    k = flow.index_of(t)
    _check_monotone(flow.x_map[k], t)
    return np.interp(flow.grid.coords, flow.x_map[k], np.asarray(field, dtype=float))


def lagrangian_density(flow: FlowMap, rho0, t: float) -> np.ndarray:
    """rho_lag(t, x) = rho0(x) / dX/dx(t, x): mass conservation made algebraic."""
    k = flow.index_of(t)
    jac = flow.jacobian[k]
    if np.any(jac <= 0.0):
        raise HomeomorphismError(f"non-positive Jacobian at t={t:.6g}")
    return np.asarray(rho0, dtype=float) / jac


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


def step_lagrangian(
    rho_lag: np.ndarray,
    u_lag: np.ndarray,
    jac: np.ndarray,
    dt: float,
    rho0: np.ndarray,
    grid: Grid1D,
    p: ModelParams,
    time: float = 0.0,
):
    """One semi-implicit step of the material-coordinate system.

    u advances through a tridiagonal solve with diffusion coefficient
    rho_lag*mu(rho_lag)/rho0, the Jacobian through d(dX/dx)/dt = du/dx, and
    the density is recomputed from the mass identity.
    """
    if np.any(jac <= 0.0):
        raise HomeomorphismError(f"non-positive Jacobian entering step at t={time:.6g}")
    dx = grid.dx
    w = rho_lag * model.viscosity(rho_lag, p) / rho0
    w_ifc = 0.5 * (w[:-1] + w[1:])
    dpdx = ddx(model.pressure(rho_lag, p), grid)

    r = dt / dx**2
    n = grid.n_cells
    diag = np.ones(n)
    lower = np.zeros(n)
    upper = np.zeros(n)
    rhs = rho0 * u_lag - dt * dpdx
    rhs[0] = rhs[-1] = 0.0
    diag[1:-1] = rho0[1:-1] + r * (w_ifc[1:] + w_ifc[:-1])
    lower[1:-1] = -r * w_ifc[:-1]
    upper[1:-1] = -r * w_ifc[1:]
    u_new = solve_tridiagonal(lower, diag, upper, rhs)
    u_new[0] = u_new[-1] = 0.0

    jac_new = jac + dt * ddx(u_new, grid)
    if np.any(jac_new <= 0.0):
        raise HomeomorphismError(f"Jacobian lost positivity at t={time + dt:.6g}")
    rho_new = rho0 / jac_new

    bad = rho_new <= RHO_FLOOR
    if np.any(bad):
        node = int(np.argmax(bad))
        raise VacuumBlowup(
            f"Lagrangian density hit the floor at node {node}", time=time + dt, node=node
        )
    if not np.all(np.isfinite(u_new)):
        raise NumericalFailure("non-finite Lagrangian velocity", time=time + dt)
    return rho_new, u_new, jac_new


def lagrangian_stable_dt(rho_lag, u_lag, jac, rho0, grid, p, cfl: float) -> float:
    """Sound CFL in material coordinates (wave speed c*rho_lag/rho0) plus a
    Jacobian-positivity guard."""
    c = model.sound_speed(rho_lag, p)
    speed = float(np.max(c * rho_lag / rho0))
    dt = grid.dx / speed
    dudx_max = float(np.max(np.abs(ddx(u_lag, grid))))
    if dudx_max > 0.0:
        dt = min(dt, 0.45 * float(np.min(jac)) / dudx_max)
    return cfl * dt


def run_lagrangian(initial: FluidState, cfg, grid: Grid1D, p: ModelParams) -> LagrangianTrajectory:
    """Integrate the material-coordinate system to cfg.t_end, recording at
    cfg.output_cadence.  At t=0 the particle grid coincides with the Eulerian
    one, so `initial` seeds both rho0 and the fields."""
    if initial.n != grid.n_cells:
        raise InputError("initial state does not match the grid")
    rho0 = initial.rho.copy()

    def propose_dt(state):
        if cfg.dt_override is not None:
            return cfg.dt_override
        rho_lag, u_lag, jac, _ = state
        return lagrangian_stable_dt(rho_lag, u_lag, jac, rho0, grid, p, cfg.cfl_number)

    def step(state, t, dt):
        rho_lag, u_lag, jac, x = state
        rho_lag, u_lag, jac = step_lagrangian(rho_lag, u_lag, jac, dt, rho0, grid, p, time=t)
        return rho_lag, u_lag, jac, x + dt * u_lag

    start = (initial.rho.copy(), initial.u.copy(), np.ones(grid.n_cells), grid.coords.copy())
    times, states, _, blowup = drive(start, cfg, propose_dt, step)
    if blowup is not None:
        raise blowup
    rho, u, jacobian, x = (list(fields) for fields in zip(*states))
    return LagrangianTrajectory(
        params=p, grid=grid, rho0=rho0, times=times, rho=rho, u=u, jacobian=jacobian, x=x
    )


@dataclass(frozen=True)
class DecayReport:
    """Empirical envelope for the damped transport of v along particle paths."""

    times: np.ndarray
    ratio: np.ndarray  # max_x |v_lag| / (1 + |v0|) per time
    envelope: np.ndarray  # running max of ratio: the measured C(t)
    v_final: np.ndarray


def v_lagrangian_decay(traj, v0) -> DecayReport:
    """Integrate dv/dt + f1(rho_lag) (v - u_lag) = 0 along trajectories with
    the exponential integrating factor, reporting max |v|/(1+|v0|).

    `traj` is an Eulerian trajectory; rho and u are transported through its
    flow map, frozen on each cadence interval.
    """
    grid, p = traj.grid, traj.params
    flow = integrate_flow(TrajectorySampler(traj), grid)
    times = traj.times
    v = np.asarray(v0, dtype=float).copy()
    denom = 1.0 + np.abs(v0)
    ratios = [float(np.max(np.abs(v) / denom))]
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        rho_k = to_lagrangian(traj.snapshots[k].rho, flow, times[k])
        u_k = to_lagrangian(traj.snapshots[k].u, flow, times[k])
        v = u_k + (v - u_k) * np.exp(-dt * model.f1(rho_k, p))
        ratios.append(float(np.max(np.abs(v) / denom)))
    ratio = np.array(ratios)
    return DecayReport(
        times=times, ratio=ratio, envelope=np.maximum.accumulate(ratio), v_final=v
    )
