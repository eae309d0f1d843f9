"""Twin-run stability experiment.

Two primitive-solver runs from the same scenario, one with u0 perturbed by
epsilon times a fixed smooth profile, stepped in lockstep (shared dt so the
difference carries no time-grid noise).  Both trajectories are transported to
material coordinates through their own flow maps and the difference
delta_u = u1_lag - u2_lag is measured against the energy structure of the
difference equation

    rho0 d(delta_u)/dt - d/dx(rho1_lag*mu(rho1_lag)/rho0 d(delta_u)/dx)
        = d/dx G1 + d/dx G2,

    G1 = P(rho0/J2) - P(rho0/J1),
    G2 = (rho1_lag*mu(rho1_lag) - rho2_lag*mu(rho2_lag))/rho0 * du2_lag/dx.

Testing with delta_u and bounding the flux terms by Cauchy-Schwarz gives

  1/2||sqrt(rho0) delta_u(t)||^2 + kappa*int_0^t||d delta_u/dx||^2
      <= 1/2||sqrt(rho0) delta_u(0)||^2 + t*K(t)*int_0^t||d delta_u/dx||^2

with kappa the measured infimum of the diffusion weight and K(t) the measured
flux-to-dissipation ratio.  The crossing time where t*K(t) reaches kappa is
the horizon of the local-uniqueness contraction.

The twin is streamed.  Each recorded pair is measured as it is recorded:
each run's flow map, which keeps the u and du/dx of the run's last recorded
state, is moved on to this one (lagrangian.integrate_flow), u is
transported, and the pair's terms of the check are kept as scalars.  The
older maps are then dropped, so the experiment holds
O(N) arrays whatever the number of snapshots, and a failure (the two runs
coinciding, a particle leaving the domain, a flow map that stops increasing)
is raised at the pair where it shows, in time order.

The perturbed run steps in a child process (nsdv.child) forked just before
the stepping starts, while the base run steps in the caller's.  The child
runs the perturbed run's stable_dt and steps, numpy ufuncs and LAPACK dptsv,
and nothing else.  The dt choice is the runs' only coupling: at each step
both processes send their own stable_dt proposal and take the smaller, so
both clip the same step at the same cadence times.  At each recorded time
the child sends its state's time, rho and u, and the caller measures the
pair as above.  Failures keep the order of the steps (base step before
perturbed step before the next base stable_dt before the next perturbed
stable_dt): nsdv.child re-raises the child's own, already named, in the
caller, and the child marks a failure of its stable_dt so that the caller's
stable_dt failure outranks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .child import Child
from .diagnostics import left_integral
from .errors import ConfigError, InputError, NumericalFailure, VacuumBlowup
from .eulerian import SolverConfig, drive, stable_dt, step_primitive
from .initdata import ScenarioConfig, build_initial
from .lagrangian import integrate_flow, start_flow, to_lagrangian
from .model import FluidState
from .stencils import ddx

# Relative slack absorbing cadence-level quadrature error in the Gronwall check.
GRONWALL_SLACK = 0.05


@dataclass(frozen=True)
class TwinReport:
    epsilon: float
    times: np.ndarray
    delta_l2: np.ndarray  # ||delta_u(t)||_L2 on the particle grid
    diss_accum: np.ndarray  # int_0^t ||d delta_u/dx||^2
    kappa: float
    lhs: np.ndarray
    rhs: np.ndarray
    gronwall_ok: np.ndarray
    crossing_time: float | None


def _named_step(tag: str, grid, cfg: SolverConfig, p):
    """drive's step for one run: a failure names the run by `tag`."""

    def step(state, t, dt):
        try:
            return step_primitive(state, dt, grid, cfg, p)
        except (VacuumBlowup, NumericalFailure) as exc:
            exc.args = (f"{tag} {exc.args[0]}",)
            raise

    return step


class _ForkedRun:
    """A run stepped by drive in a forked child process, in lockstep with
    the caller's own run, both proposing steps with `dt` (see the module
    docstring).  The child sends its dt proposals and recorded states, the
    caller its dt proposals."""

    def __init__(self, initial: FluidState, cfg: SolverConfig, dt, step):
        self._dt = dt
        self._child = Child("twin's perturbed-run", _run_in_child, initial, cfg, dt, step)

    def close(self):
        """Close the caller's pipe ends, which ends the child, and reap it."""
        self._child.close()

    def shared_dt(self, state) -> float:
        """The smaller of the caller's proposal at `state` and the child's.
        A failure of the child's preceding step outranks a failure of the
        caller's proposal, which outranks a failure of the child's."""
        try:
            mine = self._dt(state)
        except Exception:
            try:
                self._child.receive()
            except Exception as failure:
                if not getattr(failure, "in_proposal", False):
                    raise
            raise
        try:
            self._child.send(mine)
        except BrokenPipeError:
            pass  # the child has ended: its last message says why
        return min(mine, self._child.receive())

    def recorded(self) -> FluidState:
        """The child's state at the caller's recorded time."""
        time, rho, u = self._child.receive()
        return FluidState(time=time, rho=rho, u=u)


def _run_in_child(channel, initial: FluidState, cfg: SolverConfig, dt, step):
    """The forked child's run: drive `initial` with `step`, sending each dt
    proposal and each recorded state through `channel`."""

    def shared_dt(state):
        try:
            mine = dt(state)
        except Exception as exc:
            exc.in_proposal = True  # ranked after the caller's proposal's failure
            raise
        channel.send(mine)
        return min(mine, channel.receive())

    drive(initial, cfg, shared_dt, step,
          lambda t, state: channel.send((state.time, state.rho, state.u)))


def default_perturbation(grid) -> np.ndarray:
    bump = np.exp(-grid.coords**2)
    bump[0] = bump[-1] = 0.0
    return bump


def twin_run_stability(scenario: ScenarioConfig, epsilon: float) -> TwinReport:
    """Run the twin experiment at perturbation size `epsilon` (of u0 only),
    along default_perturbation.  The scenario's formulation must be
    primitive: the twin compares primitive runs.  Each recorded pair is
    measured as it is recorded and then dropped (see the module docstring)."""
    # epsilon = 0 steps two identical runs, whose difference passes every
    # Gronwall check vacuously
    if not np.isfinite(epsilon) or epsilon == 0.0:
        raise InputError(f"epsilon must be finite and nonzero, got {epsilon:g}")
    p = scenario.model
    grid = scenario.grid()
    cfg = scenario.solver
    if cfg.formulation != "primitive":
        raise ConfigError(f"twin steps the primitive solver, not formulation = {cfg.formulation}")
    base = build_initial(scenario)
    pert = FluidState(
        time=0.0, rho=base.rho.copy(), u=base.u + epsilon * default_perturbation(grid)
    )
    # A perturbation lost to rounding (u0 unchanged) or whose energy
    # underflows (epsilon=1e-300 on u0 = 0) starts the check from
    # 1/2||sqrt(rho0) delta_u(0)||^2 = 0: as vacuous as epsilon = 0.
    if 0.5 * np.sum(base.rho * (pert.u - base.u) ** 2) * grid.dx == 0.0:
        raise InputError(f"epsilon {epsilon:g} gives a perturbation of zero energy")

    rho0 = base.rho
    dx = grid.dx
    kappa = np.inf
    # per recorded pair: t, ||delta_u||_L2 on the particle grid,
    # 1/2||sqrt(rho0) delta_u||^2, ||d delta_u/dx||^2 and ||G1+G2||*||d delta_u/dx||
    rows = []
    # per run: its flow map at its last recorded state
    flows = [start_flow(base, grid), start_flow(pert, grid)]

    def measure(t, pair):
        """Everything the Gronwall check reads at one recorded pair; the pair
        is dropped once the next one is recorded."""
        nonlocal flows, kappa
        a, b = pair
        if rows:
            # A perturbation that rounding erases during stepping leaves two
            # equal runs from then on, as vacuous as one that never started.
            if np.array_equal(a.u, b.u) and np.array_equal(a.rho, b.rho):
                raise InputError(f"epsilon {epsilon:g} is lost to rounding: the two "
                                 f"runs coincide from t={a.time:g}")
            flows = [integrate_flow(flow, state) for flow, state in zip(flows, pair)]
        flow1, flow2 = flows
        u1 = to_lagrangian(a.u, flow1)
        u2 = to_lagrangian(b.u, flow2)
        rho1 = rho0 / flow1.jacobian
        rho2 = rho0 / flow2.jacobian
        du = u1 - u2
        ddu = ddx(du, grid)
        ddu_sq = np.sum(ddu**2) * dx

        w1 = rho1 * model.viscosity(rho1, p) / rho0
        kappa = min(kappa, float(np.min(w1)))
        g1 = model.pressure(rho2, p) - model.pressure(rho1, p)
        w2 = rho2 * model.viscosity(rho2, p) / rho0
        g2 = (w1 - w2) * ddx(u2, grid)
        rows.append((
            a.time,
            np.sqrt(np.sum(du**2) * dx),
            0.5 * np.sum(rho0 * du**2) * dx,
            ddu_sq,
            np.sqrt(np.sum((g1 + g2) ** 2) * dx) * np.sqrt(ddu_sq),
        ))

    def run_dt(state):
        return stable_dt(state, grid, cfg, p)

    pert_run = _ForkedRun(pert, cfg, run_dt, _named_step("[twin perturbed]", grid, cfg, p))
    try:
        drive(base, cfg, pert_run.shared_dt, _named_step("[twin base]", grid, cfg, p),
              lambda t, a: measure(t, (a, pert_run.recorded())))
    finally:
        pert_run.close()
    times, delta_l2, weighted_half, ddelta_sq, g_cs = map(np.array, zip(*rows))
    diss_accum = left_integral(times, ddelta_sq)
    cs_accum = left_integral(times, g_cs)

    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(times * diss_accum > 0.0, cs_accum / (times * diss_accum), 0.0)

    lhs = weighted_half + kappa * diss_accum
    rhs = weighted_half[0] + cs_accum
    ok = lhs <= rhs * (1.0 + GRONWALL_SLACK) + 1e-9 * max(weighted_half[0], 1e-300)

    crossing = times[times * K >= kappa]
    return TwinReport(
        epsilon=epsilon,
        times=times,
        delta_l2=delta_l2,
        diss_accum=diss_accum,
        kappa=kappa,
        lhs=lhs,
        rhs=rhs,
        gronwall_ok=ok,
        crossing_time=float(crossing[0]) if len(crossing) else None,
    )
