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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model
from .errors import NumericalFailure, VacuumBlowup
from .eulerian import SolverConfig, Trajectory, drive, stable_dt, step_primitive
from .initdata import ScenarioConfig, build_initial
from .lagrangian import TrajectorySampler, integrate_flow, to_lagrangian
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
    K: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    gronwall_ok: np.ndarray
    crossing_time: float | None

    def delta_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.delta_l2))


def _lockstep_pair(initial_a, initial_b, cfg: SolverConfig, grid, p):
    """Advance two primitive runs with a shared dt sequence, snapshotting both
    at the cadence."""

    def step(pair, t, dt):
        out = []
        for tag, state in zip(("[twin base]", "[twin perturbed]"), pair):
            try:
                out.append(step_primitive(state, dt, grid, cfg, p))
            except (VacuumBlowup, NumericalFailure) as exc:
                exc.args = (f"{tag} {exc.args[0]}",)
                raise
        return tuple(out)

    _, pairs, _, blowup = drive(
        (initial_a, initial_b),
        cfg,
        lambda pair: min(stable_dt(pair[0], grid, cfg, p), stable_dt(pair[1], grid, cfg, p)),
        step,
    )
    if blowup is not None:
        raise blowup
    zeros = np.zeros(len(pairs))
    traj_a = Trajectory(p, grid, [a for a, _ in pairs], zeros, zeros.copy())
    traj_b = Trajectory(p, grid, [b for _, b in pairs], zeros.copy(), zeros.copy())
    return traj_a, traj_b


def default_perturbation(grid) -> np.ndarray:
    bump = np.exp(-grid.coords**2)
    bump[0] = bump[-1] = 0.0
    return bump


def twin_run_stability(
    scenario: ScenarioConfig, epsilon: float, perturbation=None
) -> TwinReport:
    """Run the twin experiment at perturbation size `epsilon` (of u0 only)."""
    p = scenario.model
    grid = scenario.grid()
    cfg = scenario.solver
    if cfg.formulation != "primitive":
        cfg = replace(cfg, formulation="primitive")
    base, _, _ = build_initial(scenario)
    if perturbation is None:
        perturbation = default_perturbation(grid)
    pert = FluidState(time=0.0, rho=base.rho.copy(), u=base.u + epsilon * perturbation)

    traj1, traj2 = _lockstep_pair(base, pert, cfg, grid, p)
    flow1 = integrate_flow(TrajectorySampler(traj1), grid)
    flow2 = integrate_flow(TrajectorySampler(traj2), grid)

    times = traj1.times
    rho0 = base.rho
    dx = grid.dx
    n_t = len(times)

    delta_l2 = np.empty(n_t)
    weighted_half = np.empty(n_t)  # 1/2 ||sqrt(rho0) delta_u||^2
    ddelta_sq = np.empty(n_t)  # ||d delta_u/dx||^2
    g_cs = np.empty(n_t)  # ||G1+G2|| * ||d delta_u/dx||
    kappa = np.inf

    for k, t in enumerate(times):
        u1 = to_lagrangian(traj1.snapshots[k].u, flow1, t)
        u2 = to_lagrangian(traj2.snapshots[k].u, flow2, t)
        rho1 = rho0 / flow1.jacobian[k]
        rho2 = rho0 / flow2.jacobian[k]
        du = u1 - u2
        ddu = ddx(du, grid)
        delta_l2[k] = np.sqrt(np.sum(du**2) * dx)
        weighted_half[k] = 0.5 * np.sum(rho0 * du**2) * dx
        ddelta_sq[k] = np.sum(ddu**2) * dx

        w1 = rho1 * model.viscosity(rho1, p) / rho0
        kappa = min(kappa, float(np.min(w1)))
        g1 = model.pressure(rho2, p) - model.pressure(rho1, p)
        w2 = rho2 * model.viscosity(rho2, p) / rho0
        g2 = (w1 - w2) * ddx(u2, grid)
        g_cs[k] = np.sqrt(np.sum((g1 + g2) ** 2) * dx) * np.sqrt(ddelta_sq[k])

    wts = np.zeros(n_t)
    wts[:-1] = np.diff(times)
    diss_accum = np.concatenate(([0.0], np.cumsum((wts * ddelta_sq)[:-1])))
    cs_accum = np.concatenate(([0.0], np.cumsum((wts * g_cs)[:-1])))

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
        K=K,
        lhs=lhs,
        rhs=rhs,
        gronwall_ok=ok,
        crossing_time=float(crossing[0]) if len(crossing) else None,
    )
