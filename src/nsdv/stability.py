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
from .diagnostics import left_integral
from .errors import InputError, NumericalFailure, VacuumBlowup
from .eulerian import SolverConfig, drive, stable_dt, step_primitive
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
    """Advance two primitive runs with a shared dt sequence; returns the two
    lists of states recorded at the cadence."""

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
    return [a for a, _ in pairs], [b for _, b in pairs]


def default_perturbation(grid) -> np.ndarray:
    bump = np.exp(-grid.coords**2)
    bump[0] = bump[-1] = 0.0
    return bump


def twin_run_stability(scenario: ScenarioConfig, epsilon: float) -> TwinReport:
    """Run the twin experiment at perturbation size `epsilon` (of u0 only),
    along default_perturbation."""
    # epsilon = 0 steps two identical runs, whose difference passes every
    # Gronwall check vacuously
    if not np.isfinite(epsilon) or epsilon == 0.0:
        raise InputError(f"epsilon must be finite and nonzero, got {epsilon:g}")
    p = scenario.model
    grid = scenario.grid()
    cfg = scenario.solver
    if cfg.formulation != "primitive":
        cfg = replace(cfg, formulation="primitive")
    base, _, _ = build_initial(scenario)
    pert = FluidState(
        time=0.0, rho=base.rho.copy(), u=base.u + epsilon * default_perturbation(grid)
    )
    # A perturbation lost to rounding (u0 unchanged) or whose energy
    # underflows (epsilon=1e-300 on u0 = 0) starts the check from
    # 1/2||sqrt(rho0) delta_u(0)||^2 = 0: as vacuous as epsilon = 0.
    if 0.5 * np.sum(base.rho * (pert.u - base.u) ** 2) * grid.dx == 0.0:
        raise InputError(f"epsilon {epsilon:g} gives a perturbation of zero energy")

    states1, states2 = _lockstep_pair(base, pert, cfg, grid, p)
    # A perturbation that rounding erases during stepping leaves two equal
    # runs from then on, as vacuous as one that never started.
    for a, b in zip(states1[1:], states2[1:]):
        if np.array_equal(a.u, b.u) and np.array_equal(a.rho, b.rho):
            raise InputError(f"epsilon {epsilon:g} is lost to rounding: the two runs "
                             f"coincide from t={a.time:g}")
    flow1 = integrate_flow(TrajectorySampler(grid, states1), grid)
    flow2 = integrate_flow(TrajectorySampler(grid, states2), grid)

    times = flow1.times
    rho0 = base.rho
    dx = grid.dx
    n_t = len(times)

    delta_l2 = np.empty(n_t)
    weighted_half = np.empty(n_t)  # 1/2 ||sqrt(rho0) delta_u||^2
    ddelta_sq = np.empty(n_t)  # ||d delta_u/dx||^2
    g_cs = np.empty(n_t)  # ||G1+G2|| * ||d delta_u/dx||
    kappa = np.inf

    for k in range(n_t):
        u1 = to_lagrangian(states1[k].u, flow1, k)
        u2 = to_lagrangian(states2[k].u, flow2, k)
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
        K=K,
        lhs=lhs,
        rhs=rhs,
        gronwall_ok=ok,
        crossing_time=float(crossing[0]) if len(crossing) else None,
    )
