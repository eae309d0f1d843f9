"""Scalar functionals and estimate monitors.

Per recorded state the runner keeps only the scalars of snapshot_scalars,
the instantaneous halves of the two entropy balances among them, while it
accumulates their dissipation integrals step by step; build_series turns
them into the full monitored series:

  energy      sum(rho u^2/2 + Pi_rel) dx    with dissipation mu (du/dx)^2
  bd_entropy  same with the effective velocity v, dissipation (mu P'/rho^2)(drho/dx)^2
  hoff_A/B    sigma-weighted functionals of du/dx, udot, d(udot)/dx
  y monitor   measured max y against the comparison-ODE envelope
  oleinik     one-sided slope bound on v derived from the y envelope
  vacuum      max 1/rho against its comparison ODE (gamma < alpha+1 branch)
  w1 sign     max of the effective flux on sign-preserving scenarios

Envelope constants of the underlying inequalities are existential, so the
monitors check only the fully computable comparisons and otherwise report
empirical envelopes.  Tolerances scale as 10*dx: discretization error enters
every differentiated quantity at first order near steep gradients.

Each of the six bounded monitors is one (measured, bound) pair of series, or
none where its estimate does not apply; it fires wherever
~(measured <= bound), so a NaN on either side fires too.  The blowup monitor
fires where max 1/rho reaches 1/RHO_FLOOR and at a recorded VacuumBlowup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .model import RHO_FLOOR, FluidState, Grid1D, ModelParams
from .stencils import ddx

# Monitor tolerance = TOL_FACTOR * dx.
TOL_FACTOR = 10.0

# Bit order of the violation-flag string in the diagnostics CSV.
FLAG_ORDER = ("energy", "bd", "y_env", "oleinik", "vacuum", "w1_sign", "blowup")

# Relative slack on the two balance monitors, on top of the 10*dx*t allowance.
BALANCE_REL = 1e-3


def sigma(t):
    """sigma(t) = min(1, t): vanishes at t=0 so the weighted functionals
    tolerate rough initial velocity."""
    return np.minimum(1.0, t)


def energy(state: FluidState, grid: Grid1D, p: ModelParams, pi_rel=None) -> float:
    """Instantaneous part sum(rho u^2/2 + Pi_rel(rho)) dx; `pi_rel`, when
    given, is model.internal_energy(state.rho)."""
    if pi_rel is None:
        pi_rel = model.internal_energy(state.rho, p)
    e = 0.5 * state.rho * state.u**2 + pi_rel
    return float(np.sum(e) * grid.dx)


def energy_dissipation_rate(state: FluidState, grid: Grid1D, p: ModelParams) -> float:
    """sum mu(rho) (du/dx)^2 dx, accumulated in time by the runner."""
    return float((model.viscosity(state.density, p) * ddx(state.u, grid) ** 2).sum() * grid.dx)


def bd_entropy(rho, v, grid: Grid1D, p: ModelParams, pi_rel=None) -> float:
    """Instantaneous part sum(rho v^2/2 + Pi_rel(rho)) dx with v effective;
    `pi_rel`, when given, is model.internal_energy(rho)."""
    if pi_rel is None:
        pi_rel = model.internal_energy(rho, p)
    return 0.5 * float(np.sum(rho * v**2) * grid.dx) + float(np.sum(pi_rel) * grid.dx)


def bd_dissipation_rate(state: FluidState, grid: Grid1D, p: ModelParams) -> float:
    """sum (mu(rho) P'(rho)/rho^2) (drho/dx)^2 dx, accumulated in time by the
    runner.  It closes the BD balance: rho D_t v + P_x = 0, tested with
    v = u + phi(rho)_x, phi' = mu/rho^2."""
    rho, density = state.rho, state.density
    coeff = model.viscosity(density, p) * p.gamma * density.power(p.gamma - 1.0) / (rho * rho)
    return float((coeff * ddx(rho, grid) ** 2).sum() * grid.dx)


def bv_norm(v) -> float:
    """Discrete total variation of v over the whole grid."""
    return float(np.sum(np.abs(np.diff(np.asarray(v)))))


def left_integral(times: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """Cumulative left-rectangle quadrature of the product of `factors`
    sampled at `times`: entry k is sum over j < k of
    (times[j+1] - times[j]) * prod(f[j] for f in factors).  Monotone
    accumulation matches one-sided bounds."""
    terms = np.diff(times)
    for f in factors:
        terms = terms * f[:-1]
    return np.concatenate(([0.0], np.cumsum(terms)))


def snapshot_scalars(state: FluidState, eff, grid: Grid1D, p: ModelParams) -> dict:
    """Every per-snapshot scalar the series and monitors read, from one
    recorded state and its compute_effective_fields `eff` (whose mu(rho),
    du/dx and dv/dx it shares), with one Pi_rel(rho) for both balances;
    the names of the series are those of the DiagnosticSeries fields.  The
    runner keeps these, not the state: at fine resolution the states of a
    whole trajectory would dominate peak memory."""
    dx = grid.dx
    pi_rel = model.internal_energy(state.density, p)
    return {
        "energy": energy(state, grid, p, pi_rel),
        "bd_entropy": bd_entropy(state.rho, eff.v, grid, p, pi_rel),
        "y_max": float(np.max(eff.y)),
        "oleinik_slope": float(np.max(eff.vx)),
        "rho_max": float(np.max(state.rho)),
        "inv_rho_max": float(np.max(1.0 / state.rho)),
        "bv_norm_v": bv_norm(eff.v),
        "w1_max": float(np.max(eff.w1)),
        # read by the monitors and Hoff functionals, not series themselves
        "rho_min": float(np.min(state.rho)),
        "dux2": float(np.sum(eff.mu * eff.ux**2) * dx),
        "rudot2": float(np.sum(state.rho * eff.udot**2) * dx),
        "dudot2": float(np.sum(eff.mu * ddx(eff.udot, grid) ** 2) * dx),
    }


def _hoff_series(times: np.ndarray, half: np.ndarray, integrand: np.ndarray) -> np.ndarray:
    """sigma(t)/2 * half(t) + int_0^t sigma * integrand: A(t) with half the
    sum mu (du/dx)^2 and integrand sum rho udot^2, B(t) with half the sum
    rho udot^2 and integrand sum mu (d udot/dx)^2."""
    sig = sigma(times)
    return 0.5 * sig * half + left_integral(times, sig, integrand)


def _y_envelope(p: ModelParams, times: np.ndarray, sc: dict) -> np.ndarray | None:
    """y_env(t) = y_max(0) + C_gamma * int_0^t rho_max(s)^(2gamma-2alpha-1) ds
    with C_gamma = max(0, gamma^2/(gamma-alpha-1)); None on the log branch,
    where the comparison constant is not computable."""
    if p.log_branch:
        return None
    c_gamma = max(0.0, p.gamma**2 / (p.gamma - p.alpha - 1.0))
    expo = 2.0 * p.gamma - 2.0 * p.alpha - 1.0
    return sc["y_max"][0] + c_gamma * left_integral(times, sc["rho_max"] ** expo)


def _vacuum_envelope(p: ModelParams, times: np.ndarray, z0: float, y0: float):
    """Integrates dz/dt = y0 + gamma/(alpha+1-gamma) * z^(alpha+1-gamma) from
    z0, the comparison ODE for z = max 1/rho when gamma < alpha+1.  That is
    the power branch with c_gamma = 0, where the y envelope is the constant
    y0 = y_max(0)."""
    coef = p.gamma / (p.alpha + 1.0 - p.gamma)
    expo = p.alpha + 1.0 - p.gamma

    def rate(zz):
        return y0 + coef * zz**expo

    z_env = np.empty_like(times)
    z_env[0] = z0
    substeps = 8
    for k in range(len(times) - 1):
        zz = z_env[k]
        h = (times[k + 1] - times[k]) / substeps
        for _ in range(substeps):  # midpoint RK2 on the comparison ODE
            zmid = zz + 0.5 * h * rate(zz)
            zz = zz + h * rate(zmid)
        z_env[k + 1] = zz
    return z_env


def constantin_condition_holds(state0: FluidState, grid: Grid1D, p: ModelParams) -> bool:
    """alpha > 1, gamma in [alpha, alpha+1], and du0/dx <= rho0^(gamma-alpha)."""
    if not (p.alpha > 1.0 and p.alpha <= p.gamma <= p.alpha + 1.0):
        return False
    gap = ddx(state0.u, grid) - state0.rho ** (p.gamma - p.alpha)
    return bool(np.max(gap) <= 1e-10)


@dataclass
class DiagnosticSeries:
    """Time series of every monitored scalar plus per-monitor violation flags.

    violation_flags[name][k] = True means monitor `name` failed at times[k];
    monitors_available[name] = False means the check is not applicable to the
    trajectory's parameters (log branch, Constantin hypotheses absent) and its
    flags are vacuously False.
    """

    times: np.ndarray
    energy: np.ndarray
    energy_diss_accum: np.ndarray
    bd_entropy: np.ndarray
    bd_diss_accum: np.ndarray
    hoff_A: np.ndarray
    hoff_B: np.ndarray
    y_max: np.ndarray
    oleinik_slope: np.ndarray
    inv_rho_max: np.ndarray
    rho_max: np.ndarray
    bv_norm_v: np.ndarray
    w1_max: np.ndarray
    violation_flags: dict = field(default_factory=dict)
    monitors_available: dict = field(default_factory=dict)
    y_env: np.ndarray | None = None
    z_env: np.ndarray | None = None
    tolerance: float = 0.0

    def flag_bits(self, k: int) -> str:
        return "".join("1" if self.violation_flags[name][k] else "0" for name in FLAG_ORDER)


def build_series(traj) -> DiagnosticSeries:
    """Evaluate every functional and monitor on a finished trajectory from
    the scalars its runner recorded.  The one field evaluated here is the
    initial state's, by constantin_condition_holds when alpha > 1 and
    alpha <= gamma <= alpha+1: ddx(u0) and rho0**(gamma-alpha) over the grid,
    which is why the Trajectory keeps its whole initial state."""
    p, grid = traj.params, traj.grid
    times = traj.times
    tol = TOL_FACTOR * grid.dx

    sc = {name: np.array([row[name] for row in traj.scalars]) for name in traj.scalars[0]}
    rho_min, dux2, rudot2, dudot2 = (sc.pop(k) for k in ("rho_min", "dux2", "rudot2", "dudot2"))
    y_env = _y_envelope(p, times, sc)
    z = sc["inv_rho_max"]
    z_env = None
    if p.gamma < p.alpha + 1.0 - model.BRANCH_TOL:
        z_env = _vacuum_envelope(p, times, z[0], float(y_env[0]))
    w1_active = constantin_condition_holds(traj.initial, grid, p)
    energy_budget = sc["energy"][0] * (1.0 + BALANCE_REL) + tol * times
    bd_budget = sc["bd_entropy"][0] * (1.0 + BALANCE_REL) + tol * times

    # monitor -> (measured, bound), or None where its estimate does not apply.
    # The Oleinik envelope derives from the y envelope and constrains only
    # the max side of the slope: dv/dx = rho*(y - f2(rho)) <= rho_max*(y_env
    # - min_x f2), f2 being increasing.
    checks = {
        "energy": (sc["energy"] + traj.energy_diss_accum, energy_budget),
        "bd": (sc["bd_entropy"] + traj.bd_diss_accum, bd_budget),
        "y_env": None if y_env is None else (sc["y_max"], y_env + tol),
        "oleinik": None if y_env is None else (
            sc["oleinik_slope"], sc["rho_max"] * (y_env - model.f2(rho_min, p)) + tol
        ),
        "vacuum": None if z_env is None else (z, z_env + tol),
        "w1_sign": (sc["w1_max"], tol) if w1_active else None,
    }
    # ~(measured <= bound) also flags a NaN in either
    flags = {
        name: np.full(len(times), False) if pair is None else ~(pair[0] <= pair[1])
        for name, pair in checks.items()
    }
    flags["blowup"] = z >= 1.0 / RHO_FLOOR
    if traj.blowup is not None:
        flags["blowup"][-1] = True
    available = {name: pair is not None for name, pair in checks.items()}
    available["blowup"] = True

    return DiagnosticSeries(
        times=times,
        energy_diss_accum=np.asarray(traj.energy_diss_accum, dtype=float),
        bd_diss_accum=np.asarray(traj.bd_diss_accum, dtype=float),
        hoff_A=_hoff_series(times, dux2, rudot2),
        hoff_B=_hoff_series(times, rudot2, dudot2),
        violation_flags=flags,
        monitors_available=available,
        y_env=y_env,
        z_env=z_env,
        tolerance=tol,
        **sc,
    )
