"""Scalar functionals and estimate monitors.

Per snapshot the runner records the instantaneous halves of the two entropy
balances while it accumulates their dissipation integrals step by step; this
module turns a finished trajectory into the full monitored series:

  energy      sum(rho u^2/2 + Pi_rel) dx    with dissipation mu (du/dx)^2
  bd_entropy  same with the effective velocity v, dissipation (mu P'/rho)(drho/dx)^2
  hoff_A/B    sigma-weighted functionals of du/dx, udot, d(udot)/dx
  y monitor   measured max y against the comparison-ODE envelope
  oleinik     one-sided slope bound on v derived from the y envelope
  vacuum      max 1/rho against its comparison ODE (gamma < alpha+1 branch)
  w1 sign     max of the effective flux on sign-preserving scenarios

Envelope constants of the underlying inequalities are existential, so the
monitors check only the fully computable comparisons and otherwise report
empirical envelopes.  Tolerances scale as 10*dx: discretization error enters
every differentiated quantity at first order near steep gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .effective import compute_effective_fields, effective_velocity
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


def energy(state: FluidState, grid: Grid1D, p: ModelParams) -> float:
    """Instantaneous part sum(rho u^2/2 + Pi_rel(rho)) dx."""
    e = 0.5 * state.rho * state.u**2 + model.internal_energy(state.rho, p)
    return float(np.sum(e) * grid.dx)


def energy_dissipation_rate(state: FluidState, grid: Grid1D, p: ModelParams) -> float:
    """sum mu(rho) (du/dx)^2 dx, accumulated in time by the runner."""
    mu = model.viscosity(state.rho, p)
    return float(np.sum(mu * ddx(state.u, grid) ** 2) * grid.dx)


def bd_entropy(state: FluidState, grid: Grid1D, p: ModelParams) -> float:
    """Instantaneous part sum(rho v^2/2 + Pi_rel(rho)) dx with v effective."""
    return _bd_entropy(state.rho, effective_velocity(state, grid, p), grid, p)


def _bd_entropy(rho, v, grid: Grid1D, p: ModelParams) -> float:
    return 0.5 * float(np.sum(rho * v**2) * grid.dx) + float(
        np.sum(model.internal_energy(rho, p)) * grid.dx
    )


def bd_dissipation_rate(state: FluidState, grid: Grid1D, p: ModelParams) -> float:
    """sum (mu(rho) P'(rho)/rho) (drho/dx)^2 dx."""
    rho = state.rho
    coeff = model.viscosity(rho, p) * p.gamma * rho ** (p.gamma - 1.0) / rho
    return float(np.sum(coeff * ddx(rho, grid) ** 2) * grid.dx)


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


def _scan(traj) -> dict:
    """Every per-snapshot scalar the series and monitors read, as one array
    per name, from one compute_effective_fields call per snapshot.  No field
    array outlives its snapshot: at fine resolution the fields of a whole
    trajectory would dominate peak memory."""
    p, grid = traj.params, traj.grid
    dx = grid.dx
    rows = []
    for s in traj.snapshots:
        eff = compute_effective_fields(s, grid, p)
        mu = model.viscosity(s.rho, p)
        rows.append(
            {
                "energy": energy(s, grid, p),
                "bd": _bd_entropy(s.rho, eff.v, grid, p),
                "y_max": float(np.max(eff.y)),
                "slope": float(np.max(ddx(eff.v, grid))),
                "rho_max": float(np.max(s.rho)),
                "rho_min": float(np.min(s.rho)),
                "inv_rho_max": float(np.max(1.0 / s.rho)),
                "bv_v": bv_norm(eff.v),
                "w1_max": float(np.max(eff.w1)),
                # the Hoff functionals' spatial sums
                "dux2": float(np.sum(mu * ddx(s.u, grid) ** 2) * dx),
                "rudot2": float(np.sum(s.rho * eff.udot**2) * dx),
                "dudot2": float(np.sum(mu * ddx(eff.udot, grid) ** 2) * dx),
            }
        )
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


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

    def any_violation(self) -> bool:
        return any(bool(np.any(flags)) for flags in self.violation_flags.values())

    def flag_bits(self, k: int) -> str:
        return "".join("1" if self.violation_flags[name][k] else "0" for name in FLAG_ORDER)


def build_series(traj) -> DiagnosticSeries:
    """Evaluate every functional and monitor on a finished trajectory, from
    one pass over its snapshots."""
    p, grid = traj.params, traj.grid
    times = traj.times
    n_t = len(times)
    tol = TOL_FACTOR * grid.dx

    sc = _scan(traj)
    y_env = _y_envelope(p, times, sc)
    z = sc["inv_rho_max"]

    flags = {}
    avail = {}

    budget_e = sc["energy"][0] * (1.0 + BALANCE_REL) + tol * times
    flags["energy"] = sc["energy"] + traj.energy_diss_accum > budget_e
    avail["energy"] = True
    budget_bd = sc["bd"][0] * (1.0 + BALANCE_REL) + tol * times
    flags["bd"] = sc["bd"] + traj.bd_diss_accum > budget_bd
    avail["bd"] = True

    # The Oleinik envelope derives from the y envelope; only the max side of
    # the slope is ever constrained.
    avail["y_env"] = avail["oleinik"] = y_env is not None
    if y_env is not None:
        flags["y_env"] = sc["y_max"] > y_env + tol
        # dv/dx = rho*(y - f2(rho)) <= rho_max*(y_env - min_x f2); f2 is increasing
        oleinik_env = sc["rho_max"] * (y_env - model.f2(sc["rho_min"], p))
        flags["oleinik"] = ~(sc["slope"] <= oleinik_env + tol)
    else:
        flags["y_env"] = np.zeros(n_t, bool)
        flags["oleinik"] = np.zeros(n_t, bool)

    avail["vacuum"] = p.gamma < p.alpha + 1.0 - model.BRANCH_TOL
    z_env = _vacuum_envelope(p, times, z[0], float(y_env[0])) if avail["vacuum"] else None
    flags["vacuum"] = ~(z <= z_env + tol) if avail["vacuum"] else np.zeros(n_t, bool)

    w1_active = constantin_condition_holds(traj.snapshots[0], grid, p)
    avail["w1_sign"] = w1_active
    flags["w1_sign"] = sc["w1_max"] > tol if w1_active else np.zeros(n_t, bool)

    flags["blowup"] = z >= 1.0 / RHO_FLOOR
    if traj.blowup is not None:
        flags["blowup"][-1] = True
    avail["blowup"] = True

    return DiagnosticSeries(
        times=times,
        energy=sc["energy"],
        energy_diss_accum=np.asarray(traj.energy_diss_accum, dtype=float),
        bd_entropy=sc["bd"],
        bd_diss_accum=np.asarray(traj.bd_diss_accum, dtype=float),
        hoff_A=_hoff_series(times, sc["dux2"], sc["rudot2"]),
        hoff_B=_hoff_series(times, sc["rudot2"], sc["dudot2"]),
        y_max=sc["y_max"],
        oleinik_slope=sc["slope"],
        inv_rho_max=z,
        rho_max=sc["rho_max"],
        bv_norm_v=sc["bv_v"],
        w1_max=sc["w1_max"],
        violation_flags=flags,
        monitors_available=avail,
        y_env=y_env,
        z_env=z_env,
        tolerance=tol,
    )
