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
from .errors import InputError
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


def bv_norm(v, grid: Grid1D, half_width: float) -> float:
    """Discrete total variation of v over the window [-half_width, half_width]."""
    if half_width > grid.half_length + 1e-12:
        raise InputError("window exceeds the domain")
    mask = np.abs(grid.coords) <= half_width + 1e-12
    return float(np.sum(np.abs(np.diff(np.asarray(v)[mask]))))


def _time_weights(times: np.ndarray) -> np.ndarray:
    """Left-rectangle weights: dt of the interval to the right of each node,
    zero for the last node (monotone accumulation matches one-sided bounds)."""
    w = np.zeros_like(times)
    w[:-1] = np.diff(times)
    return w


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
                "bv_v": bv_norm(eff.v, grid, grid.half_length),
                "w1_max": float(np.max(eff.w1)),
                # the Hoff functionals' spatial sums
                "dux2": float(np.sum(mu * ddx(s.u, grid) ** 2) * dx),
                "rudot2": float(np.sum(s.rho * eff.udot**2) * dx),
                "dudot2": float(np.sum(mu * ddx(eff.udot, grid) ** 2) * dx),
            }
        )
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def _hoff_series(times: np.ndarray, half: np.ndarray, integrand: np.ndarray) -> np.ndarray:
    """sigma(t)/2 * half(t) + int_0^t sigma * integrand."""
    sig = sigma(times)
    integral = np.concatenate(([0.0], np.cumsum((_time_weights(times) * sig * integrand)[:-1])))
    return 0.5 * sig * half + integral


def hoff_A_series(traj) -> np.ndarray:
    """A(t) = sigma(t)/2 * sum rho^alpha (du/dx)^2 dx + int_0^t sigma sum rho udot^2."""
    sc = _scan(traj)
    return _hoff_series(traj.times, sc["dux2"], sc["rudot2"])


def hoff_B_series(traj) -> np.ndarray:
    """B(t) = sigma(t)/2 * sum rho udot^2 dx + int_0^t sigma sum rho^alpha (d udot/dx)^2."""
    sc = _scan(traj)
    return _hoff_series(traj.times, sc["rudot2"], sc["dudot2"])


def hoff_A(traj, t: float | None = None) -> float:
    series = hoff_A_series(traj)
    return float(series[-1] if t is None else series[np.searchsorted(traj.times, t)])


def hoff_B(traj, t: float | None = None) -> float:
    series = hoff_B_series(traj)
    return float(series[-1] if t is None else series[np.searchsorted(traj.times, t)])


@dataclass(frozen=True)
class YEnvelope:
    """Comparison-ODE envelope for max_x y; withheld on the log branch, where
    the comparison constant is not computable."""

    times: np.ndarray
    available: bool
    y_env: np.ndarray | None
    c_gamma: float


def y_comparison_ode(traj) -> YEnvelope:
    """y_env(t) = y_max(0) + C_gamma * int_0^t rho_max(s)^(2gamma-2alpha-1) ds
    with C_gamma = max(0, gamma^2/(gamma-alpha-1))."""
    return _y_envelope(traj, _scan(traj))


def _y_envelope(traj, sc: dict) -> YEnvelope:
    p = traj.params
    times = traj.times
    if p.log_branch:
        return YEnvelope(times=times, available=False, y_env=None, c_gamma=np.nan)
    c_gamma = max(0.0, p.gamma**2 / (p.gamma - p.alpha - 1.0))
    expo = 2.0 * p.gamma - 2.0 * p.alpha - 1.0
    growth = np.concatenate(
        ([0.0], np.cumsum((_time_weights(times) * sc["rho_max"] ** expo)[:-1]))
    )
    return YEnvelope(
        times=times, available=True, y_env=sc["y_max"][0] + c_gamma * growth, c_gamma=c_gamma
    )


@dataclass(frozen=True)
class OleinikReport:
    """One-sided slope monitor: max_x dv/dx against the envelope implied by the
    y comparison.  Only the max side is ever constrained."""

    times: np.ndarray
    slope_max: np.ndarray
    available: bool
    envelope: np.ndarray | None
    ok: np.ndarray
    tolerance: float


def oleinik_monitor(traj) -> OleinikReport:
    sc = _scan(traj)
    return _oleinik(traj, sc, _y_envelope(traj, sc))


def _oleinik(traj, sc: dict, env_y: YEnvelope) -> OleinikReport:
    times = traj.times
    slope = sc["slope"]
    tol = TOL_FACTOR * traj.grid.dx
    if not env_y.available:
        return OleinikReport(times, slope, False, None, np.ones(len(times), bool), tol)
    # dv/dx = rho*(y - f2(rho)) <= rho_max*(y_env - min_x f2); f2 is increasing
    envelope = sc["rho_max"] * (env_y.y_env - model.f2(sc["rho_min"], traj.params))
    ok = slope <= envelope + tol
    return OleinikReport(times, slope, True, envelope, ok, tol)


@dataclass(frozen=True)
class VacuumReport:
    """z(t) = max 1/rho against its comparison ODE (gamma < alpha+1 only)."""

    times: np.ndarray
    z: np.ndarray
    available: bool
    z_env: np.ndarray | None
    ok: np.ndarray
    blowup: np.ndarray
    tolerance: float


def vacuum_monitor(traj) -> VacuumReport:
    """Integrates dz/dt = y_env(t) + gamma/(alpha+1-gamma) * z^(alpha+1-gamma)
    when gamma < alpha+1 and checks the measured z stays below it."""
    sc = _scan(traj)
    return _vacuum(traj, sc, _y_envelope(traj, sc))


def _vacuum(traj, sc: dict, env_y: YEnvelope) -> VacuumReport:
    p = traj.params
    times = traj.times
    z = sc["inv_rho_max"]
    blowup = z >= 1.0 / RHO_FLOOR
    tol = TOL_FACTOR * traj.grid.dx
    if not (p.gamma < p.alpha + 1.0 - model.BRANCH_TOL):
        return VacuumReport(times, z, False, None, np.ones(len(times), bool), blowup, tol)
    # power branch here, c_gamma = 0
    coef = p.gamma / (p.alpha + 1.0 - p.gamma)
    expo = p.alpha + 1.0 - p.gamma

    def rate(t, zz):
        c = float(np.interp(t, times, env_y.y_env))
        return c + coef * zz**expo

    z_env = np.empty_like(z)
    z_env[0] = z[0]
    substeps = 8
    for k in range(len(times) - 1):
        zz, t = z_env[k], times[k]
        h = (times[k + 1] - times[k]) / substeps
        for _ in range(substeps):  # midpoint RK2 on the comparison ODE
            zmid = zz + 0.5 * h * rate(t, zz)
            zz = zz + h * rate(t + 0.5 * h, zmid)
            t += h
        z_env[k + 1] = zz
    ok = z <= z_env + tol
    return VacuumReport(times, z, True, z_env, ok, blowup, tol)


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
    env_y = _y_envelope(traj, sc)
    olk = _oleinik(traj, sc, env_y)
    vac = _vacuum(traj, sc, env_y)

    flags = {}
    avail = {}

    budget_e = sc["energy"][0] * (1.0 + BALANCE_REL) + tol * times
    flags["energy"] = sc["energy"] + traj.energy_diss_accum > budget_e
    avail["energy"] = True
    budget_bd = sc["bd"][0] * (1.0 + BALANCE_REL) + tol * times
    flags["bd"] = sc["bd"] + traj.bd_diss_accum > budget_bd
    avail["bd"] = True

    avail["y_env"] = env_y.available
    flags["y_env"] = (
        sc["y_max"] > env_y.y_env + tol if env_y.available else np.zeros(n_t, bool)
    )
    avail["oleinik"] = olk.available
    flags["oleinik"] = ~olk.ok if olk.available else np.zeros(n_t, bool)
    avail["vacuum"] = vac.available
    flags["vacuum"] = ~vac.ok if vac.available else np.zeros(n_t, bool)

    w1_active = constantin_condition_holds(traj.snapshots[0], grid, p)
    avail["w1_sign"] = w1_active
    flags["w1_sign"] = sc["w1_max"] > tol if w1_active else np.zeros(n_t, bool)

    flags["blowup"] = vac.blowup.copy()
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
        inv_rho_max=sc["inv_rho_max"],
        rho_max=sc["rho_max"],
        bv_norm_v=sc["bv_v"],
        w1_max=sc["w1_max"],
        violation_flags=flags,
        monitors_available=avail,
        y_env=env_y.y_env if env_y.available else None,
        z_env=vac.z_env if vac.available else None,
        tolerance=tol,
    )
