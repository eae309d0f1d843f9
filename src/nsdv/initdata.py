"""Initial-data construction and scenario configuration.

Direct modes build (rho0, u0) from closed forms and derive the effective
velocity; the from_v0 mode goes the other way, following the regularization
route: mollify (rho0, v0) with the compactly supported kernel and couple the
velocity through u0 = v0 - ddx(phi(rho0)).  Every mode reports the discrete
one-sided slope constant of v0, the quantity whose preservation the Oleinik
monitor tracks.

All initial data must sit at the far-field state (1, 0) to within 1e-8 on the
outer 5% of the domain (the estimates assume rho-1 and u are square
integrable).  The manufactured solutions, with their sources and boundary
values, are no initial-data kind: they serve the convergence study alone
(`nsdv convergence`), since a forced run obeys none of the monitored balances.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import model
from .effective import effective_velocity
from .errors import ConfigError, InputError
from .eulerian import SolverConfig
from .model import FluidState, Grid1D, ModelParams
from .stencils import ddx

FARFIELD_TOL = 1e-8
FARFIELD_BAND = 0.05  # fraction of the domain on each side that must be at far field

_KINDS = ("equilibrium", "smooth_bump", "shock_like", "rarefaction", "from_v0")


@dataclass(frozen=True)
class InitialData:
    """Tagged union over the supported initial-data families."""

    kind: str
    amplitude: float | None = None
    width: float | None = None
    jump: float | None = None
    steepness: float | None = None
    profile: str | None = None
    mollifier_n: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown initial-data kind {self.kind!r}")
        need = {
            "equilibrium": (),
            "smooth_bump": ("amplitude", "width"),
            "shock_like": ("jump", "steepness"),
            "rarefaction": ("amplitude",),
            "from_v0": ("profile", "mollifier_n"),
        }[self.kind]
        for name in need:
            if getattr(self, name) is None:
                raise ConfigError(f"{self.kind} initial data needs {name}")
        for f in fields(self):
            if f.name not in ("kind", *need) and getattr(self, f.name) is not None:
                raise ConfigError(f"{self.kind} initial data does not use {f.name}")


@dataclass(frozen=True)
class ScenarioConfig:
    model: ModelParams
    n_cells: int
    solver: SolverConfig
    initial: InitialData

    def __post_init__(self):
        if self.n_cells < 3:
            raise ConfigError("n_cells must be at least 3")

    def grid(self) -> Grid1D:
        return Grid1D(self.n_cells, self.model.half_length)


def _envelope(x, half_length):
    """Fast-decaying window keeping tanh-type profiles far-field compatible."""
    return np.exp(-((x / (0.18 * half_length)) ** 2))


def mollify(field, n: int, grid: Grid1D) -> np.ndarray:
    """Discrete convolution with the kernel j_n(y) = n*j(n*y),
    j(y) = c*exp(-1/(1-(y/2)^2)) on (-2, 2), discretely normalized so that
    constants pass through exactly.  Edge values extend beyond the boundary.
    """
    if n < 1:
        raise InputError("mollifier index must be >= 1")
    field = np.asarray(field, dtype=float)
    if field.shape != (grid.n_cells,):
        raise InputError("field does not match the grid")
    support = 2.0 / n
    if support >= grid.half_length:
        raise InputError(f"kernel support {support} exceeds the domain")
    r = int(np.floor(support / grid.dx))
    if r == 0:
        return field.copy()  # kernel narrower than one cell
    y = np.arange(-r, r + 1) * grid.dx
    arg = (n * y / 2.0) ** 2
    kernel = np.zeros_like(y)
    inside = arg < 1.0
    kernel[inside] = np.exp(-1.0 / (1.0 - arg[inside]))
    kernel /= kernel.sum()
    # convolve the deviation from a reference value so that constant fields
    # pass through bit-exactly despite the rounded kernel normalization
    ref = field[0]
    padded = np.pad(field - ref, r, mode="edge")
    return ref + np.convolve(padded, kernel, mode="valid")


# from_v0 profile registry: name -> (rho_raw, v_raw) on the grid
def _profile_vstep_down(x, p):
    return np.ones_like(x), -0.3 * np.tanh(8.0 * x) * _envelope(x, p.half_length)


def _profile_vstep_up(x, p):
    return np.ones_like(x), 0.3 * np.tanh(8.0 * x) * _envelope(x, p.half_length)


def _profile_bump_step(x, p):
    rho = 1.0 + 0.1 * np.exp(-((x / 2.0) ** 2))
    return rho, -0.3 * np.tanh(8.0 * x) * _envelope(x, p.half_length)


V0_PROFILES = {
    "vstep_down": _profile_vstep_down,
    "vstep_up": _profile_vstep_up,
    "bump_step": _profile_bump_step,
}


@dataclass(frozen=True)
class MMSProfile:
    """rho* = 1 + a e^{-t} cos(kx), u* = b e^{-t} sin(kx), k = pi/L."""

    a: float
    b: float


MMS_PROFILES = {
    "manufactured-1": MMSProfile(a=0.1, b=0.1),
    "manufactured-zero": MMSProfile(a=0.0, b=0.0),
}


def _mms(mms_id: str) -> MMSProfile:
    try:
        return MMS_PROFILES[mms_id]
    except KeyError:
        raise InputError(f"unknown manufactured-solution id {mms_id!r}") from None


_ENDS = [0, -1]  # the two boundary nodes


@lru_cache(maxsize=8)
def _mms_factors(p_half_length: float, n_cells: int, half_length: float):
    """The x-only factors cos(kx), sin(kx), k = pi/p_half_length, on the nodes
    of Grid1D(n_cells, half_length); computed once per grid and read-only,
    since every call for that grid shares them."""
    x = Grid1D(n_cells, half_length).coords
    k = np.pi / p_half_length
    c, s = np.cos(k * x), np.sin(k * x)
    c.flags.writeable = s.flags.writeable = False
    return c, s


def _exact_fields(prof: MMSProfile, decay, c, s):
    return 1.0 + prof.a * decay * c, prof.b * decay * s


def manufactured_exact(mms_id: str, t: float, grid: Grid1D, p: ModelParams):
    prof = _mms(mms_id)
    c, s = _mms_factors(p.half_length, grid.n_cells, grid.half_length)
    return _exact_fields(prof, np.exp(-t), c, s)


def manufactured_source(mms_id: str, t: float, grid: Grid1D, p: ModelParams):
    """Closed-form residual of the homogeneous system at the exact fields:
    add it as a source and the exact fields solve the forced system."""
    prof = _mms(mms_id)
    k = np.pi / p.half_length
    c, s = _mms_factors(p.half_length, grid.n_cells, grid.half_length)
    decay = np.exp(-t)

    rho, u = _exact_fields(prof, decay, c, s)
    rho_t = -prof.a * decay * c
    rho_x = -prof.a * k * decay * s
    u_t = -prof.b * decay * s
    u_x = prof.b * k * decay * c
    u_xx = -prof.b * k**2 * decay * s

    g_rho = rho_t + rho_x * u + rho * u_x
    mu = rho**p.alpha
    mu_x = p.alpha * rho ** (p.alpha - 1.0) * rho_x
    press_x = p.gamma * rho ** (p.gamma - 1.0) * rho_x
    g_mom = (
        rho_t * u
        + rho * u_t
        + rho_x * u**2
        + 2.0 * rho * u * u_x
        - (mu_x * u_x + mu * u_xx)
        + press_x
    )
    return g_rho, g_mom


def manufactured_boundary(mms_id: str, t: float, grid: Grid1D, p: ModelParams):
    """The exact (rho, u) at the two end nodes, evaluated there only."""
    prof = _mms(mms_id)
    c, s = _mms_factors(p.half_length, grid.n_cells, grid.half_length)
    rho, u = _exact_fields(prof, np.exp(-t), c[_ENDS], s[_ENDS])
    return (float(rho[0]), float(u[0])), (float(rho[1]), float(u[1]))


def build_initial(cfg: ScenarioConfig):
    """Construct (FluidState at t=0, v0 field, discrete one-sided slope constant).

    The slope constant is max_i (v0[i+1]-v0[i])/dx.
    """
    p = cfg.model
    grid = cfg.grid()
    x = grid.coords
    init = cfg.initial

    if init.kind == "equilibrium":
        rho = np.ones_like(x)
        u = np.zeros_like(x)
    elif init.kind == "smooth_bump":
        rho = 1.0 + init.amplitude * np.exp(-((x / init.width) ** 2))
        u = np.zeros_like(x)
    elif init.kind == "shock_like":
        rho = np.ones_like(x)
        u = -init.jump * np.tanh(init.steepness * x) * _envelope(x, p.half_length)
    elif init.kind == "rarefaction":
        rho = np.ones_like(x)
        u = init.amplitude * np.tanh(2.0 * x) * _envelope(x, p.half_length)
    else:  # from_v0
        try:
            rho_raw, v_raw = V0_PROFILES[init.profile](x, p)
        except KeyError:
            raise ConfigError(f"unknown v0 profile {init.profile!r}") from None
        if np.any(rho_raw <= 0.0):
            raise InputError("profile density must be positive")
        rho = 1.0 + mollify(rho_raw - 1.0, init.mollifier_n, grid)
        v0 = mollify(v_raw, init.mollifier_n, grid)
        u = v0 - ddx(model.phi(rho, p), grid)

    rho[0] = rho[-1] = model.FARFIELD[0]
    u[0] = u[-1] = model.FARFIELD[1]

    state = FluidState(time=0.0, rho=rho, u=u)
    if init.kind != "from_v0":
        v0 = effective_velocity(state, grid, p)
    oleinik_c = float(np.max(np.diff(v0)) / grid.dx)

    band = np.abs(x) >= (1.0 - FARFIELD_BAND) * p.half_length
    gap = float(np.max(np.abs(rho[band] - 1.0) + np.abs(u[band])))
    if gap > FARFIELD_TOL:
        raise ConfigError(f"initial data not at far field near the boundary (gap {gap:.3e})")
    if not np.isfinite(oleinik_c):
        raise ConfigError("one-sided slope constant of v0 is not finite")
    return state, v0, oleinik_c

