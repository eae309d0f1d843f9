"""Derived fields: effective velocity, effective flux, effective pressure,
convective derivative, and the residual of the effective-pressure transport
equation.

All of these are diagnostic views of a single (rho, u) snapshot:

    v    = u + mu(rho)/rho**2 * d rho/dx      (effective velocity)
    w1   = rho**alpha * du/dx - P(rho) + P(1) (effective flux)
    y    = (dv/dx)/rho + f2(rho)              (effective pressure)
    udot = (d/dx(rho**alpha du/dx) - dP/dx)/rho

udot is the material acceleration evaluated from the momentum balance, so it
is well defined from a single snapshot; time differencing is kept only as a
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import InputError
from .model import FluidState, Grid1D, ModelParams
from .stencils import ddx


@dataclass(frozen=True)
class EffectiveFields:
    """The four derived fields on the same grid as their source state."""

    v: np.ndarray
    w1: np.ndarray
    y: np.ndarray
    udot: np.ndarray


def effective_velocity(state: FluidState, grid: Grid1D, p: ModelParams) -> np.ndarray:
    """v = u + (mu(rho)/rho**2) * ddx(rho)."""
    mu = model.viscosity(state.rho, p)
    return state.u + mu / state.rho**2 * ddx(state.rho, grid)


def effective_flux(state: FluidState, grid: Grid1D, p: ModelParams) -> np.ndarray:
    """w1 = rho**alpha * ddx(u) - P(rho) + P(1)."""
    mu = model.viscosity(state.rho, p)
    p_far = model.pressure(model.FARFIELD[0], p)
    return mu * ddx(state.u, grid) - model.pressure(state.rho, p) + p_far


def effective_pressure(state: FluidState, grid: Grid1D, p: ModelParams) -> np.ndarray:
    """y = ddx(v)/rho + f2(rho) with v the effective velocity."""
    v = effective_velocity(state, grid, p)
    return ddx(v, grid) / state.rho + model.f2(state.rho, p)


def convective_derivative(state: FluidState, grid: Grid1D, p: ModelParams) -> np.ndarray:
    """udot from the momentum balance: (ddx(rho**alpha*ddx(u)) - ddx(P))/rho."""
    mu = model.viscosity(state.rho, p)
    visc = ddx(mu * ddx(state.u, grid), grid)
    dpdx = ddx(model.pressure(state.rho, p), grid)
    return (visc - dpdx) / state.rho


def compute_effective_fields(state: FluidState, grid: Grid1D, p: ModelParams) -> EffectiveFields:
    return EffectiveFields(
        v=effective_velocity(state, grid, p),
        w1=effective_flux(state, grid, p),
        y=effective_pressure(state, grid, p),
        udot=convective_derivative(state, grid, p),
    )


@dataclass(frozen=True)
class YResidual:
    """Pointwise residual of the effective-pressure equation plus its norms."""

    field: np.ndarray
    max_norm: float
    l2_norm: float


def y_residual(
    prev: FluidState, mid: FluidState, nxt: FluidState, grid: Grid1D, p: ModelParams
) -> YResidual:
    """Residual of  dy/dt + u dy/dx + f1*y - f1*f2 + f1'rho/mu*(v-u)^2 = 0.

    Central time difference over three consecutive snapshots of one
    trajectory, all spatial terms evaluated at the middle time.
    """
    if not (prev.n == mid.n == nxt.n == grid.n_cells):
        raise InputError("snapshots must share the grid")
    if not (prev.time < mid.time < nxt.time):
        raise InputError(
            f"snapshot times must increase, got {prev.time}, {mid.time}, {nxt.time}"
        )
    y_prev = effective_pressure(prev, grid, p)
    y_mid = effective_pressure(mid, grid, p)
    y_next = effective_pressure(nxt, grid, p)

    dydt = (y_next - y_prev) / (nxt.time - prev.time)
    v = effective_velocity(mid, grid, p)
    rho, u = mid.rho, mid.u
    res = (
        dydt
        + u * ddx(y_mid, grid)
        + model.f1(rho, p) * y_mid
        - model.f1f2(rho, p)
        + model.f1prime_rho_over_mu(rho, p) * (v - u) ** 2
    )
    l2 = float(np.sqrt(np.sum(res**2) * grid.dx))
    return YResidual(field=res, max_norm=float(np.max(np.abs(res))), l2_norm=l2)
