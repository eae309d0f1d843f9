"""Derived fields of one (rho, u) snapshot.

effective_velocity gives v alone (the effective solver's variable);
compute_effective_fields gives all four, evaluating mu(rho), P(rho) and du/dx
once, and keeps mu, du/dx and dv/dx beside them for the diagnostics:

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
from .model import CheckedDensity, FluidState, Grid1D, ModelParams
from .stencils import ddx


@dataclass(frozen=True)
class EffectiveFields:
    """The four derived fields on the same grid as their source state, with
    the mu(rho), du/dx and dv/dx they were formed from."""

    v: np.ndarray
    w1: np.ndarray
    y: np.ndarray
    udot: np.ndarray
    mu: np.ndarray
    ux: np.ndarray
    vx: np.ndarray


def _velocity(state: FluidState, mu: np.ndarray, grid: Grid1D) -> np.ndarray:
    return state.u + mu / state.rho**2 * ddx(state.rho, grid)


def effective_velocity(state: FluidState, grid: Grid1D, p: ModelParams) -> np.ndarray:
    """v = u + (mu(rho)/rho**2) * ddx(rho)."""
    return _velocity(state, model.viscosity(state.density, p), grid)


def compute_effective_fields(state: FluidState, grid: Grid1D, p: ModelParams) -> EffectiveFields:
    """The one definition of w1, y and udot: mu(rho), du/dx, P(rho) and the
    viscous flux mu*du/dx once for all four fields."""
    rho, density = state.rho, state.density
    mu = model.viscosity(density, p)
    # v, dv/dx and y before the flux terms: in this order an N=16385 run's
    # heap is not trimmed, and faulted in again, at every step after a
    # recorded state (glibc's top chunk; no value depends on the order)
    v = _velocity(state, mu, grid)
    vx = ddx(v, grid)
    y = vx / rho + model.f2(density, p)
    ux = ddx(state.u, grid)
    flux = mu * ux
    pres = model.pressure(density, p)
    return EffectiveFields(
        v=v,
        w1=flux - pres + model.pressure(CheckedDensity(model.FARFIELD[0]), p),
        y=y,
        udot=(ddx(flux, grid) - ddx(pres, grid)) / rho,
        mu=mu,
        ux=ux,
        vx=vx,
    )
