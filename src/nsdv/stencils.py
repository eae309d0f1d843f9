"""Finite-difference stencils and the banded solve used by the implicit steppers.

Central second order in the interior, one-sided second order at the ends
(exact for quadratics everywhere).  The upwind variant biases the stencil by
the sign of the local advecting velocity and degrades to first order on the
two nodes next to each boundary where the biased 3-point stencil does not fit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalFailure, ShapeError
from .model import Grid1D


def _check(field, grid: Grid1D) -> np.ndarray:
    field = np.asarray(field, dtype=float)
    if field.shape != (grid.n_cells,):
        raise ShapeError(f"field of length {field.shape} on grid of {grid.n_cells} nodes")
    return field


def ddx(field, grid: Grid1D) -> np.ndarray:
    """d/dx, second order: central inside, 3-point one-sided at the boundary."""
    f = _check(field, grid)
    out = np.empty_like(f)
    inv2dx = 0.5 / grid.dx
    out[1:-1] = (f[2:] - f[:-2]) * inv2dx
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) * inv2dx
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) * inv2dx
    return out


def ddx_upwind(field, vel, grid: Grid1D) -> np.ndarray:
    """d/dx with stencil biased against the advecting velocity `vel`.

    Second-order 3-point biased stencils where they fit, first-order two-point
    next to the boundary.
    """
    f = _check(field, grid)
    v = _check(vel, grid)
    inv2dx = 0.5 / grid.dx
    invdx = 1.0 / grid.dx

    bwd = np.empty_like(f)  # for vel >= 0: look left
    bwd[2:] = (3.0 * f[2:] - 4.0 * f[1:-1] + f[:-2]) * inv2dx
    bwd[1] = (f[1] - f[0]) * invdx
    bwd[0] = (f[1] - f[0]) * invdx

    fwd = np.empty_like(f)  # for vel < 0: look right
    fwd[:-2] = (-3.0 * f[:-2] + 4.0 * f[1:-1] - f[2:]) * inv2dx
    fwd[-2] = (f[-1] - f[-2]) * invdx
    fwd[-1] = (f[-1] - f[-2]) * invdx

    return np.where(v >= 0.0, bwd, fwd)


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the tridiagonal system with the given bands.

    lower[i] multiplies x[i-1] (lower[0] ignored), upper[i] multiplies x[i+1]
    (upper[-1] ignored).  Backed by LAPACK gtsv (partial pivoting), the
    routine scipy's banded solver uses for one band on each side.
    """
    n = len(diag)
    if not (len(lower) == len(upper) == len(rhs) == n):
        raise ShapeError("tridiagonal bands must share one length")
    bands = (lower[1:], diag, upper[:-1], rhs)
    if not all(np.isfinite(band).all() for band in bands):
        raise NumericalFailure("non-finite tridiagonal system")
    *_, x, info = lapack.dgtsv(*bands)
    if info != 0:
        raise NumericalFailure(f"singular tridiagonal system (gtsv info {info})")
    return x
