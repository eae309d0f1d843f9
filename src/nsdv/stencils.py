"""Finite-difference stencils and the implicit diffusion solve both frames share.

Central second order in the interior, one-sided second order at the ends
(exact for quadratics everywhere).  The upwind variant biases the stencil by
the sign of the local advecting velocity and degrades to first order on the
two nodes next to each boundary where the biased 3-point stencil does not fit.

The implicit diffusion a x - r D(w D x) = rhs is symmetric positive definite:
a is a checked positive density and w a positive viscosity in both frames.
"""

from __future__ import annotations

import numpy as np

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
    inner = np.subtract(f[2:], f[:-2], out=out[1:-1])
    inner *= inv2dx
    f0, f1, f2 = f[:3].tolist()
    g2, g1, g0 = f[-3:].tolist()
    out[0] = (-3.0 * f0 + 4.0 * f1 - f2) * inv2dx
    out[-1] = (3.0 * g0 - 4.0 * g1 + g2) * inv2dx
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


_flapack = None  # scipy's LAPACK extension module, loaded by the first solve


def _ptsv():
    """LAPACK dptsv from scipy's compiled `_flapack` module, found in the
    scipy.linalg package directory and loaded there once, on its own:
    importing scipy.linalg would also load its array-API layer, which the
    solve does not use.  scipy.linalg.lapack.dptsv is this same routine."""
    global _flapack
    if _flapack is None:
        import importlib.machinery
        import importlib.util
        import os

        import scipy

        where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec("_flapack", [where])
        if spec is None:
            raise ImportError(f"scipy's LAPACK module _flapack not found in {where}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _flapack = module
    return _flapack.dptsv


def solve_tridiagonal(diag, off, rhs) -> np.ndarray:
    """Solve the symmetric positive definite tridiagonal system with main band
    `diag` and off-diagonal band `off` (off[i] couples x[i] and x[i+1]), in
    place: float64 bands are overwritten and x comes back in `rhs`.

    Backed by LAPACK ptsv (LDL^T, no pivoting), as scipy's solveh_banded is for
    one off-diagonal band, taken from `_ptsv` at the first solve: runs that
    never solve (the effective formulation) and the snapshot writer load no
    scipy, and no run loads scipy.linalg.
    """
    if not len(diag) == len(off) + 1 == len(rhs):
        raise ShapeError("tridiagonal bands must have lengths n, n-1 and n")
    if not (np.isfinite(diag).all() and np.isfinite(off).all() and np.isfinite(rhs).all()):
        raise NumericalFailure("non-finite tridiagonal system")
    *_, x, info = _ptsv()(diag, off, rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info != 0:
        raise NumericalFailure(f"tridiagonal system not positive definite (ptsv info {info})")
    return x


def solve_diffusion(a, w_ifc, r, rhs, left, right) -> np.ndarray:
    """Solve a*x - r*D(w_ifc*D x) = rhs on the interior nodes, x = left, right
    at the two ends.

    D is the undivided difference and w_ifc the coefficient at the n-1
    interfaces; a and rhs are nodal (their end values are not used).  This is
    the implicit half of the momentum diffusion d/dx(mu du/dx) in both frames.
    The end couplings move into the right-hand side, which leaves identity end
    rows and a symmetric system.
    """
    diag = np.empty(len(a))
    diag[0] = diag[-1] = 1.0
    inner = np.add(w_ifc[1:], w_ifc[:-1], out=diag[1:-1])
    inner *= r
    inner += a[1:-1]
    off = np.multiply(w_ifc, -r)
    off[0] = off[-1] = 0.0
    w_left, w_right = float(w_ifc[0]), float(w_ifc[-1])
    rhs = np.array(rhs, dtype=float)
    rhs[0], rhs[-1] = left, right
    rhs[1] += r * w_left * left
    rhs[-2] += r * w_right * right
    return solve_tridiagonal(diag, off, rhs)
