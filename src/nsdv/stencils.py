"""Finite-difference stencils and the implicit diffusion solve both frames share.

Central second order in the interior, one-sided second order at the ends
(exact for quadratics everywhere).  The upwind variant biases the stencil by
the sign of the local advecting velocity and degrades to first order on the
two nodes next to each boundary where the biased 3-point stencil does not fit.

The implicit diffusion a x - r D(w D x) = rhs is symmetric positive definite:
a is a checked positive density and w a positive viscosity in both frames.
LAPACK dptsv solves it, taken from the OpenBLAS numpy has already mapped
where that exports an ILP64 dptsv, so a run maps one LAPACK and loads no
scipy; elsewhere from scipy's compiled `_flapack` module.
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


# LAPACK dptsv in the ILP64 OpenBLAS that numpy's wheels bundle and link
# into numpy.linalg: numpy >= 2.0 names it scipy_dptsv_64_, numpy 1.22-1.26
# dptsv_64_.  Only these 64-bit-integer names are looked up.
NUMPY_PTSV_NAMES = ("scipy_dptsv_64_", "dptsv_64_")

_ptsv_in_place = None  # the dptsv the first solve found, see _ptsv


def _numpy_ptsv():
    """dptsv from the LAPACK numpy.linalg already maps, called through
    ctypes, or None where it exports none of NUMPY_PTSV_NAMES."""
    import ctypes

    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)  # already loaded: maps nothing new
    i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    prototype = ctypes.CFUNCTYPE(None, i64, i64, f64, f64, f64, i64, i64)
    for name in NUMPY_PTSV_NAMES:
        try:
            dptsv = prototype((name, lib))
        except AttributeError:
            continue
        int64, first, one = ctypes.c_int64, ctypes.c_double.from_buffer, ctypes.c_int64(1)

        def ptsv(d, e, b):
            n, info = int64(len(d)), int64()
            dptsv(n, one, first(d), first(e), first(b), n, info)
            return info.value

        return ptsv
    return None


def _scipy_ptsv():
    """dptsv from scipy's compiled `_flapack` module, found in the
    scipy/linalg directory without running `scipy/__init__` and loaded there
    on its own: importing scipy.linalg would also load its array-API layer,
    which the solve does not use.  scipy.linalg.lapack.dptsv is this same
    routine."""
    import importlib.machinery
    import importlib.util
    import os

    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError(
            "numpy's LAPACK exports no ILP64 dptsv, and scipy is not installed", name="scipy"
        )
    where = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("_flapack", where)
    if spec is None:
        raise ImportError(f"scipy's LAPACK module _flapack not found in {where}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    dptsv = flapack.dptsv

    def ptsv(d, e, b):
        return dptsv(d, e, b, overwrite_d=1, overwrite_e=1, overwrite_b=1)[-1]

    return ptsv


def _ptsv():
    """LAPACK dptsv as `ptsv(d, e, b) -> info`, solving in place on
    writable C-contiguous float64 bands.  Found once, at the first solve:
    in the OpenBLAS numpy already maps where it exports an ILP64 dptsv,
    else in scipy's `_flapack`, so most runs map one LAPACK and load no
    scipy."""
    global _ptsv_in_place
    if _ptsv_in_place is None:
        _ptsv_in_place = _numpy_ptsv() or _scipy_ptsv()
    return _ptsv_in_place


def _band(a) -> np.ndarray:
    """`a` itself when it is a writable C-contiguous float64 array, else a
    float64 copy, as f2py converts a LAPACK argument."""
    a = np.asarray(a, dtype=np.float64, order="C")
    return a if a.flags.writeable else a.copy()


def solve_tridiagonal(diag, off, rhs) -> np.ndarray:
    """Solve the symmetric positive definite tridiagonal system with main band
    `diag` and off-diagonal band `off` (off[i] couples x[i] and x[i+1]), in
    place: writable C-contiguous float64 bands are overwritten and x comes
    back in `rhs`; other bands are converted to such copies first.

    Backed by LAPACK ptsv (LDL^T, no pivoting), as scipy's solveh_banded is for
    one off-diagonal band, taken from `_ptsv` at the first solve: from the
    OpenBLAS numpy has already loaded where it has an ILP64 dptsv, else from
    scipy's `_flapack`.  No run loads the scipy package, and runs that never
    solve (the effective formulation) and the snapshot writer look up no
    dptsv at all.
    """
    if not len(diag) == len(off) + 1 == len(rhs):
        raise ShapeError("tridiagonal bands must have lengths n, n-1 and n")
    # the bands' isfinite in one buffer, reduced once: at the grids most
    # steps use, three separate checks cost about as much as the solve
    n = len(rhs)
    finite = np.empty(3 * n - 1, dtype=bool)
    np.isfinite(diag, out=finite[:n])
    np.isfinite(off, out=finite[n : 2 * n - 1])
    np.isfinite(rhs, out=finite[2 * n - 1 :])
    if not finite.all():
        raise NumericalFailure("non-finite tridiagonal system")
    x = _band(rhs)
    info = _ptsv()(_band(diag), _band(off), x)
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
