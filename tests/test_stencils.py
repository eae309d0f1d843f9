"""Derivative stencils and the banded solve."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nsdv import stencils
from nsdv.errors import NumericalFailure, ShapeError
from nsdv.model import Grid1D
from nsdv.stencils import ddx, ddx_upwind, solve_diffusion, solve_tridiagonal


def test_constant_field_zero_derivative():
    g = Grid1D(101, 3.0)
    np.testing.assert_array_equal(ddx(np.full(101, 7.5), g), np.zeros(101))


def test_identity_field_unit_derivative():
    g = Grid1D(101, 3.0)
    np.testing.assert_allclose(ddx(g.coords, g), np.ones(101), rtol=0, atol=1e-13)


def test_quadratic_exact_everywhere():
    # central and one-sided 3-point stencils are both exact for degree 2
    g = Grid1D(64, 2.0)
    f = 3.0 * g.coords**2 - 2.0 * g.coords + 1.0
    exact = 6.0 * g.coords - 2.0
    np.testing.assert_allclose(ddx(f, g), exact, rtol=0, atol=1e-12)


def test_sin_second_order():
    g = Grid1D(1024, np.pi)
    err = np.max(np.abs(ddx(np.sin(g.coords), g) - np.cos(g.coords)))
    assert err <= 10.0 * g.dx**2


def test_shape_mismatch():
    g = Grid1D(11, 1.0)
    with pytest.raises(ShapeError):
        ddx(np.ones(10), g)
    with pytest.raises(ShapeError):
        ddx_upwind(np.ones(11), np.ones(10), g)


def test_upwind_linear_exact():
    g = Grid1D(50, 1.0)
    f = 2.0 * g.coords + 0.3
    for vel in (np.ones(50), -np.ones(50), np.sin(5 * g.coords)):
        np.testing.assert_allclose(ddx_upwind(f, vel, g), np.full(50, 2.0), atol=1e-12)


def test_upwind_selects_stencil_by_sign():
    g = Grid1D(50, 1.0)
    f = g.coords**2
    pos = ddx_upwind(f, np.ones(50), g)
    neg = ddx_upwind(f, -np.ones(50), g)
    i = 25
    dx = g.dx
    backward = (3 * f[i] - 4 * f[i - 1] + f[i - 2]) / (2 * dx)
    forward = (-3 * f[i] + 4 * f[i + 1] - f[i + 2]) / (2 * dx)
    assert pos[i] == pytest.approx(backward, rel=1e-14)
    assert neg[i] == pytest.approx(forward, rel=1e-14)
    assert backward != forward  # the two biased stencils genuinely differ


def test_upwind_quadratic_second_order_interior():
    g = Grid1D(50, 1.0)
    f = g.coords**2
    out = ddx_upwind(f, np.ones(50), g)
    np.testing.assert_allclose(out[2:], 2.0 * g.coords[2:], atol=1e-12)


def test_tridiagonal_matches_dense():
    rng = np.random.default_rng(42)
    n = 40
    off = rng.uniform(-1, 0, n - 1)
    diag = 4.0 + rng.uniform(0, 1, n)
    rhs = rng.standard_normal(n)
    m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    reference = np.linalg.solve(m, rhs)
    x = solve_tridiagonal(diag, off, rhs)
    np.testing.assert_allclose(x, reference, rtol=1e-12)
    assert np.shares_memory(x, rhs)  # solved in place, with no copy of the bands


def test_tridiagonal_shape_check():
    with pytest.raises(ShapeError):
        solve_tridiagonal(np.ones(4), np.ones(4), np.ones(4))


def with_entry(band, value):
    """An SPD system on 4 nodes whose `band` holds `value` at one entry."""
    bands = {"diag": np.full(4, 4.0), "off": np.ones(3), "rhs": np.ones(4)}
    bands[band][1] = value
    return tuple(bands.values())


NON_FINITE = [(band, value) for band in ("diag", "off", "rhs")
              for value in (np.inf, -np.inf, np.nan)]


@pytest.mark.parametrize(
    "diag, off, rhs, error",
    [
        (np.full(4, 4.0), np.zeros(3), np.array([1.0, np.nan, 0.0, 0.0]), "^non-finite"),
        (np.zeros(4), np.zeros(3), np.ones(4), "not positive definite"),
        # symmetric and invertible, but indefinite: eigenvalues 1 +- 2 cos(k pi/5)
        (np.ones(4), np.ones(3), np.ones(4), "not positive definite"),
        *[(*with_entry(band, value), "^non-finite tridiagonal system$")
          for band, value in NON_FINITE],
        # finite, near the largest double: the bands' sum overflows, and it solves
        (np.full(4, 1.5e308), np.full(3, 0.5e308), np.full(4, 1e308), None),
    ],
    ids=["nan-rhs", "singular", "indefinite",
         *[f"{band}={value}" for band, value in NON_FINITE], "finite-near-max"],
)
def test_tridiagonal_failures_are_numerical(diag, off, rhs, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the checks warn of nothing
        if error is None:
            assert np.isfinite(solve_tridiagonal(diag, off, rhs)).all()
        else:
            with pytest.raises(NumericalFailure, match=error):
                solve_tridiagonal(diag, off, rhs)


@pytest.mark.parametrize("r", [0.7, 240.0])
@pytest.mark.parametrize("n", [3, 40])
def test_diffusion_matches_dense(n, r):
    rng = np.random.default_rng(7)
    a = rng.uniform(0.5, 2.0, n)
    w_ifc = rng.uniform(0.1, 1.0, n - 1)
    rhs = rng.standard_normal(n)
    rhs_in = rhs.copy()
    left, right = 0.3, -1.2
    d = np.diff(np.eye(n), axis=0)  # (D x)_j = x_{j+1} - x_j
    m = np.diag(a) + r * d.T @ np.diag(w_ifc) @ d
    m[[0, -1]] = np.eye(n)[[0, -1]]
    b = rhs.copy()
    b[0], b[-1] = left, right
    x = solve_diffusion(a, w_ifc, r, rhs, left, right)
    np.testing.assert_allclose(x, np.linalg.solve(m, b), rtol=1e-12, atol=1e-14)
    assert (x[0], x[-1]) == (left, right)
    np.testing.assert_array_equal(rhs, rhs_in)


# Both LAPACK sources of dptsv: the OpenBLAS numpy maps, and scipy's _flapack.
def _lapack(source):
    try:
        ptsv = stencils._numpy_ptsv() if source == "numpy" else stencils._scipy_ptsv()
    except ImportError:
        ptsv = None
    if ptsv is None:
        pytest.skip(f"no dptsv from {source} here")
    return ptsv


@pytest.fixture(params=["numpy", "scipy"])
def lapack(request, monkeypatch):
    """solve_tridiagonal backed by one LAPACK source for this test."""
    monkeypatch.setattr(stencils, "_ptsv_in_place", _lapack(request.param))
    return request.param


def spd_bands(rng, n):
    """A random diagonally dominant, hence SPD, tridiagonal system."""
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(0.1, 1.0, n)
    diag[:-1] += np.abs(off)
    diag[1:] += np.abs(off)
    return diag, off, rng.standard_normal(n)


SIZES = [3, 4, 5, 6, 129, 1025, 16385]


@pytest.mark.parametrize("n", SIZES)
def test_both_lapacks_bitwise_equal_on_random_bands(n):
    numpy_ptsv, scipy_ptsv = _lapack("numpy"), _lapack("scipy")
    rng = np.random.default_rng(n)
    for _ in range(3):
        bands = spd_bands(rng, n)
        a, b = [band.copy() for band in bands], [band.copy() for band in bands]
        assert numpy_ptsv(*a) == scipy_ptsv(*b) == 0
        # x, and the LDL^T factors left in the bands
        assert [band.tobytes() for band in a] == [band.tobytes() for band in b]


@pytest.mark.parametrize("n", SIZES)
def test_both_lapacks_bitwise_equal_on_diffusion_systems(n, monkeypatch):
    rng = np.random.default_rng(n)
    a = rng.uniform(0.5, 2.0, n)
    w_ifc = rng.uniform(0.1, 1.0, n - 1)
    rhs = rng.standard_normal(n)
    solutions = []
    for source in ("numpy", "scipy"):
        monkeypatch.setattr(stencils, "_ptsv_in_place", _lapack(source))
        solutions.append(solve_diffusion(a, w_ifc, 0.3 * n, rhs, 0.3, -1.2).tobytes())
    assert solutions[0] == solutions[1]


def test_hidden_numpy_names_select_scipy_flapack():
    """With numpy's dptsv names hidden the first solve loads scipy's
    _flapack module on its own, and no scipy package module; otherwise,
    where numpy's LAPACK has dptsv, it loads neither."""
    pytest.importorskip("scipy")
    code = "\n".join([
        "import sys",
        "from nsdv import stencils",
        "if sys.argv[1] == 'hidden': stencils.NUMPY_PTSV_NAMES = ('no_such_dptsv_',)",
        "import numpy as np",
        "x = stencils.solve_tridiagonal(np.full(3, 4.0), np.ones(2), np.ones(3))",
        "assert np.allclose(x, [3 / 14, 1 / 7, 3 / 14], rtol=1e-15), x",
        "print('_flapack' in sys.modules, [m for m in sys.modules if m.split('.')[0] == 'scipy'])",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(stencils.__file__).resolve().parents[1])}
    found = {
        names: subprocess.run([sys.executable, "-c", code, names], env=env, capture_output=True,
                              text=True, check=True, timeout=60).stdout.strip()
        for names in ("hidden", "shown")
    }
    assert found["hidden"] == "True []"
    if stencils._numpy_ptsv() is not None:
        assert found["shown"] == "False []"


def test_non_spd_system_fails_on_both_lapacks(lapack):
    # symmetric and invertible, but indefinite
    with pytest.raises(NumericalFailure, match="not positive definite"):
        solve_tridiagonal(np.ones(4), np.ones(3), np.ones(4))
    with pytest.raises(NumericalFailure, match="not positive definite"):
        solve_tridiagonal(np.full(5, -2.0), np.ones(4), np.ones(5))


def test_other_bands_are_converted_not_overwritten(lapack):
    """Bands that are not writable C-contiguous float64 arrays solve as
    float64 copies, and the caller's bands are left alone."""
    diag, off, rhs = [4.0, 5.0, 4.0], [1.0, -1.0], [1.0, 2.0, 3.0]
    m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    reference = np.linalg.solve(m, rhs)

    def strided(band):
        return np.repeat(band, 2)[::2]

    def read_only(band):
        band = np.array(band)
        band.flags.writeable = False
        return band

    for case in (
        (diag, off, rhs),  # lists
        (np.array([4, 5, 4]), np.array([1, -1]), np.array([1, 2, 3])),  # ints
        (strided(diag), strided(off), strided(rhs)),  # non-contiguous
        (np.array(diag, dtype=np.float32), read_only(off), read_only(rhs)),
    ):
        before = [np.array(band, copy=True) for band in case]
        x = solve_tridiagonal(*case)
        np.testing.assert_allclose(x, reference, rtol=1e-13)
        assert x.dtype == np.float64 and x.flags.c_contiguous
        for band, old in zip(case, before):
            np.testing.assert_array_equal(band, old)
