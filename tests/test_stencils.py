"""Derivative stencils and the banded solve."""

import numpy as np
import pytest
import scipy.linalg

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
    lower = rng.uniform(-1, 0, n)
    upper = rng.uniform(-1, 0, n)
    diag = 4.0 + rng.uniform(0, 1, n)
    rhs = rng.standard_normal(n)
    x = solve_tridiagonal(lower, diag, upper, rhs)
    m = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    np.testing.assert_allclose(x, np.linalg.solve(m, rhs), rtol=1e-12)


def test_tridiagonal_shape_check():
    with pytest.raises(ShapeError):
        solve_tridiagonal(np.ones(3), np.ones(4), np.ones(4), np.ones(4))


@pytest.mark.parametrize("n", [3, 129, 16385])
def test_tridiagonal_bitwise_equal_to_solve_banded(n):
    rng = np.random.default_rng(n)
    lower = rng.uniform(-1, 0, n)
    upper = rng.uniform(-1, 0, n)
    diag = 2.0 + rng.uniform(0, 1, n)
    rhs = rng.standard_normal(n)
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    reference = scipy.linalg.solve_banded((1, 1), ab, rhs)
    np.testing.assert_array_equal(solve_tridiagonal(lower, diag, upper, rhs), reference)


@pytest.mark.parametrize(
    "diag, rhs",
    [(np.full(4, 4.0), np.array([1.0, np.nan, 0.0, 0.0])), (np.zeros(4), np.ones(4))],
    ids=["nan-rhs", "singular"],
)
def test_tridiagonal_failures_are_numerical(diag, rhs):
    with pytest.raises(NumericalFailure):
        solve_tridiagonal(np.zeros(4), diag, np.zeros(4), rhs)


def test_diffusion_matches_dense():
    rng = np.random.default_rng(7)
    n = 40
    a = rng.uniform(0.5, 2.0, n)
    w_ifc = rng.uniform(0.1, 1.0, n - 1)
    rhs = rng.standard_normal(n)
    rhs_in = rhs.copy()
    r, left, right = 0.7, 0.3, -1.2
    d = np.diff(np.eye(n), axis=0)  # (D x)_j = x_{j+1} - x_j
    m = np.diag(a) + r * d.T @ np.diag(w_ifc) @ d
    m[[0, -1]] = np.eye(n)[[0, -1]]
    b = rhs.copy()
    b[0], b[-1] = left, right
    x = solve_diffusion(a, w_ifc, r, rhs, left, right)
    np.testing.assert_allclose(x, np.linalg.solve(m, b), rtol=1e-12, atol=1e-14)
    assert (x[0], x[-1]) == (left, right)
    np.testing.assert_array_equal(rhs, rhs_in)
