"""Constitutive laws: frozen values, branch selection, defining relations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import f1f2, f1prime_rho_over_mu
from nsdv.errors import DomainError, InputError
from nsdv.model import (
    CheckedDensity,
    FluidState,
    Grid1D,
    ModelParams,
    f1,
    f2,
    internal_energy,
    phi,
    pressure,
    sound_speed,
    viscosity,
)


def mp(alpha, gamma):
    return ModelParams(alpha=alpha, gamma=gamma, half_length=1.0)


# log-uniform density sweep for the identity checks
RHO_SWEEP = np.logspace(-3, 3, 121)

# (alpha, gamma) pairs covering both f2 branches and the acceptance sweep
PARAM_SWEEP = [
    (a, g)
    for a in (0.6, 0.75, 1.0, 1.5, 2.0)
    for g in (1.0, 1.4, 2.0, 3.0)
    if g >= max(1.0, a)
]


class TestPressureViscosity:
    def test_pressure_reference(self):
        assert pressure(1.0, mp(1.0, 2.0)) == 1.0

    def test_pressure_power(self):
        assert pressure(2.0, mp(1.0, 3.0)) == 8.0

    def test_pressure_extended_precision_value(self):
        # 0.5**1.4 evaluated with a 50-digit decimal oracle
        assert pressure(0.5, mp(0.9, 1.4)) == pytest.approx(0.3789291416275995, rel=1e-15)

    def test_viscosity_values(self):
        assert viscosity(1.0, mp(0.75, 2.0)) == 1.0
        assert viscosity(4.0, mp(0.51, 1.0)) == pytest.approx(4.0**0.51, rel=1e-15)
        assert viscosity(2.0, mp(1.0, 2.0)) == 2.0  # shallow-water case

    def test_viscosity_sqrt(self):
        # alpha = 0.5 itself is out of range; check the formula just above it
        assert viscosity(4.0, mp(0.5 + 1e-12, 1.0)) == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("fn", [pressure, viscosity, f1, f2, f1f2, f1prime_rho_over_mu, phi, internal_energy])
    def test_nonpositive_density_rejected(self, fn):
        p = mp(0.75, 2.0)
        with pytest.raises(DomainError):
            fn(0.0, p)
        with pytest.raises(DomainError):
            fn(np.array([1.0, -0.5]), p)


class TestF1F2:
    def test_f1_values(self):
        assert f1(1.0, mp(1.0, 2.0)) == 2.0
        assert f1(3.0, mp(1.0, 2.0)) == 6.0

    @pytest.mark.parametrize("alpha,gamma", PARAM_SWEEP)
    def test_f1_at_reference_is_gamma(self, alpha, gamma):
        assert f1(1.0, mp(alpha, gamma)) == pytest.approx(gamma, rel=1e-15)

    def test_f2_log_branch_reference(self):
        assert f2(1.0, mp(1.0, 2.0)) == 0.0

    def test_f2_power_branch(self):
        assert f2(1.0, mp(0.5 + 5e-7, 2.0)) == pytest.approx(2.0 / (2.0 - 0.5 - 5e-7 - 1.0))
        assert f2(1.0, mp(0.6, 2.0)) == pytest.approx(2.0 / 0.4, rel=1e-15)

    def test_f2_log_branch_at_e(self):
        assert f2(math.e, mp(1.0, 2.0)) == pytest.approx(2.0, rel=1e-15)

    def test_f1f2_reference_values(self):
        assert f1f2(1.0, mp(1.0, 3.0)) == pytest.approx(9.0, rel=1e-15)
        assert f1f2(1.0, mp(1.0, 2.0)) == 0.0  # log branch, f2(1) = 0

    def test_f1f2_cross_check(self):
        # gamma^2/(gamma-alpha-1) * rho^(2g-2a-1) at rho=2: 9 * 8
        p = mp(1.0, 3.0)
        assert f1f2(2.0, p) == pytest.approx(72.0, rel=1e-14)
        assert f1f2(2.0, p) == pytest.approx(f1(2.0, p) * f2(2.0, p), rel=1e-14)

    @pytest.mark.parametrize("alpha,gamma", PARAM_SWEEP)
    def test_product_identity_sweep(self, alpha, gamma):
        p = mp(alpha, gamma)
        lhs = f1f2(RHO_SWEEP, p)
        rhs = f1(RHO_SWEEP, p) * f2(RHO_SWEEP, p)
        if p.log_branch:
            expected = gamma**2 * np.log(RHO_SWEEP) * RHO_SWEEP ** (gamma - alpha)
            np.testing.assert_allclose(lhs, expected, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("alpha,gamma", PARAM_SWEEP)
    def test_defining_relation_rho_f2prime(self, alpha, gamma):
        # rho * f2'(rho) = f1(rho)/rho, central finite differences
        p = mp(alpha, gamma)
        rho = np.logspace(-2, 2, 41)
        h = 1e-6 * rho
        deriv = (f2(rho + h, p) - f2(rho - h, p)) / (2.0 * h)
        np.testing.assert_allclose(rho * deriv, f1(rho, p) / rho, rtol=1e-6)

    def test_f1prime_values(self):
        assert np.all(f1prime_rho_over_mu(RHO_SWEEP, mp(2.0, 2.0)) == 0.0)  # gamma = alpha
        assert f1prime_rho_over_mu(1.0, mp(1.0, 2.0)) == pytest.approx(2.0)
        assert f1prime_rho_over_mu(2.0, mp(1.0, 2.0)) == pytest.approx(2.0)  # rho^0


class TestPhiEnergy:
    def test_phi_values(self):
        assert phi(math.e, mp(1.0, 2.0)) == pytest.approx(1.0, rel=1e-15)
        assert phi(2.0, mp(2.0, 2.0)) == pytest.approx(2.0, rel=1e-15)
        assert phi(4.0, mp(1.5, 2.0)) == pytest.approx(4.0, rel=1e-15)

    @pytest.mark.parametrize("alpha,gamma", PARAM_SWEEP)
    def test_phi_derivative_is_mu_over_rho2(self, alpha, gamma):
        p = mp(alpha, gamma)
        rho = np.logspace(-2, 2, 41)
        h = 1e-6 * rho
        deriv = (phi(rho + h, p) - phi(rho - h, p)) / (2.0 * h)
        np.testing.assert_allclose(deriv, viscosity(rho, p) / rho**2, rtol=1e-6)

    def test_internal_energy_reference(self):
        for gamma in (1.0, 1.4, 2.0, 3.0):
            assert internal_energy(1.0, mp(0.75, gamma)) == 0.0

    def test_internal_energy_gamma2_closed_form(self):
        p = mp(0.75, 2.0)
        assert internal_energy(2.0, p) == pytest.approx(1.0, rel=1e-15)
        assert internal_energy(0.5, p) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("alpha,gamma", PARAM_SWEEP)
    def test_internal_energy_nonnegative_zero_at_one(self, alpha, gamma):
        p = mp(alpha, gamma)
        vals = internal_energy(RHO_SWEEP, p)
        assert np.all(vals >= 0.0)
        assert internal_energy(1.0, p) == 0.0

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
    def test_internal_energy_convex(self, gamma):
        p = mp(0.75, gamma)
        rho = np.linspace(0.05, 5.0, 400)
        second = np.diff(internal_energy(rho, p), 2)
        assert np.min(second) >= -1e-10


class TestParams:
    def test_alpha_range(self):
        with pytest.raises(InputError):
            ModelParams(alpha=0.5, gamma=2.0, half_length=1.0)

    def test_gamma_range(self):
        with pytest.raises(InputError):
            ModelParams(alpha=1.5, gamma=1.2, half_length=1.0)
        with pytest.raises(InputError):
            ModelParams(alpha=0.75, gamma=0.9, half_length=1.0)

    def test_half_length_positive(self):
        with pytest.raises(InputError):
            ModelParams(alpha=0.75, gamma=2.0, half_length=0.0)

    @pytest.mark.parametrize("name", ["alpha", "gamma", "half_length"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, name, value):
        kw = {"alpha": 0.75, "gamma": 2.0, "half_length": 1.0, name: value}
        with pytest.raises(InputError, match=f"{name} must be finite"):
            ModelParams(**kw)

    def test_farfield_pinned(self):
        # a fourth value was the far-field density, a field no longer
        with pytest.raises(TypeError):
            ModelParams(0.75, 2.0, 1.0, 2.0)

    def test_log_branch_flag(self):
        assert mp(1.0, 2.0).log_branch
        assert mp(1.0, 2.0 + 5e-13).log_branch  # within 1e-12
        assert not mp(1.0, 2.1).log_branch

    def test_near_degenerate_warns(self):
        with pytest.warns(RuntimeWarning):
            ModelParams(alpha=1.0, gamma=2.0 + 1e-8, half_length=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ModelParams(alpha=1.0, gamma=2.0, half_length=1.0)  # exact branch: silent

    def test_sound_speed(self):
        assert sound_speed(1.0, mp(0.75, 2.0)) == pytest.approx(math.sqrt(2.0))


class TestContainers:
    def test_grid_half_length_finite(self):
        with pytest.raises(InputError, match="positive and finite"):
            Grid1D(5, np.inf)

    def test_grid_nodes(self):
        g = Grid1D(5, 2.0)
        assert g.dx == 1.0
        np.testing.assert_allclose(g.coords, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert g.coords[0] == -2.0 and g.coords[-1] == 2.0
        assert np.all(np.diff(g.coords) > 0)

    def test_grid_too_small(self):
        with pytest.raises(InputError):
            Grid1D(2, 1.0)

    def test_state_rejects_vacuum(self):
        with pytest.raises(DomainError):
            FluidState(time=0.0, rho=np.array([1.0, 0.0, 1.0]), u=np.zeros(3))

    def test_state_shape_mismatch(self):
        with pytest.raises(InputError):
            FluidState(time=0.0, rho=np.ones(4), u=np.zeros(3))

    def test_state_v_shape_mismatch(self):
        with pytest.raises(InputError, match="v must match rho/u"):
            FluidState(time=0.0, rho=np.ones(3), u=np.zeros(3), v=np.zeros(4))

    def test_state_v_is_a_float_array_outside_repr(self):
        s = FluidState(time=0.0, rho=np.ones(3), u=np.zeros(3), v=[0, 1, 0])
        assert s.v.dtype == np.float64
        np.testing.assert_array_equal(s.v, [0.0, 1.0, 0.0])
        assert "v=" not in repr(s)
        assert FluidState(time=0.0, rho=np.ones(3), u=np.zeros(3)).v is None

    def test_state_keeps_the_checked_density_it_was_built_from(self):
        cd = CheckedDensity(np.array([1.0, 2.0, 1.0]))
        s = FluidState(time=0.0, rho=cd, u=np.zeros(3))
        assert s.density is cd
        assert s.rho is cd.rho

    def test_state_checks_and_wraps_an_array_density(self):
        rho = np.array([1.0, 2.0, 1.0])
        s = FluidState(time=0.0, rho=rho, u=np.zeros(3))
        assert isinstance(s.density, CheckedDensity)
        assert s.density.rho is s.rho is rho
        assert "density" not in repr(s)
        with pytest.raises(DomainError, match="non-positive density -1.0 at node 1"):
            FluidState(time=0.0, rho=np.array([1.0, -1.0, 1.0]), u=np.zeros(3))

    @pytest.mark.parametrize(
        "law",
        [pressure, viscosity, f1, f2, f1f2, f1prime_rho_over_mu, phi, internal_energy,
         sound_speed],
    )
    def test_laws_and_states_report_a_non_positive_density_alike(self, law):
        # one check for caller data: a law names the smallest value and its
        # node as a FluidState does, which adds its time
        rho = np.array([1.0, 0.5, -1.0, 0.0, 2.0])
        with pytest.raises(DomainError) as state_err:
            FluidState(time=0.5, rho=rho, u=np.zeros(5))
        with pytest.raises(DomainError) as law_err:
            law(rho, mp(0.75, 2.0))
        assert str(law_err.value) == "non-positive density -1.0 at node 2"
        assert str(state_err.value) == f"{law_err.value} (t=0.5)"


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.51, 3.0),
    extra=st.floats(0.0, 2.0),
    rho=st.floats(1e-3, 1e3),
)
def test_property_product_and_derivative(alpha, extra, rho):
    """f1*f2 == f1f2 and rho*f2' == f1/rho for arbitrary admissible exponents."""
    gamma = max(1.0, alpha) + extra
    p = mp(alpha, gamma)
    assert f1f2(rho, p) == pytest.approx(f1(rho, p) * f2(rho, p), rel=1e-11, abs=1e-295)
    h = 1e-6 * rho
    deriv = (f2(rho + h, p) - f2(rho - h, p)) / (2.0 * h)
    assert rho * deriv == pytest.approx(f1(rho, p) / rho, rel=5e-5)
