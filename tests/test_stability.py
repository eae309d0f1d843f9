"""Twin-run stability experiment: continuous dependence and the Gronwall
structure of the difference equation in material coordinates."""

import numpy as np
import pytest
from dataclasses import replace

from conftest import shipped_scenario
from nsdv.errors import ConfigError, InputError
from nsdv.stability import twin_run_stability


@pytest.fixture(scope="module")
def twin_cfg():
    return shipped_scenario("twin_smooth_bump", 257)


def test_zero_perturbation_identically_zero(twin_cfg):
    # the two runs would be identical and every Gronwall check vacuous
    with pytest.raises(InputError, match="epsilon must be finite and nonzero, got 0"):
        twin_run_stability(twin_cfg, 0.0)


def test_short_time_continuous_dependence(twin_cfg):
    eps = 1e-6
    rep = twin_run_stability(twin_cfg, eps)
    mask = rep.times <= 0.1 + 1e-12
    assert np.max(rep.delta_l2[mask]) <= 10.0 * eps
    assert rep.kappa > 0.0
    assert np.all(np.diff(rep.diss_accum) >= 0.0)


def test_gronwall_structure_holds(twin_cfg):
    rep = twin_run_stability(twin_cfg, 1e-6)
    assert np.all(rep.gronwall_ok)
    # before any crossing the contraction bound is in force; here the measured
    # flux-to-dissipation ratio never overtakes the diffusion weight
    if rep.crossing_time is not None:
        below = rep.times < rep.crossing_time
        assert np.all(rep.gronwall_ok[below])


def test_linear_epsilon_scaling(twin_cfg):
    eps = 1e-6
    r1 = twin_run_stability(twin_cfg, eps)
    r2 = twin_run_stability(twin_cfg, eps / 2.0)
    ratio = r1.delta_at(0.1) / r2.delta_at(0.1)
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_effective_formulation_config_is_config_error(twin_cfg):
    # the twin steps primitive runs only; it must not ignore the config key
    cfg = replace(twin_cfg, solver=replace(twin_cfg.solver, formulation="effective"))
    with pytest.raises(ConfigError, match="not formulation = effective"):
        twin_run_stability(cfg, 1e-6)
