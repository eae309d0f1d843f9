from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nsdv import io
from nsdv.model import FluidState, Grid1D, ModelParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# every shipped config file
SHIPPED = sorted(CONFIG_DIR.glob("*.cfg"))
# The four pinned regression scenarios the acceptance suite monitors; each
# configs/<name>.cfg says which branch of the estimates it exercises.
REGRESSION = ("smooth_bump", "rarefaction", "steepening", "constantin")


def shipped_scenario(name, n_cells=None, **solver):
    """configs/<name>.cfg, resized to n_cells and with the given solver
    fields replaced, when given."""
    cfg = io.load_config(CONFIG_DIR / f"{name}.cfg")
    if n_cells is not None:
        cfg = replace(cfg, n_cells=n_cells)
    if solver:
        cfg = replace(cfg, solver=replace(cfg.solver, **solver))
    return cfg


@pytest.fixture
def params():
    return ModelParams(alpha=0.75, gamma=2.0, half_length=8.0)


@pytest.fixture
def grid():
    return Grid1D(257, 8.0)


@pytest.fixture
def equilibrium(grid):
    n = grid.n_cells
    return FluidState(time=0.0, rho=np.ones(n), u=np.zeros(n))


def smooth_state(grid, rho_amp=0.1, u_amp=0.05):
    """Generic smooth far-field-compatible state for derivative checks."""
    x = grid.coords
    rho = 1.0 + rho_amp * np.exp(-(x**2))
    u = u_amp * x * np.exp(-(x**2))
    return FluidState(time=0.0, rho=rho, u=u)
