import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from nsdv import io, model
from nsdv.effective import compute_effective_fields
from nsdv.errors import InputError
from nsdv.eulerian import run
from nsdv.lagrangian import integrate_flow, start_flow
from nsdv.model import CheckedDensity, FluidState, Grid1D, ModelParams
from nsdv.stencils import ddx

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


# Test-only helpers: the package writes configs and outputs, and reads back
# only configs; the tests read its outputs back with these.


def save_config(cfg, path):
    Path(path).write_text(io.serialize_config(cfg), encoding="ascii", newline="\n")


def read_csv_table(path):
    """Read one of our CSV outputs back: (header fields, list of row lists).
    Footer and comment lines are skipped; a `flags` column keeps its text
    (the bitstring would otherwise lose its leading zeros)."""
    header = None
    rows = []
    keep_str = set()
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            keep_str = {i for i, name in enumerate(header) if name == "flags"}
            continue
        cells = []
        for i, cell in enumerate(line.split(",")):
            if i in keep_str:
                cells.append(cell)
                continue
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return header, rows


def read_manifest(path):
    text = "\n".join(
        line for line in Path(path).read_text(encoding="ascii").splitlines()
        if not line.startswith("#")
    )
    return json.loads(text)


def delta_at(report, t):
    """A twin report's ||delta_u||_L2 at time t, interpolated."""
    return float(np.interp(t, report.times, report.delta_l2))


# The residual of the effective-pressure transport equation and the two
# laws only it calls: the tests check the y equation with them, no command
# evaluates it.


def f1f2(rho, p: ModelParams):
    """Product f1*f2 in closed form (source term of the effective-pressure equation)."""
    rho = CheckedDensity.of(rho).rho
    if p.log_branch:
        return p.gamma**2 * np.log(rho) * rho ** (p.gamma - p.alpha)
    e = p.gamma - p.alpha - 1.0
    return (p.gamma**2 / e) * rho ** (2.0 * p.gamma - 2.0 * p.alpha - 1.0)


def f1prime_rho_over_mu(rho, p: ModelParams):
    """f1'(rho)*rho/mu(rho) = gamma*(gamma-alpha)*rho**(gamma-2*alpha).

    Coefficient of the quadratic (v-u)**2 term; identically zero when gamma = alpha.
    """
    rho = CheckedDensity.of(rho).rho
    if p.gamma == p.alpha:
        return np.zeros_like(rho)
    return p.gamma * (p.gamma - p.alpha) * rho ** (p.gamma - 2.0 * p.alpha)


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
    eff = compute_effective_fields(mid, grid, p)
    y_prev = compute_effective_fields(prev, grid, p).y
    y_next = compute_effective_fields(nxt, grid, p).y

    dydt = (y_next - y_prev) / (nxt.time - prev.time)
    rho, u = mid.rho, mid.u
    res = (
        dydt
        + u * ddx(eff.y, grid)
        + model.f1(rho, p) * eff.y
        - f1f2(rho, p)
        + f1prime_rho_over_mu(rho, p) * (eff.v - u) ** 2
    )
    l2 = float(np.sqrt(np.sum(res**2) * grid.dx))
    return YResidual(field=res, max_norm=float(np.max(np.abs(res))), l2_norm=l2)


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


def velocity_states(grid, times, u):
    """States at `times` with unit density and velocity u(t, x) on the
    grid's nodes, for driving flow maps with a known field."""
    return [FluidState(time=t, rho=np.ones(grid.n_cells), u=u(t, grid.coords)) for t in times]


def flow_series(grid, states, **kw):
    """The flow map at each of a run's recorded `states`, moved on one state
    at a time from the identity at the first."""
    flows = [start_flow(states[0], grid)]
    for state in states[1:]:
        flows.append(integrate_flow(flows[-1], state, **kw))
    return flows


def run_states(initial, solver, grid, p):
    """run(...) and every state it recorded, in order, collected through
    its on_snapshot hook: the trajectory keeps none of them."""
    states = []
    traj = run(initial, solver, grid, p, on_snapshot=lambda state, eff: states.append(state))
    return traj, states


def assert_raised_in_child(exc, name, frame):
    """`exc` was raised in the forked child process `name` and re-raised by
    nsdv.child: from a RuntimeError that names the process and holds the
    child's traceback, which passes through the function `frame` and ends
    with `exc` as the child printed it; and no child process is left."""
    cause = exc.__cause__
    assert type(cause) is RuntimeError, repr(cause)
    text = str(cause)
    assert text.startswith(f"in the {name} process:\nTraceback (most recent call last):\n"), text
    assert f", in {frame}\n" in text, text
    assert text.endswith(f"{type(exc).__name__}: {exc}\n"), text
    with pytest.raises(ChildProcessError):  # none is left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
