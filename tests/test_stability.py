"""Twin-run stability experiment: continuous dependence and the Gronwall
structure of the difference equation in material coordinates."""

import os
import re
import time
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from conftest import (
    CONFIG_DIR,
    assert_raised_in_child,
    delta_at,
    flow_series,
    shipped_scenario,
)
from nsdv import lagrangian, model, stability, stencils
from nsdv.cli import main
from nsdv.diagnostics import left_integral
from nsdv.errors import ConfigError, InputError, NumericalFailure, VacuumBlowup
from nsdv.eulerian import drive, stable_dt, step_primitive
from nsdv.initdata import build_initial
from nsdv.lagrangian import to_lagrangian
from nsdv.model import FluidState
from nsdv.stability import (
    GRONWALL_SLACK,
    TwinReport,
    default_perturbation,
    twin_run_stability,
)
from nsdv.stencils import ddx


@pytest.fixture(params=["forked"])
def lockstep(request, monkeypatch):
    """The twin's lockstep path, the perturbed run in a forked child
    process, which must fork.  Its one param keeps each case's `[forked]`
    id."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    yield request.param
    assert forks


def assert_no_child_process():
    # no child process of this one is left, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    ratio = delta_at(r1, 0.1) / delta_at(r2, 0.1)
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_effective_formulation_config_is_config_error(twin_cfg):
    # the twin steps primitive runs only; it must not ignore the config key
    cfg = replace(twin_cfg, solver=replace(twin_cfg.solver, formulation="effective"))
    with pytest.raises(ConfigError, match="not formulation = effective"):
        twin_run_stability(cfg, 1e-6)


def reference_twin(scenario, epsilon):
    """The twin computed from whole runs: every recorded pair kept, each
    run's flow map integrated over all of them, then every Gronwall term."""
    p, grid, cfg = scenario.model, scenario.grid(), scenario.solver
    base = build_initial(scenario)
    pert = FluidState(
        time=0.0, rho=base.rho.copy(), u=base.u + epsilon * default_perturbation(grid)
    )
    pairs = []
    drive(
        (base, pert),
        cfg,
        lambda pair: min(stable_dt(pair[0], grid, cfg, p), stable_dt(pair[1], grid, cfg, p)),
        lambda pair, t, h: tuple(step_primitive(s, h, grid, cfg, p) for s in pair),
        lambda t, pair: pairs.append(pair),
    )
    flows = [flow_series(grid, states) for states in zip(*pairs)]
    rho0, dx = base.rho, grid.dx
    delta_l2, half, ddelta_sq, g_cs, kappa = [], [], [], [], np.inf
    for (a, b), f1, f2 in zip(pairs, *flows):
        u1, u2 = to_lagrangian(a.u, f1), to_lagrangian(b.u, f2)
        rho1, rho2 = rho0 / f1.jacobian, rho0 / f2.jacobian
        du = u1 - u2
        delta_l2.append(np.sqrt(np.sum(du**2) * dx))
        half.append(0.5 * np.sum(rho0 * du**2) * dx)
        ddelta_sq.append(np.sum(ddx(du, grid) ** 2) * dx)
        w1 = rho1 * model.viscosity(rho1, p) / rho0
        w2 = rho2 * model.viscosity(rho2, p) / rho0
        kappa = min(kappa, float(np.min(w1)))
        g = model.pressure(rho2, p) - model.pressure(rho1, p) + (w1 - w2) * ddx(u2, grid)
        g_cs.append(np.sqrt(np.sum(g**2) * dx) * np.sqrt(ddelta_sq[-1]))
    times = np.array([flow.time for flow in flows[0]])
    half = np.array(half)
    diss = left_integral(times, np.array(ddelta_sq))
    cs = left_integral(times, np.array(g_cs))
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(times * diss > 0.0, cs / (times * diss), 0.0)
    lhs = half + kappa * diss
    rhs = half[0] + cs
    crossing = times[times * K >= kappa]
    return TwinReport(
        epsilon=epsilon,
        times=times,
        delta_l2=np.array(delta_l2),
        diss_accum=diss,
        kappa=kappa,
        lhs=lhs,
        rhs=rhs,
        gronwall_ok=lhs <= rhs * (1.0 + GRONWALL_SLACK) + 1e-9 * max(half[0], 1e-300),
        crossing_time=float(crossing[0]) if len(crossing) else None,
    )


def test_streamed_twin_equals_whole_run_reference(lockstep):
    # the shipped config as it is, not resized
    cfg = shipped_scenario("twin_smooth_bump")
    got = twin_run_stability(cfg, 1e-6)
    want = reference_twin(cfg, 1e-6)
    assert len(got.times) == 13
    for name in ("times", "delta_l2", "diss_accum", "lhs", "rhs", "gronwall_ok"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.kappa == want.kappa
    assert got.crossing_time == want.crossing_time
    assert got.epsilon == want.epsilon


@pytest.mark.parametrize("cadence, count", [(0.01, 13), (0.002, 61)])
def test_twin_flow_maps_take_ddx_once_per_recorded_state(monkeypatch, cadence, count):
    # each run's flow map differentiates each of its recorded velocities once,
    # the first one in start_flow
    calls = []

    def counting_ddx(field, grid):
        calls.append(1)
        return ddx(field, grid)

    monkeypatch.setattr(lagrangian, "ddx", counting_ddx)
    report = twin_run_stability(shipped_scenario("twin_smooth_bump", output_cadence=cadence), 1e-6)
    assert len(report.times) == count
    assert len(calls) == 2 * count


def test_twin_memory_does_not_grow_with_snapshot_count():
    # the shipped config at cadence 0.01 (13 snapshots) and 0.002 (61); the
    # twin holds O(N) arrays whatever the count, so its traced peak grows by
    # far less than one N=512 array per added snapshot
    stencils._ptsv()  # LAPACK dptsv, found once, outside the traced peaks
    peaks = {}
    for cadence, count in ((0.01, 13), (0.002, 61)):
        cfg = shipped_scenario("twin_smooth_bump", output_cadence=cadence)
        tracemalloc.start()
        try:
            report = twin_run_stability(cfg, 1e-6)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.times) == count
    assert peaks[61] - peaks[13] < 64 * 1024, peaks


class Perturbed(FluidState):
    """The perturbed run's states, which a patched step tells apart from the
    base run's by their type."""


def patch_steps(monkeypatch, fail):
    """Step the twin through a stability.step_primitive that hands each new
    state past t=0.05 to fail[run](state), where given, for `run` "base" or
    "perturbed": it returns that state or a replacement, or raises.  A
    forked child inherits the patch."""
    monkeypatch.setattr(stability, "FluidState", Perturbed)

    def step(state, dt, grid, cfg, p):
        new = step_primitive(state, dt, grid, cfg, p)
        run = "base"
        if isinstance(state, Perturbed):
            run, new = "perturbed", Perturbed(time=new.time, rho=new.density, u=new.u)
        if new.time > 0.05 and run in fail:
            return fail[run](new)
        return new

    monkeypatch.setattr(stability, "step_primitive", step)


def vacuum(state):
    raise VacuumBlowup(f"density hit the vacuum floor at node 7, t={state.time:.6g}",
                       time=state.time, node=7)


def slow(state):
    # long enough for a child whose step failed to have exited
    time.sleep(0.2)
    return state


def non_finite(state):
    return type(state)(time=state.time, rho=state.density, u=np.full_like(state.u, np.nan))


BLOWUP_LINE = r"blow-up: \[twin {run}\] density hit the vacuum floor at node 7, t=(\S+) \(t=(\S+)\)\n"


@pytest.mark.parametrize("fail, code, err", [
    # only the perturbed run fails: its line, with the time the child's
    # pickled VacuumBlowup kept
    ({"perturbed": vacuum}, 5, BLOWUP_LINE.format(run="perturbed")),
    # the same, after the child has ended: the caller's dt finds no reader
    ({"base": slow, "perturbed": vacuum}, 5, BLOWUP_LINE.format(run="perturbed")),
    # both fail at the same step: the base step comes first
    ({"base": vacuum, "perturbed": vacuum}, 5, BLOWUP_LINE.format(run="base")),
    # a non-finite state fails the next stable_dt of either run, unnamed
    ({"base": non_finite}, 3, r"numerical failure: non-finite state\n"),
    ({"perturbed": non_finite}, 3, r"numerical failure: non-finite state\n"),
    # the perturbed step fails before the base run's next stable_dt does
    ({"base": non_finite, "perturbed": vacuum}, 5, BLOWUP_LINE.format(run="perturbed")),
], ids=["perturbed-blowup", "perturbed-blowup-child-ended", "both-blowup", "base-non-finite", "perturbed-non-finite",
        "perturbed-blowup-before-base-stable-dt"])
def test_twin_failure_exits_as_in_process(tmp_path, capsys, monkeypatch, lockstep,
                                          fail, code, err):
    # cadence 0.05 leaves unrecorded steps, so the failing step at t > 0.05
    # is followed by a dt choice, not by a recorded pair
    patch_steps(monkeypatch, fail)
    out = tmp_path / "out"
    assert main(["twin", "--config", str(CONFIG_DIR / "twin_smooth_bump.cfg"),
                 "--cadence", "0.05", "--out", str(out)]) == code
    captured = capsys.readouterr()
    match = re.fullmatch(err, captured.err)
    assert match, captured.err
    if match.groups():
        said, kept = match.groups()
        assert 0.05 < float(kept) < 0.1 and said == f"{float(kept):.6g}"
    assert captured.out == ""
    assert not out.exists()
    assert_no_child_process()


def test_perturbed_blowup_keeps_time_and_node(monkeypatch, lockstep):
    patch_steps(monkeypatch, {"perturbed": vacuum})
    cfg = shipped_scenario("twin_smooth_bump", output_cadence=0.05)
    with pytest.raises(VacuumBlowup, match=r"^\[twin perturbed\] density hit") as info:
        twin_run_stability(cfg, 1e-6)
    assert info.value.node == 7 and 0.05 < info.value.time < 0.1
    assert type(info.value) is VacuumBlowup and info.value.args == (
        f"[twin perturbed] density hit the vacuum floor at node 7, t={info.value.time:.6g}",)
    assert_raised_in_child(info.value, "twin's perturbed-run", "_run_in_child")


def test_base_stable_dt_failure_outranks_the_perturbed_one(monkeypatch, lockstep):
    # both runs' states turn non-finite at one step, so both stable_dt
    # proposals fail with one message: the base run's, raised in this
    # process and not from the child's traceback, comes first
    patch_steps(monkeypatch, {"base": non_finite, "perturbed": non_finite})
    cfg = shipped_scenario("twin_smooth_bump", output_cadence=0.05)
    with pytest.raises(NumericalFailure, match="^non-finite state$") as info:
        twin_run_stability(cfg, 1e-6)
    assert info.value.__cause__ is None
    assert_no_child_process()


def test_no_process_outlives_the_twin(tmp_path, monkeypatch, lockstep):
    cfg = shipped_scenario("twin_smooth_bump", 257)
    assert len(twin_run_stability(cfg, 1e-6).times) == 13
    assert_no_child_process()

    out = tmp_path / "out"
    assert main(["twin", "--config", str(CONFIG_DIR / "vacuum_stress.cfg"),
                 "--out", str(out)]) == 5
    assert_no_child_process()

    # raised by the caller's measure at the second recorded pair
    with pytest.raises(InputError, match="lost to rounding"):
        twin_run_stability(cfg, 1e-30)
    assert_no_child_process()

    calls = []

    def interrupted(field, flow):
        calls.append(1)
        if len(calls) > 4:
            raise KeyboardInterrupt
        return lagrangian.to_lagrangian(field, flow)

    monkeypatch.setattr(stability, "to_lagrangian", interrupted)
    with pytest.raises(KeyboardInterrupt):
        twin_run_stability(cfg, 1e-6)
    assert_no_child_process()
