"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The four regression scenarios (smooth_bump,
rarefaction, steepening, constantin) run once as shipped in configs/, at
N=1024, and are shared by the balance, envelope, slope, vacuum and sign
criteria.
"""

import numpy as np
import pytest
from dataclasses import replace

from conftest import REGRESSION, delta_at, flow_series, run_states, shipped_scenario
from nsdv import diagnostics
from nsdv.diagnostics import build_series
from nsdv.eulerian import (
    SolverConfig,
    recover_velocity,
    stable_dt,
    step_effective,
    step_primitive,
)
from nsdv.initdata import build_initial
from nsdv.lagrangian import run_lagrangian, step_lagrangian, to_lagrangian
from nsdv.model import CheckedDensity, FluidState, Grid1D, ModelParams, f1, f1f2, f2, phi, viscosity
from nsdv.stability import twin_run_stability


def report(num, ok, desc, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scenario_runs():
    """The four pinned regression scenarios at N=1024, full monitors, with
    the states each run recorded."""
    out = {}
    for name in REGRESSION:
        cfg = shipped_scenario(name)
        state = build_initial(cfg)
        out[name] = (cfg, *run_states(state, cfg.solver, cfg.grid(), cfg.model))
    return out


def test_criterion_01_constitutive_identities():
    sweep = [
        (a, g)
        for a in (0.6, 0.75, 1.0, 1.5, 2.0)
        for g in (1.0, 1.4, 2.0, 3.0)
        if g >= max(1.0, a)
    ]
    rho = np.logspace(-3, 3, 61)
    worst_prod = worst_f2 = worst_phi = 0.0
    for alpha, gamma in sweep:
        p = ModelParams(alpha=alpha, gamma=gamma, half_length=1.0)
        prod = np.max(
            np.abs(f1f2(rho, p) - f1(rho, p) * f2(rho, p))
            / np.maximum(np.abs(f1f2(rho, p)), 1e-280)
        )
        # perfectly-cancelling log branch at rho=1 excluded by the max floor
        worst_prod = max(worst_prod, float(prod) if np.isfinite(prod) else 0.0)
        h = 1e-6 * rho
        df2 = (f2(rho + h, p) - f2(rho - h, p)) / (2 * h)
        worst_f2 = max(worst_f2, float(np.max(np.abs(rho * df2 - f1(rho, p) / rho) / (f1(rho, p) / rho))))
        dphi = (phi(rho + h, p) - phi(rho - h, p)) / (2 * h)
        worst_phi = max(
            worst_phi, float(np.max(np.abs(dphi - viscosity(rho, p) / rho**2) / (viscosity(rho, p) / rho**2)))
        )
    ok = worst_prod <= 1e-12 and worst_f2 <= 1e-6 and worst_phi <= 1e-6
    report(
        1,
        ok,
        "constitutive identities over the (alpha, gamma) sweep",
        f"f1f2 rel {worst_prod:.2e}, f2' rel {worst_f2:.2e}, phi' rel {worst_phi:.2e}",
    )


def test_criterion_02_equilibrium_fixed_point():
    g = Grid1D(257, 8.0)
    p = ModelParams(alpha=0.75, gamma=2.0, half_length=8.0)
    n_steps = 1000
    worst = 0.0

    for treatment in ("explicit", "semi_implicit"):
        cfg = SolverConfig(t_end=1.0, output_cadence=1.0, diffusion_treatment=treatment)
        s = FluidState(time=0.0, rho=np.ones(257), u=np.zeros(257))
        dt = stable_dt(s, g, cfg, p)
        for _ in range(n_steps):
            s = step_primitive(s, dt, g, cfg, p)
        worst = max(worst, float(np.max(np.abs(s.rho - 1.0))), float(np.max(np.abs(s.u))))

    cfg = SolverConfig(t_end=1.0, output_cadence=1.0, formulation="effective")
    rho, v = np.ones(257), np.zeros(257)
    s = FluidState(time=0.0, rho=rho, u=recover_velocity(rho, v, g, p), v=v)
    for _ in range(n_steps):
        s = step_effective(s, 1e-4, g, cfg, p)
    worst = max(worst, float(np.max(np.abs(s.rho - 1.0))), float(np.max(np.abs(s.v))))

    lag = (CheckedDensity.of(np.ones(257)), np.zeros(257), np.ones(257), g.coords.copy())
    for k in range(n_steps):
        lag = step_lagrangian(lag, 1e-3, np.ones(257), g, p, k * 1e-3)
    rho_l, u_l, jac, _ = lag
    worst = max(
        worst,
        float(np.max(np.abs(rho_l.rho - 1.0))),
        float(np.max(np.abs(u_l))),
        float(np.max(np.abs(jac - 1.0))),
    )
    report(2, worst <= 1e-12, "equilibrium invariant over 1000 steps, all solvers", f"max dev {worst:.2e}")


def test_criterion_03_mass_conservation(scenario_runs):
    cfg, _, snaps = scenario_runs["smooth_bump"]
    g = cfg.grid()
    m0 = float(np.sum(snaps[0].rho) * g.dx)
    drift = max(abs(float(np.sum(s.rho) * g.dx) - m0) for s in snaps) / m0
    report(3, drift <= 1e-10, "mass conservation, primitive N=1024 over T=1", f"rel drift {drift:.2e}")


def test_criterion_04_energy_and_bd_balances(scenario_runs):
    worst = {}
    ok = True
    for name, (cfg, traj, _) in scenario_runs.items():
        d = build_series(traj)
        ok &= not np.any(d.violation_flags["energy"])
        ok &= not np.any(d.violation_flags["bd"])
        rel = 1.0 + diagnostics.BALANCE_REL
        gap_e = float(np.max(d.energy + d.energy_diss_accum - d.energy[0] * rel - d.tolerance * d.times))
        gap_bd = float(
            np.max(d.bd_entropy + d.bd_diss_accum - d.bd_entropy[0] * rel - d.tolerance * d.times)
        )
        worst[name] = max(gap_e, gap_bd)
    report(
        4,
        ok,
        "energy and BD entropy balances on the 4 regression scenarios",
        "worst margin " + ", ".join(f"{k}={v:+.1e}" for k, v in worst.items()),
    )


def test_criterion_05_effective_pressure_envelope(scenario_runs):
    ok = True
    details = []
    for name, (cfg, traj, _) in scenario_runs.items():
        d = build_series(traj)
        assert d.monitors_available["y_env"], name  # all scenarios off the log branch
        ok &= not np.any(d.violation_flags["y_env"])
        gap = float(np.max(d.y_max - d.y_env))
        details.append(f"{name} gap {gap:+.3f}<=tol {d.tolerance:.3f}")
        p = cfg.model
        if p.gamma < p.alpha + 1.0:  # C_gamma = 0: envelope must be constant
            ok &= bool(np.all(d.y_env == d.y_env[0]))
    report(5, ok, "measured y_max below the comparison envelope", "; ".join(details))


def test_criterion_06_oleinik_persistence(scenario_runs):
    ok = True
    for name, (cfg, traj, _) in scenario_runs.items():
        d = build_series(traj)
        ok &= d.monitors_available["oleinik"]
        ok &= not np.any(d.violation_flags["oleinik"])
    report(6, ok, "one-sided slope of v below the derived envelope on all scenarios")


def test_criterion_07_vacuum_bound(scenario_runs):
    ok = True
    details = []
    n_active = 0
    for name, (cfg, traj, snaps) in scenario_runs.items():
        d = build_series(traj)
        ok &= not np.any(d.violation_flags["blowup"]) and traj.blowup is None
        ok &= min(float(np.min(s.rho)) for s in snaps) > 0.5
        if d.monitors_available["vacuum"]:
            n_active += 1
            ok &= not np.any(d.violation_flags["vacuum"])
            gap = float(np.max(d.inv_rho_max - d.z_env))
            details.append(f"{name} gap {gap:+.3f}")
    ok &= n_active >= 2  # rarefaction and constantin sit below gamma = alpha+1
    report(7, ok, "max 1/rho below the comparison ODE; no run reaches the floor", "; ".join(details))


def test_criterion_08_lagrangian_mass_identity():
    ok = True
    details = []
    for n in (257, 513):
        cfg = shipped_scenario("smooth_bump", n, t_end=0.5, output_cadence=0.05)
        state = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        _, snaps = run_states(state, cfg.solver, g, p)
        flows = flow_series(g, snaps)
        ok &= bool(all(np.all(flow.jacobian > 0.0) for flow in flows))
        err = max(
            float(np.max(np.abs(flow.jacobian * to_lagrangian(snap.rho, flow) - state.rho)))
            for flow, snap in zip(flows, snaps)
        )
        mean_dt = 0.5 / max(1, len(snaps) - 1) / 8  # cadence/substep scale
        c = err / (g.dx + mean_dt)
        details.append(f"N={n} C={c:.3f}")
        ok &= c <= 5.0
    report(8, ok, "flow-map mass identity within C*(dx+dt), C <= 5", "; ".join(details))


def test_criterion_09_cross_formulation_agreement():
    dists = {}
    for n in (256, 512, 1024):
        cfg = shipped_scenario("smooth_bump", n, t_end=0.5, output_cadence=0.25)
        state = build_initial(cfg)
        g, p = cfg.grid(), cfg.model
        fp = run_states(state, cfg.solver, g, p)[1][-1]
        fe = run_states(state, replace(cfg.solver, formulation="effective"), g, p)[1][-1]
        lag = run_lagrangian(state, cfg.solver, g, p)
        fl = lag.eulerian_state(len(lag.times) - 1)

        def dist(a, b):
            return float(
                np.sqrt(np.sum((a.rho - b.rho) ** 2) * g.dx)
                + np.sqrt(np.sum((a.u - b.u) ** 2) * g.dx)
            )

        dists[n] = (dist(fp, fe), dist(fp, fl), dist(fe, fl), g.dx)
    ok = True
    orders = []
    for pair in range(3):
        # observed order over the 3-level refinement (two halvings)
        order = float(np.log2(dists[256][pair] / dists[1024][pair])) / 2.0
        orders.append(order)
        ok &= order >= 1.0
        ok &= dists[1024][pair] <= 1.0 * dists[1024][3]  # <= C*dx with C well below 1
    report(
        9,
        ok,
        "primitive/effective/Lagrangian pairwise L2 distance, order >= 1",
        "orders " + ", ".join(f"{o:.2f}" for o in orders),
    )


def test_criterion_10_mms_convergence():
    from nsdv.cli import mms_convergence

    rows = mms_convergence("manufactured-1", 3)
    orders = [r["order"] for r in rows[1:]]
    errs = [r["err"] for r in rows]
    ok = all(b < a for a, b in zip(errs, errs[1:])) and min(orders) >= 1.8
    report(
        10,
        ok,
        "manufactured-solution L2 order (semi-implicit, dt ~ dx^2)",
        "orders " + ", ".join(f"{o:.2f}" for o in orders),
    )


def test_criterion_11_twin_run_stability():
    cfg = shipped_scenario("twin_smooth_bump")
    eps = 1e-6
    r1 = twin_run_stability(cfg, eps)
    r2 = twin_run_stability(cfg, eps / 2.0)
    mask = r1.times <= 0.1 + 1e-12
    bound_ok = bool(np.max(r1.delta_l2[mask]) <= 10.0 * eps)
    ratio = delta_at(r1, 0.1) / delta_at(r2, 0.1)
    linear_ok = abs(ratio - 2.0) <= 0.4  # within 20% of linear
    gronwall_ok = bool(np.all(r1.gronwall_ok))
    report(
        11,
        bound_ok and linear_ok and gronwall_ok,
        "twin-run stability: |delta_u| <= 10*eps for t <= 0.1, linear scaling",
        f"max |delta_u|/eps = {np.max(r1.delta_l2[mask]) / eps:.2f}, ratio {ratio:.3f}",
    )


def test_criterion_12_constantin_sign_persistence(scenario_runs):
    cfg, traj, _ = scenario_runs["constantin"]
    d = build_series(traj)
    assert cfg.model.alpha == 1.5 and cfg.model.gamma == 2.0
    ok = d.monitors_available["w1_sign"] and not np.any(d.violation_flags["w1_sign"])
    w1_worst = float(np.max(d.w1_max))
    report(
        12,
        ok,
        "effective flux stays non-positive on the sign-preserving scenario",
        f"max w1 {w1_worst:.2e} <= tol {d.tolerance:.3f}",
    )
