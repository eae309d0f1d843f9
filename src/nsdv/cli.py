"""Command line entry points: run, verify, convergence, twin.

Exit codes: 0 ok; 2 config error (ConfigError, InputError, a missing config
file, DomainError when the data leave a constitutive law's domain,
DomainExitError when a flow-map particle leaves the domain); 3 numerical
failure (NumericalFailure, HomeomorphismError); 4 monitor violation; 5 blow-up
detected (VacuumBlowup).  The default output root is $NSDV_OUT_DIR or ./out;
concurrent runs land in distinct directories keyed by the config hash.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .errors import (
    ConfigError,
    DomainError,
    DomainExitError,
    HomeomorphismError,
    InputError,
    NumericalFailure,
    VacuumBlowup,
)
from .eulerian import SolverConfig, run
from .initdata import (
    ScenarioConfig,
    build_initial,
    manufactured_boundary,
    manufactured_exact,
    manufactured_source,
)
from .model import Grid1D, ModelParams
from .stability import twin_run_stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4
EXIT_BLOWUP = 5


def _out_root(args) -> Path:
    root = args.out or os.environ.get("NSDV_OUT_DIR") or "out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_scenario(args) -> ScenarioConfig:
    cfg = io.load_config(args.config)
    if args.cadence is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, output_cadence=args.cadence))
    return cfg


def _run_scenario(cfg: ScenarioConfig):
    initial, _, _ = build_initial(cfg)
    grid = cfg.grid()
    forcing = boundary = None
    if cfg.initial.kind == "manufactured":
        mms_id, p = cfg.initial.mms_id, cfg.model

        def forcing(t):
            return manufactured_source(mms_id, t, grid, p)

        def boundary(t):
            return manufactured_boundary(mms_id, t, grid, p)

    return run(initial, cfg.solver, grid, cfg.model, forcing=forcing, exact_boundary=boundary)


def cmd_run(args) -> int:
    cfg = _load_scenario(args)
    traj = _run_scenario(cfg)
    run_dir = io.emit_run_outputs(_out_root(args), cfg, traj)
    print(f"run: {len(traj.snapshots)} snapshots -> {run_dir}")
    if traj.blowup is not None:
        print(f"blow-up detected at t={traj.blowup.time:.6g} (node {traj.blowup.node})")
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_scenario(args)
    traj = _run_scenario(cfg)
    run_dir = io.emit_run_outputs(_out_root(args), cfg, traj)
    series = traj.diagnostics
    status = EXIT_OK
    for name in sorted(series.violation_flags):
        if not series.monitors_available.get(name, True):
            print(f"monitor {name:12s} n/a")
            continue
        bad = series.violation_flags[name]
        if np.any(bad):
            t_bad = series.times[np.argmax(bad)]
            print(f"monitor {name:12s} VIOLATED from t={t_bad:.6g}")
            status = EXIT_VIOLATION
        else:
            print(f"monitor {name:12s} ok")
    if traj.blowup is not None:
        print(f"blow-up detected at t={traj.blowup.time:.6g} (node {traj.blowup.node})")
        status = EXIT_BLOWUP
    print(f"outputs -> {run_dir}")
    return status


def mms_convergence(
    mms_id: str,
    levels: int,
    *,
    base_n: int = 129,
    t_end: float = 0.5,
    alpha: float = 0.75,
    gamma: float = 2.0,
    half_length: float = np.pi,
    dt_factor: float = 0.25,
):
    """Manufactured-solution convergence study: dt proportional to dx^2 with
    semi-implicit diffusion, L2 errors of (rho, u) against the exact fields.
    Returns a list of row dicts (n, dx, dt, err, order)."""
    p = ModelParams(alpha=alpha, gamma=gamma, half_length=half_length)
    rows = []
    for lvl in range(levels):
        n = (base_n - 1) * 2**lvl + 1
        grid = Grid1D(n, half_length)
        dt = dt_factor * grid.dx**2
        cfg = SolverConfig(
            t_end=t_end,
            output_cadence=t_end,
            formulation="primitive",
            diffusion_treatment="semi_implicit",
            dt_override=dt,
        )
        rho0, u0 = manufactured_exact(mms_id, 0.0, grid, p)
        from .model import FluidState

        initial = FluidState(time=0.0, rho=rho0, u=u0)

        def forcing(t, _grid=grid):
            return manufactured_source(mms_id, t, _grid, p)

        def boundary(t, _grid=grid):
            return manufactured_boundary(mms_id, t, _grid, p)

        traj = run(
            initial, cfg, grid, p, forcing=forcing, exact_boundary=boundary,
            build_diagnostics=False,
        )
        final = traj.snapshots[-1]
        rho_ex, u_ex = manufactured_exact(mms_id, final.time, grid, p)
        err = float(
            np.sqrt(np.sum((final.rho - rho_ex) ** 2) * grid.dx)
            + np.sqrt(np.sum((final.u - u_ex) ** 2) * grid.dx)
        )
        order = np.log2(rows[-1]["err"] / err) if rows else float("nan")
        rows.append({"n": n, "dx": grid.dx, "dt": dt, "err": err, "order": order})
    return rows


def cmd_convergence(args) -> int:
    rows = mms_convergence(args.id, args.levels)
    print(f"{'n':>7} {'dx':>12} {'dt':>12} {'l2_error':>14} {'order':>7}")
    for r in rows:
        print(f"{r['n']:7d} {r['dx']:12.5e} {r['dt']:12.5e} {r['err']:14.6e} {r['order']:7.3f}")
    out = _out_root(args) / f"convergence-{args.id}.dat"
    cols = [[r[k] for r in rows] for k in ("n", "dx", "dt", "err", "order")]
    foot = io.footer(args.id, io.build_id())
    io.write_table(out, "# n dx dt l2_error order", cols, foot, sep=" ")
    print(f"table -> {out}")
    return EXIT_OK


def cmd_twin(args) -> int:
    cfg = _load_scenario(args)
    report = twin_run_stability(cfg, args.epsilon)
    print(f"twin: epsilon={report.epsilon:g} kappa={report.kappa:.6g}")
    cross = "none" if report.crossing_time is None else f"{report.crossing_time:.6g}"
    print(f"gronwall crossing time: {cross}")
    print(f"{'t':>10} {'|delta_u|_L2':>14} {'dissipation':>14} {'lhs<=rhs':>9}")
    for k in range(len(report.times)):
        ok = "ok" if report.gronwall_ok[k] else "FAIL"
        print(
            f"{report.times[k]:10.4f} {report.delta_l2[k]:14.6e} "
            f"{report.diss_accum[k]:14.6e} {ok:>9}"
        )
    h = io.config_hash(cfg)
    out = _out_root(args) / f"twin-{h}-eps{args.epsilon:g}.dat"
    cols = (report.times, report.delta_l2, report.diss_accum, report.lhs, report.rhs)
    foot = io.footer(h, io.build_id())
    io.write_table(out, "# t delta_l2 diss_accum lhs rhs", cols, foot, sep=" ")
    print(f"series -> {out}")
    return EXIT_OK if bool(np.all(report.gronwall_ok)) else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsdv",
        description="1D compressible flow with density-dependent viscosity: "
        "solvers, effective-quantity diagnostics, estimate monitors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, config=True):
        if config:
            sp.add_argument("--config", required=True, help="scenario config path")
            sp.add_argument("--cadence", type=float, default=None, help="override output cadence")
        sp.add_argument("--out", default=None, help="output root (default $NSDV_OUT_DIR or ./out)")

    sp = sub.add_parser("run", help="integrate a scenario and write outputs")
    add_common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("verify", help="run the full monitor suite on a scenario")
    add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("convergence", help="manufactured-solution convergence table")
    sp.add_argument("--id", default="manufactured-1", help="manufactured solution id")
    sp.add_argument("--levels", type=int, default=3)
    add_common(sp, config=False)
    sp.set_defaults(func=cmd_convergence)

    sp = sub.add_parser("twin", help="twin-run stability experiment")
    add_common(sp)
    sp.add_argument("--epsilon", type=float, default=1e-6)
    sp.set_defaults(func=cmd_twin)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, DomainError, DomainExitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VacuumBlowup as exc:
        print(f"blow-up: {exc} (t={exc.time})", file=sys.stderr)
        return EXIT_BLOWUP
    except (NumericalFailure, HomeomorphismError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
