"""Command line entry points: run, verify, convergence, twin.

Exit codes follow the exception classes: 0 ok; 2 config error (InputError,
which includes an output root that is not a directory, and its ConfigError,
which includes DomainExitError when a flow-map particle leaves the domain and
a config file that is missing, unreadable or not ASCII text; DomainError
when the data leave a constitutive law's domain); 3 numerical failure
(NumericalFailure, which includes HomeomorphismError); 4 monitor violation;
5 blow-up detected (VacuumBlowup); 141 stdout closed before the command
finished printing (BrokenPipeError), the status a shell reports for SIGPIPE;
every command writes its output files before it prints.  The default output
root is $NSDV_OUT_DIR or ./out; concurrent runs land in distinct directories
keyed by the config hash.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .child import Child
from .diagnostics import build_series
from .errors import (
    ConfigError,
    DomainError,
    InputError,
    NumericalFailure,
    VacuumBlowup,
)
from .eulerian import SolverConfig, drive, run, stable_dt, step_primitive
from .initdata import (
    ScenarioConfig,
    build_initial,
    manufactured_boundary,
    manufactured_exact,
    manufactured_source,
)
from .model import FluidState, Grid1D, ModelParams
from .stability import twin_run_stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4
EXIT_BLOWUP = 5
# the status a shell reports for a command killed by SIGPIPE
EXIT_STDOUT_CLOSED = 141

# steps of the convergence study whose manufactured source is evaluated at once
MMS_BLOCK = 8
# the convergence study's dt as a multiple of dx^2
MMS_DT_FACTOR = 0.25


def _out_root(args) -> Path:
    """The output root, which the command makes when it writes its outputs.
    A path there, or above it, that is not a directory or cannot be inspected
    (a name too long, a symlink loop, no permission) is an input error,
    raised before the command does any work."""
    path = Path(args.out or os.environ.get("NSDV_OUT_DIR") or "out")
    for above in (path, *path.parents):
        try:
            above.stat()
        except (FileNotFoundError, NotADirectoryError):
            continue  # absent: made under the nearest path that exists
        except OSError as exc:
            raise InputError(f"output root {path}: {exc.strerror}") from None
        if not above.is_dir():
            raise InputError(f"output root {path}: {above} is not a directory")
        break
    return path


def _load_scenario(args) -> ScenarioConfig:
    cfg = io.load_config(args.config)
    if args.cadence is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, output_cadence=args.cadence))
    return cfg


def _run_with_outputs(args):
    """Load the scenario, integrate it with its snapshots streamed to the run
    directory's writer, evaluate its diagnostics and write the rest of that
    directory.  Returns (trajectory, diagnostic series, run directory)."""
    cfg = _load_scenario(args)
    with io.RunWriter(_out_root(args), cfg) as writer:
        initial = build_initial(cfg)
        traj = run(initial, cfg.solver, cfg.grid(), cfg.model, on_snapshot=writer.record)
        series = build_series(traj)
        return traj, series, writer.finish(series)


def cmd_run(args) -> int:
    traj, _, run_dir = _run_with_outputs(args)
    print(f"run: {len(traj.times)} snapshots -> {run_dir}")
    if traj.blowup is not None:
        print(f"blow-up detected at t={traj.blowup.time:.6g} (node {traj.blowup.node})")
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_verify(args) -> int:
    traj, series, run_dir = _run_with_outputs(args)
    status = EXIT_OK
    for name in sorted(series.violation_flags):
        if not series.monitors_available[name]:
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


def _mms_level(mms_id: str, lvl: int, base_n: int, t_end: float, p: ModelParams) -> dict:
    """Level `lvl` of the convergence study: its row (n, dx, dt, err)."""
    n = (base_n - 1) * 2**lvl + 1
    grid = Grid1D(n, p.half_length)
    dt = MMS_DT_FACTOR * grid.dx**2
    cfg = SolverConfig(
        t_end=t_end,
        output_cadence=t_end,
        formulation="primitive",
        diffusion_treatment="semi_implicit",
        dt_override=dt,
    )
    rho0, u0 = manufactured_exact(mms_id, 0.0, grid, p)
    block = {}  # start time -> its (g_rho, g_mom) rows

    def step(state, t, h):
        nonlocal block
        if t not in block:
            # the next MMS_BLOCK start times as drive accumulates them
            # from t at the constant dt; a clipped last step starts at
            # one of them too
            times = [t]
            for _ in range(MMS_BLOCK - 1):
                times.append(times[-1] + dt)
            g_rho, g_mom = manufactured_source(mms_id, np.array(times), grid, p)
            block = {start: (g_rho[i], g_mom[i]) for i, start in enumerate(times)}
        return step_primitive(
            state, h, grid, cfg, p,
            forcing=block[t],
            boundary=manufactured_boundary(mms_id, t + h, grid, p),
        )

    # only the final state kept: the study reads nothing else
    last = deque(maxlen=1)
    drive(
        FluidState(time=0.0, rho=rho0, u=u0),
        cfg,
        lambda state: stable_dt(state, grid, cfg, p),
        step,
        lambda t, state: last.append(state),
    )
    final = last[0]
    rho_ex, u_ex = manufactured_exact(mms_id, final.time, grid, p)
    err = float(
        np.sqrt(np.sum((final.rho - rho_ex) ** 2) * grid.dx)
        + np.sqrt(np.sum((final.u - u_ex) ** 2) * grid.dx)
    )
    return {"n": n, "dx": grid.dx, "dt": dt, "err": err}


def _mms_coarse_levels(channel, mms_id, levels, *args) -> None:
    """Body of the convergence study's child process (a child.Child): steps
    levels 0 .. levels-1 in order and sends their rows."""
    channel.send([_mms_level(mms_id, lvl, *args) for lvl in range(levels)])


def mms_convergence(
    mms_id: str,
    levels: int,
    *,
    base_n: int = 129,
    t_end: float = 0.5,
    alpha: float = 0.75,
    gamma: float = 2.0,
    half_length: float = np.pi,
):
    """Manufactured-solution convergence study: dt = MMS_DT_FACTOR dx^2 with
    semi-implicit diffusion, L2 errors of (rho, u) against the exact fields.
    Returns a list of row dicts (n, dx, dt, err, order); the order is NaN on
    the first level and wherever an error is zero.  The source is evaluated
    for MMS_BLOCK step times at once, each row bitwise equal to its
    evaluation at that one time.

    No level reads another's state.  With more than one level, a forked
    child process (nsdv.child) steps the coarse levels 0 .. levels-2 in
    order while the caller steps the finest one, which takes about three
    quarters of the steps.  A failure, such as a VacuumBlowup, is raised as
    a serial study would raise it: that of the first level, in level order,
    that failed, so a coarse level's (the child's, re-raised by nsdv.child)
    outranks the finest level's, which waits for the child's outcome.  A
    child that exits without a report raises RuntimeError; any exception in
    the caller, KeyboardInterrupt included, kills and reaps the child."""
    if levels < 1:
        raise InputError(f"levels must be at least 1, got {levels}")
    args = (base_n, t_end, ModelParams(alpha=alpha, gamma=gamma, half_length=half_length))
    if levels == 1:
        rows = [_mms_level(mms_id, 0, *args)]
    else:
        child = Child("convergence study's coarse-level", _mms_coarse_levels, mms_id,
                      levels - 1, *args)
        try:
            try:
                finest = _mms_level(mms_id, levels - 1, *args)
            except Exception:
                child.outcome()  # a coarse level's failure comes first
                raise
            rows = [*child.outcome(), finest]
        finally:
            child.close(kill=True)  # a no-op once the child is reaped
    prev = 0.0
    for row in rows:
        err = row["err"]
        row["order"] = np.log2(prev / err) if prev > 0.0 and err > 0.0 else float("nan")
        prev = err
    return rows


def cmd_convergence(args) -> int:
    out_root = _out_root(args)
    rows = mms_convergence(args.id, args.levels)
    out_root.mkdir(parents=True, exist_ok=True)
    out = out_root / f"convergence-{args.id}.dat"
    cols = [[r[k] for r in rows] for k in ("n", "dx", "dt", "err", "order")]
    foot = io.footer(args.id, io.build_id())
    io.write_table(out, "# n dx dt l2_error order", cols, foot, sep=" ")
    print(f"{'n':>7} {'dx':>12} {'dt':>12} {'l2_error':>14} {'order':>7}")
    for r in rows:
        print(f"{r['n']:7d} {r['dx']:12.5e} {r['dt']:12.5e} {r['err']:14.6e} {r['order']:7.3f}")
    print(f"table -> {out}")
    return EXIT_OK


def cmd_twin(args) -> int:
    cfg = _load_scenario(args)
    out_root = _out_root(args)
    report = twin_run_stability(cfg, args.epsilon)
    h = io.config_hash(cfg)
    out_root.mkdir(parents=True, exist_ok=True)
    out = out_root / f"twin-{h}-eps{args.epsilon:g}.dat"
    cols = (report.times, report.delta_l2, report.diss_accum, report.lhs, report.rhs)
    foot = io.footer(h, io.build_id())
    io.write_table(out, "# t delta_l2 diss_accum lhs rhs", cols, foot, sep=" ")
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
        status = args.func(args)
        sys.stdout.flush()  # a buffered stdout meets a closed pipe here
        return status
    except BrokenPipeError:
        # stdout's reader is gone: nothing more can reach it, and the flush
        # at exit must not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VacuumBlowup as exc:
        print(f"blow-up: {exc} (t={exc.time})", file=sys.stderr)
        return EXIT_BLOWUP
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
