"""Config round-trip, output file formats, CLI exit codes."""

import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nsdv.cli
from conftest import CONFIG_DIR, SHIPPED, shipped_scenario
from nsdv import io
from nsdv.cli import main, mms_convergence
from nsdv.diagnostics import FLAG_ORDER, build_series
from nsdv.effective import compute_effective_fields
from nsdv.errors import ConfigError, DomainExitError, HomeomorphismError, VacuumBlowup
from nsdv.eulerian import SolverConfig, run, step_primitive
from nsdv.initdata import (
    InitialData,
    ScenarioConfig,
    build_initial,
    manufactured_boundary,
    manufactured_exact,
    manufactured_source,
)
from nsdv.model import FluidState, Grid1D, ModelParams

REPO = Path(__file__).resolve().parent.parent
# for a child interpreter that imports nsdv from this checkout
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def started(monkeypatch):
    """Every process started through subprocess.Popen during the test."""
    processes = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        processes.append(real_popen(*args, **kwargs))
        return processes[-1]

    monkeypatch.setattr(io.subprocess, "Popen", recording_popen)
    return processes


def assert_writers_reaped(processes):
    writers = [p for p in processes if p.args[0] == sys.executable]
    assert writers, "no snapshot writer process was started"
    assert all(p.returncode is not None for p in writers)


# A snapshot writer child that reads its first message, then reports a failure.
FAILING_CHILD = (
    "import pickle, sys; pickle.load(sys.stdin.buffer); "
    "pickle.dump((OSError('planted'), 'planted traceback'), sys.stdout.buffer)"
)


def entries(root):
    """Every path under root, hidden ones included: file bytes, None for a directory."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def small_cfg(**solver_kw):
    solver_kw = {"t_end": 0.2, "output_cadence": 0.1, **solver_kw}
    return shipped_scenario("smooth_bump", 129, **solver_kw)


class TestConfigRoundTrip:
    def test_identity_on_presets(self):
        for path in SHIPPED:
            cfg = io.load_config(path)
            text = io.serialize_config(cfg)
            assert io.parse_config(text) == cfg
            assert io.serialize_config(io.parse_config(text)) == text

    def test_identity_with_optional_fields(self):
        cfg = small_cfg(dt_override=1e-3, advection_order=1)
        assert io.parse_config(io.serialize_config(cfg)) == cfg

    def test_identity_from_v0(self):
        for init in (
            InitialData(kind="from_v0", profile="vstep_down", mollifier_n=8),
            InitialData(kind="shock_like", jump=0.2, steepness=3.0),
            InitialData(kind="rarefaction", amplitude=0.1),
            InitialData(kind="equilibrium"),
        ):
            cfg = ScenarioConfig(
                model=ModelParams(alpha=0.75, gamma=2.0, half_length=10.0),
                n_cells=65,
                solver=SolverConfig(t_end=1.0, output_cadence=0.5),
                initial=init,
            )
            assert io.parse_config(io.serialize_config(cfg)) == cfg

    def test_shipped_configs_parse(self):
        names = {p.name for p in SHIPPED}
        assert {"smooth_bump.cfg", "rarefaction.cfg", "steepening.cfg",
                "constantin.cfg", "equilibrium.cfg", "vacuum_stress.cfg"} <= names
        for path in SHIPPED:
            io.load_config(path)

    def test_readme_example_parses(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        assert io.parse_config(block).initial.kind == "smooth_bump"

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            io.parse_config("[model]\nalpha 0.75\n")
        with pytest.raises(ConfigError):
            io.parse_config("[model]\nalpha = 0.75\n")  # missing keys
        with pytest.raises(ConfigError):
            io.parse_config(io.serialize_config(small_cfg()).replace("2.0", "two"))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The run directory `nsdv run` writes for small_cfg(), that config, and
    the trajectory `run` computes for it."""
    cfg = small_cfg()
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    io.save_config(cfg, path)
    out = tmp_path_factory.mktemp("out")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    (d,) = out.iterdir()
    state, _, _ = build_initial(cfg)
    return d, cfg, run(state, cfg.solver, cfg.grid(), cfg.model)


class TestOutputs:
    def test_layout(self, run_dir):
        d, cfg, traj = run_dir
        assert d.name == f"run-{io.config_hash(cfg)}"
        assert (d / "manifest.json").exists()
        assert (d / "diagnostics.csv").exists()
        assert (d / "config.cfg").exists()
        snaps = sorted((d / "snapshots").glob("snap_*.csv"))
        assert len(snaps) == len(traj.snapshots)
        assert (d / "plots" / "energy.dat").exists()

    def test_every_file_has_footer(self, run_dir):
        d, cfg, _ = run_dir
        h = io.config_hash(cfg)
        for path in d.rglob("*"):
            if path.is_file():
                last = path.read_text().splitlines()[-1]
                assert last.startswith("# build "), path
                assert last.endswith(f"config {h}"), path

    def test_snapshot_roundtrip_exact(self, run_dir):
        d, cfg, traj = run_dir
        header, rows = io.read_csv_table(d / "snapshots" / "snap_00000.csv")
        assert header == io.SNAP_HEADER.split(",")
        arr = np.array(rows)
        grid = cfg.grid()
        eff = compute_effective_fields(traj.snapshots[0], grid, cfg.model)
        np.testing.assert_array_equal(arr[:, 0], grid.coords)  # repr round-trips
        np.testing.assert_array_equal(arr[:, 1], traj.snapshots[0].rho)
        np.testing.assert_array_equal(arr[:, 3], eff.v)

    def test_diagnostics_csv_schema(self, run_dir):
        d, _, traj = run_dir
        header, rows = io.read_csv_table(d / "diagnostics.csv")
        assert header == io.DIAG_HEADER.split(",")
        assert len(rows) == len(traj.snapshots)
        flags = rows[0][-1]
        assert isinstance(flags, str) and len(flags) == len(FLAG_ORDER)
        np.testing.assert_array_equal([r[0] for r in rows], traj.times)

    def test_manifest_readable(self, run_dir):
        d, cfg, traj = run_dir
        m = io.read_manifest(d / "manifest.json")
        assert m["config_hash"] == io.config_hash(cfg)
        assert len(m["times"]) == len(traj.snapshots)
        assert m["files"][0] == "snapshots/snap_00000.csv"
        assert m["flag_order"] == list(FLAG_ORDER)
        # raw text minus footer is strict JSON
        raw = (d / "manifest.json").read_text().splitlines()
        json.loads("\n".join(raw[:-1]))

    def test_git_describe_runs_at_most_three_times(self, tmp_path, monkeypatch):
        path = tmp_path / "small.cfg"
        io.save_config(small_cfg(), path)
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(io.subprocess, "run", counting_run)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert 1 <= len(calls) <= 3

    def test_snapshot_worker_failure_is_raised(self, tmp_path, started):
        # states on 129 nodes against a config on 257: the writer process fails
        cfg = small_cfg()
        state, _, _ = build_initial(cfg)
        with pytest.raises(ValueError) as info:
            with io.RunWriter(tmp_path, replace(cfg, n_cells=257)) as writer:
                traj = run(state, cfg.solver, cfg.grid(), cfg.model, on_snapshot=writer.record)
                writer.finish(traj, build_series(traj))
        assert "snapshot writer process" in str(info.value.__cause__)
        assert not list(tmp_path.iterdir())  # staging removed, no run directory
        assert_writers_reaped(started)

    def test_writer_that_fails_to_start_removes_its_stage(self, tmp_path, monkeypatch):
        def failing_popen(*args, **kwargs):
            raise OSError("planted: cannot start the writer")

        monkeypatch.setattr(io.subprocess, "Popen", failing_popen)
        with pytest.raises(OSError, match="planted"):
            with io.RunWriter(tmp_path, small_cfg()):
                pass
        assert not list(tmp_path.iterdir())

    def test_orphaned_writer_removes_its_stage(self, tmp_path):
        cfg = small_cfg()
        state, _, _ = build_initial(cfg)
        with io.RunWriter(tmp_path, cfg) as writer:
            writer.record(state)
            # what the child sees when the command is killed outright
            writer._child.stdin.close()
            assert writer._child.wait(timeout=120) == 0
            assert not list(tmp_path.iterdir())

    def test_config_hash_distinguishes(self):
        a = small_cfg()
        b = small_cfg(cfl_number=0.3)
        assert io.config_hash(a) != io.config_hash(b)


class TestCLI:
    def test_run_equilibrium_ok(self, tmp_path):
        code = main(["run", "--config", str(CONFIG_DIR / "equilibrium.cfg"),
                     "--out", str(tmp_path), "--cadence", "0.25"])
        assert code == 0
        assert list(tmp_path.glob("run-*/manifest.json"))

    def test_verify_equilibrium_ok(self, tmp_path, capsys):
        code = main(["verify", "--config", str(CONFIG_DIR / "equilibrium.cfg"),
                     "--out", str(tmp_path), "--cadence", "0.25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "monitor energy" in out and "ok" in out

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_bad_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nalpha = 0.1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_vacuum_stress_exits_5(self, tmp_path, capsys):
        code = main(["run", "--config", str(CONFIG_DIR / "vacuum_stress.cfg"),
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 5
        assert "blow-up detected at t=" in out

    def test_monitor_violation_exits_4(self, tmp_path, capsys):
        # deep density dip: w1(0) = 1 - rho^gamma exceeds the sign tolerance
        # while the Constantin hypothesis on du0/dx still holds
        cfg = ScenarioConfig(
            model=ModelParams(alpha=1.5, gamma=2.0, half_length=10.0),
            n_cells=257,
            solver=SolverConfig(t_end=0.1, output_cadence=0.05),
            initial=InitialData(kind="smooth_bump", amplitude=-0.6, width=1.5),
        )
        path = tmp_path / "violating.cfg"
        io.save_config(cfg, path)
        code = main(["verify", "--config", str(path), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 4
        assert "VIOLATED" in out

    def test_unstable_dt_exits_3(self, tmp_path):
        cfg = small_cfg(t_end=2.0, output_cadence=1.0, diffusion_treatment="explicit",
                        dt_override=float(Grid1D(129, 10.0).dx))
        path = tmp_path / "unstable.cfg"
        io.save_config(cfg, path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("failure", ["unstable-dt-exit-3", "negative-density-exit-2"])
    def test_failed_run_leaves_no_run_directory(self, tmp_path, failure, started):
        if failure == "unstable-dt-exit-3":
            cfg = small_cfg(t_end=2.0, output_cadence=1.0, diffusion_treatment="explicit",
                            dt_override=float(Grid1D(129, 10.0).dx))
            code = 3
        else:
            cfg = replace(small_cfg(), initial=InitialData(kind="smooth_bump", amplitude=-1.5,
                                                           width=1.0))
            code = 2
        path = tmp_path / "failing.cfg"
        io.save_config(cfg, path)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--config", str(path), "--out", str(out)]) == code
        assert not list(out.iterdir())  # no run directory, no staging directory
        assert_writers_reaped(started)

    def test_snapshot_writer_failure_surfaces(self, tmp_path, started, monkeypatch):
        monkeypatch.setattr(io, "_CHILD", FAILING_CHILD)
        path = CONFIG_DIR / "equilibrium.cfg"
        outcome = []

        def command():
            try:
                outcome.append(main(["run", "--config", str(path), "--out", str(tmp_path)]))
            except Exception as exc:  # raising counts as surfacing, like a non-zero exit
                outcome.append(exc)

        thread = threading.Thread(target=command, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "command hung on a failed snapshot writer"
        (result,) = outcome
        assert isinstance(result, OSError) and str(result) == "planted", result
        assert not list(tmp_path.iterdir())
        assert_writers_reaped(started)

    RUN_EQUILIBRIUM = ["run", "--config", str(CONFIG_DIR / "equilibrium.cfg"), "--cadence", "0.25"]

    def test_rerun_replaces_the_run_directory_whole(self, tmp_path):
        assert main([*self.RUN_EQUILIBRIUM, "--out", str(tmp_path / "fresh")]) == 0
        (run_dir,) = (tmp_path / "fresh").iterdir()
        stray = tmp_path / "rerun" / run_dir.name / "snapshots" / "snap_00001.csv"
        stray.mkdir(parents=True)
        assert main([*self.RUN_EQUILIBRIUM, "--out", str(tmp_path / "rerun")]) == 0
        assert entries(tmp_path / "rerun") == entries(tmp_path / "fresh")

    def test_failed_rerun_leaves_the_old_tree(self, tmp_path, monkeypatch):
        assert main([*self.RUN_EQUILIBRIUM, "--out", str(tmp_path)]) == 0
        before = entries(tmp_path)
        monkeypatch.setattr(io, "_CHILD", FAILING_CHILD)
        with pytest.raises(OSError, match="planted"):
            main([*self.RUN_EQUILIBRIUM, "--out", str(tmp_path)])
        assert entries(tmp_path) == before

    def test_failed_swap_restores_the_old_tree(self, tmp_path, monkeypatch):
        assert main([*self.RUN_EQUILIBRIUM, "--out", str(tmp_path)]) == 0
        before = entries(tmp_path)
        real_replace = os.replace

        def replace_but_the_new_tree(src, dst):
            if Path(src).name == "run":  # the staged tree, RunWriter's second move
                raise OSError("planted")
            real_replace(src, dst)

        monkeypatch.setattr(io.os, "replace", replace_but_the_new_tree)
        with pytest.raises(OSError, match="planted"):
            main([*self.RUN_EQUILIBRIUM, "--out", str(tmp_path)])
        assert entries(tmp_path) == before

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_no_process_outlives_the_command(self, tmp_path):
        command = subprocess.Popen(
            [sys.executable, "-m", "nsdv.cli", "verify", "--config",
             str(CONFIG_DIR / "equilibrium.cfg"), "--cadence", "0.25", "--out", str(tmp_path)],
            env=SRC_ENV, stdout=subprocess.DEVNULL, start_new_session=True,
        )
        assert command.wait(timeout=120) == 0
        left = []
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):  # the process is gone
                continue
            if int(fields[3]) == command.pid:  # its session id
                left.append(stat.parent.name)
        assert not left, f"processes left in the command's session: {left}"

    def test_convergence_command(self, tmp_path, capsys):
        code = main(["convergence", "--id", "manufactured-1", "--levels", "2",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "order" in out
        assert (tmp_path / "convergence-manufactured-1.dat").exists()

    def test_twin_command(self, tmp_path, capsys):
        cfg = small_cfg()
        path = tmp_path / "twin.cfg"
        io.save_config(cfg, path)
        code = main(["twin", "--config", str(path), "--out", str(tmp_path),
                     "--epsilon", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kappa=" in out
        assert list(tmp_path.glob("twin-*.dat"))

    @pytest.mark.parametrize("epsilon, error", [
        ("nan", "epsilon must be finite and nonzero, got nan"),
        ("inf", "epsilon must be finite and nonzero, got inf"),
        ("0", "epsilon must be finite and nonzero, got 0"),
        # u0 = 0 there, so the perturbation is nonzero but its square underflows
        ("1e-300", "epsilon 1e-300 gives a perturbation of zero energy"),
        # the perturbation survives u0 but not the first step
        ("1e-30", "epsilon 1e-30 is lost to rounding: the two runs coincide from t=0.01"),
    ], ids=["nan", "inf", "0", "1e-300", "1e-30"])
    def test_twin_non_finite_epsilon_exits_2(self, tmp_path, capsys, epsilon, error):
        path = CONFIG_DIR / "twin_smooth_bump.cfg"
        code = main(["twin", "--config", str(path), "--out", str(tmp_path),
                     "--epsilon", epsilon])
        assert code == 2
        captured = capsys.readouterr()
        assert error in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.fixture
    def dat_tables(self, tmp_path):
        path = tmp_path / "twin.cfg"
        io.save_config(small_cfg(), path)
        assert main(["twin", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert main(["convergence", "--levels", "2", "--out", str(tmp_path)]) == 0
        tables = list(tmp_path.glob("twin-*.dat")) + list(tmp_path.glob("convergence-*.dat"))
        assert len(tables) == 2
        return tables

    def test_dat_tables_parse_as_floats(self, dat_tables):
        for table in dat_tables:
            for line in table.read_text(encoding="ascii").splitlines():
                if not line.startswith("#"):
                    for token in line.split():
                        float(token)

    def test_dat_tables_end_with_footer(self, dat_tables):
        twin, convergence = dat_tables
        tags = {twin: io.config_hash(small_cfg()), convergence: "manufactured-1"}
        for table, tag in tags.items():
            last = table.read_text(encoding="ascii").splitlines()[-1]
            assert re.fullmatch(rf"# build \S+ config {tag}", last), table

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("cfl_number = 0.4", "cfl_numbr = 0.4", "unknown config key 'cfl_numbr'"),
            ("kind = equilibrium", "kind = equilibrium\n\n[run]\nseed = 0",
             "unknown config section [run]"),
            ("t_end = 1.0", "t_end = inf", "t_end must be positive and finite"),
            ("cfl_number = 0.4", "cfl_number = 0.4\ncfl_number = 0.2", "set twice"),
            # InitialData's own ConfigError, not wrapped as a bad value
            ("kind = equilibrium", "kind = manufactured",
             "config error: unknown initial-data kind 'manufactured'\n"),
        ],
        ids=["key-typo", "unknown-section", "infinite-t_end", "duplicate-key",
             "manufactured-kind"],
    )
    def test_rejected_config_exits_2(self, tmp_path, capsys, old, new, message):
        text = (CONFIG_DIR / "equilibrium.cfg").read_text(encoding="ascii")
        assert old in text
        path = tmp_path / "rejected.cfg"
        path.write_text(text.replace(old, new), encoding="ascii")
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("run-*"))

    def test_negative_density_config_is_config_error(self, tmp_path, capsys):
        text = (CONFIG_DIR / "smooth_bump.cfg").read_text(encoding="ascii")
        path = tmp_path / "negative.cfg"
        path.write_text(text.replace("amplitude = 0.1", "amplitude = -1.5"), encoding="ascii")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "non-positive density" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc, code", [(DomainExitError("left"), 2), (HomeomorphismError("folded"), 3)]
    )
    def test_flow_map_failures_map_to_exit_codes(self, tmp_path, monkeypatch, exc, code):
        def failing(args):
            raise exc

        monkeypatch.setattr(nsdv.cli, "cmd_twin", failing)
        path = CONFIG_DIR / "twin_smooth_bump.cfg"
        assert main(["twin", "--config", str(path), "--out", str(tmp_path)]) == code

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NSDV_OUT_DIR", str(tmp_path / "envroot"))
        code = main(["run", "--config", str(CONFIG_DIR / "equilibrium.cfg"),
                     "--cadence", "0.5"])
        assert code == 0
        assert list((tmp_path / "envroot").glob("run-*"))


def test_mms_convergence_monotone():
    rows = mms_convergence("manufactured-1", 2, base_n=65, t_end=0.25)
    assert rows[1]["err"] < rows[0]["err"]
    assert rows[1]["order"] >= 1.0


def test_mms_convergence_matches_run_reference():
    # reference: each level stepped by a plain loop of step_primitive, with
    # the source at t and the exact boundary at t + h, and the same clipping
    # of the last step to t_end as drive()
    rows = mms_convergence("manufactured-1", 2, base_n=65, t_end=0.25)
    p = ModelParams(alpha=0.75, gamma=2.0, half_length=np.pi)
    ref = []
    for n in (65, 129):
        grid = Grid1D(n, np.pi)
        dt = 0.25 * grid.dx**2
        cfg = SolverConfig(t_end=0.25, output_cadence=0.25, dt_override=dt)
        final = FluidState(0.0, *manufactured_exact("manufactured-1", 0.0, grid, p))
        t = 0.0
        while t < 0.25 - 1e-12:
            h = min(dt, 0.25 - t)
            final = step_primitive(
                final, h, grid, cfg, p,
                forcing=manufactured_source("manufactured-1", t, grid, p),
                boundary=manufactured_boundary("manufactured-1", t + h, grid, p),
            )
            t += h
        rho_ex, u_ex = manufactured_exact("manufactured-1", final.time, grid, p)
        err = float(
            np.sqrt(np.sum((final.rho - rho_ex) ** 2) * grid.dx)
            + np.sqrt(np.sum((final.u - u_ex) ** 2) * grid.dx)
        )
        order = np.log2(ref[-1][3] / err) if ref else float("nan")
        ref.append([n, grid.dx, dt, err, order])
    keys = ("n", "dx", "dt", "err", "order")
    np.testing.assert_array_equal([[r[k] for k in keys] for r in rows], ref)


def test_mms_convergence_zero_error_has_nan_order():
    rows = mms_convergence("manufactured-zero", 2, base_n=9, t_end=0.01)
    assert [r["err"] for r in rows] == [0.0, 0.0]
    assert all(np.isnan(r["order"]) for r in rows)


def test_convergence_zero_error_exits_0(tmp_path, capsys):
    code = main(["convergence", "--id", "manufactured-zero", "--levels", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "nan" in capsys.readouterr().out
    table = (tmp_path / "convergence-manufactured-zero.dat").read_text(encoding="ascii")
    rows = [line.split() for line in table.splitlines() if not line.startswith("#")]
    assert [(r[3], r[4]) for r in rows] == [("0.0", "nan"), ("0.0", "nan")]


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_convergence_without_levels_exits_2(tmp_path, capsys, levels):
    code = main(["convergence", "--levels", levels, "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "levels must be at least 1" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_package_import_loads_no_submodule():
    code = "import sys, nsdv; print(sorted(m for m in sys.modules if m.startswith('nsdv.')))"
    out = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_only_the_tridiagonal_solve_imports_scipy():
    """The snapshot writer child (its own code, stdin at end of file) and
    the command line load no scipy module; the first solve loads it."""
    scipy_modules = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    code = "\n".join([
        io._CHILD, scipy_modules,
        "import nsdv.cli", scipy_modules,
        "import numpy as np; from nsdv.stencils import solve_tridiagonal",
        "solve_tridiagonal(np.zeros(3), np.ones(3), np.zeros(3), np.ones(3))",
        "print('scipy.linalg' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code, str(REPO / "src")],
                         stdin=subprocess.DEVNULL, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split("\n") == ["[]", "[]", "True", ""]


def test_without_scipy_only_the_implicit_solve_fails(tmp_path, capsys):
    """With scipy blocked, an effective-formulation verify (no implicit
    solve) gives the usual verdicts; a semi-implicit run fails at its first
    step and leaves nothing under its output root."""
    effective = tmp_path / "effective.cfg"
    io.save_config(small_cfg(formulation="effective"), effective)
    primitive = tmp_path / "primitive.cfg"
    io.save_config(small_cfg(), primitive)
    code = "\n".join([
        "import sys; sys.modules['scipy'] = None",
        "from nsdv.cli import main",
        "assert main(sys.argv[1:6]) == 0",
        "main(sys.argv[6:])",
    ])
    failed = tmp_path / "failed"
    with subprocess.Popen(
        [sys.executable, "-c", code,
         "verify", "--config", str(effective), "--out", str(tmp_path / "blocked"),
         "verify", "--config", str(primitive), "--out", str(failed)],
        env=SRC_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as blocked:
        # the unblocked run meanwhile, in this process
        assert main(["verify", "--config", str(effective), "--out", str(tmp_path / "open")]) == 0
        verdicts = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("monitor")]
        out, err = blocked.communicate(timeout=60)
    assert blocked.returncode != 0
    assert "ModuleNotFoundError" in err and "scipy" in err
    assert [line for line in out.splitlines() if line.startswith("monitor")] == verdicts
    assert not list(failed.iterdir())  # no run directory, no staging directory


def blow_up_at(monkeypatch, n_cells):
    """Make every step on the n_cells level of the study end in a VacuumBlowup."""
    real = nsdv.cli.manufactured_source

    def source(mms_id, t, grid, p):
        if grid.n_cells == n_cells and t > 0.1:
            raise VacuumBlowup(f"planted at t={t:.6g}", time=t, node=7)
        return real(mms_id, t, grid, p)

    monkeypatch.setattr(nsdv.cli, "manufactured_source", source)


def test_mms_convergence_raises_blowup(monkeypatch):
    blow_up_at(monkeypatch, 65)
    with pytest.raises(VacuumBlowup) as err:
        mms_convergence("manufactured-1", 2, base_n=65, t_end=0.25)
    assert err.value.node == 7 and 0.1 < err.value.time < 0.25


def test_convergence_blowup_exits_5(monkeypatch, tmp_path, capsys):
    blow_up_at(monkeypatch, 257)  # the last of the two default levels
    code = main(["convergence", "--levels", "2", "--out", str(tmp_path)])
    assert code == 5
    assert "blow-up: planted" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_write_table_matches_per_cell_repr(tmp_path):
    floats = [-0.0, 5e-324, 0.1, 1 / 3, 1e16, float("nan"), float("inf")]
    rows = [(floats, 129, "0100000"), ([-v for v in floats], 257, "0000001")]
    cols = [np.array([r[0][j] for r in rows]) for j in range(len(floats))]
    cols += [[r[1] for r in rows], [r[2] for r in rows]]
    path = tmp_path / "table.csv"
    io.write_table(path, "h", cols, "# build b config c")
    # reference: the per-cell path the writers used before write_table
    body = [",".join([*(io.fmt(v) for v in f), str(n), flags]) for f, n, flags in rows]
    expected = "\n".join(["h", *body, "# build b config c"]) + "\n"
    assert path.read_bytes() == expected.encode("ascii")
