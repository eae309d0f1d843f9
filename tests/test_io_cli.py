"""Config round-trip, output file formats, CLI exit codes."""

import ast
import errno
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import threading
from dataclasses import replace
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest

import nsdv.cli
from conftest import (
    CONFIG_DIR,
    SHIPPED,
    read_csv_table,
    read_manifest,
    save_config,
    shipped_scenario,
)
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
    """The run directory `nsdv run` writes for small_cfg(), that config, the
    trajectory `run` computes for it, and the (state, effective fields)
    pairs that run hands to its on_snapshot hook."""
    cfg = small_cfg()
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    save_config(cfg, path)
    out = tmp_path_factory.mktemp("out")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    (d,) = out.iterdir()
    state = build_initial(cfg)
    recorded = []
    traj = run(state, cfg.solver, cfg.grid(), cfg.model,
               on_snapshot=lambda state, eff: recorded.append((state, eff)))
    return d, cfg, traj, recorded


class TestOutputs:
    def test_layout(self, run_dir):
        d, cfg, traj, _ = run_dir
        assert d.name == f"run-{io.config_hash(cfg)}"
        assert (d / "manifest.json").exists()
        assert (d / "diagnostics.csv").exists()
        assert (d / "config.cfg").exists()
        snaps = sorted((d / "snapshots").glob("snap_*.csv"))
        assert len(snaps) == len(traj.times)
        assert (d / "plots" / "energy.dat").exists()

    def test_every_file_has_footer(self, run_dir):
        d, cfg, _, _ = run_dir
        h = io.config_hash(cfg)
        for path in d.rglob("*"):
            if path.is_file():
                last = path.read_text().splitlines()[-1]
                assert last.startswith("# build "), path
                assert last.endswith(f"config {h}"), path

    @pytest.mark.parametrize("which", ["first", "last"])
    def test_snapshot_roundtrip_exact(self, run_dir, which):
        # the CSV holds bitwise the state and fields handed to on_snapshot;
        # at t=0 u is 0, the last snapshot is a moving state
        d, cfg, _, recorded = run_dir
        k = 0 if which == "first" else len(recorded) - 1
        header, rows = read_csv_table(d / io.SNAP_NAME.format(k))
        assert header == io.SNAP_HEADER.split(",")
        arr = np.array(rows)
        s, eff = recorded[k]
        assert (which == "last") == bool(np.any(s.u != 0.0))
        # repr round-trips every column bitwise
        expected = (cfg.grid().coords, s.rho, s.u, eff.v, eff.w1, eff.y, eff.udot)
        for col, want in enumerate(expected):
            np.testing.assert_array_equal(arr[:, col], want, err_msg=header[col])

    def test_diagnostics_csv_schema(self, run_dir):
        d, _, traj, _ = run_dir
        header, rows = read_csv_table(d / "diagnostics.csv")
        assert header == io.DIAG_HEADER.split(",")
        assert len(rows) == len(traj.times)
        flags = rows[0][-1]
        assert isinstance(flags, str) and len(flags) == len(FLAG_ORDER)
        np.testing.assert_array_equal([r[0] for r in rows], traj.times)

    def test_manifest_readable(self, run_dir):
        d, cfg, traj, _ = run_dir
        m = read_manifest(d / "manifest.json")
        assert m["config_hash"] == io.config_hash(cfg)
        assert m["times"] == traj.times.tolist()
        assert m["files"][0] == "snapshots/snap_00000.csv"
        assert m["flag_order"] == list(FLAG_ORDER)
        # raw text minus footer is strict JSON
        raw = (d / "manifest.json").read_text().splitlines()
        json.loads("\n".join(raw[:-1]))

    def test_git_describe_runs_at_most_three_times(self, tmp_path, monkeypatch):
        path = tmp_path / "small.cfg"
        save_config(small_cfg(), path)
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
        state = build_initial(cfg)
        with pytest.raises(ValueError) as info:
            with io.RunWriter(tmp_path, replace(cfg, n_cells=257)) as writer:
                traj = run(state, cfg.solver, cfg.grid(), cfg.model, on_snapshot=writer.record)
                writer.finish(build_series(traj))
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
        state = build_initial(cfg)
        with io.RunWriter(tmp_path, cfg) as writer:
            writer.record(state, compute_effective_fields(state, cfg.grid(), cfg.model))
            # what the child sees when the command is killed outright
            writer._child.stdin.close()
            assert writer._child.wait(timeout=120) == 0
            assert not list(tmp_path.iterdir())

    def test_writer_child_only_formats(self, tmp_path, monkeypatch):
        """The child's body, driven in this process from the state files
        `record` saves, writes every snapshot CSV without evaluating a
        field: compute_effective_fields raises wherever nsdv binds it."""
        cfg = small_cfg()
        recorded = []
        run(build_initial(cfg), cfg.solver, cfg.grid(), cfg.model,
            on_snapshot=lambda state, eff: recorded.append((state, eff)))

        def boom(*args, **kwargs):
            raise AssertionError("the snapshot writer evaluated a field")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "nsdv" and hasattr(module, "compute_effective_fields"):
                monkeypatch.setattr(module, "compute_effective_fields", boom)
        # a writer without its child: what record sends is kept here instead
        tree = tmp_path / "run"
        (tree / "snapshots").mkdir(parents=True)
        writer = io.RunWriter(tmp_path, cfg)
        writer._tree, sent = tree, [(tree, cfg, "# footer")]
        writer._send = sent.append
        for state, eff in recorded:
            writer.record(state, eff)
        requests = b"".join(pickle.dumps(message) for message in [*sent, None])
        report = BytesIO()
        io._write_snapshots(BytesIO(requests), report)
        assert pickle.loads(report.getvalue()) is None
        assert not list(tree.glob(".state_*"))
        assert len(recorded) == len(list((tree / "snapshots").iterdir())) == 3
        for k, (s, eff) in enumerate(recorded):
            _, rows = read_csv_table(tree / io.SNAP_NAME.format(k))
            expected = (cfg.grid().coords, s.rho, s.u, eff.v, eff.w1, eff.y, eff.udot)
            np.testing.assert_array_equal(np.array(rows).T, expected)

    def test_config_hash_distinguishes(self):
        a = small_cfg()
        b = small_cfg(cfl_number=0.3)
        assert io.config_hash(a) != io.config_hash(b)

    def test_config_hash_is_sha256_of_the_config_text(self):
        for path in SHIPPED:
            cfg = io.load_config(path)
            text = io.serialize_config(cfg).encode("ascii")
            assert io.config_hash(cfg) == hashlib.sha256(text).hexdigest()[:12], path.name
        assert io.config_hash(io.load_config(CONFIG_DIR / "smooth_bump.cfg")) == "4ac24a513df5"

    def test_config_hash_falls_back_to_hashlib(self):
        """Without CPython's built-in SHA-256 the hash comes from hashlib,
        and is the same."""
        code = "\n".join([
            "import sys",
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None",
            "from nsdv import io",
            "print(io.config_hash(io.load_config(sys.argv[1])), '_hashlib' in sys.modules)",
        ])
        out = subprocess.run([sys.executable, "-c", code, str(CONFIG_DIR / "smooth_bump.cfg")],
                             env=SRC_ENV, capture_output=True, text=True, check=True,
                             timeout=60).stdout
        assert out == "4ac24a513df5 True\n"


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

    @pytest.mark.parametrize("kind", ["missing", "directory", "non_ascii"])
    def test_missing_config_is_config_error(self, tmp_path, capsys, kind):
        """A config that cannot be read as ASCII text exits 2 with one line
        that names it, and writes nothing."""
        path = tmp_path / "scenario.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "non_ascii":
            text = (CONFIG_DIR / "smooth_bump.cfg").read_text(encoding="ascii")
            path.write_bytes(("# \u03b1 = 0.75\n" + text).encode("utf-8"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(path) in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify", "convergence", "twin"])
    def test_out_naming_a_file_is_input_error(self, tmp_path, capsys, monkeypatch, command):
        """An output root that is a file, or lies under one, exits 2 before
        the command integrates anything, and leaves the file as it was."""
        def never(*args, **kwargs):
            raise AssertionError("the command went past its output root")

        for name in ("run", "mms_convergence", "twin_run_stability"):
            monkeypatch.setattr(nsdv.cli, name, never)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        args = (["--levels", "1"] if command == "convergence"
                else ["--config", str(CONFIG_DIR / "twin_smooth_bump.cfg")])
        for out in (afile, afile / "sub"):
            assert main([command, *args, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"input error: output root {out}: {afile} is not a directory\n"
        assert afile.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.parametrize("source", ["--out", "NSDV_OUT_DIR"])
    @pytest.mark.parametrize("case", ["name_too_long", "symlink_loop"])
    @pytest.mark.parametrize("command", ["run", "verify", "convergence", "twin"])
    def test_out_that_cannot_be_inspected_is_input_error(self, tmp_path, capsys, monkeypatch,
                                                          command, case, source):
        """An output root whose name is too long, or that lies under a
        symlink loop, exits 2 with one line naming it and the OS reason,
        before the command computes anything, and creates nothing."""
        def never(*args, **kwargs):
            raise AssertionError("the command went past its output root")

        for name in ("run", "mms_convergence", "twin_run_stability"):
            monkeypatch.setattr(nsdv.cli, name, never)
        if case == "name_too_long":
            out, reason = tmp_path / ("a" * 300), os.strerror(errno.ENAMETOOLONG)
        else:
            (tmp_path / "loop").symlink_to("loop")
            out, reason = tmp_path / "loop" / "x", os.strerror(errno.ELOOP)
        args = (["--levels", "1"] if command == "convergence"
                else ["--config", str(CONFIG_DIR / "twin_smooth_bump.cfg")])
        if source == "--out":
            args += ["--out", str(out)]
        else:
            monkeypatch.setenv("NSDV_OUT_DIR", str(out))
        assert main([command, *args]) == 2
        assert capsys.readouterr().err == f"input error: output root {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if case == "name_too_long"
                                                               else ["loop"])

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

    def test_three_node_run_ok(self, tmp_path):
        # the smallest grid: one interior node, which the implicit diffusion
        # solve couples to both Dirichlet ends
        path = tmp_path / "three_nodes.cfg"
        save_config(shipped_scenario("smooth_bump", 3), path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0

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
        save_config(cfg, path)
        code = main(["verify", "--config", str(path), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 4
        assert "VIOLATED" in out

    def test_unstable_dt_exits_3(self, tmp_path):
        cfg = small_cfg(t_end=2.0, output_cadence=1.0, diffusion_treatment="explicit",
                        dt_override=float(Grid1D(129, 10.0).dx))
        path = tmp_path / "unstable.cfg"
        save_config(cfg, path)
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
        save_config(cfg, path)
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
        save_config(cfg, path)
        code = main(["twin", "--config", str(path), "--out", str(tmp_path),
                     "--epsilon", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kappa=" in out
        assert list(tmp_path.glob("twin-*.dat"))

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["convergence", "twin"])
    def test_closed_stdout_exits_141_after_writing(self, tmp_path, command, unbuffered):
        # stdout is a pipe whose read end is closed before the command starts,
        # so the command's first print meets no reader
        if command == "twin":
            save_config(small_cfg(), tmp_path / "twin.cfg")
            args = ["twin", "--config", str(tmp_path / "twin.cfg")]
        else:
            args = ["convergence", "--levels", "1"]
        out = tmp_path / "out"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "nsdv.cli", *args, "--out", str(out)],
                env={**SRC_ENV, "PYTHONUNBUFFERED": unbuffered}, stdout=write_end,
                stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == nsdv.cli.EXIT_STDOUT_CLOSED == 141
        assert b"Traceback" not in done.stderr
        assert len(list(out.glob(f"{command}-*.dat"))) == 1

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

    def test_twin_effective_formulation_exits_2(self, tmp_path, capsys):
        text = (CONFIG_DIR / "twin_smooth_bump.cfg").read_text(encoding="ascii")
        path = tmp_path / "cfg" / "effective.cfg"
        path.parent.mkdir()
        path.write_text(text.replace("formulation = primitive", "formulation = effective"),
                        encoding="ascii")
        out = tmp_path / "out"
        assert main(["twin", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error: twin steps the primitive solver" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.fixture
    def dat_tables(self, tmp_path):
        path = tmp_path / "twin.cfg"
        save_config(small_cfg(), path)
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
            # non-finite model parameters, refused before the solver sees them
            ("gamma = 2.0", "gamma = inf", "gamma must be finite, got inf"),
            ("half_length = 10.0", "half_length = inf", "half_length must be finite, got inf"),
        ],
        ids=["key-typo", "unknown-section", "infinite-t_end", "duplicate-key",
             "manufactured-kind", "gamma-inf", "half_length-inf"],
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
        "old, new, message",
        [
            # a zero width divides by zero into a flat state that passes every monitor
            ("width = 1.0", "width = 0.0", "config error: width must be positive, got 0.0\n"),
            ("width = 1.0", "width = nan", "config error: width must be finite: nan\n"),
            ("amplitude = 0.1", "amplitude = nan",
             "config error: amplitude must be finite: nan\n"),
        ],
        ids=["zero-width", "nan-width", "nan-amplitude"],
    )
    def test_bad_initial_data_exits_2(self, tmp_path, capsys, old, new, message):
        text = (CONFIG_DIR / "smooth_bump.cfg").read_text(encoding="ascii")
        assert old in text
        path = tmp_path / "bad_initial.cfg"
        path.write_text(text.replace(old, new), encoding="ascii")
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(message)
        assert captured.out == ""
        assert not list(tmp_path.glob("run-*"))

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


def study_reference(base_n, levels, t_end):
    """The study's rows from a plain loop of step_primitive per level, with
    the source evaluated at each step's start time t on its own, the exact
    boundary at t + h, and the same clipping of the last step to t_end as
    drive().  Also returns each level's step count and last step."""
    p = ModelParams(alpha=0.75, gamma=2.0, half_length=np.pi)
    ref, steps = [], []
    for lvl in range(levels):
        n = (base_n - 1) * 2**lvl + 1
        grid = Grid1D(n, np.pi)
        dt = 0.25 * grid.dx**2
        cfg = SolverConfig(t_end=t_end, output_cadence=t_end, dt_override=dt)
        final = FluidState(0.0, *manufactured_exact("manufactured-1", 0.0, grid, p))
        t, count = 0.0, 0
        while t < t_end - 1e-12 * max(1.0, t_end):
            h = min(dt, t_end - t)
            final = step_primitive(
                final, h, grid, cfg, p,
                forcing=manufactured_source("manufactured-1", t, grid, p),
                boundary=manufactured_boundary("manufactured-1", t + h, grid, p),
            )
            t += h
            count += 1
        steps.append((count, h, dt))
        rho_ex, u_ex = manufactured_exact("manufactured-1", final.time, grid, p)
        err = float(
            np.sqrt(np.sum((final.rho - rho_ex) ** 2) * grid.dx)
            + np.sqrt(np.sum((final.u - u_ex) ** 2) * grid.dx)
        )
        order = np.log2(ref[-1][3] / err) if ref else float("nan")
        ref.append([n, grid.dx, dt, err, order])
    return ref, steps


STUDY_KEYS = ("n", "dx", "dt", "err", "order")


def test_mms_convergence_matches_run_reference():
    rows = mms_convergence("manufactured-1", 2, base_n=65, t_end=0.25)
    ref, _ = study_reference(65, 2, 0.25)
    np.testing.assert_array_equal([[r[k] for k in STUDY_KEYS] for r in rows], ref)


def test_mms_convergence_blocked_source_matches_per_step_source():
    # the study evaluates its source eight step times at once; a t_end that
    # is no multiple of dt clips the last step, and step counts that are no
    # multiple of 8 end each level inside a block
    rows = mms_convergence("manufactured-1", 2, base_n=33, t_end=0.04)
    ref, steps = study_reference(33, 2, 0.04)
    for count, last, dt in steps:
        assert 0.0 < last < dt and count % nsdv.cli.MMS_BLOCK != 0
    np.testing.assert_array_equal([[r[k] for k in STUDY_KEYS] for r in rows], ref)


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


def test_no_module_imports_a_private_name_of_another():
    """No nsdv module imports an underscored name from another: what two
    modules share is public in one of them."""
    private = []
    for path in sorted((REPO / "src" / "nsdv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "nsdv"
            ):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_package_import_loads_no_submodule():
    code = "import sys, nsdv; print(sorted(m for m in sys.modules if m.startswith('nsdv.')))"
    out = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_only_the_tridiagonal_solve_imports_scipy():
    """The snapshot writer child (its own code, stdin at end of file), the
    command line and the first solve load no scipy module, and no hashlib
    (which loads OpenSSL): the solve takes dptsv from the LAPACK numpy has
    loaded, or else loads scipy's `_flapack` module on its own."""
    scipy_modules = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    no_hashlib = "assert not {'hashlib', '_hashlib'} & set(sys.modules)"
    code = "\n".join([
        io._CHILD, scipy_modules, no_hashlib,
        "import nsdv.cli", scipy_modules, no_hashlib,
        "import numpy as np; from nsdv.stencils import solve_tridiagonal",
        "solve_tridiagonal(np.ones(3), np.zeros(2), np.ones(3))",
        scipy_modules, no_hashlib,
    ])
    out = subprocess.run([sys.executable, "-c", code, str(REPO / "src")],
                         stdin=subprocess.DEVNULL, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split("\n") == ["[]", "[]", "[]", ""]


def test_primitive_verify_loads_no_scipy_linalg(tmp_path):
    """A semi-implicit verify in a fresh interpreter solves at every step
    and still ends with no scipy module loaded, and no hashlib."""
    primitive = tmp_path / "primitive.cfg"
    save_config(small_cfg(), primitive)
    code = "\n".join([
        "import sys",
        "from nsdv.cli import main",
        "assert main(sys.argv[1:]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),",
        "      *(m in sys.modules for m in ('hashlib', '_hashlib')))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code,
         "verify", "--config", str(primitive), "--out", str(tmp_path / "out")],
        env=SRC_ENV, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.splitlines()[-1] == "[] False False"


def monitor_lines(text):
    return [line for line in text.splitlines() if line.startswith("monitor")]


def test_without_scipy_a_semi_implicit_run_succeeds(tmp_path, capsys):
    """With scipy blocked, a semi-implicit verify takes dptsv from numpy's
    LAPACK and gives the same verdicts as an unblocked one."""
    primitive = tmp_path / "primitive.cfg"
    save_config(small_cfg(), primitive)
    code = "\n".join([
        "import sys; sys.modules['scipy'] = None",
        "from nsdv import stencils",
        "if stencils._numpy_ptsv() is None: sys.exit(77)",
        "from nsdv.cli import main",
        "sys.exit(main(sys.argv[1:]))",
    ])
    blocked = subprocess.run(
        [sys.executable, "-c", code,
         "verify", "--config", str(primitive), "--out", str(tmp_path / "blocked")],
        env=SRC_ENV, capture_output=True, text=True, timeout=60,
    )
    if blocked.returncode == 77:
        pytest.skip("numpy's LAPACK exports no ILP64 dptsv")
    assert main(["verify", "--config", str(primitive), "--out", str(tmp_path / "open")]) == 0
    verdicts = monitor_lines(capsys.readouterr().out)
    assert blocked.returncode == 0, blocked.stderr
    assert verdicts and monitor_lines(blocked.stdout) == verdicts


def test_without_scipy_only_the_implicit_solve_fails(tmp_path, capsys):
    """With scipy blocked and numpy's dptsv names hidden, an
    effective-formulation verify (no implicit solve) gives the usual
    verdicts; a semi-implicit run fails at its first step and leaves nothing
    under its output root."""
    effective = tmp_path / "effective.cfg"
    save_config(small_cfg(formulation="effective"), effective)
    primitive = tmp_path / "primitive.cfg"
    save_config(small_cfg(), primitive)
    code = "\n".join([
        "import sys; sys.modules['scipy'] = None",
        "from nsdv import stencils; stencils.NUMPY_PTSV_NAMES = ('no_such_dptsv_',)",
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
        verdicts = monitor_lines(capsys.readouterr().out)
        out, err = blocked.communicate(timeout=60)
    assert blocked.returncode != 0
    assert "ModuleNotFoundError" in err and "scipy" in err
    assert monitor_lines(out) == verdicts
    assert not list(failed.iterdir())  # no run directory, no staging directory


def blow_up_at(monkeypatch, n_cells):
    """Make the study's source on the n_cells level raise a VacuumBlowup at
    the first of its times past 0.1."""
    real = nsdv.cli.manufactured_source

    def source(mms_id, t, grid, p):
        late = [s for s in np.atleast_1d(t).tolist() if s > 0.1]
        if grid.n_cells == n_cells and late:
            raise VacuumBlowup(f"planted at t={late[0]:.6g}", time=late[0], node=7)
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


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_write_table_blocks_match_one_block(tmp_path, monkeypatch, block_rows):
    # blocks of 1, 2 and 3 rows end inside the 3-row table or at its end; an
    # object column of str (as the snapshot writer passes x) prints as it is
    cols = [np.array(["-1.0", "0.5", "2.0"], dtype=object), np.array([0.1, 1 / 3, -0.0]),
            [129, 257, 513], ["010", "001", "100"]]
    io.write_table(tmp_path / "one.csv", "h", cols, "# f")
    monkeypatch.setattr(io, "TABLE_BLOCK_ROWS", block_rows)
    io.write_table(tmp_path / "blocks.csv", "h", cols, "# f")
    text = (tmp_path / "blocks.csv").read_text(encoding="ascii")
    assert text == (tmp_path / "one.csv").read_text(encoding="ascii")
    assert text.splitlines()[1:4] == ["-1.0,0.1,129,010", "0.5,0.3333333333333333,257,001",
                                      "2.0,-0.0,513,100"]


def test_write_table_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        io.write_table(tmp_path / "t.csv", "h", [np.zeros(3), np.zeros(2)], "# f")
