"""Config round-trip, output file formats, CLI exit codes."""

import json
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest

import nsdv
import nsdv.cli
from nsdv import io
from nsdv.cli import main, mms_convergence
from nsdv.diagnostics import FLAG_ORDER
from nsdv.effective import compute_effective_fields
from nsdv.errors import ConfigError, DomainExitError, HomeomorphismError
from nsdv.eulerian import SolverConfig, run
from nsdv.initdata import InitialData, ScenarioConfig, build_initial, regression_scenarios
from nsdv.model import ModelParams

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


def small_cfg(**solver_kw):
    solver_kw = {"t_end": 0.2, "output_cadence": 0.1, **solver_kw}
    solver = SolverConfig(**solver_kw)
    return ScenarioConfig(
        model=ModelParams(alpha=0.75, gamma=2.0, half_length=10.0),
        n_cells=129,
        solver=solver,
        initial=InitialData(kind="smooth_bump", amplitude=0.1, width=1.0),
    )


class TestConfigRoundTrip:
    def test_identity_on_presets(self):
        for cfg in regression_scenarios(n_cells=257).values():
            text = io.serialize_config(cfg)
            assert io.parse_config(text) == cfg
            assert io.serialize_config(io.parse_config(text)) == text

    def test_identity_with_optional_fields(self):
        cfg = small_cfg(dt_override=1e-3, advection_order=1)
        assert io.parse_config(io.serialize_config(cfg)) == cfg

    def test_identity_from_v0_and_manufactured(self):
        for init in (
            InitialData(kind="from_v0", profile="vstep_down", mollifier_n=8),
            InitialData(kind="manufactured", mms_id="manufactured-1"),
            InitialData(kind="shock_like", jump=0.2, steepness=3.0),
            InitialData(kind="rarefaction", amplitude=0.1),
            InitialData(kind="equilibrium"),
        ):
            cfg = ScenarioConfig(
                model=ModelParams(alpha=0.75, gamma=2.0, half_length=10.0),
                n_cells=65,
                solver=SolverConfig(t_end=1.0, output_cadence=0.5),
                initial=init,
                seed=3,
            )
            assert io.parse_config(io.serialize_config(cfg)) == cfg

    def test_shipped_configs_parse(self):
        names = {p.name for p in CONFIG_DIR.glob("*.cfg")}
        assert {"smooth_bump.cfg", "rarefaction.cfg", "steepening.cfg",
                "constantin.cfg", "equilibrium.cfg", "vacuum_stress.cfg"} <= names
        for path in CONFIG_DIR.glob("*.cfg"):
            io.load_config(path)

    def test_shipped_regression_configs_match_registry(self):
        scenarios = regression_scenarios()
        for name, cfg in scenarios.items():
            assert io.load_config(CONFIG_DIR / f"{name}.cfg") == cfg

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
    cfg = small_cfg()
    state, _, _ = build_initial(cfg)
    traj = run(state, cfg.solver, cfg.grid(), cfg.model)
    out = tmp_path_factory.mktemp("out")
    return io.emit_run_outputs(out, cfg, traj), cfg, traj


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
        cfg = small_cfg()
        state, _, _ = build_initial(cfg)
        traj = run(state, cfg.solver, cfg.grid(), cfg.model)
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(io.subprocess, "run", counting_run)
        io.emit_run_outputs(tmp_path, cfg, traj)
        assert 1 <= len(calls) <= 3

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
                        dt_override=float(nsdv.Grid1D(129, 10.0).dx))
        path = tmp_path / "unstable.cfg"
        io.save_config(cfg, path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3

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
            ("[run]", "[runs]", "unknown config section [runs]"),
            ("t_end = 1.0", "t_end = inf", "t_end must be positive and finite"),
            ("cfl_number = 0.4", "cfl_number = 0.4\ncfl_number = 0.2", "set twice"),
        ],
        ids=["key-typo", "unknown-section", "infinite-t_end", "duplicate-key"],
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
