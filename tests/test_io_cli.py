"""Config round-trip, output file formats, CLI exit codes."""

import json
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

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    def test_dat_tables_parse_as_floats(self, tmp_path):
        path = tmp_path / "twin.cfg"
        io.save_config(small_cfg(), path)
        assert main(["twin", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert main(["convergence", "--levels", "2", "--out", str(tmp_path)]) == 0
        tables = list(tmp_path.glob("twin-*.dat")) + list(tmp_path.glob("convergence-*.dat"))
        assert len(tables) == 2
        for table in tables:
            for line in table.read_text(encoding="ascii").splitlines():
                if not line.startswith("#"):
                    for token in line.split():
                        float(token)

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
