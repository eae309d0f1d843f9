"""Config parsing/serialization and output file formats.

Config files are flat `key = value` text under bracketed section headers
(zero-dependency parsing in any language).  Snapshots are CSV with the header
x,rho,u,v,w1,y,udot, one file per output time plus a JSON manifest listing
times and file names.  The diagnostics series is a single CSV.  Every output
file ends with a footer line carrying a git-describe build id and the config
hash, so results are traceable to the exact inputs.  Floats are written with
shortest round-trip formatting, ASCII, LF line endings; every text table goes
through `write_table`.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np

from .diagnostics import FLAG_ORDER, DiagnosticSeries
from .errors import ConfigError
from .eulerian import SolverConfig
from .initdata import InitialData, ScenarioConfig
from .model import ModelParams

DIAG_HEADER = (
    "t,energy,energy_diss_accum,bd,bd_diss_accum,A,B,y_max,"
    "oleinik_slope,inv_rho_max,rho_max,bv_v,w1_max,flags"
)
# DiagnosticSeries fields behind the DIAG_HEADER columns; the flags column follows them.
DIAG_SERIES = (
    "times", "energy", "energy_diss_accum", "bd_entropy", "bd_diss_accum", "hoff_A", "hoff_B",
    "y_max", "oleinik_slope", "inv_rho_max", "rho_max", "bv_norm_v", "w1_max",
)
SNAP_HEADER = "x,rho,u,v,w1,y,udot"


def fmt(x) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def build_id() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "nsdv-0.1.0"


def footer(tag: str, build: str) -> str:
    """Last line of every output file: the build id and the config hash (or,
    for outputs that read no config, another identifying tag)."""
    return f"# build {build} config {tag}"


# ---------------------------------------------------------------- config text

def serialize_config(cfg: ScenarioConfig) -> str:
    lines = ["[model]"]
    m = cfg.model
    lines += [f"alpha = {fmt(m.alpha)}", f"gamma = {fmt(m.gamma)}", f"half_length = {fmt(m.half_length)}"]
    lines += ["", "[grid]", f"n_cells = {cfg.n_cells}"]
    s = cfg.solver
    lines += [
        "",
        "[solver]",
        f"cfl_number = {fmt(s.cfl_number)}",
        f"t_end = {fmt(s.t_end)}",
        f"formulation = {s.formulation}",
        f"diffusion_treatment = {s.diffusion_treatment}",
        f"output_cadence = {fmt(s.output_cadence)}",
        f"advection_order = {s.advection_order}",
    ]
    if s.dt_override is not None:
        lines.append(f"dt_override = {fmt(s.dt_override)}")
    i = cfg.initial
    lines += ["", "[initial]", f"kind = {i.kind}"]
    for name in ("amplitude", "width", "jump", "steepness"):
        val = getattr(i, name)
        if val is not None:
            lines.append(f"{name} = {fmt(val)}")
    if i.profile is not None:
        lines.append(f"profile = {i.profile}")
    if i.mollifier_n is not None:
        lines.append(f"mollifier_n = {i.mollifier_n}")
    if i.mms_id is not None:
        lines.append(f"mms_id = {i.mms_id}")
    lines += ["", "[run]", f"seed = {cfg.seed}", ""]
    return "\n".join(lines)


# The keys parse_config reads, per section; any other section or key is an error.
_KEYS = {
    "model": ("alpha", "gamma", "half_length"),
    "grid": ("n_cells",),
    "solver": ("t_end", "output_cadence", "cfl_number", "formulation", "diffusion_treatment",
               "advection_order", "dt_override"),
    "initial": ("kind", "amplitude", "width", "jump", "steepness", "profile", "mollifier_n",
                "mms_id"),
    "run": ("seed",),
}


def _sections(text: str) -> dict:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KEYS:
                raise ConfigError(f"unknown config section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"cannot parse config line: {raw_line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEYS[current]:
            raise ConfigError(f"unknown config key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"config key {key!r} set twice in [{current}]")
        sections[current][key] = val.strip()
    return sections


def parse_config(text: str) -> ScenarioConfig:
    sec = _sections(text)
    try:
        m = sec["model"]
        model = ModelParams(
            alpha=float(m["alpha"]),
            gamma=float(m["gamma"]),
            half_length=float(m["half_length"]),
        )
        n_cells = int(sec["grid"]["n_cells"])
        s = sec["solver"]
        solver = SolverConfig(
            t_end=float(s["t_end"]),
            output_cadence=float(s["output_cadence"]),
            cfl_number=float(s.get("cfl_number", 0.4)),
            formulation=s.get("formulation", "primitive"),
            diffusion_treatment=s.get("diffusion_treatment", "semi_implicit"),
            advection_order=int(s.get("advection_order", 2)),
            dt_override=float(s["dt_override"]) if "dt_override" in s else None,
        )
        i = sec["initial"]

        def opt_float(name):
            return float(i[name]) if name in i else None

        initial = InitialData(
            kind=i["kind"],
            amplitude=opt_float("amplitude"),
            width=opt_float("width"),
            jump=opt_float("jump"),
            steepness=opt_float("steepness"),
            profile=i.get("profile"),
            mollifier_n=int(i["mollifier_n"]) if "mollifier_n" in i else None,
            mms_id=i.get("mms_id"),
        )
        seed = int(sec.get("run", {}).get("seed", 0))
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    return ScenarioConfig(model=model, n_cells=n_cells, solver=solver, initial=initial, seed=seed)


def load_config(path) -> ScenarioConfig:
    return parse_config(Path(path).read_text(encoding="ascii"))


def save_config(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(serialize_config(cfg), encoding="ascii", newline="\n")


def config_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("ascii")).hexdigest()[:12]


# ------------------------------------------------------------------- outputs

def write_table(path, header: str, columns, footer_line: str, sep: str = ",") -> None:
    """Write `header`, then one `sep`-joined row per index of the equal-length
    `columns`, then `footer_line`; ASCII, LF.  Cells are printed with `str` of
    the Python values `tolist()` yields: the shortest round-trip repr for a
    float, the digits of an int, the text of a string."""
    cols = [np.asarray(col).tolist() for col in columns]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*cols, strict=True):
            fh.write(sep.join(map(str, row)) + "\n")
        fh.write(footer_line + "\n")


def write_snapshot_csv(path, grid, state, eff, footer_line: str) -> None:
    cols = (grid.coords, state.rho, state.u, eff.v, eff.w1, eff.y, eff.udot)
    write_table(path, SNAP_HEADER, cols, footer_line)


def write_diagnostics_csv(path, series: DiagnosticSeries, footer_line: str) -> None:
    cols = [getattr(series, name) for name in DIAG_SERIES]
    cols.append([series.flag_bits(k) for k in range(len(series.times))])
    write_table(path, DIAG_HEADER, cols, footer_line)


def write_manifest(path, times, files, cfg_hash: str, build: str) -> None:
    body = {
        "times": [float(t) for t in times],
        "files": list(files),
        "config_hash": cfg_hash,
        "build_id": build,
        "flag_order": list(FLAG_ORDER),
    }
    text = json.dumps(body, indent=2) + "\n" + footer(cfg_hash, build) + "\n"
    Path(path).write_text(text, encoding="ascii", newline="\n")


def read_csv_table(path, string_cols=("flags",)):
    """Read one of our CSV outputs back: (header fields, list of row lists).
    Footer and comment lines are skipped; columns named in `string_cols` keep
    their text (the flag bitstring would otherwise lose its leading zeros)."""
    header = None
    rows = []
    keep_str = set()
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            keep_str = {i for i, name in enumerate(header) if name in string_cols}
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


def emit_run_outputs(out_dir, cfg: ScenarioConfig, traj) -> Path:
    """Write snapshots, diagnostics, manifest and plot data under
    out_dir/run-<hash>/; returns that directory."""
    from .effective import compute_effective_fields

    h = config_hash(cfg)
    run_dir = Path(out_dir) / f"run-{h}"
    (run_dir / "snapshots").mkdir(parents=True, exist_ok=True)
    (run_dir / "plots").mkdir(parents=True, exist_ok=True)

    build = build_id()
    foot = footer(h, build)
    (run_dir / "config.cfg").write_text(
        serialize_config(cfg) + foot + "\n", encoding="ascii", newline="\n"
    )
    files = []
    for k, snap in enumerate(traj.snapshots):
        eff = compute_effective_fields(snap, traj.grid, traj.params)
        name = f"snapshots/snap_{k:05d}.csv"
        write_snapshot_csv(run_dir / name, traj.grid, snap, eff, foot)
        files.append(name)
    write_manifest(run_dir / "manifest.json", traj.times, files, h, build)

    series = traj.diagnostics
    if series is not None:
        write_diagnostics_csv(run_dir / "diagnostics.csv", series, foot)
        for name in ("energy", "bd_entropy", "hoff_A", "hoff_B", "y_max", "oleinik_slope",
                     "inv_rho_max", "rho_max", "bv_norm_v", "w1_max"):
            cols = (series.times, getattr(series, name))
            write_table(run_dir / "plots" / f"{name}.dat", f"# t {name}", cols, foot, sep=" ")
    return run_dir
