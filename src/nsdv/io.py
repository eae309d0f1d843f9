"""Config parsing/serialization and output file formats.

Config files are flat `key = value` text under bracketed section headers
(zero-dependency parsing in any language).  Snapshots are CSV with the header
x,rho,u,v,w1,y,udot, one file per output time plus a JSON manifest listing
times and file names.  The diagnostics series is a single CSV.  Every output
file ends with a footer line carrying a git-describe build id and the config
hash, so results are traceable to the exact inputs.  Floats are written with
shortest round-trip formatting, ASCII, LF line endings; every text table goes
through `write_table`.  A run directory is written by `RunWriter`, whose one
worker process writes the snapshot CSVs while the solver steps.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import shutil
import signal
import subprocess
import tempfile
import threading
import traceback
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
# Snapshot k of a run, relative to its run directory.
SNAP_NAME = "snapshots/snap_{:05d}.csv"


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


# Pending states are references to arrays the trajectory keeps anyway; the
# sender thread pickles one at a time.  The bound makes a writer that falls
# behind hold up stepping rather than let the backlog grow.
_PENDING_SNAPSHOTS = 4
# How long a put into the full pending queue waits before it checks on the worker.
_POLL_S = 1.0


def _write_snapshots(directory, grid, params, footer_line, snapshots, result) -> None:
    """Body of the writer's worker process: write the k-th state received on
    `snapshots` to directory/SNAP_NAME.format(k), with its effective fields,
    until None arrives; then send None on `result`, or (exception, traceback
    text) after the first failure.  Returns at once when `snapshots` reaches
    end of file: the parent process is gone."""
    from .effective import compute_effective_fields

    # Ctrl-C reaches the parent as well, and the parent stops this process.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        k = 0
        while (state := snapshots.recv()) is not None:
            eff = compute_effective_fields(state, grid, params)
            write_snapshot_csv(directory / SNAP_NAME.format(k), grid, state, eff, footer_line)
            k += 1
    except EOFError:
        return
    except Exception as exc:
        result.send((exc, traceback.format_exc()))
    else:
        result.send(None)


def _forward(pending, conn) -> None:
    """Sender thread: send the items of `pending` on `conn` up to and
    including None.  Ends early once the worker is gone (the send fails), which
    `RunWriter` then reports."""
    try:
        while True:
            item = pending.get()
            conn.send(item)
            if item is None:
                return
    except OSError:
        pass


class RunWriter:
    """Writes one run directory, out_dir/run-<config hash>/.

    Use it as a context manager.  `record(state)` hands each snapshot to one
    worker process, which computes its effective fields and writes its CSV
    while the caller goes on stepping; `finish(traj)` writes config.cfg,
    manifest.json, diagnostics.csv and plots/*.dat here, waits for the
    worker and moves the files into the run directory.  Until then they sit
    in a staging directory beside it, which leaving the block without
    `finish` (an exception) removes after stopping the worker: a failed
    command leaves the run directory as it was, or absent.  A failure of the
    worker is re-raised here, by `record` or `finish`.
    """

    def __init__(self, out_dir, cfg: ScenarioConfig):
        self._cfg = cfg
        self._hash = config_hash(cfg)
        self.run_dir = Path(out_dir) / f"run-{self._hash}"
        self._count = 0
        self._done = False

    def __enter__(self) -> "RunWriter":
        import multiprocessing

        out_dir = self.run_dir.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        self._stage = Path(tempfile.mkdtemp(prefix=f".{self.run_dir.name}-", dir=out_dir))
        (self._stage / "snapshots").mkdir()
        (self._stage / "plots").mkdir()
        self._build = build_id()
        self._footer = footer(self._hash, self._build)
        # spawn: the worker starts from a fresh import, never from a fork of
        # this process and its threads
        ctx = multiprocessing.get_context("spawn")
        snapshots, self._conn = ctx.Pipe(duplex=False)
        self._result, result_end = ctx.Pipe(duplex=False)
        self._worker = ctx.Process(
            target=_write_snapshots,
            args=(self._stage, self._cfg.grid(), self._cfg.model, self._footer,
                  snapshots, result_end),
            name="nsdv-snapshot-writer",
            daemon=True,
        )
        self._worker.start()
        # Only the worker holds these ends now, so each process sees end of
        # file, or a failed send, once the other is gone.
        snapshots.close()
        result_end.close()
        # A send blocks until the worker reads, which it does only between
        # snapshots; the sender thread keeps that wait out of `record`.
        self._pending = queue.Queue(maxsize=_PENDING_SNAPSHOTS)
        self._sender = threading.Thread(
            target=_forward, args=(self._pending, self._conn), daemon=True
        )
        self._sender.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._done:
            self._worker.terminate()
            self._worker.join()
            try:  # wake the sender if it waits for work; its next send fails
                self._pending.put_nowait(None)
            except queue.Full:  # it is sending, and that send fails
                pass
        self._sender.join()
        self._conn.close()
        self._result.close()
        shutil.rmtree(self._stage, ignore_errors=True)

    def record(self, state) -> None:
        """Queue one snapshot; it becomes SNAP_NAME.format(k) for the k-th call."""
        self._put(state)
        self._count += 1

    def finish(self, traj) -> Path:
        """Write the rest of the run directory, wait for the snapshot CSVs,
        move every file into place and return the run directory."""
        if self._count != len(traj.snapshots):
            raise ValueError(
                f"{self._count} snapshots recorded, the trajectory has {len(traj.snapshots)}"
            )
        self._put(None)
        stage, foot = self._stage, self._footer
        (stage / "config.cfg").write_text(
            serialize_config(self._cfg) + foot + "\n", encoding="ascii", newline="\n"
        )
        files = [SNAP_NAME.format(k) for k in range(self._count)]
        write_manifest(stage / "manifest.json", traj.times, files, self._hash, self._build)
        series = traj.diagnostics
        if series is not None:
            write_diagnostics_csv(stage / "diagnostics.csv", series, foot)
            for name in ("energy", "bd_entropy", "hoff_A", "hoff_B", "y_max", "oleinik_slope",
                         "inv_rho_max", "rho_max", "bv_norm_v", "w1_max"):
                cols = (series.times, getattr(series, name))
                write_table(stage / "plots" / f"{name}.dat", f"# t {name}", cols, foot, sep=" ")
        self._await_worker()
        self._worker.join()
        self._done = True
        # file by file, so that a rerun overwrites the files it writes again
        for sub in ("snapshots", "plots"):
            (self.run_dir / sub).mkdir(parents=True, exist_ok=True)
        for path in stage.rglob("*"):
            if path.is_file():
                os.replace(path, self.run_dir / path.relative_to(stage))
        return self.run_dir

    def _put(self, item) -> None:
        while True:
            if self._result.poll():  # the worker failed or is gone
                self._await_worker()
            try:
                self._pending.put(item, timeout=_POLL_S)
                return
            except queue.Full:
                pass

    def _await_worker(self) -> None:
        """Block for the worker's outcome: return if it wrote every snapshot,
        else re-raise its exception, or raise RuntimeError if it died without
        one."""
        try:
            outcome = self._result.recv()
        except EOFError:
            self._worker.join()
            raise RuntimeError(
                f"snapshot writer process exited with code {self._worker.exitcode}"
            ) from None
        if outcome is not None:
            exc, text = outcome
            raise exc from RuntimeError(f"in the snapshot writer process:\n{text}")


def emit_run_outputs(out_dir, cfg: ScenarioConfig, traj) -> Path:
    """Write snapshots, diagnostics, manifest and plot data of a finished
    trajectory under out_dir/run-<hash>/; returns that directory."""
    with RunWriter(out_dir, cfg) as writer:
        for snap in traj.snapshots:
            writer.record(snap)
        return writer.finish(traj)
