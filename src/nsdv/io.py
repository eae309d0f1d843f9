"""Config parsing/serialization and output file formats.

Config files are flat `key = value` text under bracketed section headers
(zero-dependency parsing in any language).  Snapshots are CSV with the header
x,rho,u,v,w1,y,udot, one file per output time plus a JSON manifest listing
times and file names.  The diagnostics series is a single CSV.  Every output
file ends with a footer line carrying a git-describe build id and the config
hash, so results are traceable to the exact inputs.  Floats are written with
shortest round-trip formatting, ASCII, LF line endings; every text table goes
through `write_table`.  A run directory is written by `RunWriter`, whose one
child process writes the snapshot CSVs while the solver steps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from .diagnostics import FLAG_ORDER, DiagnosticSeries
from .effective import compute_effective_fields
from .errors import ConfigError
from .eulerian import SolverConfig
from .initdata import InitialData, ScenarioConfig
from .model import FluidState, ModelParams

# The diagnostics.csv columns before `flags`: header name, DiagnosticSeries
# field, and whether plots/<field>.dat holds that series against t.
DIAG_COLUMNS = (
    ("t", "times", False),
    ("energy", "energy", True),
    ("energy_diss_accum", "energy_diss_accum", False),
    ("bd", "bd_entropy", True),
    ("bd_diss_accum", "bd_diss_accum", False),
    ("A", "hoff_A", True),
    ("B", "hoff_B", True),
    ("y_max", "y_max", True),
    ("oleinik_slope", "oleinik_slope", True),
    ("inv_rho_max", "inv_rho_max", True),
    ("rho_max", "rho_max", True),
    ("bv_v", "bv_norm_v", True),
    ("w1_max", "w1_max", True),
)
DIAG_HEADER = ",".join([name for name, _, _ in DIAG_COLUMNS] + ["flags"])
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

# The config file format, declared once: its sections in file order, each
# with the dataclass it builds and its keys in file order with their types.
# [model], [solver] and [initial] build the ScenarioConfig field of their
# name; the [grid] keys are ScenarioConfig fields themselves (cls None).  A
# key is required when its field has no default, and a None value is not
# written.  Any other section or key is an error.
_FORMAT = {
    "model": (ModelParams, {"alpha": float, "gamma": float, "half_length": float}),
    "grid": (None, {"n_cells": int}),
    "solver": (SolverConfig, {
        "cfl_number": float, "t_end": float, "formulation": str, "diffusion_treatment": str,
        "output_cadence": float, "advection_order": int, "dt_override": float,
    }),
    "initial": (InitialData, {
        "kind": str, "amplitude": float, "width": float, "jump": float, "steepness": float,
        "profile": str, "mollifier_n": int,
    }),
}


def serialize_config(cfg: ScenarioConfig) -> str:
    blocks = []
    for name, (cls, keys) in _FORMAT.items():
        obj = cfg if cls is None else getattr(cfg, name)
        lines = [f"[{name}]"]
        for key, conv in keys.items():
            val = getattr(obj, key)
            if val is not None:
                lines.append(f"{key} = {fmt(val) if conv is float else val}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def _sections(text: str) -> dict:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _FORMAT:
                raise ConfigError(f"unknown config section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"cannot parse config line: {raw_line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FORMAT[current][1]:
            raise ConfigError(f"unknown config key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"config key {key!r} set twice in [{current}]")
        sections[current][key] = val.strip()
    return sections


def parse_config(text: str) -> ScenarioConfig:
    sec = _sections(text)
    fields = {}
    try:
        for name, (cls, keys) in _FORMAT.items():
            values = sec.get(name, {})
            required = {f.name for f in dataclasses.fields(cls or ScenarioConfig)
                        if f.default is dataclasses.MISSING}
            # indexing a required key that is not set raises KeyError
            kw = {key: conv(values[key]) for key, conv in keys.items()
                  if key in values or key in required}
            if cls is None:
                fields.update(kw)
            else:
                fields[name] = cls(**kw)
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from None
    except ConfigError:
        raise  # a dataclass's own verdict, not a malformed value
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    return ScenarioConfig(**fields)


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


def write_diagnostics(directory, series: DiagnosticSeries, footer_line: str) -> None:
    """diagnostics.csv and plots/*.dat of `series` in `directory`."""
    cols = [getattr(series, field) for _, field, _ in DIAG_COLUMNS]
    cols.append([series.flag_bits(k) for k in range(len(series.times))])
    write_table(directory / "diagnostics.csv", DIAG_HEADER, cols, footer_line)
    for _, field, plotted in DIAG_COLUMNS:
        if plotted:
            cols = (series.times, getattr(series, field))
            write_table(directory / "plots" / f"{field}.dat", f"# t {field}", cols, footer_line,
                        sep=" ")


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


def read_csv_table(path):
    """Read one of our CSV outputs back: (header fields, list of row lists).
    Footer and comment lines are skipped; a `flags` column keeps its text
    (the bitstring would otherwise lose its leading zeros)."""
    header = None
    rows = []
    keep_str = set()
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            keep_str = {i for i, name in enumerate(header) if name == "flags"}
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


# The writer's child process: ignore Ctrl-C (it reaches the whole process
# group, and the parent stops the child), import the same nsdv as the parent
# from the package root in argv[1], and write snapshots.  It loads no scipy:
# only stencils.solve_tridiagonal imports it, and the child never solves.
_CHILD = (
    "import signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "sys.path.insert(0, sys.argv[1]); "
    "from nsdv.io import _write_snapshots; _write_snapshots(sys.stdin.buffer, sys.stdout.buffer)"
)


def _state_file(directory, k) -> Path:
    return Path(directory) / f".state_{k}.npy"


def _write_snapshots(requests, report) -> None:
    """Body of the writer's child process.  Reads pickled messages from
    `requests`: first (directory, cfg, footer line), then (k, time) for each
    state the parent saved as _state_file(directory, k), until None.  Writes
    state k to directory/SNAP_NAME.format(k), with its effective fields, and
    deletes its state file.  Then pickles None to `report`, or (exception,
    traceback text) after the first failure.  When `requests` reaches end of
    file the parent process is gone: removes its staging directory, the
    parent of `directory`, and returns."""
    directory = None
    try:
        directory, cfg, footer_line = pickle.load(requests)
        grid = cfg.grid()
        while (request := pickle.load(requests)) is not None:
            k, time = request
            path = _state_file(directory, k)
            with open(path, "rb") as fh:
                state = FluidState(time=time, rho=np.load(fh), u=np.load(fh))
            eff = compute_effective_fields(state, grid, cfg.model)
            write_snapshot_csv(directory / SNAP_NAME.format(k), grid, state, eff, footer_line)
            path.unlink()
    except EOFError:
        if directory is not None:
            shutil.rmtree(directory.parent, ignore_errors=True)
        return
    except Exception as exc:
        pickle.dump((exc, traceback.format_exc()), report)
    else:
        pickle.dump(None, report)
    report.flush()


class RunWriter:
    """Writes one run directory, out_dir/run-<config hash>/.

    Use it as a context manager.  `record(state)` saves each snapshot's state
    and hands it to one child process, which computes its effective fields
    and writes its CSV while the caller goes on stepping; `finish(traj,
    series)` writes config.cfg, manifest.json, diagnostics.csv and
    plots/*.dat here, waits for the child and puts the new tree in place of
    the run directory as a whole.  Until then the tree grows in a staging
    directory beside it, which leaving the block removes, after stopping the
    child if `finish` was not reached (an exception): a failed command
    leaves the run directory as it was, or absent.  A failure of the child
    is re-raised here, by `record` or `finish`.
    """

    def __init__(self, out_dir, cfg: ScenarioConfig):
        self._cfg = cfg
        self._hash = config_hash(cfg)
        self.run_dir = Path(out_dir) / f"run-{self._hash}"
        self._count = 0

    def __enter__(self) -> "RunWriter":
        out_dir = self.run_dir.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        # mkdtemp makes the stage private; the tree inside it gets the usual
        # permissions, and becomes the run directory
        self._stage = Path(tempfile.mkdtemp(prefix=f".{self.run_dir.name}-", dir=out_dir))
        self._child = None
        try:
            self._tree = self._stage / "run"
            (self._tree / "snapshots").mkdir(parents=True)
            (self._tree / "plots").mkdir()
            self._build = build_id()
            self._footer = footer(self._hash, self._build)
            package_root = str(Path(__file__).resolve().parent.parent)
            # Unbuffered pipes: every message is one write of a few hundred bytes
            # at most, which the pipe takes whole without waiting on the child.
            self._child = subprocess.Popen(
                [sys.executable, "-c", _CHILD, package_root],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            )
            self._send((self._tree, self._cfg, self._footer))
        except BaseException:
            # a raising __enter__ gets no __exit__ call: clean up here
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        if self._child is not None:
            self._child.kill()  # a no-op once `finish` or a failure has reaped it
            self._child.wait()
            self._child.stdin.close()
            self._child.stdout.close()
        shutil.rmtree(self._stage, ignore_errors=True)

    def record(self, state) -> None:
        """Save one snapshot for the child; it becomes SNAP_NAME.format(k)
        for the k-th call."""
        with open(_state_file(self._tree, self._count), "wb") as fh:
            np.save(fh, state.rho)
            np.save(fh, state.u)
        self._send((self._count, state.time))
        self._count += 1

    def finish(self, traj, series: DiagnosticSeries) -> Path:
        """Write the rest of the run directory, with `series` the diagnostics
        of `traj`, wait for the snapshot CSVs, swap the new tree in and
        return the run directory."""
        if self._count != len(traj.snapshots):
            raise ValueError(
                f"{self._count} snapshots recorded, the trajectory has {len(traj.snapshots)}"
            )
        self._send(None)
        tree, foot = self._tree, self._footer
        (tree / "config.cfg").write_text(
            serialize_config(self._cfg) + foot + "\n", encoding="ascii", newline="\n"
        )
        files = [SNAP_NAME.format(k) for k in range(self._count)]
        write_manifest(tree / "manifest.json", traj.times, files, self._hash, self._build)
        write_diagnostics(tree, series, foot)
        self._await_child()
        # Whole directories only, so the run directory is never part old and
        # part new: the old one moves into the stage, which leaving the block
        # removes, and the new tree into its place.
        old = self._stage / "old"
        try:
            os.replace(self.run_dir, old)
        except FileNotFoundError:
            pass
        try:
            os.replace(tree, self.run_dir)
        except OSError:
            if old.exists():
                os.replace(old, self.run_dir)
            raise
        return self.run_dir

    def _send(self, message) -> None:
        """Pickle `message` to the child; if the child has exited, raise its
        failure instead."""
        if self._child.poll() is None:
            try:
                self._child.stdin.write(pickle.dumps(message))
                return
            except BrokenPipeError:
                pass
        self._await_child()

    def _await_child(self) -> None:
        """Read the child's report to end of file and wait for it: return if
        it wrote every snapshot, else re-raise its exception, or raise
        RuntimeError if it exited without a report."""
        report = self._child.stdout.read()
        code = self._child.wait()
        if not report:
            raise RuntimeError(f"snapshot writer process exited with code {code}")
        outcome = pickle.loads(report)
        if outcome is not None:
            exc, text = outcome
            raise exc from RuntimeError(f"in the snapshot writer process:\n{text}")

