"""Config parsing/serialization and output file formats.

Config files are flat `key = value` text under bracketed section headers
(zero-dependency parsing in any language).  Snapshots are CSV with the header
x,rho,u,v,w1,y,udot, one file per output time plus a JSON manifest listing
times and file names.  The diagnostics series is a single CSV.  Every output
file ends with a footer line carrying a git-describe build id and the config
hash, so results are traceable to the exact inputs.  Floats are written with
shortest round-trip formatting, ASCII, LF line endings; every text table goes
through `write_table`.  A run directory is written by `RunWriter`, whose one
child process, forked by nsdv.child, writes the snapshot CSVs while the
solver steps.  The solver evaluates each snapshot's fields; the child only
formats them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .child import Child
from .diagnostics import FLAG_ORDER, DiagnosticSeries
from .errors import ConfigError
from .eulerian import SolverConfig
from .initdata import InitialData, ScenarioConfig
from .model import ModelParams

# CPython's built-in SHA-256 for the config hash: hashlib would load OpenSSL's
# libcrypto (~3.6 MB resident) into every nsdv process for this one call.
# hashlib stays the fallback for an interpreter built without it.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

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
    return f"nsdv-{__version__}"


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
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config {path} is not ASCII: byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        ) from None
    return parse_config(text)


def config_hash(cfg: ScenarioConfig) -> str:
    return sha256(serialize_config(cfg).encode("ascii")).hexdigest()[:12]


# ------------------------------------------------------------------- outputs

TABLE_BLOCK_ROWS = 4096  # rows whose cells write_table holds as Python values at once


def write_table(path, header: str, columns, footer_line: str, sep: str = ",") -> None:
    """Write `header`, then one `sep`-joined row per index of the equal-length
    `columns`, then `footer_line`; ASCII, LF.  Cells are printed with `str` of
    the Python values `tolist()` yields: the shortest round-trip repr for a
    float, the digits of an int, the text of a string.  The columns are
    converted TABLE_BLOCK_ROWS rows at a time, so a snapshot table holds a
    block of its Python values, not all of them."""
    cols = [np.asarray(col) for col in columns]
    n_rows = len(cols[0])
    if any(len(col) != n_rows for col in cols):
        raise ValueError("table columns of unequal length")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, TABLE_BLOCK_ROWS):
            block = [col[lo : lo + TABLE_BLOCK_ROWS].tolist() for col in cols]
            for row in zip(*block):
                fh.write(sep.join(map(str, row)) + "\n")
        fh.write(footer_line + "\n")


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


def _state_file(directory, k) -> Path:
    return Path(directory) / f".state_{k}.npy"


def _write_snapshots(channel, directory, cfg, footer_line) -> None:
    """Body of the writer's child process (a child.Child).  Receives k for
    each snapshot whose columns after x the parent saved as
    _state_file(directory, k), until None.  Formats snapshot k, after the
    grid's x, as directory/SNAP_NAME.format(k), evaluating nothing, and
    deletes its state file.  Then sends None; a failure ends it (nsdv.child
    sends it on).  When its input reaches end of file the parent process is
    gone: removes its staging directory, the parent of `directory`, and
    returns."""
    try:
        # the grid's x cells, the same in every snapshot, formatted once: as
        # an object array of str, write_table prints them as they are
        x = np.array(list(map(str, cfg.grid().coords.tolist())), dtype=object)
        while (k := channel.receive()) is not None:
            path = _state_file(directory, k)
            with open(path, "rb") as fh:
                cols = [np.load(fh) for _ in range(SNAP_HEADER.count(","))]  # all but x
            write_table(directory / SNAP_NAME.format(k), SNAP_HEADER, (x, *cols), footer_line)
            path.unlink()
    except EOFError:
        shutil.rmtree(directory.parent, ignore_errors=True)
        return
    channel.send(None)


class RunWriter:
    """Writes one run directory, out_dir/run-<config hash>/.

    Use it as a context manager.  `record(state, eff)` saves each snapshot's
    state and effective fields and hands them to one child process, which
    only formats them as its CSV while the caller goes on stepping;
    `finish(series)` writes config.cfg, manifest.json, diagnostics.csv and
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
            # the child inherits the tree, config and footer
            self._child = Child("snapshot writer", _write_snapshots, self._tree, self._cfg,
                                self._footer)
        except BaseException:
            # a raising __enter__ gets no __exit__ call: clean up here
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        if self._child is not None:
            self._child.close(kill=True)  # a no-op once `finish` or a failure has reaped it
        shutil.rmtree(self._stage, ignore_errors=True)

    def record(self, state, eff) -> None:
        """Save one recorded state with its effective fields for the child;
        it becomes SNAP_NAME.format(k) for the k-th call."""
        with open(_state_file(self._tree, self._count), "wb") as fh:
            for col in (state.rho, state.u, eff.v, eff.w1, eff.y, eff.udot):
                np.save(fh, col)
        self._send(self._count)
        self._count += 1

    def finish(self, series: DiagnosticSeries) -> Path:
        """Write the rest of the run directory, with `series` the diagnostics
        of the recorded snapshots, wait for the snapshot CSVs, swap the new
        tree in and return the run directory."""
        if self._count != len(series.times):
            raise ValueError(
                f"{self._count} snapshots recorded, the series has {len(series.times)} times"
            )
        self._send(None)
        tree, foot = self._tree, self._footer
        (tree / "config.cfg").write_text(
            serialize_config(self._cfg) + foot + "\n", encoding="ascii", newline="\n"
        )
        files = [SNAP_NAME.format(k) for k in range(self._count)]
        write_manifest(tree / "manifest.json", series.times, files, self._hash, self._build)
        write_diagnostics(tree, series, foot)
        self._child.outcome()  # the snapshot CSVs are written, or its failure is raised
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
        """Send `message` to the child; if the child has exited, raise its
        failure instead."""
        try:
            self._child.send(message)
        except BrokenPipeError:
            self._child.outcome()
