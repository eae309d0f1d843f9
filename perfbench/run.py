"""Benchmark of the nsdv command line: end-to-end times and traced per-layer timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Every workload runs `python -m nsdv.cli ...` as a fresh child process against
the checkout's `src/` (PYTHONPATH, nothing installed), one child at a time:
a closed loop, single-threaded, with BLAS/OpenMP threads pinned to 1.  Each
child gets a fresh output root, which is deleted once its outputs are checked.

--trace 0 measures the end-to-end metrics, untraced:
  setup_s      median over fresh interpreters (one before each command run,
               at least SETUP_REPEATS) of the time to import nsdv, parse the
               workload's config and build its initial data (setup_probe.py),
               spawn to exit;
  wall_s       median, over the runs that fit in --seconds, of the time from
               spawning the command to its exit;
  peak_rss_mb  median peak resident memory of those children (os.wait4).

--trace 1 runs the command once untraced and once under tracer.py, which
wraps every public nsdv function and records spans; it prints the per-layer
metrics computed from those spans and the tracing overhead (traced minus
untraced wall time).  See README.md for the metric definitions.

Every child that exits with an unexpected code or fails its output check
counts as failed.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 5
# A run must end within 180 s; children still running at this many seconds
# after the run started are killed and count as failed.
RUN_DEADLINE_S = 165.0
STARTED = time.monotonic()

# Output checks, with the tolerances of the acceptance suite.
SNAPSHOTS = 21  # t_end = 1 at cadence 0.05, both ends included
MMS_MIN_ORDER = 1.8  # acceptance criterion 10
TWIN_EPSILON = "1e-6"
MMS_ID = "manufactured-1"

CONFIG = """\
[model]
alpha = 0.75
gamma = 2.0
half_length = 10.0

[grid]
n_cells = {n_cells}

[solver]
cfl_number = 0.4
t_end = 1.0
formulation = {formulation}
diffusion_treatment = semi_implicit
output_cadence = 0.05
advection_order = 2

[initial]
kind = smooth_bump
amplitude = {amplitude!r}
width = {width!r}
"""


@dataclass(frozen=True)
class Workload:
    command: str  # nsdv subcommand
    n_cells: dict | None  # grid size by --size; None for `convergence`
    formulation: str = "primitive"


WORKLOADS = {
    "verify_fine": Workload("verify", {"full": 16385, "smoke": 257}),
    "verify_effective": Workload("verify", {"full": 1024, "smoke": 129}, "effective"),
    "mms_convergence": Workload("convergence", None),
    "twin_lockstep": Workload("twin", {"full": 8192, "smoke": 257}),
}
MMS_LEVELS = {"full": 3, "smoke": 2}


def scenario_inputs(seed: int) -> dict:
    """smooth_bump amplitude in [0.08, 0.12] and width in [0.9, 1.1]."""
    rng = random.Random(seed)
    return {"amplitude": 0.08 + 0.04 * rng.random(), "width": 0.9 + 0.2 * rng.random()}


def cli_args(wl: Workload, size: str, config: Path, out: Path) -> list[str]:
    if wl.command == "convergence":
        levels = str(MMS_LEVELS[size])
        return ["convergence", "--id", MMS_ID, "--levels", levels, "--out", str(out)]
    args = [wl.command, "--config", str(config), "--out", str(out)]
    return args + ["--epsilon", TWIN_EPSILON] if wl.command == "twin" else args


# ------------------------------------------------------------ output checks

def _check_verify(stdout: str, out: Path, size: str) -> str | None:
    monitors = [line.split() for line in stdout.splitlines() if line.startswith("monitor ")]
    if not monitors:
        return "no monitor verdicts printed"
    bad = [m[1] for m in monitors if m[-1] not in ("ok", "n/a")]
    if bad:
        return f"monitors not ok: {bad}"
    if not any(m[-1] == "ok" for m in monitors):
        return "no monitor available"
    run_dirs = list(out.glob("run-*"))
    if len(run_dirs) != 1:
        return f"expected one run directory, found {len(run_dirs)}"
    text = (run_dirs[0] / "manifest.json").read_text(encoding="ascii")
    manifest = json.loads("\n".join(ln for ln in text.splitlines() if not ln.startswith("#")))
    files = manifest["files"]
    if len(files) != SNAPSHOTS or not all((run_dirs[0] / f).is_file() for f in files):
        return f"expected {SNAPSHOTS} snapshot files, manifest lists {len(files)}"
    if not (run_dirs[0] / "diagnostics.csv").is_file():
        return "diagnostics.csv missing"
    return None


def _check_convergence(stdout: str, out: Path, size: str) -> str | None:
    # The printed order table (n, dx, dt, l2_error, order); the first level
    # has no order.  It is read from standard output because the .dat copy
    # writes numpy scalars with repr, which is not plain numbers under numpy 2.
    rows = []
    for line in stdout.splitlines():
        cells = line.split()
        if len(cells) == 5 and cells[0].isdigit():
            rows.append([float(c) for c in cells])
    if len(rows) != MMS_LEVELS[size]:
        return f"expected {MMS_LEVELS[size]} levels, table has {len(rows)}"
    if not (out / f"convergence-{MMS_ID}.dat").is_file():
        return "convergence table file missing"
    errs = [r[3] for r in rows]
    orders = [r[4] for r in rows[1:]]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        return f"errors not strictly decreasing: {errs}"
    if not min(orders) >= MMS_MIN_ORDER:
        return f"convergence order {min(orders):.3f} below {MMS_MIN_ORDER}"
    return None


def _check_twin(stdout: str, out: Path, size: str) -> str | None:
    # rows of the printed table: t, |delta_u|, dissipation, ok|FAIL
    rows = [ln.split() for ln in stdout.splitlines()]
    verdicts = [r[3] for r in rows if len(r) == 4 and r[3] in ("ok", "FAIL")]
    if len(verdicts) != SNAPSHOTS:
        return f"expected {SNAPSHOTS} Gronwall rows, found {len(verdicts)}"
    if "FAIL" in verdicts:
        return "Gronwall check fails at some time"
    if len(list(out.glob("twin-*.dat"))) != 1:
        return "twin series file missing"
    return None


CHECKS = {"verify": _check_verify, "convergence": _check_convergence, "twin": _check_twin}


# ------------------------------------------------------------- child runs

@dataclass
class Child:
    wall_s: float
    rss_mb: float
    error: str | None
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("NSDV_OUT_DIR", None)
    # keep git (nsdv's build id) from looking for a repository above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def spawn(argv: list[str], cwd: Path) -> Child:
    """Run one child to completion; time it from spawn to exit and take its
    own peak RSS from wait4 (RUSAGE_CHILDREN would report the running maximum
    over every earlier child)."""
    env = child_env()
    left = STARTED + RUN_DEADLINE_S - time.monotonic()
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(max(1.0, left), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    error = None if rc == 0 else f"exit code {rc}: {stderr.strip()[-300:]}"
    return Child(wall, usage.ru_maxrss / 1024.0, error, stdout)


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


@dataclass
class CliRun:
    child: Child
    bytes_written: int
    spans: dict | None = None


def run_child(wl: Workload, size: str, config_text: str | None, kind: str = "cli") -> CliRun:
    """One child in a fresh directory, deleted afterwards.  `kind` is "cli"
    (the command, untraced), "traced" (the command under tracer.py) or
    "probe" (setup_probe.py with the command's arguments).  The command's
    outputs are checked."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{kind}-", dir=WORK))
    try:
        config = tmp / "scenario.cfg"
        if config_text is not None:
            config.write_text(config_text, encoding="ascii")
        out = tmp / "out"
        spans_path = tmp / "spans.json"
        launcher = {
            "cli": [sys.executable, "-m", "nsdv.cli"],
            "traced": [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--"],
            "probe": [sys.executable, str(HERE / "setup_probe.py")],
        }[kind]
        child = spawn(launcher + cli_args(wl, size, config, out), tmp)
        if child.error is None and kind != "probe":
            try:
                child.error = CHECKS[wl.command](child.stdout, out, size)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                child.error = f"output check: {exc!r}"
        spans = None
        if kind == "traced" and spans_path.is_file():
            spans = json.loads(spans_path.read_text(encoding="ascii"))
        return CliRun(child, tree_bytes(out) if out.is_dir() else 0, spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ------------------------------------------------------- per-layer metrics

STEP_FUNCTIONS = ("eulerian.step_primitive", "eulerian.step_effective")
RATE_FUNCTIONS = ("diagnostics.energy_dissipation_rate", "diagnostics.bd_dissipation_rate")


class SpanTable:
    """Spans written by tracer.py, in call order, with self times."""

    def __init__(self, raw: dict):
        names = raw["names"]
        self.name = [names[i] for i in raw["name_id"]]
        self.start = raw["start_ns"]
        self.end = raw["end_ns"]
        self.dur = [e - s for s, e in zip(self.start, self.end)]
        self.cells = {int(k): v for k, v in raw["cells"].items()}
        self.import_ns = raw["import_ns"]
        # Self time: duration minus the part covered by child spans.  The
        # children of one span run one after another inside it (one thread),
        # so the covered part is the sum of their durations.
        covered = [0] * len(self.dur)
        for sid, par in enumerate(raw["parent"]):
            if par >= 0:
                covered[par] += self.dur[sid]
        self.self_ns = [d - c for d, c in zip(self.dur, covered)]
        self.parent = raw["parent"]

    def ids(self, *names: str) -> list[int]:
        wanted = set(names)
        return [sid for sid, n in enumerate(self.name) if n in wanted]

    def count(self, *names: str) -> int:
        return len(self.ids(*names))

    def count_layer(self, layer: str) -> int:
        return sum(1 for n in self.name if n.startswith(layer + "."))

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return 1e-9 * sum(s for n, s in zip(self.name, self.self_ns) if n.startswith(prefix))

    def in_call_self_s(self, *names: str) -> float:
        """Self time of the named functions' own layer, summed over their
        outermost calls and every same-layer span nested inside them."""
        wanted = set(names)
        total = 0
        for sid in self.ids(*names):
            par = self.parent[sid]
            while par >= 0 and self.name[par] not in wanted:
                par = self.parent[par]
            if par >= 0:
                continue  # nested in an outer call, already counted
            prefix = self.name[sid].split(".")[0] + "."
            # spans are stored in call order, so the subtree is a contiguous run
            last = bisect.bisect_left(self.start, self.end[sid], lo=sid)
            total += sum(
                self.self_ns[k] for k in range(sid, last) if self.name[k].startswith(prefix)
            )
        return 1e-9 * total

    def median_us(self, name: str) -> float:
        durs = [self.dur[sid] for sid in self.ids(name)]
        return 1e-3 * statistics.median(durs) if durs else 0.0

    def total_s(self, name: str) -> float:
        return 1e-9 * sum(self.dur[sid] for sid in self.ids(name))

    def ns_per_cell_update(self) -> float:
        steps = self.ids(*STEP_FUNCTIONS)
        cells = sum(self.cells[sid] for sid in steps)
        return sum(self.dur[sid] for sid in steps) / cells if cells else 0.0


LAYERS = (
    "cli", "io", "eulerian", "stencils", "effective",
    "diagnostics", "initdata", "lagrangian", "stability",
)

# name -> (unit, function of the SpanTable)
PER_LAYER = {
    "io.emit_run_outputs_s": ("s", lambda t: t.in_call_self_s("io.emit_run_outputs")),
    "io.build_id_calls": ("count", lambda t: t.count("io.build_id")),
    "io.load_config_s": ("s", lambda t: t.in_call_self_s("io.load_config")),
    "eulerian.steps": ("count", lambda t: t.count(*STEP_FUNCTIONS)),
    "eulerian.step_primitive_us": ("us", lambda t: t.median_us("eulerian.step_primitive")),
    "eulerian.step_effective_us": ("us", lambda t: t.median_us("eulerian.step_effective")),
    "eulerian.ns_per_cell_update": ("ns", lambda t: t.ns_per_cell_update()),
    "eulerian.stable_dt_s": ("s", lambda t: t.in_call_self_s("eulerian.stable_dt")),
    "eulerian.run_total_s": ("s", lambda t: t.total_s("eulerian.run")),
    "stencils.solve_tridiagonal_us": ("us", lambda t: t.median_us("stencils.solve_tridiagonal")),
    "stencils.solve_tridiagonal_calls": ("count", lambda t: t.count("stencils.solve_tridiagonal")),
    "stencils.ddx_calls": ("count", lambda t: t.count("stencils.ddx")),
    "initdata.manufactured_source_s": (
        "s", lambda t: t.in_call_self_s("initdata.manufactured_source")
    ),
    "initdata.build_initial_s": ("s", lambda t: t.in_call_self_s("initdata.build_initial")),
    "diagnostics.rates_s": ("s", lambda t: t.in_call_self_s(*RATE_FUNCTIONS)),
    "diagnostics.energy_dissipation_rate_us": ("us", lambda t: t.median_us(RATE_FUNCTIONS[0])),
    "diagnostics.bd_dissipation_rate_us": ("us", lambda t: t.median_us(RATE_FUNCTIONS[1])),
    "diagnostics.build_series_s": ("s", lambda t: t.in_call_self_s("diagnostics.build_series")),
    "effective.fields_calls": ("count", lambda t: t.count("effective.compute_effective_fields")),
    "effective.fields_us": ("us", lambda t: t.median_us("effective.compute_effective_fields")),
    "lagrangian.integrate_flow_s": ("s", lambda t: t.in_call_self_s("lagrangian.integrate_flow")),
    "lagrangian.to_lagrangian_s": ("s", lambda t: t.in_call_self_s("lagrangian.to_lagrangian")),
    "stability.twin_run_stability_s": (
        "s", lambda t: t.in_call_self_s("stability.twin_run_stability")
    ),
    "model.calls": ("count", lambda t: t.count_layer("model")),
    "model.s": ("s", lambda t: t.layer_self_s("model")),
    "cli.import_s": ("s", lambda t: 1e-9 * t.import_ns),
    **{
        f"{layer}.self_s": ("s", lambda t, _layer=layer: t.layer_self_s(_layer))
        for layer in LAYERS
    },
}


def trace_check(wl: Workload, table: SpanTable) -> str | None:
    """The traced run's step count must equal the run's own count of dt
    choices (one stable_dt per stepped state), so a step function bound
    somewhere the tracer missed shows as a mismatch."""
    steps = table.count(*STEP_FUNCTIONS)
    dt_choices = table.count("eulerian.stable_dt")
    if steps == 0 or steps != dt_choices:
        return f"traced steps {steps} != stable_dt calls {dt_choices}"
    if wl.command == "verify":
        rates = table.count(RATE_FUNCTIONS[0])
        if rates != steps:
            return f"traced steps {steps} != in-loop rate evaluations {rates}"
    return None


# -------------------------------------------------------------------- main

def environment() -> dict:
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = ""

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "git_describe": describe or "unknown",
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
    }


def measure(args) -> tuple[int, int, list[str], dict]:
    wl = WORKLOADS[args.workload]
    config_text = None
    if wl.n_cells is not None:
        inputs = scenario_inputs(args.seed)
        config_text = CONFIG.format(
            n_cells=wl.n_cells[args.size], formulation=wl.formulation, **inputs
        )
        print(f"inputs: amplitude={inputs['amplitude']!r} width={inputs['width']!r}")
    else:
        print("inputs: nsdv convergence takes no physical parameters; the seed is unused")

    attempted = failed = 0
    errors: list[str] = []

    def tally(child: Child, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if child.error is not None:
            failed += 1
            errors.append(f"{what}: {child.error}")

    if args.trace == 0:
        # One set-up probe before each command run, so both samples spread
        # over the whole window and see the same host; probes are topped up
        # to SETUP_REPEATS when few runs fit.
        def probe() -> float:
            child = run_child(wl, args.size, config_text, "probe").child
            tally(child, "setup probe")
            return child.wall_s

        setup, runs = [], []
        t0 = time.perf_counter()
        while True:
            setup.append(probe())
            run = run_child(wl, args.size, config_text).child
            tally(run, "run")
            runs.append(run)
            # start another pair only if it is expected to end within --seconds
            slowest = max(c.wall_s for c in runs) + max(setup)
            if time.perf_counter() - t0 + slowest > args.seconds:
                break
        setup += [probe() for _ in range(SETUP_REPEATS - len(setup))]
        print(f"runs: {len(runs)}, wall_s " + " ".join(f"{c.wall_s:.3f}" for c in runs))
        return attempted, failed, errors, {
            "wall_s": (statistics.median(c.wall_s for c in runs), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c in runs), "MB"),
        }

    plain = run_child(wl, args.size, config_text).child
    tally(plain, "untraced run")
    traced = run_child(wl, args.size, config_text, "traced")
    table = SpanTable(traced.spans) if traced.spans is not None else None
    if traced.child.error is None:
        traced.child.error = "no spans written" if table is None else trace_check(wl, table)
    tally(traced.child, "traced run")
    metrics = {
        name: (fn(table) if table else 0.0, unit) for name, (unit, fn) in PER_LAYER.items()
    }
    metrics["io.bytes_written"] = (traced.bytes_written, "bytes")
    metrics["trace.spans"] = (len(table.name) if table else 0, "count")
    metrics["trace.overhead_s"] = (traced.child.wall_s - plain.wall_s, "s")
    print(f"untraced wall_s {plain.wall_s:.3f}, traced wall_s {traced.child.wall_s:.3f}")
    return attempted, failed, errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny grids, for the benchmark's own test",
    )
    args = parser.parse_args(argv)
    if not (SRC / "nsdv" / "cli.py").is_file():
        print(f"perfbench: no nsdv sources under {SRC}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    try:
        attempted, failed, errors, metrics = measure(args)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    for err in errors:
        print(f"FAILED {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
