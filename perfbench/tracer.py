"""Run the nsdv command line with every public function of the package traced.

Usage: python tracer.py SPANS_JSON -- <nsdv command-line arguments>

Each public function defined in an nsdv module is replaced, at every module
binding that refers to it, by a wrapper that records one span (name, start,
end, parent span) per call in memory.  `solve_tridiagonal`, for example, is
bound in `nsdv.stencils`, `nsdv.eulerian` and `nsdv.lagrangian`; all three
bindings are rewrapped, so no call site escapes.  Nothing under `src/` is
modified.  When the command returns, the spans are written to SPANS_JSON and
the process exits with the command's exit code.

Per-element helpers listed in UNTRACED are left alone: `io.fmt` runs once
per CSV cell (millions of times per run), so a span around it would cost more
than the work it times, and its time stays in its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

UNTRACED = frozenset({"io.fmt"})

# Step functions whose spans also record the number of grid cells updated,
# read from their `grid` argument.
SIZED = ("eulerian.step_primitive", "eulerian.step_effective")


class Tracer:
    """In-memory span recorder; spans are stored as parallel columns."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.cells: dict[int, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, stack, cells = (
            self.name_id, self.start, self.end, self.parent, self._stack, self.cells
        )
        clock = time.perf_counter_ns
        grid_pos = (
            list(inspect.signature(fn).parameters).index("grid") if name in SIZED else None
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                if grid_pos is not None:
                    grid = args[grid_pos] if len(args) > grid_pos else kwargs["grid"]
                    cells[sid] = grid.n_cells

        return traced

    def install(self, package) -> None:
        """Wrap every public function of `package`'s modules at every binding."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        prefix = package.__name__ + "."
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.removeprefix(prefix)
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[obj] = self.wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def dump(self, path: str, import_ns: int) -> None:
        body = {
            "names": self.names,
            "name_id": self.name_id,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "cells": {str(k): v for k, v in self.cells.items()},
            "import_ns": import_ns,
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(body, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter_ns()
    import nsdv.cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install(sys.modules["nsdv"])
    rc = nsdv.cli.main(cli_args)
    tracer.dump(spans_path, import_ns)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
