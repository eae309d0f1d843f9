"""Set-up probe: what a fresh interpreter does before the first time step.

Usage: python setup_probe.py <nsdv command-line arguments>

Imports the nsdv command line, parses the arguments, reads the scenario
config and builds its initial data, then exits.  The benchmark times this
process from spawn to exit.  `nsdv convergence` takes no config; its initial
data is the manufactured solution at t=0 on the coarsest grid of the study,
whose size and parameters are read from `mms_convergence`'s defaults.
"""

from __future__ import annotations

import inspect
import sys


def main(argv: list[str]) -> int:
    from nsdv import cli, io
    from nsdv.initdata import build_initial, manufactured_exact
    from nsdv.model import Grid1D, ModelParams

    args = cli.build_parser().parse_args(argv)
    if args.command == "convergence":
        d = {
            k: v.default for k, v in inspect.signature(cli.mms_convergence).parameters.items()
        }
        p = ModelParams(alpha=d["alpha"], gamma=d["gamma"], half_length=d["half_length"])
        manufactured_exact(args.id, 0.0, Grid1D(d["base_n"], d["half_length"]), p)
    else:
        build_initial(io.load_config(args.config))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
