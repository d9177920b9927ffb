#!/usr/bin/env python3
"""Parameter sweep over patching / ordering / encoding / L_patch / d_model.

The full grid is 252 configurations; by default this runs a desk-scale
version (reduced epochs and dataset caps, from the sweep section of the
config) and extracts the Pareto front over (operation count, MAE). Use
--limit for a quick look at the first few configurations.

Expects a simulate run in --output-dir (see run_end_to_end.py).
"""

import argparse
import sys

from uwbcorr.cli import main as cli


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="runs/demo")
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    args = parser.parse_args(argv)

    cmd = ["sweep", "--output-dir", args.output_dir]  # reads the simulate run's files there
    if args.limit is not None:  # the sweep command rejects a limit below 1
        cmd += ["--limit", str(args.limit)]
    if args.epochs is not None:
        cmd += ["--set", f"sweep.max_epochs={args.epochs}"]
    rc = cli(cmd)
    if rc:
        return rc
    return cli(["complexity", "--output-dir", args.output_dir])


if __name__ == "__main__":
    sys.exit(run())
