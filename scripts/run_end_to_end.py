#!/usr/bin/env python3
"""Small end-to-end demo: simulate -> baseline -> train, where train also
evaluates the model on the held-out set.

Uses reduced dataset sizes and epochs so the whole run finishes in about a
minute; pass --full for paper-scale sizes (3000/1000 samples, 90 epochs).
"""

import argparse
import sys

from uwbcorr.cli import main as cli


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="runs/demo")
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)

    out = args.output_dir
    if args.full:
        sim_overrides = []
        epochs = "90"
    else:
        sim_overrides = [
            "--set", "dataset.train_lines=6",
            "--set", "dataset.train_points_per_line=60",
            "--set", "dataset.n_eval=120",
        ]
        epochs = "15"

    rc = cli(["simulate", "--output-dir", out, *sim_overrides])
    if rc:
        return rc
    # baseline and train read the environment.json, and train the train.jsonl
    # and eval.jsonl, that simulate wrote to the output directory
    rc = cli(["baseline", "--output-dir", out, "--dataset", f"{out}/eval.jsonl"])
    if rc:
        return rc
    return cli(["train", "--output-dir", out, "--set", f"train.max_epochs={epochs}"])


if __name__ == "__main__":
    sys.exit(run())
