"""Command-line surface.

Subcommands: simulate | baseline | train | evaluate | sweep | complexity |
pareto. Every run is reproducible from the config file plus the seed; any
config field can be overridden with ``--set section.key=value``, the
training epochs with ``--set train.max_epochs=N``. ``train`` evaluates on
the evaluation set when there is one and, like ``evaluate``, writes
metrics.json and estimates.csv. An error from ``uwbcorr.errors`` (bad
config, dataset, environment or checkpoint) prints one line,
``error: <Type>: <message>``, to stderr and exits with status 2; any other
exception keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio
from .complexity import SweepResult, cnn_baseline_ops, op_count, pareto_front
from .config import (
    ExperimentConfig,
    enumerate_sweep,
    load_experiment_config,
    resolve_environment,
)
from .errors import InsufficientDataError, UwbcorrError
from .metrics import CEP_QUANTILES, metrics_report
from .model import load_checkpoint, make_model_config, save_checkpoint
from .simulate import ChannelConfig, generate_dataset, grid_trajectory, random_trajectory
from .tdoa import solve_baselines
from .training import evaluate_model, train


def _setup(args) -> tuple[ExperimentConfig, Path]:
    """The config from --config and --set, and its output directory, created."""
    cfg = load_experiment_config(args.config, args.set or [])
    if args.output_dir:
        cfg.output_dir = args.output_dir
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _environment(args, out: Path):
    """The --env file, else the environment.json of a simulate run in ``out``."""
    return dataio.read_environment(args.env or out / "environment.json")


def cmd_simulate(args) -> int:
    cfg, out = _setup(args)
    env = resolve_environment(cfg.environment)
    channel = ChannelConfig(snr_db=cfg.dataset.snr_db)
    z = cfg.environment.tag_height

    train_points = grid_trajectory(
        env, cfg.dataset.train_lines, cfg.dataset.train_points_per_line, z=z
    )
    eval_points = random_trajectory(env, cfg.dataset.n_eval, z=z, seed=cfg.seed + 1)
    train_set = generate_dataset(
        env, train_points, cfg.dataset.drop_probability, cfg.seed, channel
    )
    eval_set = generate_dataset(
        env, eval_points, cfg.dataset.drop_probability, cfg.seed + 1, channel
    )

    dataio.write_environment(out / "environment.json", env)
    dataio.write_anchors(out / "anchors.json", env.anchors)
    dataio.write_samples_jsonl(out / cfg.dataset.train_path, train_set)
    dataio.write_samples_jsonl(out / cfg.dataset.eval_path, eval_set)

    mean_available = float(
        np.mean([len(s.raw_cirs) for s in train_set + eval_set])
    )
    summary = {
        "n_train": len(train_set),
        "n_eval": len(eval_set),
        "n_anchors": env.n_anchors,
        "mean_available_anchors": mean_available,
    }
    (out / "simulate_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"wrote {len(train_set)} train / {len(eval_set)} eval samples to {out}; "
        f"mean available anchors {mean_available:.2f}/{env.n_anchors}"
    )
    return 0


def cmd_baseline(args) -> int:
    cfg, out = _setup(args)
    env = _environment(args, out)
    dataset = dataio.read_samples_jsonl(args.dataset)
    estimates = solve_baselines(dataset, env.anchors, cfg.solver.options(env))
    solved = [(s.true_position, e.position) for s, e in zip(dataset, estimates) if e is not None]
    if not solved:
        raise InsufficientDataError(f"{args.dataset}: no solvable samples")
    unsolvable = len(dataset) - len(solved)
    truths, estimates = (np.array(column) for column in zip(*solved))
    report = metrics_report(estimates, truths)
    dataio.write_metrics_json(
        out / "baseline_metrics.json", report, extra={"n_unsolvable": unsolvable}
    )
    dataio.write_estimates_csv(out / "baseline_estimates.csv", truths, estimates)
    print(
        f"baseline MAE {report.mae:.3f} m over {report.n_samples} samples "
        f"({unsolvable} unsolvable, excluded)"
    )
    return 0


def _evaluate_and_write(model, dataset, env, cfg: ExperimentConfig, out: Path) -> None:
    """Corrected and baseline metrics to metrics.json, positions to estimates.csv."""
    result = evaluate_model(model, dataset, env, solver=cfg.solver.options(env))
    dataio.write_metrics_json(
        out / "metrics.json",
        result.report,
        extra={
            "baseline_mae_m": result.baseline_report.mae,
            "n_unsolvable": result.n_unsolvable,
        },
    )
    dataio.write_estimates_csv(
        out / "estimates.csv", result.truths, result.baselines, result.estimates
    )
    print(
        f"MAE {result.report.mae:.3f} m (baseline {result.baseline_report.mae:.3f} m), "
        f"CEP95 {result.report.cep[95]:.3f} m, {result.n_unsolvable} unsolvable"
    )


def cmd_train(args) -> int:
    cfg, out = _setup(args)
    env = _environment(args, out)
    model_cfg = cfg.model.build(env)  # a bad model value fails before any dataset is read
    train_set = dataio.read_samples_jsonl(args.dataset or out / cfg.dataset.train_path)
    # Only the config's default evaluation set may be absent; an explicit
    # --eval-dataset must exist, and is read before any training time is spent.
    eval_path = Path(args.eval_dataset or out / cfg.dataset.eval_path)
    eval_set = None
    if args.eval_dataset or eval_path.exists():
        eval_set = dataio.read_samples_jsonl(eval_path)
    started = time.monotonic()
    model = train(train_set, env, model_cfg, cfg.train, solver=cfg.solver.options(env))
    elapsed = time.monotonic() - started
    save_checkpoint(model, out / "checkpoint.npz")
    dataio.write_history_csv(out / "history.csv", model.history)
    print(
        f"trained {len(model.history.records)} epochs in {elapsed:.0f} s "
        f"(best val epoch {model.history.best_epoch}, "
        f"{model.history.n_skipped_samples} unsolvable samples skipped); "
        f"checkpoint at {out / 'checkpoint.npz'}"
    )
    if eval_set is not None:
        _evaluate_and_write(model, eval_set, env, cfg, out)
    return 0


def cmd_evaluate(args) -> int:
    cfg, out = _setup(args)
    env = _environment(args, out)
    dataset = dataio.read_samples_jsonl(args.dataset)
    _evaluate_and_write(load_checkpoint(args.checkpoint), dataset, env, cfg, out)
    return 0


_SWEEP_KEYS = ("patching", "ordering", "encoding", "l_patch", "d_model")


def _sweep_key(combo: dict) -> tuple:
    return tuple(str(combo[k]) for k in _SWEEP_KEYS)


def cmd_sweep(args) -> int:
    cfg, out = _setup(args)
    env = _environment(args, out)
    train_set = dataio.read_samples_jsonl(args.dataset or out / cfg.dataset.train_path)
    eval_set = dataio.read_samples_jsonl(args.eval_dataset or out / cfg.dataset.eval_path)
    if cfg.sweep.n_train_cap:
        train_set = train_set[: cfg.sweep.n_train_cap]
    if cfg.sweep.n_eval_cap:
        eval_set = eval_set[: cfg.sweep.n_eval_cap]
    n_av = float(np.mean([len(s.raw_cirs) for s in eval_set]))

    combos = enumerate_sweep(cfg.sweep)
    if args.limit:
        combos = combos[: args.limit]
    results_path = out / "sweep_results.csv"
    done = {_sweep_key(r) for r in dataio.read_sweep_rows(results_path)}
    train_cfg = replace(cfg.train, max_epochs=cfg.sweep.max_epochs)
    solver = cfg.solver.options(env)
    for combo in combos:
        if _sweep_key(combo) in done:
            continue
        row = dict(combo)
        try:
            model_cfg = replace(cfg.model, **combo).build(env)
            model = train(train_set, env, model_cfg, train_cfg, solver=solver)
            result = evaluate_model(model, eval_set, env, solver=solver)
            ops = op_count(model_cfg, n_av)
            row.update(
                total_ops=f"{ops.total_ops:.0f}",
                mae=f"{result.report.mae:.6f}",
                status="ok",
                **{f"cep{q}": f"{result.report.cep[q]:.6f}" for q in CEP_QUANTILES},
            )
        except Exception as exc:  # record and continue: one bad combo must not kill the sweep
            row.update(status=f"error:{type(exc).__name__}: {exc}")
        dataio.append_sweep_row(results_path, row)
    _write_pareto(results_path, out / "pareto.csv")
    print(f"sweep table at {results_path}")
    return 0


def _write_pareto(results_path, pareto_path) -> list[dict]:
    """Write the non-dominated ``ok`` rows of a sweep table, strings as read."""
    results = [
        SweepResult(config=row, total_ops=float(row["total_ops"]), mae=float(row["mae"]))
        for row in dataio.read_sweep_rows(results_path)
        if row.get("status") == "ok"
    ]
    front = [r.config for r in pareto_front(results)]
    dataio.write_table(pareto_path, front, dataio.SWEEP_COLUMNS)
    return front


_OPS_COLUMNS = ("embedding_ops", "attention_ops", "feedforward_ops", "head_ops", "total_ops")


def cmd_complexity(args) -> int:
    cfg, out = _setup(args)
    rows = []
    for combo in enumerate_sweep(cfg.sweep):
        ops = op_count(make_model_config(n_total=args.n_total, **combo), args.n_av)
        rows.append({**combo, **{c: f"{getattr(ops, c):.0f}" for c in _OPS_COLUMNS}})
    path = out / "complexity.csv"
    dataio.write_table(path, rows, [*_SWEEP_KEYS, *_OPS_COLUMNS])
    pairs = args.n_av * (args.n_av - 1) / 2
    print(
        f"complexity table at {path}; pairwise-CNN reference at n_av={args.n_av}: "
        f"{cnn_baseline_ops(int(round(pairs)))} ops"
    )
    return 0


def cmd_pareto(args) -> int:
    cfg, out = _setup(args)
    front = _write_pareto(args.results, out / "pareto.csv")
    print(f"{len(front)} Pareto-optimal rows -> {out / 'pareto.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbcorr",
        description="UWB TDoA positioning with transformer-based CIR error correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--output-dir", help="where outputs go (overrides config)")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override any config field, e.g. --set model.d_model=128",
        )
        return p

    command("simulate", cmd_simulate, "generate synthetic train/eval datasets")

    p = command("baseline", cmd_baseline, "uncorrected TDoA metrics for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--env", help="environment JSON (default: <output-dir>/environment.json)")

    p = command("train", cmd_train, "train a correction model")
    p.add_argument("--dataset", help="training JSONL (default from config)")
    p.add_argument("--eval-dataset", help="evaluation JSONL (default from config)")
    p.add_argument("--env")

    p = command("evaluate", cmd_evaluate, "evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--env")

    p = command("sweep", cmd_sweep, "train/evaluate every grid configuration")
    p.add_argument("--dataset")
    p.add_argument("--eval-dataset")
    p.add_argument("--env")
    p.add_argument("--limit", type=int, help="only run the first N configurations")

    p = command("complexity", cmd_complexity, "closed-form operation counts for the grid")
    p.add_argument("--n-total", type=int, default=15)
    p.add_argument("--n-av", type=float, default=6.2)

    p = command("pareto", cmd_pareto, "extract the Pareto front from a results CSV")
    p.add_argument("--results", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UwbcorrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
