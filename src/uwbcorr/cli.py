"""Command-line surface.

Subcommands: simulate | baseline | train | evaluate | sweep | complexity |
pareto. Every run is reproducible from the config file plus the seed; any
config field can be overridden with ``--set section.key=value``, the
training epochs with ``--set train.max_epochs=N``. The config names no
file: a command reads and writes fixed names in ``--output-dir``, where
``simulate`` writes ``TRAIN_SET`` and ``EVAL_SET``, which ``train`` and
``sweep`` read unless ``--dataset`` and ``--eval-dataset`` name other files.
``train`` evaluates on the evaluation set when there is one and, like
``evaluate``, writes metrics.json and estimates.csv. A command solves
baselines on the plane z = ``environment.tag_height``, in the extent grown
by ``tdoa.BOUND_MARGIN``. Every command reads all its inputs, and
``simulate`` and ``train`` compute their results, before it makes the output
directory, so a bad or missing input leaves no directory behind. An error
from ``uwbcorr.errors`` (bad config, dataset, environment or checkpoint) or
a missing input file prints one line, ``error: <Type>: <message>``, to
stderr and exits with status 2; any other exception keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import dataio
from .complexity import OperationCount, SweepResult, cnn_baseline_ops, op_count, pareto_front
from .config import ExperimentConfig, enumerate_sweep, load_experiment_config
from .errors import ConfigError, DatasetFormatError, InsufficientDataError, MissingAnchorError
from .errors import UwbcorrError, check_int
from .metrics import CEP_QUANTILES, metrics_report
from .model import SWEEP_KEYS, load_checkpoint, make_model_config, save_checkpoint
from .simulate import default_environment, generate_dataset, grid_trajectory, random_trajectory
from .tdoa import STOP_REASONS, SolverOptions
from .training import evaluate_model, solve_solvable, train

TRAIN_SET, EVAL_SET = "train.jsonl", "eval.jsonl"  # what simulate writes to the output directory


def _setup(args) -> tuple[ExperimentConfig, Path]:
    """The config from --config and --set, and the --output-dir, which the
    command makes once it has read its inputs."""
    return load_experiment_config(args.config, args.set or []), Path(args.output_dir)


def _environment(cfg: ExperimentConfig, path):
    """The environment in ``path``, else the default hall, whose z extent
    must hold ``environment.tag_height``, the plane every command simulates
    and solves on."""
    env = dataio.read_environment(path) if path else default_environment()
    z, h = cfg.environment.tag_height, env.extent[2]
    if not 0.0 <= z <= h:
        raise ConfigError(f"environment.tag_height must lie in the environment's z range [0.0, {h}], got {z!r}")
    return env


def _setup_solving(args):
    """:func:`_setup` for a command that solves, with the --env file, else the
    environment.json of a simulate run in ``out``, and its solver options on
    the plane of the tag height. A bad solver box or plane fails before any
    dataset is read."""
    cfg, out = _setup(args)
    env = _environment(cfg, args.env or out / "environment.json")
    return cfg, out, env, SolverOptions.for_environment(env, cfg.environment.tag_height)


def cmd_simulate(args) -> int:
    cfg, out = _setup(args)
    env = _environment(cfg, args.env)
    data, z = cfg.dataset, cfg.environment.tag_height
    train_points = grid_trajectory(env, data.train_lines, data.train_points_per_line, z=z)
    eval_points = random_trajectory(env, data.n_eval, z=z, seed=cfg.seed + 1)
    train_set = generate_dataset(env, train_points, data.drop_probability, cfg.seed, data.snr_db)
    eval_set = generate_dataset(env, eval_points, data.drop_probability, cfg.seed + 1, data.snr_db)

    out.mkdir(parents=True, exist_ok=True)
    dataio.write_environment(out / "environment.json", env)
    dataio.write_samples_jsonl(out / TRAIN_SET, train_set)
    dataio.write_samples_jsonl(out / EVAL_SET, eval_set)

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
    cfg, out, env, solver = _setup_solving(args)
    dataset = dataio.read_samples_jsonl(args.dataset)
    try:
        solved = solve_solvable(dataset, env, solver)
    except MissingAnchorError as exc:
        raise MissingAnchorError(f"{args.dataset}: {exc}") from exc
    if not solved:
        raise InsufficientDataError(f"{args.dataset}: no solvable samples")
    out.mkdir(parents=True, exist_ok=True)
    unsolvable = len(dataset) - len(solved)
    solves = [e for _, e in solved]
    truths = np.array([s.true_position for s, _ in solved])
    estimates = np.array([e.position for e in solves])
    report = metrics_report(estimates, truths)
    extra = {
        "n_unsolvable": unsolvable,
        "stop_reasons": {r: sum(e.stop_reason == r for e in solves) for r in STOP_REASONS},
        "on_bound_share": float(np.mean([e.on_bound for e in solves])),
    }
    dataio.write_metrics_json(out / "baseline_metrics.json", report, extra=extra)
    dataio.write_estimates_csv(out / "baseline_estimates.csv", truths, estimates, solves=solves)
    print(
        f"baseline MAE {report.mae:.3f} m over {report.n_samples} samples "
        f"({unsolvable} unsolvable, excluded)"
    )
    return 0


def _evaluate_and_write(model, dataset, env, solver, out: Path, path) -> None:
    """Corrected and baseline metrics to metrics.json, positions to estimates.csv.
    The output directory is made once the evaluation has succeeded; a dataset
    it cannot evaluate is named by ``path``, the file it was read from."""
    try:
        result = evaluate_model(model, dataset, env, solver=solver)
    except (InsufficientDataError, MissingAnchorError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
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
    cfg, out, env, solver = _setup_solving(args)
    model_cfg = cfg.model.with_environment(env)
    train_path = args.dataset or out / TRAIN_SET
    train_set = dataio.read_samples_jsonl(train_path)
    if not train_set:  # refused before any training time is spent
        raise InsufficientDataError(f"{train_path}: no samples")
    # Only the default <output-dir>/eval.jsonl may be absent; an explicit
    # --eval-dataset must exist, and is read before any training time is spent.
    eval_path = Path(args.eval_dataset or out / EVAL_SET)
    eval_set = None
    if args.eval_dataset or eval_path.exists():
        eval_set = dataio.read_samples_jsonl(eval_path)
    started = time.monotonic()
    try:
        model = train(train_set, env, model_cfg, cfg.train, solver=solver)
    except (InsufficientDataError, MissingAnchorError) as exc:
        raise type(exc)(f"{train_path}: {exc}") from exc
    elapsed = time.monotonic() - started
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "checkpoint.npz")
    dataio.write_history_csv(out / "history.csv", model.history)
    print(
        f"trained {len(model.history.records)} epochs in {elapsed:.0f} s "
        f"(best val epoch {model.history.best_epoch}, "
        f"{model.history.n_skipped_samples} unsolvable samples skipped); "
        f"checkpoint at {out / 'checkpoint.npz'}"
    )
    if eval_set is not None:
        _evaluate_and_write(model, eval_set, env, solver, out, eval_path)
    return 0


def cmd_evaluate(args) -> int:
    cfg, out, env, solver = _setup_solving(args)
    model = load_checkpoint(args.checkpoint)
    n_total, multi = model.config.n_total, model.config.patching == "multi_cir"
    # a multi-CIR patch holds one CIR of every anchor, a learned table a row per token of n_total
    if (multi and n_total != env.n_anchors) or (model.config.encoding == "learned" and env.n_anchors > n_total):
        raise ConfigError(
            f"{args.checkpoint}: a {'multi_cir' if multi else 'learned-encoding'} checkpoint for "
            f"n_total={n_total} anchors cannot run on an environment of {env.n_anchors}"
        )
    # a spatial encoding divides each anchor position by the checkpoint's extent; below 0 fails at read
    outside = [a for a in env.anchors if np.any(a.position > model.config.extent)]
    if outside and model.config.encoding != "learned":
        where = f"anchor {outside[0].id} at {outside[0].position.tolist()}"
        raise ConfigError(f"{args.checkpoint}: {where} lies outside its extent {list(model.config.extent)}")
    dataset = dataio.read_samples_jsonl(args.dataset)
    _evaluate_and_write(model, dataset, env, solver, out, args.dataset)
    return 0


def _sweep_key(combo: dict) -> tuple:
    return tuple(str(combo[k]) for k in SWEEP_KEYS)


def _cell(path, n: int, row: dict, column: str) -> str:
    """Column ``column`` of row ``n`` (1-based, after the header) of the sweep
    table ``path``; a missing cell raises DatasetFormatError naming all three."""
    if row.get(column) is None:  # the header lacks the column, or the row is short
        raise DatasetFormatError(f"{path}: row {n}: no {column!r} column")
    return row[column]


def _number(path, n: int, row: dict, column: str) -> float:
    text = _cell(path, n, row, column)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DatasetFormatError(f"{path}: row {n}: {column!r} is {text!r}, not a finite number")
    return value


def _read_sweep_table(path) -> tuple[set[tuple], list[SweepResult]]:
    """The sweep keys of every row of the table ``path``, and its ``ok`` rows
    with their total_ops and mae. A missing cell, or a total_ops or mae that
    is not a finite number, raises DatasetFormatError naming the file, the
    row and the column."""
    keys, results = set(), []
    for n, row in enumerate(dataio.read_sweep_rows(path), 1):
        keys.add(tuple(_cell(path, n, row, k) for k in SWEEP_KEYS))
        if _cell(path, n, row, "status") == "ok":
            cost, mae = (_number(path, n, row, c) for c in ("total_ops", "mae"))
            results.append(SweepResult(config=row, total_ops=cost, mae=mae))
    return keys, results


def cmd_sweep(args) -> int:
    if args.limit is not None:  # checked before anything is read or written
        check_int("--limit", args.limit)
    cfg, out, env, solver = _setup_solving(args)
    train_path = args.dataset or out / TRAIN_SET
    eval_path = args.eval_dataset or out / EVAL_SET
    train_set = dataio.read_samples_jsonl(train_path)[: cfg.sweep.n_train_cap]  # None keeps all
    eval_set = dataio.read_samples_jsonl(eval_path)[: cfg.sweep.n_eval_cap]
    for path, samples in ((train_path, train_set), (eval_path, eval_set)):
        if not samples:  # refused before any training time is spent
            raise InsufficientDataError(f"{path}: no samples")
    results_path = out / "sweep_results.csv"
    # a rerun skips the configurations already in the table; a bad table fails here
    done = _read_sweep_table(results_path)[0] if results_path.exists() else set()
    out.mkdir(parents=True, exist_ok=True)
    n_av = float(np.mean([len(s.raw_cirs) for s in eval_set]))

    combos = enumerate_sweep(cfg.sweep)[: args.limit]  # a None limit runs them all
    train_cfg = replace(cfg.train, max_epochs=cfg.sweep.max_epochs)
    for combo in combos:
        if _sweep_key(combo) in done:
            continue
        row = dict(combo)
        try:
            model_cfg = replace(cfg.model, **combo).with_environment(env)
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
    _write_pareto(_read_sweep_table(results_path)[1], out / "pareto.csv")
    print(f"sweep table at {results_path}")
    return 0


def _write_pareto(results: list[SweepResult], pareto_path) -> list[dict]:
    """Write the non-dominated rows of ``_read_sweep_table``, strings as read."""
    front = [r.config for r in pareto_front(results)]
    dataio.write_table(pareto_path, front, dataio.SWEEP_COLUMNS)
    return front


def cmd_complexity(args) -> int:
    cfg, out = _setup(args)
    ops_columns = [f.name for f in fields(OperationCount)]
    rows = []  # built first: a bad --n-av or --n-total fails before the directory is made
    for combo in enumerate_sweep(cfg.sweep):
        ops = op_count(make_model_config(n_total=args.n_total, **combo), args.n_av)
        rows.append({**combo, **{c: f"{getattr(ops, c):.0f}" for c in ops_columns}})
    out.mkdir(parents=True, exist_ok=True)
    path = out / "complexity.csv"
    dataio.write_table(path, rows, [*SWEEP_KEYS, *ops_columns])
    pairs = args.n_av * (args.n_av - 1) / 2
    print(
        f"complexity table at {path}; pairwise-CNN reference at n_av={args.n_av}: "
        f"{cnn_baseline_ops(int(round(pairs)))} ops"
    )
    return 0


def cmd_pareto(args) -> int:
    cfg, out = _setup(args)
    _, results = _read_sweep_table(args.results)
    out.mkdir(parents=True, exist_ok=True)
    front = _write_pareto(results, out / "pareto.csv")
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
        p.add_argument("--output-dir", default="runs/default", help="where a command reads and writes (default: %(default)s)")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override any config field, e.g. --set model.d_model=128",
        )
        return p

    p = command("simulate", cmd_simulate, "generate synthetic train/eval datasets")
    p.add_argument("--env", help="environment JSON (default: the built-in hall)")

    p = command("baseline", cmd_baseline, "uncorrected TDoA metrics for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--env", help="environment JSON (default: <output-dir>/environment.json)")

    p = command("train", cmd_train, "train a correction model")
    p.add_argument("--dataset", help="training JSONL (default: <output-dir>/train.jsonl)")
    p.add_argument("--eval-dataset", help="evaluation JSONL (default: <output-dir>/eval.jsonl)")
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
    except (UwbcorrError, FileNotFoundError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
