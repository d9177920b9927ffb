"""Command-line surface.

Subcommands: simulate | baseline | train | evaluate | sweep | complexity |
pareto. Every run is reproducible from the config file plus the seed; any
config field can be overridden with ``--set section.key=value``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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
from .metrics import CEP_QUANTILES, metrics_report
from .model import load_checkpoint, save_checkpoint
from .simulate import ChannelConfig, generate_dataset, grid_trajectory, random_trajectory
from .tdoa import solve_baselines
from .training import TrainConfig, evaluate_model, train


def _load_config(args) -> ExperimentConfig:
    cfg = load_experiment_config(args.config, args.set or [])
    if args.output_dir:
        cfg.output_dir = args.output_dir
    return cfg


def _out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out(cfg)
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


def _read_env_and_dataset(args, cfg):
    env_path = args.env or str(Path(cfg.output_dir) / "environment.json")
    env = dataio.read_environment(env_path)
    dataset = dataio.read_samples_jsonl(args.dataset)
    return env, dataset


def cmd_baseline(args) -> int:
    cfg = _load_config(args)
    out = _out(cfg)
    env, dataset = _read_env_and_dataset(args, cfg)
    estimates = solve_baselines(dataset, env.anchors, cfg.solver.options(env))
    solved = [(s.true_position, e.position) for s, e in zip(dataset, estimates) if e is not None]
    unsolvable = len(dataset) - len(solved)
    if not solved:
        print("no solvable samples", file=sys.stderr)
        return 1
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


def _train_once(cfg, env, train_set, train_cfg):
    model_cfg = cfg.model.build(env)
    return train(train_set, env, model_cfg, train_cfg, solver=cfg.solver.options(env))


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _out(cfg)
    env = dataio.read_environment(args.env or str(out / "environment.json"))
    train_set = dataio.read_samples_jsonl(args.dataset or str(out / cfg.dataset.train_path))
    train_cfg = cfg.train if args.max_epochs is None else TrainConfig(
        **{**cfg.train.__dict__, "max_epochs": args.max_epochs}
    )
    started = time.monotonic()
    model = _train_once(cfg, env, train_set, train_cfg)
    elapsed = time.monotonic() - started
    save_checkpoint(model, out / "checkpoint.npz")
    dataio.write_history_csv(out / "history.csv", model.history)
    print(
        f"trained {len(model.history.records)} epochs in {elapsed:.0f} s "
        f"(best val epoch {model.history.best_epoch}, "
        f"{model.history.n_skipped_samples} unsolvable samples skipped); "
        f"checkpoint at {out / 'checkpoint.npz'}"
    )
    eval_path = args.eval_dataset or str(out / cfg.dataset.eval_path)
    if Path(eval_path).exists():
        result = evaluate_model(
            model, dataio.read_samples_jsonl(eval_path), env, solver=cfg.solver.options(env)
        )
        dataio.write_metrics_json(
            out / "metrics.json",
            result.report,
            extra={
                "baseline_mae_m": result.baseline_report.mae,
                "n_unsolvable": result.n_unsolvable,
            },
        )
        print(
            f"eval MAE {result.report.mae:.3f} m vs baseline "
            f"{result.baseline_report.mae:.3f} m"
        )
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    out = _out(cfg)
    env, dataset = _read_env_and_dataset(args, cfg)
    model = load_checkpoint(args.checkpoint)
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
    return 0


def _sweep_key(combo: dict) -> tuple:
    return (
        combo["patching"],
        combo["ordering"],
        combo["encoding"],
        str(combo["l_patch"]),
        str(combo["d_model"]),
    )


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out(cfg)
    env = dataio.read_environment(args.env or str(out / "environment.json"))
    train_set = dataio.read_samples_jsonl(args.dataset or str(out / cfg.dataset.train_path))
    eval_set = dataio.read_samples_jsonl(
        args.eval_dataset or str(out / cfg.dataset.eval_path)
    )
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
    train_cfg = TrainConfig(
        **{**cfg.train.__dict__, "max_epochs": cfg.sweep.max_epochs, "seed": cfg.seed}
    )
    for combo in combos:
        if _sweep_key(combo) in done:
            continue
        row = dict(combo)
        try:
            model_cfg = cfg.model.__class__(**{**cfg.model.__dict__, **combo}).build(env)
            model = train(train_set, env, model_cfg, train_cfg, solver=cfg.solver.options(env))
            result = evaluate_model(model, eval_set, env, solver=cfg.solver.options(env))
            ops = op_count(model_cfg, env.n_anchors, n_av)
            row.update(
                total_ops=f"{ops.total_ops:.0f}",
                mae=f"{result.report.mae:.6f}",
                status="ok",
                **{f"cep{q}": f"{result.report.cep[q]:.6f}" for q in CEP_QUANTILES},
            )
        except Exception as exc:  # record and continue: one bad combo must not kill the sweep
            row.update(status=f"error:{exc}")
        dataio.append_sweep_row(results_path, row)
    _write_pareto(results_path, out / "pareto.csv")
    print(f"sweep table at {results_path}")
    return 0


def _write_pareto(results_path, pareto_path):
    rows = [r for r in dataio.read_sweep_rows(results_path) if r.get("status") == "ok"]
    results = [
        SweepResult(
            config={k: r[k] for k in ("patching", "ordering", "encoding", "l_patch", "d_model")},
            total_ops=float(r["total_ops"]),
            mae=float(r["mae"]),
            cep={q: float(r[f"cep{q}"]) for q in CEP_QUANTILES},
        )
        for r in rows
    ]
    front = pareto_front(results)
    for_csv = [
        {**r.config, "total_ops": f"{r.total_ops:.0f}", "mae": f"{r.mae:.6f}", "status": "ok",
         **{f"cep{q}": f"{r.cep[q]:.6f}" for q in CEP_QUANTILES}}
        for r in front
    ]
    Path(pareto_path).unlink(missing_ok=True)
    for row in for_csv:
        dataio.append_sweep_row(pareto_path, row)
    return front


def cmd_complexity(args) -> int:
    cfg = _load_config(args)
    out = _out(cfg)
    from .model import make_model_config

    n_total = args.n_total
    n_av = args.n_av
    rows = []
    for combo in enumerate_sweep(cfg.sweep):
        model_cfg = make_model_config(n_total=n_total, **combo)
        ops = op_count(model_cfg, n_total, n_av)
        rows.append(
            {
                **combo,
                "embedding_ops": f"{ops.embedding_ops:.0f}",
                "attention_ops": f"{ops.attention_ops:.0f}",
                "feedforward_ops": f"{ops.feedforward_ops:.0f}",
                "head_ops": f"{ops.head_ops:.0f}",
                "total_ops": f"{ops.total_ops:.0f}",
            }
        )
    path = out / "complexity.csv"
    import csv as _csv

    with path.open("w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    pairs = n_av * (n_av - 1) / 2
    print(
        f"complexity table at {path}; pairwise-CNN reference at n_av={n_av}: "
        f"{cnn_baseline_ops(int(round(pairs)))} ops"
    )
    return 0


def cmd_pareto(args) -> int:
    cfg = _load_config(args)
    out = _out(cfg)
    front = _write_pareto(args.results, out / "pareto.csv")
    print(f"{len(front)} Pareto-optimal rows -> {out / 'pareto.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbcorr",
        description="UWB TDoA positioning with transformer-based CIR error correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--output-dir", help="where outputs go (overrides config)")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override any config field, e.g. --set model.d_model=128",
        )

    p = sub.add_parser("simulate", help="generate synthetic train/eval datasets")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="uncorrected TDoA metrics for a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--env", help="environment JSON (default: <output-dir>/environment.json)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("train", help="train a correction model")
    common(p)
    p.add_argument("--dataset", help="training JSONL (default from config)")
    p.add_argument("--eval-dataset", help="evaluation JSONL (default from config)")
    p.add_argument("--env")
    p.add_argument("--max-epochs", type=int, help="cap training epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--env")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="train/evaluate every grid configuration")
    common(p)
    p.add_argument("--dataset")
    p.add_argument("--eval-dataset")
    p.add_argument("--env")
    p.add_argument("--limit", type=int, help="only run the first N configurations")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("complexity", help="closed-form operation counts for the grid")
    common(p)
    p.add_argument("--n-total", type=int, default=15)
    p.add_argument("--n-av", type=float, default=6.2)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("pareto", help="extract the Pareto front from a results CSV")
    common(p)
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_pareto)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
