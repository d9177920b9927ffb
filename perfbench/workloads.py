"""The three benchmark workloads: set-up, the timed operation, and checks.

Each workload is driven as a closed loop by one caller: the next operation
starts when the previous one has returned. The package only ever sees the
generated samples; everything derives from the workload seed.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import uwbcorr.dataio as dataio
import uwbcorr.metrics as metrics
import uwbcorr.model as model_mod
import uwbcorr.simulate as simulate
import uwbcorr.tdoa as tdoa
import uwbcorr.training as training
from uwbcorr.errors import InsufficientDataError

from tracing import percentile, tail_percentile

DROP_PROBABILITY = 0.587  # the package's dataset default: 6.2 of 15 anchors receive
WALK_STEP_M = 2.0  # fixes 2 m apart, so consecutive samples are nearly independent
TAG_HEIGHT_M = 1.0
MIN_FIXES = 1100  # four passes of the pool; p99 of fixes and of B=1 forwards has ten beyond
SAFE_START_SAMPLES = 16
B1_TOLERANCE_M = 1e-9
MIX_TOP_BIN = 10  # receiving-anchor counts of 10 or more share one bin


@dataclass(frozen=True)
class Workload:
    name: str
    patching: str
    ordering: str
    encoding: str
    l_patch: int
    d_model: int
    n_train: int  # samples handed to train(); 0 for the fix stream
    n_eval: int  # samples evaluated, or distinct samples in the fix pool
    epochs: int
    fixed_mix: bool = False  # training samples fill a fixed receiving-anchor histogram

    def sizes(self) -> dict:
        return {
            "n_train": self.n_train,
            "n_eval": self.n_eval,
            "epochs": self.epochs,
            "fixed_anchor_mix": self.fixed_mix,
            "batch_size": training.TrainConfig().batch_size,
            "model": f"{self.patching}/{self.ordering}/{self.encoding}/"
            f"l_patch={self.l_patch}/d_model={self.d_model}",
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_default", "per_cir", "fixed", "spatial", 150, 64, 71, 128, 34),
        Workload("train_ragged", "per_cir", "time_based", "spatial_time", 30, 64, 96, 128, 12, True),
        Workload("stream_fix", "per_cir", "fixed", "spatial", 150, 64, 0, 275, 0),
    )
}


@dataclass
class Inputs:
    env: simulate.Environment
    solver: tdoa.SolverOptions
    config: model_mod.ModelConfig
    train_set: list
    eval_set: list
    model: model_mod.CorrectionModel | None  # the fix stream's reloaded model
    train_seed: int


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    unsolvable: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1):
        self.failed += count
        self.failures[reason] = self.failures.get(reason, 0) + count

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.fail(f"check:{name}")


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _samples(env, n: int, seed_walk: int, seed_channel: int) -> list:
    walk = simulate.random_trajectory(
        env, n, z=TAG_HEIGHT_M, seed=seed_walk, step=WALK_STEP_M
    )
    return simulate.generate_dataset(env, walk, DROP_PROBABILITY, seed_channel)


def anchor_count_quota(n: int, n_anchors: int) -> dict[int, int]:
    """Expected histogram of receiving-anchor counts over n solvable samples.

    Counts are binomial in the anchors given DROP_PROBABILITY, from 3 up;
    counts of MIX_TOP_BIN and more share one bin, so no quota waits for a
    rare sample. Rounded by largest remainder so the quotas sum to n.
    """
    p = 1.0 - DROP_PROBABILITY
    weights: dict[int, float] = {}
    for k in range(3, n_anchors + 1):
        key = min(k, MIX_TOP_BIN)
        weights[key] = weights.get(key, 0.0) + math.comb(n_anchors, k) * p**k * (1 - p) ** (n_anchors - k)
    total = sum(weights.values())
    exact = {k: n * w / total for k, w in weights.items()}
    quota = {k: math.floor(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: quota[k] - exact[k])[: n - sum(quota.values())]:
        quota[k] += 1
    return quota


def _fixed_mix(env, n: int, seed_walk: int, seed_channel: int) -> list:
    """The first samples along seeded walks that fill the anchor-count histogram.

    Token counts in the ragged model follow the receiving anchors, so a fixed
    histogram gives every seed the same token groups and about the same batch
    plan; positions and channels still change with the seed.
    """
    quota = anchor_count_quota(n, env.n_anchors)
    picked = []
    walk = 0
    while len(picked) < n:
        for sample in _samples(env, 2 * n, seed_walk + walk, seed_channel + walk):
            key = min(len(sample.raw_cirs), MIX_TOP_BIN)
            if quota.get(key, 0) > 0:
                quota[key] -= 1
                picked.append(sample)
        walk += 1
    return picked


def setup(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Simulate the samples, round-trip them through JSONL, build the model."""
    walk_train, chan_train, walk_eval, chan_eval, train_seed, model_seed = _seeds(seed, 6)
    env = simulate.default_environment()
    solver = tdoa.SolverOptions.for_environment(env, fix_z=TAG_HEIGHT_M)
    config = model_mod.make_model_config(
        w.patching, w.ordering, w.encoding, w.l_patch, w.d_model, env=env
    )
    workdir.mkdir(parents=True, exist_ok=True)
    sets = []
    for label, n, walk_seed, chan_seed in (
        ("train", w.n_train, walk_train, chan_train),
        ("eval", w.n_eval, walk_eval, chan_eval),
    ):
        if n == 0:
            sets.append([])
            continue
        path = workdir / f"{label}.jsonl"
        make = _fixed_mix if w.fixed_mix and label == "train" else _samples
        dataio.write_samples_jsonl(path, make(env, n, walk_seed, chan_seed))
        sets.append(dataio.read_samples_jsonl(path))
    model = None
    if w.n_train == 0:
        # A non-zero final layer, so the stream's predictions depend on the
        # whole encoder and the batched-equals-B=1 check has teeth.
        fresh = model_mod.CorrectionModel.initialize(
            config, seed=model_seed % 2**31, zero_final_layer=False
        )
        path = workdir / "model.npz"
        model_mod.save_checkpoint(fresh, path)
        model = model_mod.load_checkpoint(path)
    shutil.rmtree(workdir)
    return Inputs(env, solver, config, sets[0], sets[1], model, train_seed % 2**31)


def in_box(position, solver: tdoa.SolverOptions) -> bool:
    lo, hi = (np.asarray(b) for b in solver.bounds)
    return bool(np.all(position >= lo - 1e-9) and np.all(position <= hi + 1e-9))


# --- training workloads ------------------------------------------------------


@dataclass
class TrainOp:
    train_s: float
    eval_s: float
    evaluated: int
    result: training.EvaluationResult | None
    history: training.TrainingHistory | None


def train_op(w: Workload, inputs: Inputs, tally: Tally, spent=lambda: 0.0) -> TrainOp:
    """One training run followed by evaluation of the held-out samples.

    ``spent`` gives the seconds calibration has taken so far; calibration
    inside the calls is taken out of their timings.
    """
    cfg = training.TrainConfig(
        max_epochs=w.epochs, early_stop_patience=w.epochs, seed=inputs.train_seed
    )
    n_samples = len(inputs.train_set) + len(inputs.eval_set)
    tally.attempted += n_samples

    def now():
        return time.perf_counter() - spent()

    t0 = now()
    try:
        model = training.train(inputs.train_set, inputs.env, inputs.config, cfg, inputs.solver)
        t1 = now()
        result = training.evaluate_model(model, inputs.eval_set, inputs.env, inputs.solver)
    except Exception as exc:  # a raising call fails every sample it was given
        tally.fail(f"raised:{type(exc).__name__}", n_samples)
        return TrainOp(now() - t0, math.nan, 0, None, None)
    t2 = now()
    history = model.history
    tally.unsolvable += history.n_skipped_samples + result.n_unsolvable
    evaluated = len(result.estimates)
    for estimate, baseline in zip(result.estimates, result.baselines):
        if not (np.all(np.isfinite(estimate)) and np.all(np.isfinite(baseline))):
            tally.fail("non-finite position")
        elif not in_box(baseline, inputs.solver):
            tally.fail("baseline outside the solver box")
    return TrainOp(t1 - t0, t2 - t1, evaluated, result, history)


def train_checks(inputs: Inputs, ops: list[TrainOp], tally: Tally):
    done = [op for op in ops if op.result is not None]
    tally.check("training ran", bool(done))
    if not done:
        return
    first = done[0]
    records = first.history.records
    tally.check("last-epoch loss below first", records[-1].train_loss < records[0].train_loss)
    tally.check(
        "same seed gives the same predictions",
        all(np.array_equal(op.result.estimates, first.result.estimates) for op in done),
    )
    untrained = model_mod.CorrectionModel.initialize(inputs.config, seed=inputs.train_seed)
    start = training.evaluate_model(
        untrained, inputs.eval_set[:SAFE_START_SAMPLES], inputs.env, inputs.solver
    )
    tally.check("safe start", np.array_equal(start.estimates, start.baselines))


def train_summary(ops: list[TrainOp], speed: float) -> dict:
    """Metrics of the training runs; ``speed`` scales raw times to the reference."""
    done = [op for op in ops if op.result is not None]
    if not done:
        raise RuntimeError("every training run raised")
    result = done[0].result
    # Means over the run, not medians: the host's speed switches between two
    # levels every few seconds, and the median of three operations jumps
    # between them (see "Noise" in the README).
    train_s = sum(op.train_s for op in done) / len(done)
    eval_per_s = sum(op.evaluated for op in done) / sum(op.eval_s for op in done)
    return {
        "metrics": {
            "op_mean_ms": train_s * 1e3 * speed,
            "positions_per_s": eval_per_s / speed,
            "baseline_mae_m": result.baseline_report.mae,
            "corrected_mae_m": result.report.mae,
        },
        "details": {
            "operations": len(ops),
            "train_s": train_s,
            "train_s_each": [op.train_s for op in ops],
            "eval_samples_per_s": eval_per_s,
            "corrected_cep95_m": result.report.cep[95],
            "baseline_cep95_m": result.baseline_report.cep[95],
            "epochs_run": len(done[0].history.records),
        },
    }


# --- fix stream ----------------------------------------------------------------


@dataclass
class Fix:
    latency_s: float
    truth: np.ndarray
    baseline: np.ndarray | None = None
    corrected: np.ndarray | None = None
    example: model_mod.PreparedExample | None = None


def fix_op(sample, inputs: Inputs, tally: Tally) -> Fix:
    """Solve, featurize and correct one sample at batch size one."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        estimate = tdoa.baseline_position(sample, inputs.env.anchors, options=inputs.solver)
        example = model_mod.prepare_example(sample, inputs.env, inputs.config, estimate.position)
        corrected = inputs.model.predict_prepared([example])[0]
    except InsufficientDataError:
        tally.unsolvable += 1
        return Fix(time.perf_counter() - t0, sample.true_position)
    except Exception as exc:
        tally.fail(f"raised:{type(exc).__name__}")
        return Fix(time.perf_counter() - t0, sample.true_position)
    latency = time.perf_counter() - t0
    if not (np.all(np.isfinite(corrected)) and np.all(np.isfinite(estimate.position))):
        tally.fail("non-finite position")
    elif not in_box(estimate.position, inputs.solver):
        tally.fail("baseline outside the solver box")
    return Fix(latency, sample.true_position, estimate.position, corrected, example)


def stream(
    inputs: Inputs, tally: Tally, seconds: float, min_fixes: int, first=None, between=None
):
    """Fix pool samples in order, in whole passes, for ``seconds`` and ``min_fixes``.

    Whole passes keep the per-fix averages of a traced run independent of
    how many fixes the time allowed. ``first`` holds each pool sample's
    first fix; a later fix of the same sample must reproduce it bit for bit.
    ``between`` is called before every fix, outside its timing.
    Returns the fixes, ``first`` and the wall time of the loop.
    """
    pool = inputs.eval_set
    first = [None] * len(pool) if first is None else first
    fixes = []
    t0 = time.perf_counter()
    while (
        len(fixes) < min_fixes
        or time.perf_counter() - t0 < seconds
        or len(fixes) % len(pool)
    ):
        i = len(fixes) % len(pool)
        if between is not None:
            between()
        fix = fix_op(pool[i], inputs, tally)
        if first[i] is None:
            first[i] = fix
        elif not _same(fix.corrected, first[i].corrected):
            tally.fail("repeated fix differs")
        fixes.append(fix)
    return fixes, first, time.perf_counter() - t0


def _same(a, b) -> bool:
    return (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))


def predict_grouped(model, examples) -> np.ndarray:
    """Batched predictions, one forward per token count."""
    out = np.empty((len(examples), 3))
    by_tokens: dict[int, list[int]] = {}
    for i, e in enumerate(examples):
        by_tokens.setdefault(e.n_tokens, []).append(i)
    for idx in by_tokens.values():
        out[idx] = model.predict_prepared([examples[i] for i in idx])
    return out


def stream_checks(inputs: Inputs, first: list, tally: Tally):
    solved = [f for f in first if f is not None and f.example is not None]
    tally.check("pool solved", bool(solved))
    if not solved:
        return
    examples = [f.example for f in solved]
    single = np.array([f.corrected for f in solved])
    batched = predict_grouped(inputs.model, examples)
    tally.check("B=1 equals batched", bool(np.max(np.abs(single - batched)) <= B1_TOLERANCE_M))
    untrained = model_mod.CorrectionModel.initialize(inputs.config, seed=inputs.train_seed)
    start = predict_grouped(untrained, examples)
    tally.check("safe start", np.array_equal(start, np.array([e.p_tdoa for e in examples])))


def stream_summary(fixes: list, first: list, wall_s: float, speed: float) -> dict:
    """Metrics of the fix stream; ``speed`` scales raw times to the reference."""
    latencies_ms = [f.latency_s * 1e3 for f in fixes]
    mean_ms = sum(latencies_ms) / len(latencies_ms)
    tail_q = tail_percentile(len(latencies_ms))
    solved = [f for f in first if f is not None and f.example is not None]
    truths = np.array([f.truth for f in solved])
    baseline = metrics.metrics_report(np.array([f.baseline for f in solved]), truths)
    corrected = metrics.metrics_report(np.array([f.corrected for f in solved]), truths)
    p50 = percentile(latencies_ms, 50.0)
    return {
        "metrics": {
            "op_mean_ms": mean_ms * speed,
            "positions_per_s": 1e3 / mean_ms / speed,
            "baseline_mae_m": baseline.mae,
            "corrected_mae_m": corrected.mae,
        },
        "details": {
            "fixes": len(fixes),
            "fix_latency_p50_ms": p50,
            f"fix_latency_p{tail_q:g}_ms": percentile(latencies_ms, tail_q),
            "fixes_per_s": len(fixes) / wall_s,
            "corrected_cep95_m": corrected.cep[95],
            "baseline_cep95_m": baseline.cep[95],
        },
    }
