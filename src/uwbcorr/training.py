"""Trainer: Adam + warmup/decay schedule, MSE loss, early stopping.

The learning rate rises linearly from 0 to the peak over the first 5% of the
total step budget, then decays linearly to 0. Validation is split off with a
seeded shuffle; the returned model carries the parameters of the best
validation epoch. Everything is seeded, so a given (dataset, config, seed)
reproduces the same final parameters bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InsufficientDataError, check_int, is_number
from .metrics import MetricsReport, metrics_report
from .model import CorrectionModel, ModelConfig, PreparedExample, prepare_example
from .simulate import Environment, Sample
from .tdoa import SolverOptions, solve_baselines


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    lr_peak: float = 1e-3
    warmup_fraction: float = 0.05
    max_epochs: int = 350
    early_stop_patience: int = 25
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("lr_peak", "adam_eps"):
            value = getattr(self, name)
            if not (is_number(value) and 0.0 < value < math.inf):
                raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
        for name in ("warmup_fraction", "validation_fraction"):
            value = getattr(self, name)
            if not (is_number(value) and 0.0 < value < 1.0):
                raise ConfigError(f"{name} must be a number in (0, 1), got {value!r}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not (is_number(value) and 0.0 <= value < 1.0):
                raise ConfigError(f"{name} must be a number in [0, 1), got {value!r}")
        for name in ("batch_size", "max_epochs", "early_stop_patience"):
            check_int(name, getattr(self, name))
        check_int("seed", self.seed, minimum=0)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    step_ms: float = 0.0  # mean wall time of a step: gradients plus Adam update
    samples_per_s: float = 0.0  # training samples over the summed step time
    grad_norm: float = 0.0  # global L2 gradient norm, mean over the steps


@dataclass
class TrainingHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    n_skipped_samples: int = 0


def learning_rate(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Piecewise-linear schedule: 0 -> peak over the warmup, then -> 0."""
    warmup = max(1, int(round(cfg.warmup_fraction * total_steps)))
    if step <= warmup:
        return cfg.lr_peak * step / warmup
    if total_steps <= warmup:
        return cfg.lr_peak
    return cfg.lr_peak * max(0.0, (total_steps - step) / (total_steps - warmup))


class Adam:
    def __init__(self, params: dict[str, ad.Tensor], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float):
        self.t += 1
        b1, b2 = self.cfg.beta1, self.cfg.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for name, tensor in self.params.items():
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            tensor.data -= lr * (self.m[name] / c1) / (
                np.sqrt(self.v[name] / c2) + self.cfg.adam_eps
            )


def batch_loss(
    model: CorrectionModel,
    examples: Sequence[PreparedExample],
    train: bool = False,
    rng=None,
) -> ad.Tensor:
    preds = model.forward_prepared(examples, train=train, rng=rng)
    targets = np.stack([e.target for e in examples])
    diff = ad.sub(preds, ad.Tensor(targets))
    return ad.mean_all(ad.mul(diff, diff))


def compute_gradients(
    model: CorrectionModel,
    examples: Sequence[PreparedExample],
    train: bool = False,
    rng=None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared-error loss and its gradient for every parameter.

    The gradients are the parameters' own ``.grad`` arrays, not copies; the
    next call sets every ``.grad`` to None before its backward sweep and
    never writes into these arrays.
    """
    if not examples:
        raise ValueError("empty batch")
    for t in model.params.values():
        t.grad = None
    loss = batch_loss(model, examples, train=train, rng=rng)
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite training loss")
    ad.backward(loss)
    grads = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in model.params.items()
    }
    return float(loss.data), grads


def _token_batches(examples, size: int, rng=None) -> list[list[int]]:
    """Indices into ``examples`` cut into batches of at most ``size`` that
    share one token count. Token-count groups come in order of first
    appearance; with ``rng`` each group is shuffled before it is cut, one
    permutation per group, otherwise the input order is kept."""
    groups: dict[int, list[int]] = {}
    for i, example in enumerate(examples):
        groups.setdefault(example.n_tokens, []).append(i)
    batches = []
    for idx in groups.values():
        if rng is not None:
            idx = [idx[i] for i in rng.permutation(len(idx))]
        batches.extend(idx[lo : lo + size] for lo in range(0, len(idx), size))
    return batches


def _eval_loss(model, examples, batch_size: int) -> float:
    total = 0.0
    for idx in _token_batches(examples, batch_size):
        total += float(batch_loss(model, [examples[i] for i in idx]).data) * len(idx)
    return total / len(examples)


def _solve_and_prepare(samples, env, model_cfg, solver) -> list[PreparedExample]:
    """Baseline-solve the samples and featurize the solvable ones, each with
    its true position as target; unsolvable samples are dropped."""
    estimates = solve_baselines(samples, env.anchors, solver)
    return [
        prepare_example(sample, env, model_cfg, estimate.position, sample.true_position)
        for sample, estimate in zip(samples, estimates)
        if estimate is not None
    ]


def prepare_training_examples(
    samples: Sequence[Sample],
    env: Environment,
    model_cfg: ModelConfig,
    solver: SolverOptions = SolverOptions(),
) -> tuple[list[PreparedExample], int]:
    """Baseline-solve and featurize samples; unsolvable ones are skipped."""
    examples = _solve_and_prepare(samples, env, model_cfg, solver)
    return examples, len(samples) - len(examples)


def train(
    samples: Sequence[Sample],
    env: Environment,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig = TrainConfig(),
    solver: SolverOptions = SolverOptions(),
) -> CorrectionModel:
    """Fit a correction model; returns it at the best validation loss."""
    if not samples:
        raise ValueError("empty dataset")
    examples, skipped = prepare_training_examples(samples, env, model_cfg, solver)
    if len(examples) < 2:
        raise InsufficientDataError("need at least 2 solvable samples to train")

    root = np.random.SeedSequence(train_cfg.seed)
    init_seed, shuffle_seed, dropout_seed = root.spawn(3)
    model = CorrectionModel.initialize(
        model_cfg, seed=np.random.default_rng(init_seed).integers(2**31)
    )
    shuffle_rng = np.random.default_rng(shuffle_seed)
    dropout_rng = np.random.default_rng(dropout_seed)

    order = shuffle_rng.permutation(len(examples))
    n_val = max(1, int(round(train_cfg.validation_fraction * len(examples))))
    n_val = min(n_val, len(examples) - 1)
    val_set = [examples[i] for i in order[:n_val]]
    train_set = [examples[i] for i in order[n_val:]]

    total_steps = len(_token_batches(train_set, train_cfg.batch_size)) * train_cfg.max_epochs

    adam = Adam(model.params, train_cfg)
    history = TrainingHistory(n_skipped_samples=skipped)
    best_val = math.inf
    best_arrays = model.parameter_arrays()
    step = 0
    lr = 0.0
    for epoch in range(train_cfg.max_epochs):
        batches = _token_batches(train_set, train_cfg.batch_size, shuffle_rng)
        batch_order = shuffle_rng.permutation(len(batches))
        epoch_loss = 0.0
        seen = 0
        step_s = 0.0
        norm_sum = 0.0
        for bi in batch_order:
            chunk = [train_set[i] for i in batches[bi]]
            lr = learning_rate(step, total_steps, train_cfg)
            t0 = time.perf_counter()
            loss, grads = compute_gradients(model, chunk, train=True, rng=dropout_rng)
            adam.step(grads, lr)
            step_s += time.perf_counter() - t0
            norm_sum += math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
            step += 1
            epoch_loss += loss * len(chunk)
            seen += len(chunk)
        val_loss = _eval_loss(model, val_set, train_cfg.batch_size)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=epoch_loss / seen,
                val_loss=val_loss,
                lr=lr,
                step_ms=1e3 * step_s / len(batches),
                samples_per_s=seen / step_s,
                grad_norm=norm_sum / len(batches),
            )
        )
        if val_loss < best_val:
            best_val = val_loss
            best_arrays = model.parameter_arrays()
            history.best_epoch = epoch
        elif epoch - history.best_epoch >= train_cfg.early_stop_patience:
            break
    model.load_arrays(best_arrays)
    model.history = history
    return model


@dataclass
class EvaluationResult:
    report: MetricsReport
    baseline_report: MetricsReport
    estimates: np.ndarray  # (n, 3) corrected
    baselines: np.ndarray  # (n, 3) uncorrected
    truths: np.ndarray  # (n, 3)
    n_unsolvable: int


def evaluate_model(
    model: CorrectionModel,
    samples: Sequence[Sample],
    env: Environment,
    solver: SolverOptions = SolverOptions(),
) -> EvaluationResult:
    """Corrected vs. uncorrected metrics over a dataset.

    Samples whose baseline cannot be solved (fewer than three anchors) are
    counted and excluded from both reports.
    """
    examples = _solve_and_prepare(samples, env, model.config, solver)
    if not examples:
        raise InsufficientDataError("no solvable samples to evaluate")
    predictions = np.empty((len(examples), 3))
    for idx in _token_batches(examples, 256):
        predictions[idx] = model.predict_prepared([examples[i] for i in idx])
    truths = np.array([e.target for e in examples])
    baselines = np.array([e.p_tdoa for e in examples])
    return EvaluationResult(
        report=metrics_report(predictions, truths),
        baseline_report=metrics_report(baselines, truths),
        estimates=predictions,
        baselines=baselines,
        truths=truths,
        n_unsolvable=len(samples) - len(examples),
    )
