"""Trainer: Adam + warmup/decay schedule, MSE loss, early stopping.

The learning rate rises linearly from 0 to ``LR_PEAK`` over the first
``WARMUP_FRACTION`` of the total step budget, then decays linearly to 0. A
``VALIDATION_FRACTION`` of the examples is split off with a seeded shuffle;
the returned model carries the parameters of the best validation epoch.
Everything is seeded, so a given (dataset, config, seed) reproduces the same
final parameters bit for bit.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import InsufficientDataError, check_int
from .metrics import MetricsReport, metrics_report
from .model import CorrectionModel, ModelConfig, PreparedExample, prepare_example, token_batches
from .simulate import Environment, Sample
from .tdoa import PositionEstimate, SolverOptions, solve_baselines

LR_PEAK = 1e-3
WARMUP_FRACTION = 0.05
BETA1 = 0.9  # Adam's decay rates of the first and second moments
BETA2 = 0.999
ADAM_EPS = 1e-8
VALIDATION_FRACTION = 0.1


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 350
    early_stop_patience: int = 25
    seed: int = 0

    def __post_init__(self):
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
    minor_faults: int = 0  # the process's minor page faults over the steps


@dataclass
class TrainingHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    n_skipped_samples: int = 0


def learning_rate(step: int, total_steps: int) -> float:
    """Piecewise-linear schedule: 0 -> LR_PEAK over the warmup, then -> 0."""
    warmup = max(1, int(round(WARMUP_FRACTION * total_steps)))
    if step <= warmup:
        return LR_PEAK * step / warmup
    if total_steps <= warmup:
        return LR_PEAK
    return LR_PEAK * max(0.0, (total_steps - step) / (total_steps - warmup))


class Adam:
    def __init__(self, params: dict[str, ad.Tensor]):
        self.params = params
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float):
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        for name, tensor in self.params.items():
            # in place, in the order of BETA1 * m + (1 - BETA1) * g, BETA2 * v + (1 - BETA2) * g * g
            # and lr * (m / c1) / (sqrt(v / c2) + eps); g is a parameter's own .grad, never written
            g, m, v = grads[name], self.m[name], self.v[name]
            step = (1.0 - BETA1) * g
            m *= BETA1
            m += step
            np.multiply(1.0 - BETA2, g, out=step)
            step *= g
            v *= BETA2
            v += step
            np.sqrt(np.divide(v, c2, out=step), out=step)
            step += ADAM_EPS
            tensor.data -= np.divide(lr * (m / c1), step, out=step)


def batch_loss(
    model: CorrectionModel,
    examples: Sequence[PreparedExample],
    train: bool = False,
    keeps=None,
) -> ad.Tensor:
    """Mean squared error of one forward, with the dropout masks ``keeps`` from ``model.chunks``."""
    preds = model.forward_prepared(examples, train, keeps)
    targets = np.stack([e.target for e in examples])
    diff = ad.sub(preds, ad.Tensor(targets))
    return ad.mean_all(ad.mul(diff, diff))


def compute_gradients(
    model: CorrectionModel,
    examples: Sequence[PreparedExample],
    train: bool = False,
    rng=None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared-error loss and its gradient for every parameter. Each
    chunk of ``model.chunks``, which draws a training batch's dropout masks
    from the Generator ``rng``, runs forward and backward with its loss
    scaled by its share of the batch, so the gradients add up to the
    batch's; a one-chunk batch's factor is exactly 1.0.

    The gradients are the parameters' own ``.grad`` arrays, not copies; the
    next call sets every ``.grad`` to None before its backward sweep and
    never writes into these arrays.
    """
    chunks = model.chunks(examples, train, rng)  # an empty batch fails in its forward
    for t in model.params.values():
        t.grad = None
    total = 0.0
    for chunk, keeps in chunks:
        loss = ad.scale(batch_loss(model, chunk, train, keeps), len(chunk) / len(examples))
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite training loss")
        ad.backward(loss)
        total += float(loss.data)
    grads = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in model.params.items()
    }
    return total, grads


def _eval_loss(model: CorrectionModel, examples: Sequence[PreparedExample]) -> float:
    """Mean squared error of ``model.predict_prepared`` against the targets."""
    return float(np.mean(np.square(model.predict_prepared(examples) - [e.target for e in examples])))


def solve_solvable(samples, env, solver) -> list[tuple[Sample, PositionEstimate]]:
    """Each solvable sample with its baseline estimate, in order; the rest are dropped."""
    estimates = solve_baselines(samples, env.anchors, solver)
    return [(s, e) for s, e in zip(samples, estimates) if e is not None]


def _solve_and_prepare(samples, env, model_cfg, solver) -> list[PreparedExample]:
    """Featurize the solvable samples, each with its true position as target."""
    return [
        prepare_example(sample, env, model_cfg, estimate.position, sample.true_position)
        for sample, estimate in solve_solvable(samples, env, solver)
    ]


def prepare_training_examples(
    samples: Sequence[Sample],
    env: Environment,
    model_cfg: ModelConfig,
    solver: SolverOptions,
) -> tuple[list[PreparedExample], int]:
    """Baseline-solve and featurize samples; unsolvable ones are skipped."""
    examples = _solve_and_prepare(samples, env, model_cfg, solver)
    return examples, len(samples) - len(examples)


def train(
    samples: Sequence[Sample],
    env: Environment,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    solver: SolverOptions,
) -> CorrectionModel:
    """Fit a correction model; returns it at the best validation loss."""
    if not samples:
        raise InsufficientDataError("empty dataset")
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
    n_val = max(1, int(round(VALIDATION_FRACTION * len(examples))))
    n_val = min(n_val, len(examples) - 1)
    val_set = [examples[i] for i in order[:n_val]]
    train_set = [examples[i] for i in order[n_val:]]

    total_steps = len(token_batches(train_set, train_cfg.batch_size)) * train_cfg.max_epochs

    adam = Adam(model.params)
    history = TrainingHistory(n_skipped_samples=skipped)
    best_val = math.inf
    best_arrays = model.parameter_arrays()
    step = 0
    lr = 0.0
    for epoch in range(train_cfg.max_epochs):
        batches = token_batches(train_set, train_cfg.batch_size, shuffle_rng)
        batch_order = shuffle_rng.permutation(len(batches))
        epoch_loss = 0.0
        seen = 0
        step_s = 0.0
        norm_sum = 0.0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for bi in batch_order:
            batch = [train_set[i] for i in batches[bi]]
            lr = learning_rate(step, total_steps)
            t0 = time.perf_counter()
            loss, grads = compute_gradients(model, batch, train=True, rng=dropout_rng)
            adam.step(grads, lr)
            step_s += time.perf_counter() - t0
            norm_sum += math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
            step += 1
            epoch_loss += loss * len(batch)
            seen += len(batch)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        val_loss = _eval_loss(model, val_set)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=epoch_loss / seen,
                val_loss=val_loss,
                lr=lr,
                step_ms=1e3 * step_s / len(batches),
                samples_per_s=seen / step_s,
                grad_norm=norm_sum / len(batches),
                minor_faults=faults,
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
    solver: SolverOptions,
) -> EvaluationResult:
    """Corrected vs. uncorrected metrics over a dataset.

    Samples whose baseline cannot be solved (fewer than three anchors) are
    counted and excluded from both reports; the rest, of any token counts,
    are corrected in one ``predict_prepared`` call.
    """
    examples = _solve_and_prepare(samples, env, model.config, solver)
    if not examples:
        raise InsufficientDataError("no solvable samples to evaluate")
    predictions = model.predict_prepared(examples)
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
