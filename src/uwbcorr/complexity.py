"""Closed-form operation counts per architecture and Pareto extraction.

Counts are the multiply-accumulate terms of each stage instantiated with
unit constants: embedding rows x d_model, attention n^2 x d_model per layer,
feed-forward n x d_model x d_ff per layer, plus the exact regression-head
MACs. The CLS token is included in the token count n. ``n_av`` (anchors
available at a position) may be fractional to express a dataset average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cir import WINDOW_LENGTH
from .errors import ConfigError
from .model import ModelConfig

CNN_OPS_PER_PAIR = 173_704  # published forward-pass cost of the pairwise CNN corrector


@dataclass(frozen=True)
class OperationCount:
    embedding_ops: float
    attention_ops: float  # per encoder layer
    feedforward_ops: float  # per encoder layer
    head_ops: float
    total_ops: float


def head_ops(cfg: ModelConfig) -> int:
    widths = (cfg.d_model + 3,) + tuple(cfg.head_widths)
    return sum(widths[i] * widths[i + 1] for i in range(len(cfg.head_widths)))


def op_count(cfg: ModelConfig, n_av: float) -> OperationCount:
    """Multiply-accumulate counts for one forward pass of a configuration."""
    n_total = cfg.n_total
    if n_av > n_total:
        raise ConfigError(f"n_av={n_av} cannot exceed n_total={n_total}")
    if n_av < 0 or n_total < 1:
        raise ConfigError("anchor counts must be positive")
    k = cfg.k_per_cir
    if cfg.patching == "multi_cir":
        rows = n_total
        n_patches = k
    else:
        rows = n_total if cfg.ordering == "fixed" else n_av
        n_patches = rows * k
    embedding = rows * WINDOW_LENGTH * cfg.d_model
    n_tokens = n_patches + 1  # CLS included
    attention = n_tokens * n_tokens * cfg.d_model
    feedforward = n_tokens * cfg.d_model * cfg.d_ff
    head = head_ops(cfg)
    total = embedding + cfg.n_layers * (attention + feedforward) + head
    return OperationCount(
        embedding_ops=embedding,
        attention_ops=attention,
        feedforward_ops=feedforward,
        head_ops=head,
        total_ops=total,
    )


def cnn_baseline_ops(n_available_pairs: int) -> int:
    """Total cost of the pairwise CNN corrector: one forward pass per pair."""
    if n_available_pairs < 0:
        raise ValueError("pair count cannot be negative")
    return CNN_OPS_PER_PAIR * n_available_pairs


@dataclass(frozen=True)
class SweepResult:
    config: dict
    total_ops: float
    mae: float


def pareto_front(results: Sequence[SweepResult]) -> list[SweepResult]:
    """Results not dominated in (total_ops, mae), ascending by ops.

    A result is dominated when another one is at least as cheap and strictly
    better, or strictly cheaper and at least as good. Exact duplicates on
    both axes are all kept.
    """
    ordered = sorted(results, key=lambda r: (r.total_ops, r.mae))
    front: list[SweepResult] = []
    best_mae = float("inf")
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].total_ops == ordered[i].total_ops:
            j += 1
        group = ordered[i:j]
        group_min = min(r.mae for r in group)
        if group_min < best_mae:
            front.extend(r for r in group if r.mae == group_min)
            best_mae = group_min
        i = j
    return front
