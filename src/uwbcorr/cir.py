"""Raw CIR conversion: amplitude, trimming, normalization, input tensor.

Every raw CIR becomes a 150-sample amplitude window (50 samples before the
detected first path, 100 after), min-max normalized to [0, 1]. The per-anchor
windows are stacked into an ordered matrix with one row per CIR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError
from .simulate import Environment, RawCir, Sample

WINDOW_BEFORE = 50
WINDOW_LENGTH = 150

ORDERINGS = ("fixed", "time_based")


def iq_to_amplitude(raw) -> np.ndarray:
    """Elementwise magnitude of a complex IQ array (or a RawCir's buffer)."""
    iq = raw.iq if isinstance(raw, RawCir) else np.asarray(raw)
    return np.abs(iq).astype(float)


def trim_window(amplitude: np.ndarray, first_path_index: int) -> np.ndarray:
    """150-sample window around the first path; out-of-range slots are zero."""
    amplitude = np.asarray(amplitude, dtype=float)
    out = np.zeros(WINDOW_LENGTH)
    start = first_path_index - WINDOW_BEFORE
    src_lo = max(start, 0)
    src_hi = min(start + WINDOW_LENGTH, len(amplitude))
    if src_hi > src_lo:
        out[src_lo - start : src_hi - start] = amplitude[src_lo:src_hi]
    return out


def normalize_minmax(window: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]; a constant window carries no shape and maps to zeros."""
    window = np.asarray(window, dtype=float)
    lo = window.min()
    hi = window.max()
    if hi == lo:
        return np.zeros_like(window)
    return (window - lo) / (hi - lo)


@dataclass(frozen=True)
class InputTensor:
    """Ordered CIR matrix with per-row anchor metadata.

    Fixed ordering always has one row per environment anchor in ascending id
    order; a non-detecting anchor's row is all-zero with a NaN ``rx_times``
    entry, which is how an absent row is told apart. Time-based ordering
    keeps only the detecting anchors sorted by reception time (ties by id),
    unless built with ``pad_missing`` in which case the absent anchors follow
    as zero rows in id order. ``padded`` says whether every environment
    anchor has a row.
    """

    values: np.ndarray  # (n_rows, 150)
    anchor_ids: np.ndarray  # (n_rows,) int
    anchor_positions: np.ndarray  # (n_rows, 3)
    rx_times: np.ndarray  # (n_rows,) float, NaN for absent rows
    padded: bool

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def permuted(self, order: Sequence[int]) -> "InputTensor":
        order = np.asarray(order, dtype=int)
        return replace(
            self,
            values=self.values[order],
            anchor_ids=self.anchor_ids[order],
            anchor_positions=self.anchor_positions[order],
            rx_times=self.rx_times[order],
        )


def build_input_tensor(
    sample: Sample,
    env: Environment,
    ordering: str = "fixed",
    pad_missing: bool = False,
) -> InputTensor:
    """Process a sample's CIRs and order them into the input matrix."""
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; use one of {ORDERINGS}")
    if len(sample.raw_cirs) == 0:
        raise InsufficientDataError("sample has no CIRs")
    anchors = {a.id: a for a in env.anchors}
    received = {}
    for raw in sample.raw_cirs:
        if raw.anchor_id not in anchors:
            raise ValueError(f"sample references unknown anchor id {raw.anchor_id}")
        received[raw.anchor_id] = raw
    if ordering == "fixed":
        ids = sorted(anchors)
    else:
        ids = sorted(received, key=lambda i: (received[i].rx_time, i))
        if pad_missing:
            ids += [i for i in sorted(anchors) if i not in received]

    values = np.zeros((len(ids), WINDOW_LENGTH))
    rx_times = np.full(len(ids), np.nan)
    for row, anchor_id in enumerate(ids):
        raw = received.get(anchor_id)
        if raw is not None:
            values[row] = normalize_minmax(trim_window(iq_to_amplitude(raw), raw.first_path_index))
            rx_times[row] = raw.rx_time
    return InputTensor(
        values=values,
        anchor_ids=np.array(ids, dtype=int),
        anchor_positions=np.array([anchors[i].position for i in ids]),
        rx_times=rx_times,
        padded=ordering == "fixed" or pad_missing,
    )
