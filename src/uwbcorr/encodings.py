"""Positional encodings for CIR tokens.

Three kinds:

* ``learned``: a trainable table indexed by sequence position.
* ``spatial``: sinusoidal features of the source anchor's normalized 3D
  coordinates over F = ``max_bands(d_model)`` frequencies spaced
  geometrically from ``OMEGA_LO`` to ``OMEGA_HI`` (6F values, zero
  right-padded to d_model), plus a small learned table for the within-CIR
  patch index when one CIR spans several tokens, plus a dedicated learned
  CLS row. An anchor outside the environment extent raises
  ``OutOfBoundsError``.
* ``spatial_time``: spatial plus a sinusoidal encoding of each CIR's
  reception delay relative to the earliest anchor, clamped to
  ``DELTA_T_MAX_S`` and divided by it.

Spatial kinds only make sense for per-CIR tokens: a multi-CIR token mixes
samples from every anchor, so it has no single source coordinate.
``ModelConfig`` rejects that combination.
"""

from __future__ import annotations

import functools

import numpy as np

from .cir import InputTensor
from .errors import ConfigError, OutOfBoundsError

ENCODING_KINDS = ("learned", "spatial", "spatial_time")
OMEGA_LO = 1.0  # lowest band, rad per unit of normalized input
OMEGA_HI = 1000.0  # highest band
DELTA_T_MAX_S = 200e-9  # reception delays clamp here; absent anchors take it


def max_bands(d_model: int) -> int:
    """Largest F with 6F <= d_model (at least one band)."""
    return max(1, d_model // 6)


def frequency_bands(n_bands: int) -> np.ndarray:
    """Geometric progression from OMEGA_LO to OMEGA_HI, n_bands values."""
    if n_bands < 1:
        raise ConfigError("need at least one frequency band")
    if n_bands == 1:
        return np.array([OMEGA_LO])
    exponents = np.arange(n_bands) / (n_bands - 1)
    return OMEGA_LO * (OMEGA_HI / OMEGA_LO) ** exponents


def _sincos_rows(values: np.ndarray, d_model: int) -> np.ndarray:
    """(n, k) values -> (n, d_model): for each value in row order, sin and
    cos of value * band interleaved over the bands, then zero padding."""
    angles = values[:, :, None] * frequency_bands(max_bands(d_model))
    encoded = np.empty(angles.shape + (2,))
    encoded[..., 0] = np.sin(angles)
    encoded[..., 1] = np.cos(angles)
    out = np.zeros((len(values), d_model))
    out[:, : encoded[0].size] = encoded.reshape(len(values), -1)
    return out


def _normalized_positions(positions: np.ndarray, extent) -> np.ndarray:
    """(n, 3) positions divided by the extent; a row outside it raises."""
    extent = np.asarray(extent, dtype=float)
    if np.any(extent <= 0):
        raise ConfigError("environment extent must be strictly positive")
    normalized = positions / extent
    outside = ((normalized < 0) | (normalized > 1)).any(axis=-1)
    if outside.any():
        raise OutOfBoundsError(
            f"anchor position {positions[outside.argmax()].tolist()} "
            f"outside extent {extent.tolist()}"
        )
    return normalized


def token_time_deltas(tensor: InputTensor) -> np.ndarray:
    """Per-row delay since the earliest reception; absent rows clamp to max."""
    times = tensor.rx_times
    finite = np.isfinite(times)
    deltas = np.full(tensor.n_rows, DELTA_T_MAX_S)
    if finite.any():
        deltas[finite] = times[finite] - times[finite].min()
    return deltas


@functools.lru_cache(maxsize=32)
def _spatial_rows(positions: tuple, k_per_cir: int, extent: tuple, d_model: int) -> np.ndarray:
    rows = _sincos_rows(_normalized_positions(np.reshape(positions, (-1, 3)), extent), d_model)
    rows = np.repeat(rows, k_per_cir, axis=0)
    rows.flags.writeable = False
    return rows


def constant_encoding_rows(
    tensor: InputTensor, k_per_cir: int, kind: str, d_model: int, extent
) -> np.ndarray:
    """The non-trainable (sin/cos) encoding addend of a ``kind`` encoding
    for each per-CIR token: row i of ``tensor`` encoded once and repeated
    over its ``k_per_cir`` tokens.

    The spatial rows are cached on (anchor positions in row order,
    k_per_cir, extent, d_model) and returned read-only, so examples with the
    same anchor layout share one array. ``spatial_time`` adds its per-token
    delay rows into a new array. Zero-padded absent rows are encoded like
    present ones: the anchor position is known even without a packet.
    """
    key = tuple(tensor.anchor_positions.ravel().tolist())
    extent = tuple(np.asarray(extent, dtype=float).tolist())
    rows = _spatial_rows(key, k_per_cir, extent, d_model)
    if kind == "spatial_time":
        clamped = np.clip(token_time_deltas(tensor), 0.0, DELTA_T_MAX_S)
        delays = _sincos_rows(clamped[:, None] / DELTA_T_MAX_S, d_model)
        rows = rows + np.repeat(delays, k_per_cir, axis=0)
    return rows
