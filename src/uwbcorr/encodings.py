"""Positional encodings for CIR tokens.

Three kinds:

* ``learned``: a trainable table indexed by sequence position.
* ``spatial``: sinusoidal features of the source anchor's normalized 3D
  coordinates over log-spaced frequency bands (6F values, zero right-padded
  to d_model), plus a small learned table for the within-CIR patch index
  when one CIR spans several tokens, plus a dedicated learned CLS row.
* ``spatial_time``: spatial plus a sinusoidal encoding of each CIR's
  reception delay relative to the earliest anchor.

Spatial kinds only make sense for per-CIR tokens: a multi-CIR token mixes
samples from every anchor, so it has no single source coordinate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, IncompatibleEncodingError, OutOfBoundsError
from .patching import PatchSet

ENCODING_KINDS = ("learned", "spatial", "spatial_time")


def max_bands(d_model: int) -> int:
    """Largest F with 6F <= d_model (at least one band)."""
    return max(1, d_model // 6)


@dataclass(frozen=True)
class EncodingConfig:
    kind: str = "spatial"
    d_model: int = 64
    f_bands: Optional[int] = None  # None -> max_bands(d_model)
    omega_min: float = 1.0
    omega_max: float = 1000.0
    max_seq_len: int = 512
    delta_t_max_s: float = 200e-9
    clamp_positions: bool = False

    def __post_init__(self):
        if self.kind not in ENCODING_KINDS:
            raise ConfigError(f"unknown encoding kind {self.kind!r}; use one of {ENCODING_KINDS}")
        if not 0 < self.omega_min < self.omega_max:
            raise ConfigError("need 0 < omega_min < omega_max")
        if self.f_bands is not None and self.f_bands != max_bands(self.d_model):
            raise ConfigError(
                f"f_bands must be the largest F with 6F <= d_model: expected "
                f"{max_bands(self.d_model)} for d_model={self.d_model}, got {self.f_bands}"
            )
        if self.max_seq_len < 1:
            raise ConfigError("max_seq_len must be positive")
        if self.delta_t_max_s <= 0:
            raise ConfigError("delta_t_max_s must be positive")

    @property
    def n_bands(self) -> int:
        return self.f_bands if self.f_bands is not None else max_bands(self.d_model)


def frequency_bands(f_bands: int, omega_min: float, omega_max: float) -> np.ndarray:
    """Geometric progression from omega_min to omega_max, F values."""
    if not 0 < omega_min < omega_max:
        raise ConfigError("need 0 < omega_min < omega_max")
    if f_bands < 1:
        raise ConfigError("need at least one frequency band")
    if f_bands == 1:
        return np.array([omega_min])
    exponents = np.arange(f_bands) / (f_bands - 1)
    return omega_min * (omega_max / omega_min) ** exponents


def _sincos_rows(values: np.ndarray, cfg: EncodingConfig) -> np.ndarray:
    """(n, k) values -> (n, d_model): for each value in row order, sin and
    cos of value * band interleaved over the bands, then zero padding."""
    bands = frequency_bands(cfg.n_bands, cfg.omega_min, cfg.omega_max)
    angles = values[:, :, None] * bands
    encoded = np.empty(angles.shape + (2,))
    encoded[..., 0] = np.sin(angles)
    encoded[..., 1] = np.cos(angles)
    out = np.zeros((len(values), cfg.d_model))
    out[:, : encoded[0].size] = encoded.reshape(len(values), -1)
    return out


def _normalized_positions(positions: np.ndarray, extent, cfg: EncodingConfig) -> np.ndarray:
    """(n, 3) positions divided by the extent; out-of-extent rows are clamped
    or raise, as cfg.clamp_positions says."""
    extent = np.asarray(extent, dtype=float)
    if np.any(extent <= 0):
        raise ConfigError("environment extent must be strictly positive")
    normalized = positions / extent
    outside = ((normalized < 0) | (normalized > 1)).any(axis=-1)
    if outside.any():
        if not cfg.clamp_positions:
            raise OutOfBoundsError(
                f"anchor position {positions[outside.argmax()].tolist()} "
                f"outside extent {extent.tolist()}"
            )
        normalized = np.clip(normalized, 0.0, 1.0)
    return normalized


def _time_rows(deltas: np.ndarray, cfg: EncodingConfig) -> np.ndarray:
    clamped = np.clip(deltas, 0.0, cfg.delta_t_max_s)
    return _sincos_rows(clamped[:, None] / cfg.delta_t_max_s, cfg)


def spatial_pe(anchor_position, extent, cfg: EncodingConfig) -> np.ndarray:
    """Sinusoidal encoding of a normalized 3D coordinate, padded to d_model."""
    pos = np.asarray(anchor_position, dtype=float)
    return _sincos_rows(_normalized_positions(pos[None], extent, cfg), cfg)[0]


def time_diff_pe(delta_t: float, cfg: EncodingConfig) -> np.ndarray:
    """Sinusoidal encoding of a reception delay, clamped to delta_t_max_s."""
    return _time_rows(np.array([float(delta_t)]), cfg)[0]


def token_time_deltas(patches: PatchSet, cfg: EncodingConfig) -> np.ndarray:
    """Per-patch delay since the earliest reception; absent rows clamp to max."""
    times = patches.rx_times
    finite = np.isfinite(times)
    deltas = np.full(patches.n_patches, cfg.delta_t_max_s)
    if finite.any():
        deltas[finite] = times[finite] - times[finite].min()
    return deltas


@functools.lru_cache(maxsize=32)
def _spatial_rows(positions: tuple, extent: tuple, cfg: EncodingConfig) -> np.ndarray:
    rows = _sincos_rows(_normalized_positions(np.reshape(positions, (-1, 3)), extent, cfg), cfg)
    rows.flags.writeable = False
    return rows


def constant_encoding_rows(patches: PatchSet, cfg: EncodingConfig, extent) -> np.ndarray:
    """The non-trainable (sin/cos) encoding addend for each patch token.

    The spatial rows are cached on (anchor positions in token order, extent,
    config) and returned read-only, so examples with the same anchor layout
    share one array. ``spatial_time`` adds its per-token delay rows into a
    fresh array. Zero-padded absent rows are encoded like present ones: the
    anchor position is known even without a packet.
    """
    positions = patches.anchor_positions
    if np.isnan(positions).any():
        raise IncompatibleEncodingError(
            "spatial encodings need per-CIR tokens; multi-CIR tokens have no "
            "single source anchor"
        )
    key = tuple(positions.ravel().tolist())
    rows = _spatial_rows(key, tuple(np.asarray(extent, dtype=float).tolist()), cfg)
    if cfg.kind == "spatial_time":
        rows = rows + _time_rows(token_time_deltas(patches, cfg), cfg)
    return rows
