from dataclasses import replace

import numpy as np
import pytest

from uwbcorr import Anchor, Box, ChannelConfig, Environment, generate_dataset
from uwbcorr.encodings import DELTA_T_MAX_S, OMEGA_HI, OMEGA_LO


def permute_rows(tensor, order):
    """The input tensor with its rows, and each row's anchor position and
    reception time, in ``order``."""
    return replace(
        tensor,
        values=tensor.values[order],
        anchor_positions=tensor.anchor_positions[order],
        rx_times=tensor.rx_times[order],
    )


def reference_bands(d_model):
    """F = max(1, d_model // 6) angular frequencies at a constant ratio from
    OMEGA_LO to OMEGA_HI, so that six values per band fit in d_model."""
    f = max(1, d_model // 6)
    if f == 1:
        return np.array([OMEGA_LO])
    return OMEGA_LO * (OMEGA_HI / OMEGA_LO) ** (np.arange(f) / (f - 1))


def reference_encoding(values, d_model):
    """The sinusoidal encoding of Vaswani et al. (2017), written from the
    formula rather than taken from ``uwbcorr.encodings``: for each value in
    turn and each band w, sin(value * w) then cos(value * w), band after
    band; zeros pad the row to d_model."""
    bands = reference_bands(d_model)
    out = np.zeros(d_model)
    for i, v in enumerate(values):
        start = 2 * len(bands) * i
        for b, w in enumerate(bands):
            out[start + 2 * b] = np.sin(v * w)
            out[start + 2 * b + 1] = np.cos(v * w)
    return out


def reference_spatial_pe(position, extent, d_model):
    """An anchor's spatial encoding: its coordinates divided by the extent."""
    return reference_encoding(np.asarray(position, dtype=float) / np.asarray(extent, dtype=float), d_model)


def reference_time_pe(delta_t, d_model):
    """A reception delay's encoding: the delay clamped to [0, DELTA_T_MAX_S]
    and divided by DELTA_T_MAX_S."""
    return reference_encoding([min(max(delta_t, 0.0), DELTA_T_MAX_S) / DELTA_T_MAX_S], d_model)


@pytest.fixture(scope="session")
def small_env():
    """Well-conditioned 4-anchor room with one central obstacle."""
    anchors = (
        Anchor(1, [0.5, 0.5, 2.5]),
        Anchor(2, [9.5, 0.5, 2.8]),
        Anchor(3, [9.5, 9.5, 2.6]),
        Anchor(4, [0.5, 9.5, 2.9]),
    )
    return Environment(
        anchors=anchors,
        obstacles=(Box([4.0, 4.0, 0.0], [6.0, 6.0, 2.0]),),
        extent=(10.0, 10.0, 3.0),
    )


@pytest.fixture(scope="session")
def open_env(small_env):
    """Same room without obstacles: every link is line-of-sight."""
    return Environment(anchors=small_env.anchors, obstacles=(), extent=small_env.extent)


@pytest.fixture(scope="session")
def small_dataset(small_env):
    rng = np.random.default_rng(11)
    points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1.0, 9.0, size=(12, 2))]
    return generate_dataset(small_env, points, 0.0, 21, ChannelConfig())


@pytest.fixture(scope="session")
def clean_dataset(open_env):
    """LOS-only, noise-free, single-tap channels: exact timestamps."""
    rng = np.random.default_rng(13)
    points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1.0, 9.0, size=(10, 2))]
    cfg = ChannelConfig(snr_db=None, multipath=False)
    return generate_dataset(open_env, points, 0.0, 22, cfg)
