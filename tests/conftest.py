import json
from dataclasses import replace

import numpy as np
import pytest

from uwbcorr import Anchor, Box, Environment, generate_dataset, simulate
from uwbcorr.encodings import DELTA_T_MAX_S, OMEGA_HI, OMEGA_LO
from uwbcorr.tdoa import SPEED_OF_LIGHT, euclidean_distance


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


def reference_round_list(values):
    """The dataset writer's CIR rounding, one ``round`` per value."""
    return [round(float(v), 6) for v in values]


def reference_write_samples_jsonl(path, samples):
    """The JSONL dataset writer with one ``round`` per CIR value."""
    with open(path, "w") as fh:
        for idx, sample in enumerate(samples):
            record = {
                "sample_id": idx,
                "true_position": [float(v) for v in sample.true_position],
                "tx_time_s": 0.0,
                "measurements": [
                    {
                        "anchor_id": int(c.anchor_id),
                        "rx_time_s": float(c.rx_time),
                        "first_path_index": int(c.first_path_index),
                        "cir_real": reference_round_list(c.iq.real),
                        "cir_imag": reference_round_list(c.iq.imag),
                    }
                    for c in sample.raw_cirs
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _reference_pulse(offsets, halfwidth):
    out = np.zeros_like(offsets)
    inside = np.abs(offsets) <= halfwidth
    out[inside] = np.cos(np.pi * offsets[inside] / (2.0 * halfwidth)) ** 2
    return out


def _reference_cir(tag, anchor, env, rng, snr_db):
    """One CIR as (anchor id, rx_time, iq), drawn tap by tap with scalar
    ``rng.uniform`` calls and summed one pulse at a time."""
    s = simulate
    detected_delay = tau_direct = euclidean_distance(tag, anchor.position) / SPEED_OF_LIGHT
    taps = []  # (delay_s, complex amplitude)
    if s.los_status(tag, anchor, env.obstacles):
        taps.append((tau_direct, np.exp(1j * rng.uniform(0, 2 * np.pi))))
    else:
        direct_gain = rng.uniform(*s.NLOS_DIRECT_GAIN)
        excess_m = rng.uniform(*s.NLOS_EXCESS_M)
        reflected_gain = rng.uniform(*s.NLOS_REFLECTED_GAIN)
        detected_delay = tau_direct + excess_m / SPEED_OF_LIGHT
        taps.append((tau_direct, direct_gain * np.exp(1j * rng.uniform(0, 2 * np.pi))))
        taps.append((detected_delay, reflected_gain * np.exp(1j * rng.uniform(0, 2 * np.pi))))
    for _ in range(int(rng.integers(s.EXTRA_TAPS[0], s.EXTRA_TAPS[1] + 1))):
        excess = rng.uniform(0.5, s.EXTRA_TAP_MAX_EXCESS_M)
        gain = np.exp(-excess / s.EXTRA_TAP_DECAY_M) * rng.uniform(0.2, 0.6)
        amp = gain * np.exp(1j * rng.uniform(0, 2 * np.pi))
        taps.append((detected_delay + excess / SPEED_OF_LIGHT, amp))
    grid = np.arange(s.CIR_LENGTH, dtype=float)
    iq = np.zeros(s.CIR_LENGTH, dtype=np.complex128)
    for delay, amp in taps:
        pos = s.FIRST_PATH_SLOT + (delay - detected_delay) / s.SAMPLE_PERIOD_S
        iq += amp * _reference_pulse(grid - pos, s.PULSE_HALFWIDTH_SAMPLES)
    if snr_db is not None:
        sigma = max(abs(a) for _, a in taps) * 10.0 ** (-snr_db / 20.0)
        noise = rng.normal(0.0, sigma / np.sqrt(2.0), size=(2, s.CIR_LENGTH))
        iq += noise[0] + 1j * noise[1]
    return anchor.id, detected_delay, iq


def reference_dataset(env, trajectory, drop_probability, rng_seed, snr_db):
    """``generate_dataset`` with the per-tap channel loop: for each point,
    the (anchor id, rx_time, iq) of every CIR kept."""
    anchors = sorted(env.anchors, key=lambda a: a.id)
    children = np.random.SeedSequence(rng_seed).spawn(len(trajectory))
    out = []
    for point, child in zip(trajectory, children):
        rng = np.random.default_rng(child)
        while not (keep := rng.random(len(anchors)) >= drop_probability).any():
            pass
        out.append([_reference_cir(point, a, env, rng, snr_db) for a, k in zip(anchors, keep) if k])
    return out


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
    return generate_dataset(small_env, points, 0.0, 21)


@pytest.fixture(scope="session")
def clean_dataset(open_env):
    """LOS-only, noise-free channels: exact timestamps."""
    rng = np.random.default_rng(13)
    points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1.0, 9.0, size=(10, 2))]
    return generate_dataset(open_env, points, 0.0, 22, snr_db=None)
