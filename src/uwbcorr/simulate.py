"""Synthetic UWB environment and channel impulse response generator.

Produces labeled samples (true tag position + per-anchor raw CIRs) in a
rectangular environment with box obstacles. Links blocked by an obstacle get
an attenuated direct tap and a dominant reflection at a longer delay, so the
detected first path arrives late and the reception timestamp carries a
positive error. Line-of-sight links are timestamped exactly.

The channel parameters are placeholders tuned for plausible-looking CIRs,
not radio fidelity. They are the module constants below; only the
signal-to-noise ratio, ``snr_db``, is an argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import OutOfBoundsError, is_integer, is_number
from .tdoa import SPEED_OF_LIGHT, Anchor

SAMPLE_PERIOD_S = 1e-9  # CIR tap spacing
CIR_LENGTH = 192  # samples per raw CIR buffer
FIRST_PATH_SLOT = 64  # buffer index of the detected first path
PULSE_HALFWIDTH_SAMPLES = 2.0
EXTRA_TAPS = (3, 8)  # inclusive range of diffuse multipath taps per link
EXTRA_TAP_MAX_EXCESS_M = 30.0
EXTRA_TAP_DECAY_M = 8.0
NLOS_DIRECT_GAIN = (0.0, 0.3)  # uniform range of a blocked direct tap's gain
NLOS_EXCESS_M = (0.5, 15.0)  # and of the dominant reflection's extra path (m)
NLOS_REFLECTED_GAIN = (0.7, 1.0)  # and of the dominant reflection's gain
TRAJECTORY_MARGIN_M = 1.0  # the trajectories keep this far from the x and y walls


@dataclass(frozen=True)
class Box:
    """Axis-aligned obstacle, corners in meters."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,) or np.any(lo >= hi):
            raise ValueError("box needs lo < hi on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class Environment:
    anchors: tuple[Anchor, ...]
    obstacles: tuple[Box, ...]
    extent: tuple[float, float, float]

    def __post_init__(self):
        extent = tuple(float(v) for v in self.extent)
        if len(extent) != 3 or any(v <= 0 for v in extent):
            raise ValueError("extent must be three strictly positive values")
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        ids = [a.id for a in self.anchors]
        if len(set(ids)) != len(ids):
            raise ValueError("anchor ids must be unique")
        for a in self.anchors:
            if np.any(a.position < 0) or np.any(a.position > np.array(extent)):
                raise ValueError(f"anchor {a.id} lies outside the extent")

    @property
    def n_anchors(self) -> int:
        return len(self.anchors)

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(((p >= 0) & (p <= self.extent)).all())


@dataclass(frozen=True)
class RawCir:
    """Complex IQ samples at 1 ns spacing plus the detected first-path slot."""

    iq: np.ndarray
    first_path_index: int
    rx_time: float
    anchor_id: int

    def __post_init__(self):
        iq = np.asarray(self.iq, dtype=np.complex128)
        if iq.ndim != 1 or len(iq) < 150:
            raise ValueError("CIR needs at least 150 samples")
        for name in ("first_path_index", "anchor_id"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 <= self.first_path_index < len(iq):
            raise ValueError("first_path_index outside the CIR buffer")
        if not (is_number(self.rx_time) and np.isfinite(self.rx_time)):
            raise ValueError(f"rx_time must be a finite number, got {self.rx_time!r}")
        object.__setattr__(self, "iq", iq)


@dataclass(frozen=True)
class Sample:
    true_position: np.ndarray
    raw_cirs: tuple[RawCir, ...]

    def __post_init__(self):
        pos = np.asarray(self.true_position, dtype=float)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValueError(f"true_position must be 3 finite numbers, got {pos.tolist()!r}")
        object.__setattr__(self, "true_position", pos)
        object.__setattr__(self, "raw_cirs", tuple(self.raw_cirs))
        if len(self.raw_cirs) < 1:
            raise ValueError("a sample needs at least one receiving anchor")
        ids = [c.anchor_id for c in self.raw_cirs]
        if len(set(ids)) < len(ids):
            repeated = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"anchor id {repeated!r} appears twice")


def _segment_hits_box(p0: np.ndarray, p1: np.ndarray, box: Box) -> bool:
    # Slab test; only a positive-length overlap of the open segment counts,
    # so grazing contact at a face or endpoint does not block.
    t0, t1 = 0.0, 1.0
    for p, d, lo, hi in zip(p0.tolist(), (p1 - p0).tolist(), box.lo.tolist(), box.hi.tolist()):
        if abs(d) < 1e-15:
            if not (lo <= p <= hi):
                return False
        else:
            ta = (lo - p) / d
            tb = (hi - p) / d
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 >= t1:
                return False
    return t0 < t1


def los_status(tag, anchor: Anchor, obstacles: Sequence[Box]) -> bool:
    """True iff the open segment tag -> anchor crosses no obstacle box."""
    p0 = np.asarray(tag, dtype=float)
    return not any(_segment_hits_box(p0, anchor.position, box) for box in obstacles)


def _pulse(offsets: np.ndarray, halfwidth: float) -> np.ndarray:
    # Raised-cosine bump, unit peak, support |offset| <= halfwidth samples.
    out = np.zeros_like(offsets)
    inside = np.abs(offsets) <= halfwidth
    out[inside] = np.cos(np.pi * offsets[inside] / (2.0 * halfwidth)) ** 2
    return out


def synth_cir(
    tag,
    anchor: Anchor,
    env: Environment,
    rng: np.random.Generator,
    snr_db: Optional[float],
) -> RawCir:
    """Simulate one anchor's raw CIR for a tag transmission sent at time 0.

    LOS links place the strongest tap at the true propagation delay and the
    timestamp error is zero. Obstructed links attenuate the direct tap and
    move the detected first path to a dominant reflection ``NLOS_EXCESS_M``
    longer, so ``rx_time`` is biased late; the weak direct tap stays visible
    in the buffer ahead of the detected slot. Diffuse multipath taps follow
    the detected path, and ``snr_db`` None leaves out the noise.
    """
    tag = np.asarray(tag, dtype=float)
    if not env.contains(tag):
        raise OutOfBoundsError(f"tag {tag.tolist()} outside environment extent {env.extent}")

    dist = float(np.linalg.norm(tag - anchor.position))  # both finite: contains and Anchor checked them
    tau_direct = dist / SPEED_OF_LIGHT
    los = los_status(tag, anchor, env.obstacles)

    # uniform(lo, hi) draws lo + (hi - lo) * random(), so each block of
    # random() draws below replays the stream of the scalar draws, in order
    # (0.6 - 0.2 stays as written: it is not the double nearest 0.4).
    if los:
        detected_delay = tau_direct
        delays, gains = [tau_direct], [1.0]
    else:
        ranges = (NLOS_DIRECT_GAIN, NLOS_EXCESS_M, NLOS_REFLECTED_GAIN)
        draws = zip(ranges, rng.random(3).tolist())
        direct_gain, excess_m, reflected_gain = (lo + (hi - lo) * u for (lo, hi), u in draws)
        detected_delay = tau_direct + excess_m / SPEED_OF_LIGHT
        delays, gains = [tau_direct, detected_delay], [direct_gain, reflected_gain]
    amps = np.array(gains) * np.exp(1j * (2 * np.pi * rng.random(len(gains))))

    n_extra = int(rng.integers(EXTRA_TAPS[0], EXTRA_TAPS[1] + 1))
    u = rng.random((n_extra, 3))  # excess, gain and phase of each tap
    excess = 0.5 + (EXTRA_TAP_MAX_EXCESS_M - 0.5) * u[:, 0]
    gain = np.exp(-excess / EXTRA_TAP_DECAY_M) * (0.2 + (0.6 - 0.2) * u[:, 1])
    delays = np.concatenate([delays, detected_delay + excess / SPEED_OF_LIGHT])
    amps = np.concatenate([amps, gain * np.exp(1j * (2 * np.pi * u[:, 2]))])

    pos = FIRST_PATH_SLOT + (delays - detected_delay) / SAMPLE_PERIOD_S
    offsets = np.arange(CIR_LENGTH, dtype=float) - pos[:, None]
    pulses = amps[:, None] * _pulse(offsets, PULSE_HALFWIDTH_SAMPLES)
    iq = np.zeros(CIR_LENGTH, dtype=np.complex128)
    for row in pulses:  # tap by tap onto +0.0, so zeros keep their sign
        iq += row

    if snr_db is not None:
        peak = np.hypot(amps.real, amps.imag).max()  # abs() of each amp, bit for bit
        sigma = peak * 10.0 ** (-snr_db / 20.0)
        noise = rng.normal(0.0, sigma / np.sqrt(2.0), size=(2, CIR_LENGTH))
        iq += noise[0] + 1j * noise[1]

    return RawCir(
        iq=iq,
        first_path_index=FIRST_PATH_SLOT,
        rx_time=detected_delay,
        anchor_id=anchor.id,
    )


def generate_dataset(
    env: Environment,
    trajectory: Sequence,
    drop_probability: float,
    rng_seed: int,
    snr_db: Optional[float] = 20.0,
) -> list[Sample]:
    """One labeled sample per trajectory point, deterministic per seed.

    Each anchor independently misses the packet with ``drop_probability``;
    a sample always keeps at least one anchor (the mask is redrawn in the
    rare all-dropped case). A point outside the extent raises
    OutOfBoundsError from :func:`synth_cir`.
    """
    if not 0.0 <= drop_probability < 1.0:
        raise ValueError(f"drop_probability must be in [0, 1), got {drop_probability}")
    trajectory = [np.asarray(p, dtype=float) for p in trajectory]
    if not trajectory:
        raise ValueError("trajectory is empty")
    anchors = sorted(env.anchors, key=lambda a: a.id)
    children = np.random.SeedSequence(rng_seed).spawn(len(trajectory))
    samples = []
    for point, child in zip(trajectory, children):
        rng = np.random.default_rng(child)
        while True:
            keep = rng.random(len(anchors)) >= drop_probability
            if keep.any():
                break
        cirs = tuple(
            synth_cir(point, a, env, rng, snr_db) for a, k in zip(anchors, keep) if k
        )
        samples.append(Sample(true_position=point, raw_cirs=cirs))
    return samples


def default_environment() -> Environment:
    """30 m x 10 m x 3 m hall, 15 ceiling anchors, 3 rack-like obstacles."""
    coords = [
        (1.0, 0.5, 2.8),
        (8.0, 0.5, 2.7),
        (15.0, 0.5, 2.9),
        (22.0, 0.5, 2.8),
        (29.0, 0.5, 2.7),
        (1.0, 9.5, 2.6),
        (8.0, 9.5, 2.8),
        (15.0, 9.5, 2.7),
        (22.0, 9.5, 2.9),
        (29.0, 9.5, 2.6),
        (4.5, 5.0, 3.0),
        (11.5, 5.0, 2.9),
        (18.5, 5.0, 3.0),
        (25.5, 5.0, 2.9),
        (15.0, 2.0, 2.7),
    ]
    anchors = tuple(Anchor(id=i + 1, position=np.array(c)) for i, c in enumerate(coords))
    obstacles = (
        Box(lo=np.array([6.0, 2.0, 0.0]), hi=np.array([7.0, 8.0, 2.2])),
        Box(lo=np.array([14.0, 2.5, 0.0]), hi=np.array([15.0, 8.5, 2.2])),
        Box(lo=np.array([22.0, 1.5, 0.0]), hi=np.array([23.0, 7.5, 2.2])),
    )
    return Environment(anchors=anchors, obstacles=obstacles, extent=(30.0, 10.0, 3.0))


def grid_trajectory(
    env: Environment,
    n_lines: int = 10,
    points_per_line: int = 300,
    z: float = 1.0,
) -> list[np.ndarray]:
    """Systematic straight-line sweep: serpentine rows of constant y."""
    ex, ey, _ = env.extent
    ys = np.linspace(TRAJECTORY_MARGIN_M, ey - TRAJECTORY_MARGIN_M, n_lines)
    xs = np.linspace(TRAJECTORY_MARGIN_M, ex - TRAJECTORY_MARGIN_M, points_per_line)
    points = []
    for row, y in enumerate(ys):
        row_xs = xs if row % 2 == 0 else xs[::-1]
        points.extend(np.array([x, y, z]) for x in row_xs)
    return points


def random_trajectory(
    env: Environment,
    n_points: int = 1000,
    z: float = 1.0,
    seed: int = 1,
    step: float = 0.3,
) -> list[np.ndarray]:
    """Meandering random walk with reflecting walls, constant height."""
    rng = np.random.default_rng(seed)
    ex, ey, _ = env.extent
    lo = np.array([TRAJECTORY_MARGIN_M, TRAJECTORY_MARGIN_M])
    hi = np.array([ex - TRAJECTORY_MARGIN_M, ey - TRAJECTORY_MARGIN_M])
    p = rng.uniform(lo, hi)
    heading = rng.uniform(0, 2 * np.pi)
    points = []
    for _ in range(n_points):
        heading += rng.normal(0.0, 0.5)
        p = p + step * np.array([np.cos(heading), np.sin(heading)])
        for ax in range(2):
            if p[ax] < lo[ax]:
                p[ax] = 2 * lo[ax] - p[ax]
                heading = np.pi - heading if ax == 0 else -heading
            elif p[ax] > hi[ax]:
                p[ax] = 2 * hi[ax] - p[ax]
                heading = np.pi - heading if ax == 0 else -heading
        p = np.clip(p, lo, hi)
        points.append(np.array([p[0], p[1], z]))
    return points
