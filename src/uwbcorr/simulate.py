"""Synthetic UWB environment and channel impulse response generator.

Produces labeled samples (true tag position + per-anchor raw CIRs) in a
rectangular environment with box obstacles. Links blocked by an obstacle get
an attenuated direct tap and a dominant reflection at a longer delay, so the
detected first path arrives late and the reception timestamp carries a
positive error. Line-of-sight links are timestamped exactly.

The channel parameters are placeholders tuned for plausible-looking CIRs,
not radio fidelity; every knob sits in :class:`ChannelConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import OutOfBoundsError
from .tdoa import SPEED_OF_LIGHT, Anchor, euclidean_distance


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

    def anchor_by_id(self, anchor_id: int) -> Anchor:
        for a in self.anchors:
            if a.id == anchor_id:
                return a
        raise KeyError(f"no anchor with id {anchor_id}")

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= 0) and np.all(p <= np.array(self.extent)))


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
        if not 0 <= self.first_path_index < len(iq):
            raise ValueError("first_path_index outside the CIR buffer")
        object.__setattr__(self, "iq", iq)


@dataclass(frozen=True)
class Sample:
    true_position: np.ndarray
    raw_cirs: tuple[RawCir, ...]

    def __post_init__(self):
        pos = np.asarray(self.true_position, dtype=float)
        object.__setattr__(self, "true_position", pos)
        object.__setattr__(self, "raw_cirs", tuple(self.raw_cirs))
        if len(self.raw_cirs) < 1:
            raise ValueError("a sample needs at least one receiving anchor")


@dataclass(frozen=True)
class ChannelConfig:
    """Knobs for the synthetic channel; values are placeholders, not physics."""

    sample_period_s: float = 1e-9
    cir_length: int = 192
    first_path_slot: int = 64
    pulse_halfwidth_samples: float = 2.0
    snr_db: Optional[float] = 20.0  # None disables noise
    multipath: bool = True
    extra_taps: tuple[int, int] = (3, 8)
    extra_tap_max_excess_m: float = 30.0
    extra_tap_decay_m: float = 8.0
    nlos_direct_gain: tuple[float, float] = (0.0, 0.3)
    nlos_excess_m: tuple[float, float] = (0.5, 15.0)
    nlos_reflected_gain: tuple[float, float] = (0.7, 1.0)


def _segment_hits_box(p0: np.ndarray, p1: np.ndarray, box: Box) -> bool:
    # Slab test; only a positive-length overlap of the open segment counts,
    # so grazing contact at a face or endpoint does not block.
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for ax in range(3):
        if abs(d[ax]) < 1e-15:
            if not (box.lo[ax] <= p0[ax] <= box.hi[ax]):
                return False
        else:
            ta = (box.lo[ax] - p0[ax]) / d[ax]
            tb = (box.hi[ax] - p0[ax]) / d[ax]
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


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def synth_cir(
    tag,
    anchor: Anchor,
    env: Environment,
    rng,
    cfg: ChannelConfig = ChannelConfig(),
    tx_time: float = 0.0,
) -> RawCir:
    """Simulate one anchor's raw CIR for a tag transmission.

    LOS links place the strongest tap at the true propagation delay and the
    timestamp error is zero. Obstructed links attenuate the direct tap and
    move the detected first path to a dominant reflection 0.5-15 m longer,
    so ``rx_time`` is biased late; the weak direct tap stays visible in the
    buffer ahead of the detected slot.
    """
    tag = np.asarray(tag, dtype=float)
    if not env.contains(tag):
        raise OutOfBoundsError(f"tag {tag.tolist()} outside environment extent {env.extent}")
    rng = _as_rng(rng)

    dist = euclidean_distance(tag, anchor.position)
    tau_direct = dist / SPEED_OF_LIGHT
    los = los_status(tag, anchor, env.obstacles)

    taps: list[tuple[float, complex]] = []  # (delay_s, complex amplitude)
    if los:
        detected_delay = tau_direct
        taps.append((tau_direct, np.exp(1j * rng.uniform(0, 2 * np.pi))))
    else:
        direct_gain = rng.uniform(*cfg.nlos_direct_gain)
        excess_m = rng.uniform(*cfg.nlos_excess_m)
        reflected_gain = rng.uniform(*cfg.nlos_reflected_gain)
        detected_delay = tau_direct + excess_m / SPEED_OF_LIGHT
        taps.append((tau_direct, direct_gain * np.exp(1j * rng.uniform(0, 2 * np.pi))))
        taps.append((detected_delay, reflected_gain * np.exp(1j * rng.uniform(0, 2 * np.pi))))

    if cfg.multipath:
        n_extra = int(rng.integers(cfg.extra_taps[0], cfg.extra_taps[1] + 1))
        for _ in range(n_extra):
            excess = rng.uniform(0.5, cfg.extra_tap_max_excess_m)
            gain = np.exp(-excess / cfg.extra_tap_decay_m) * rng.uniform(0.2, 0.6)
            taps.append(
                (
                    detected_delay + excess / SPEED_OF_LIGHT,
                    gain * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                )
            )

    grid = np.arange(cfg.cir_length, dtype=float)
    iq = np.zeros(cfg.cir_length, dtype=np.complex128)
    for delay, amp in taps:
        pos = cfg.first_path_slot + (delay - detected_delay) / cfg.sample_period_s
        iq += amp * _pulse(grid - pos, cfg.pulse_halfwidth_samples)

    if cfg.snr_db is not None:
        peak = max(abs(a) for _, a in taps)
        sigma = peak * 10.0 ** (-cfg.snr_db / 20.0)
        noise = rng.normal(0.0, sigma / np.sqrt(2.0), size=(2, cfg.cir_length))
        iq += noise[0] + 1j * noise[1]

    return RawCir(
        iq=iq,
        first_path_index=cfg.first_path_slot,
        rx_time=tx_time + detected_delay,
        anchor_id=anchor.id,
    )


def timestamp_error(raw: RawCir, tag, anchor: Anchor, tx_time: float = 0.0) -> float:
    """Seconds of first-path timestamp bias relative to the true delay."""
    true_delay = euclidean_distance(tag, anchor.position) / SPEED_OF_LIGHT
    return (raw.rx_time - tx_time) - true_delay


def generate_dataset(
    env: Environment,
    trajectory: Sequence,
    drop_probability: float,
    rng_seed: int,
    cfg: ChannelConfig = ChannelConfig(),
) -> list[Sample]:
    """One labeled sample per trajectory point, deterministic per seed.

    Each anchor independently misses the packet with ``drop_probability``;
    a sample always keeps at least one anchor (the mask is redrawn in the
    rare all-dropped case).
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
        if not env.contains(point):
            raise OutOfBoundsError(f"trajectory point {point.tolist()} outside extent")
        rng = np.random.default_rng(child)
        while True:
            keep = rng.random(len(anchors)) >= drop_probability
            if keep.any():
                break
        cirs = tuple(
            synth_cir(point, a, env, rng, cfg) for a, k in zip(anchors, keep) if k
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
    margin: float = 1.0,
) -> list[np.ndarray]:
    """Systematic straight-line sweep: serpentine rows of constant y."""
    ex, ey, _ = env.extent
    ys = np.linspace(margin, ey - margin, n_lines)
    xs = np.linspace(margin, ex - margin, points_per_line)
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
    margin: float = 1.0,
) -> list[np.ndarray]:
    """Meandering random walk with reflecting walls, constant height."""
    rng = np.random.default_rng(seed)
    ex, ey, _ = env.extent
    lo = np.array([margin, margin])
    hi = np.array([ex - margin, ey - margin])
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
