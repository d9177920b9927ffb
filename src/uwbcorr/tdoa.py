"""Hyperbolic (TDoA) positioning: distance differences and least-squares solving.

A tag transmits once; anchors record reception timestamps. Pairwise timestamp
differences scaled by the speed of light give distance differences (DDoAs),
each constraining the tag to a hyperboloid. The solver minimizes the squared
hyperboloid residuals with a damped Gauss-Newton (Levenberg-Marquardt) loop
using the analytic Jacobian; every start of every sample in a batch advances
in lockstep as one row of stacked arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InsufficientAnchorsError,
    InsufficientDataError,
    MissingAnchorError,
    is_number,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

PAIR_POLICIES = ("all_pairs", "reference_anchor")

# Levenberg-Marquardt settings shared by every solve: the iteration cap, the
# step norm (m) below which a run has converged, the starting damping, and
# the anchor-biased restarts tried after the centroid when no init is given.
MAX_ITERATIONS = 100
STEP_TOL = 1e-10
DAMPING = 1e-3
EXTRA_STARTS = 4

# Samples per lockstep LM run in solve_baselines: bounds the stacked state
# (rows x pairs x 3 floats per array) and keeps it cache-sized.
BATCH_SAMPLES = 128


@dataclass(frozen=True)
class Anchor:
    """Fixed receiver with a known 3D position in meters."""

    id: int
    position: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ValueError(f"anchor {self.id}: position must be a 3-vector")
        if not np.all(np.isfinite(pos)):
            raise ValueError(f"anchor {self.id}: position must be finite")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class DdoaSet:
    """Distance-difference measurements over anchor pairs.

    Each entry is (i, j, ddoa_m) with ddoa_m = d_i - d_j in meters. A pair
    appears in one orientation only.
    """

    pairs: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        for i, j, d in self.pairs:
            if i == j:
                raise ValueError(f"pair ({i},{j}) uses the same anchor twice")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"pair ({i},{j}) appears more than once")
            seen.add(key)
            if not np.isfinite(d):
                raise ValueError(f"pair ({i},{j}) has non-finite ddoa")


@dataclass(frozen=True)
class PositionEstimate:
    position: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SolverOptions:
    """How baseline positions are computed from a set of timestamps.

    ``bounds`` clips the search to a box. Badly corrupted DDoA sets can be
    inconsistent (no hyperboloid intersection), in which case the unconstrained
    minimum runs off to the far field; bounding to the deployment area keeps
    estimates physical.
    """

    pair_policy: str = "reference_anchor"
    fix_z: Optional[float] = None
    bounds: Optional[tuple[tuple[float, float, float], tuple[float, float, float]]] = None

    def __post_init__(self):
        if self.fix_z is not None and not (is_number(self.fix_z) and math.isfinite(self.fix_z)):
            raise ConfigError(f"fix_z must be a finite number or null, got {self.fix_z!r}")
        if self.bounds is not None:
            (x0, y0, z0), (x1, y1, z1) = self.bounds
            # a flat z range is a plane; a flat x or y range pins every solve
            if not (x0 < x1 and y0 < y1 and z0 <= z1):
                raise ConfigError(
                    "solver box must have lo < hi on x and y and lo <= hi on z, "
                    f"got lo {self.bounds[0]}, hi {self.bounds[1]}"
                )

    @classmethod
    def for_environment(cls, env, pair_policy="reference_anchor", fix_z=None, margin=2.0):
        lo = (-margin, -margin, 0.0)
        hi = (env.extent[0] + margin, env.extent[1] + margin, env.extent[2])
        return cls(pair_policy=pair_policy, fix_z=fix_z, bounds=(lo, hi))


def euclidean_distance(p, a) -> float:
    """Euclidean distance between two 3D points in meters."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(a))):
        raise ValueError("non-finite input to euclidean_distance")
    return float(np.linalg.norm(p - a))


def true_ddoa(p, a_i: Anchor, a_j: Anchor) -> float:
    """Distance difference d_i - d_j for a tag at p, in meters.

    Antisymmetric in the anchor arguments.
    """
    if a_i.id == a_j.id:
        raise ValueError(f"true_ddoa needs two distinct anchors, got id {a_i.id} twice")
    return euclidean_distance(p, a_i.position) - euclidean_distance(p, a_j.position)


def measured_ddoa_set(
    timestamps: Mapping[int, float], pair_policy: str = "reference_anchor"
) -> DdoaSet:
    """Convert reception timestamps (seconds, per anchor id) into DDoAs.

    ``all_pairs`` emits every unordered pair once, oriented (i, j) with i < j
    and ddoa = c * (t_i - t_j). ``reference_anchor`` pairs every other anchor
    against the earliest receiver (ties broken by smallest id).
    """
    if pair_policy not in PAIR_POLICIES:
        raise ConfigError(f"unknown pair policy {pair_policy!r}; use one of {PAIR_POLICIES}")
    if len(timestamps) < 2:
        raise InsufficientDataError(
            f"need at least 2 timestamps to form a DDoA, got {len(timestamps)}"
        )
    ids = tuple(sorted(timestamps))
    if pair_policy == "all_pairs":
        pairs = tuple(
            (i, j, SPEED_OF_LIGHT * (timestamps[i] - timestamps[j]))
            for i, j in combinations(ids, 2)
        )
    else:
        ref = min(ids, key=lambda a: (timestamps[a], a))
        pairs = tuple(
            (i, ref, SPEED_OF_LIGHT * (timestamps[i] - timestamps[ref]))
            for i in ids
            if i != ref
        )
    return DdoaSet(pairs=pairs)


def _positions_by_id(anchors: Sequence[Anchor]) -> dict[int, np.ndarray]:
    return {a.id: a.position for a in anchors}


def _pair_geometry(ddoas: DdoaSet, anchors: Sequence[Anchor]):
    pos = _positions_by_id(anchors)
    for i, j, _ in ddoas.pairs:
        for a in (i, j):
            if a not in pos:
                raise MissingAnchorError(f"no position known for anchor id {a}")
    a_i = np.array([pos[i] for i, _, _ in ddoas.pairs])
    a_j = np.array([pos[j] for _, j, _ in ddoas.pairs])
    dd = np.array([d for _, _, d in ddoas.pairs])
    return a_i, a_j, dd


def residuals(p, ddoas: DdoaSet, anchors: Sequence[Anchor]) -> np.ndarray:
    """Per-pair hyperboloid residuals [d_i(p) - d_j(p)] - ddoa_ij, meters."""
    a_i, a_j, dd = _pair_geometry(ddoas, anchors)
    p = np.asarray(p, dtype=float)
    d_i = np.linalg.norm(p - a_i, axis=1)
    d_j = np.linalg.norm(p - a_j, axis=1)
    return (d_i - d_j) - dd


def _require_three_anchors(ddoas: DdoaSet) -> set[int]:
    referenced = {i for i, _, _ in ddoas.pairs} | {j for _, j, _ in ddoas.pairs}
    if len(referenced) < 3:
        raise InsufficientAnchorsError(
            f"solve_tdoa needs >= 3 distinct anchors, got {len(referenced)}"
        )
    return referenced


def _sample_ddoas(sample, pair_policy: str) -> DdoaSet:
    timestamps = {c.anchor_id: c.rx_time for c in sample.raw_cirs}
    return measured_ddoa_set(timestamps, pair_policy)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Row-wise x @ x as a stack of (1, n) @ (n, 1) products.

    This is the same dot product the one-row ``x @ x`` and
    ``np.linalg.norm(x)`` compute, so results stay bit-identical to them.
    """
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _residuals_and_jacobian(p, a_i, a_j, dd, free):
    """Residuals (n, m) and Jacobian (n, m, k) of n rows at points p (n, 3)."""
    u_i = p[:, None, :] - a_i
    u_j = p[:, None, :] - a_j
    d_i = np.sqrt(np.add.reduce(u_i * u_i, axis=2))  # np.linalg.norm(u_i, axis=2)
    d_j = np.sqrt(np.add.reduce(u_j * u_j, axis=2))
    g_i = u_i / np.maximum(d_i, 1e-12)[..., None]
    g_j = u_j / np.maximum(d_j, 1e-12)[..., None]
    return (d_i - d_j) - dd, (g_i - g_j)[..., free]


def _solve_each(normal: np.ndarray, rhs: np.ndarray):
    """Per-row fallback when a batched solve meets a singular matrix."""
    step = np.zeros(rhs.shape[:2])
    ok = np.ones(len(normal), dtype=bool)
    for n in range(len(normal)):
        try:
            step[n] = np.linalg.solve(normal[n], rhs[n])[:, 0]
        except np.linalg.LinAlgError:
            ok[n] = False
    return step, ok


def _levenberg_marquardt(starts, a_i, a_j, dd, *, fix_z, bounds):
    """Levenberg-Marquardt from every row's start, all rows in lockstep.

    Row r minimizes its own hyperboloid residuals (pairs ``a_i[r]``,
    ``a_j[r]``, ``dd[r]``) from ``starts[r]`` and keeps its own point,
    residuals, Jacobian, damping, cost and stopping state. The damping is
    multiplied by 10 on a rejected step (or a singular normal matrix) and
    divided by 10 on an accepted one. A row stops when its step norm drops
    below ``STEP_TOL`` (converged), when a rejected step pushes the damping
    above 1e14, or after ``MAX_ITERATIONS``; stopped rows leave the stack
    and the others carry on.

    Returns positions (R, 3), residual norms (R,), iterations (R,) and
    converged flags (R,).
    """
    free = np.array([0, 1] if fix_z is not None else [0, 1, 2])
    eye = np.eye(len(free))
    box = None if bounds is None else (np.asarray(bounds[0], float), np.asarray(bounds[1], float))

    def place(pts):
        if box is not None:
            pts = np.minimum(np.maximum(pts, box[0]), box[1])  # np.clip, without its call overhead
        if fix_z is not None:
            pts[:, 2] = fix_z
        return pts

    p = place(np.array(starts, dtype=float))
    r, jac = _residuals_and_jacobian(p, a_i, a_j, dd, free)
    cost = _sq_norms(r)
    lam = np.full(len(p), DAMPING)
    rows = np.arange(len(p))  # the output row of each row still running
    out_p, out_cost = np.empty_like(p), np.empty_like(cost)
    iterations = np.full(len(p), MAX_ITERATIONS)
    converged = np.zeros(len(p), dtype=bool)
    for it in range(1, MAX_ITERATIONS + 1):
        if rows.size == 0:
            break
        jac_t = jac.swapaxes(1, 2)  # jac_t @ jac on one buffer runs as syrk, like jac.T @ jac
        normal = jac_t @ jac + lam[:, None, None] * eye
        rhs = -(jac_t @ r[:, :, None])
        try:
            step, solved = np.linalg.solve(normal, rhs)[:, :, 0], True
        except np.linalg.LinAlgError:
            step, solved = _solve_each(normal, rhs)
        p_new = p.copy()
        p_new[:, free] += step
        p_new = place(p_new)
        r_new, jac_new = _residuals_and_jacobian(p_new, a_i, a_j, dd, free)
        cost_new = _sq_norms(r_new)
        small = np.sqrt(_sq_norms(step)) < STEP_TOL
        accept = solved & np.isfinite(cost_new) & (cost_new < cost)
        np.copyto(p, p_new, where=accept[:, None])
        np.copyto(r, r_new, where=accept[:, None])
        np.copyto(jac, jac_new, where=accept[:, None, None])
        cost = np.where(accept, cost_new, cost)
        lam = np.where(accept, np.maximum(lam / 10.0, 1e-15), lam * 10.0)
        stop = solved & (small | (~accept & (lam > 1e14)))
        if stop.any():
            done = rows[stop]
            out_p[done], out_cost[done] = p[stop], cost[stop]
            iterations[done], converged[done] = it, small[stop]
            keep = ~stop
            rows, p, r, jac, cost, lam, a_i, a_j, dd = (
                x[keep] for x in (rows, p, r, jac, cost, lam, a_i, a_j, dd)
            )
    out_p[rows], out_cost[rows] = p, cost
    return out_p, np.sqrt(out_cost), iterations, converged


def _solve_group(
    ddoa_sets: Sequence[DdoaSet],
    anchors: Sequence[Anchor],
    init=None,
    *,
    fix_z: Optional[float],
    bounds,
) -> list[PositionEstimate]:
    """Multi-start solves of DDoA sets with one pair count, in one LM run.

    Each set contributes one row per start. A set's result is its first
    start with a strictly lowest residual norm, scanning the starts in order
    and stopping at the first whose running best is exact-level (<= 1e-9).
    """
    pos = _positions_by_id(anchors)
    owner, starts, spans, geometry = [], [], [], []
    for n, ddoas in enumerate(ddoa_sets):
        referenced = _require_three_anchors(ddoas)
        geometry.append(_pair_geometry(ddoas, anchors))  # raises MissingAnchorError first
        participating = np.array([pos[i] for i in sorted(referenced)])
        if init is not None:
            mine = [np.asarray(init, dtype=float)]
        else:
            centroid = participating.mean(axis=0)
            picks = np.linspace(0, len(participating) - 1, min(EXTRA_STARTS, len(participating)))
            mine = [centroid] + [0.8 * participating[int(i)] + 0.2 * centroid for i in picks]
        spans.append(range(len(starts), len(starts) + len(mine)))
        owner.extend([n] * len(mine))
        starts.extend(mine)
    a_i, a_j, dd = (np.stack(column)[owner] for column in zip(*geometry))
    position, residual, iterations, converged = _levenberg_marquardt(
        starts, a_i, a_j, dd, fix_z=fix_z, bounds=bounds
    )
    results = []
    for rows in spans:
        best = rows[0]
        for row in rows:
            if residual[row] < residual[best]:
                best = row
            if residual[best] <= 1e-9:
                break
        results.append(
            PositionEstimate(
                position=position[best].copy(),
                residual_norm=float(residual[best]),
                iterations=int(iterations[best]),
                converged=bool(converged[best]),
            )
        )
    return results


def solve_tdoa(
    ddoas: DdoaSet,
    anchors: Sequence[Anchor],
    init=None,
    *,
    fix_z: Optional[float] = None,
    bounds=None,
) -> PositionEstimate:
    """Least-squares tag position from a DDoA set.

    Levenberg-Marquardt on the hyperboloid residuals: the damping factor is
    multiplied by 10 on a rejected step and divided by 10 on an accepted one;
    a run stops when the step norm drops below ``STEP_TOL`` or after
    ``MAX_ITERATIONS``. Non-convergence returns the best iterate with
    ``converged=False`` rather than raising.

    The squared-residual surface has mirror basins, so unless ``init`` is
    given the solver restarts from a few anchor-biased points and keeps the
    lowest-cost result (the first start at exact-level residual wins).

    ``fix_z`` constrains the solution to a horizontal plane, which avoids the
    ill-conditioned vertical axis of near-planar anchor layouts.
    """
    return _solve_group([ddoas], anchors, init, fix_z=fix_z, bounds=bounds)[0]


def baseline_position(
    sample,
    anchors: Sequence[Anchor],
    *,
    options: SolverOptions = SolverOptions(),
    init=None,
) -> PositionEstimate:
    """Uncorrected TDoA estimate from a sample's reception timestamps."""
    ddoas = _sample_ddoas(sample, options.pair_policy)
    return solve_tdoa(ddoas, anchors, init, fix_z=options.fix_z, bounds=options.bounds)


def solve_baselines(
    samples, anchors: Sequence[Anchor], options: SolverOptions = SolverOptions()
) -> list[Optional[PositionEstimate]]:
    """Baseline estimates for many samples, solved together.

    Samples are grouped by their number of DDoA pairs, so the rows of a
    group (one per sample and start) stack without padding, and each group
    is solved in lockstep LM runs of up to ``BATCH_SAMPLES`` samples. Every
    result equals ``baseline_position`` on the same sample; an unsolvable
    sample (fewer than 2 timestamps or 3 anchors) gives ``None`` at its
    index.
    """
    results: list[Optional[PositionEstimate]] = [None] * len(samples)
    groups: dict[int, list[tuple[int, DdoaSet]]] = {}
    for k, sample in enumerate(samples):
        try:
            ddoas = _sample_ddoas(sample, options.pair_policy)
            _require_three_anchors(ddoas)
        except InsufficientDataError:
            continue
        groups.setdefault(len(ddoas.pairs), []).append((k, ddoas))
    for members in groups.values():
        for lo in range(0, len(members), BATCH_SAMPLES):
            batch = members[lo : lo + BATCH_SAMPLES]
            solved = _solve_group(
                [d for _, d in batch], anchors, fix_z=options.fix_z, bounds=options.bounds
            )
            for (k, _), estimate in zip(batch, solved):
                results[k] = estimate
    return results
