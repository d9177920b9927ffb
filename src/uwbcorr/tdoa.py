"""Hyperbolic (TDoA) positioning: distance differences and least-squares solving.

A tag transmits once; anchors record reception timestamps. Each timestamp
minus the earliest one, scaled by the speed of light, gives a distance
difference (DDoA) constraining the tag to a hyperboloid. The solver minimizes
the squared hyperboloid residuals with a damped Gauss-Newton
(Levenberg-Marquardt) loop using the analytic Jacobian, and adds the analytic
second-order term once Gauss-Newton progress slows. It starts from the
closed-form least-squares point and the centroid where the pairs allow it,
else from the centroid and a few anchor-biased points. A coordinate on a
wall of the search box (unbounded by default) stays there while its
gradient points outward. Every start of every sample in a batch advances
in lockstep as one row of stacked arrays, with each sample's pairs padded
to one width by pairs of zero residual and zero Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InsufficientAnchorsError,
    InsufficientDataError,
    MissingAnchorError,
    is_integer,
    is_number,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Levenberg-Marquardt settings shared by every solve: the iteration cap, the
# step norm (m), projected gradient and relative cost decrease at which a run
# has converged, the starting damping, and the anchor-biased restarts tried
# after the centroid by a set the closed-form start cannot serve.
MAX_ITERATIONS = 100
STEP_TOL = 1e-10
GRAD_TOL = 1e-9  # m: the largest entry of the projected J^T r at a minimum
COST_RTOL = 1e-10  # an accepted step that lowers r . r by no more than this share
DAMPING = 1e-3
EXTRA_STARTS = 4
SECOND_ORDER_RTOL = 0.1  # accepted steps lowering r . r by less turn a row to full-Hessian steps
TIP_DIST = 1e-6  # m: a solve that ends this close to one of its anchors stops as "tip"

BOUND_MARGIN = 2.0  # m: SolverOptions.for_environment's box reaches this far past the extent

# Samples per lockstep LM run in solve_baselines: bounds the stacked state
# (rows x pairs x 3 floats per array) and keeps it cache-sized.
BATCH_SAMPLES = 128


@dataclass(frozen=True)
class Anchor:
    """Fixed receiver with a known 3D position in meters."""

    id: int
    position: np.ndarray

    def __post_init__(self):
        if not is_integer(self.id):
            raise ValueError(f"anchor id must be an integer, got {self.id!r}")
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


# Why a solve stopped: the first three are convergence. "tip" is an end on
# one of the set's anchors, a cone tip of the cost with no gradient there.
STOP_REASONS = ("step", "cost", "gradient", "cap", "damping", "tip")
_STEP, _COST, _GRADIENT, _CAP, _DAMPING, _TIP = range(len(STOP_REASONS))


@dataclass(frozen=True)
class PositionEstimate:
    """A solve's position, residual norm, LM iterations, why it stopped (one
    of ``STOP_REASONS``) and whether it ended on a wall of the search box."""

    position: np.ndarray
    residual_norm: float
    iterations: int
    stop_reason: str
    on_bound: bool

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("step", "cost", "gradient")


@dataclass(frozen=True)
class SolverOptions:
    """The settings of a solve, and the only way to pass them.

    A number ``fix_z`` pins each solve to the plane z = ``fix_z``, inside the
    z range of ``bounds``, and is the one way to ask for a plane; None solves
    in 3-D. ``bounds`` clips the search to a box with lo < hi on every axis:
    the minimum of a corrupted DDoA set with no hyperboloid intersection
    would otherwise run off to the far field. The default box is unbounded,
    and walls at infinity hold no finite point.
    """

    fix_z: Optional[float] = None
    bounds: tuple[tuple[float, float, float], tuple[float, float, float]] = ((-math.inf,) * 3, (math.inf,) * 3)

    def __post_init__(self):
        if self.fix_z is not None and not (is_number(self.fix_z) and math.isfinite(self.fix_z)):
            raise ConfigError(f"fix_z must be a finite number or null, got {self.fix_z!r}")
        (x0, y0, z0), (x1, y1, z1) = self.bounds
        if not (x0 < x1 and y0 < y1 and z0 < z1):  # a flat axis pins every solve; fix_z asks for a plane
            raise ConfigError(f"solver box must have lo < hi on every axis, got lo {self.bounds[0]}, hi {self.bounds[1]}")
        if self.fix_z is not None and not z0 <= self.fix_z <= z1:
            raise ConfigError(f"fix_z must lie in the box's z range [{z0}, {z1}], got {self.fix_z!r}")

    @classmethod
    def for_environment(cls, env, fix_z=None):
        """The search box is the extent grown by ``BOUND_MARGIN`` on x and y."""
        lo = (-BOUND_MARGIN, -BOUND_MARGIN, 0.0)
        hi = (env.extent[0] + BOUND_MARGIN, env.extent[1] + BOUND_MARGIN, env.extent[2])
        return cls(fix_z=fix_z, bounds=(lo, hi))


def euclidean_distance(p, a) -> float:
    """Euclidean distance between two 3D points in meters."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(a))):
        raise ValueError("non-finite input to euclidean_distance")
    return float(np.linalg.norm(p - a))


def measured_ddoa_set(timestamps: Mapping[int, float]) -> DdoaSet:
    """Convert reception timestamps (seconds, per anchor id) into DDoAs.

    Every other anchor i, in id order, is paired against the earliest
    receiver ref (ties broken by smallest id) as (i, ref) with
    ddoa = c * (t_i - t_ref).
    """
    if len(timestamps) < 2:
        raise InsufficientDataError(
            f"need at least 2 timestamps to form a DDoA, got {len(timestamps)}"
        )
    ids = tuple(sorted(timestamps))
    ref = min(ids, key=lambda a: (timestamps[a], a))
    pairs = tuple(
        (i, ref, SPEED_OF_LIGHT * (timestamps[i] - timestamps[ref]))
        for i in ids
        if i != ref
    )
    return DdoaSet(pairs=pairs)


def _pair_geometry(ddoas: DdoaSet, pos: Mapping[int, np.ndarray], width: int):
    """A set's pair ends (2 * width, 3), the anchors at the i ends and then
    at the j ends, and its DDoAs (width,), padded to ``width`` pairs.

    A pad pair has the set's first anchor at both ends and a DDoA of 0, so
    its residual and Jacobian row are exactly 0 at every point.
    """
    for i, j, _ in ddoas.pairs:
        for a in (i, j):
            if a not in pos:
                raise MissingAnchorError(f"no position known for anchor id {a}")
    m = len(ddoas.pairs)
    ends = np.empty((2, width, 3))
    ends[:, m:] = pos[ddoas.pairs[0][0]]
    ends[0, :m] = [pos[i] for i, _, _ in ddoas.pairs]
    ends[1, :m] = [pos[j] for _, j, _ in ddoas.pairs]
    dd = np.zeros(width)
    dd[:m] = [d for _, _, d in ddoas.pairs]
    return ends.reshape(2 * width, 3), dd


def _require_three_anchors(ddoas: DdoaSet) -> set[int]:
    referenced = {i for i, _, _ in ddoas.pairs} | {j for _, j, _ in ddoas.pairs}
    if len(referenced) < 3:
        raise InsufficientAnchorsError(
            f"solve_tdoa needs >= 3 distinct anchors, got {len(referenced)}"
        )
    return referenced


def _sample_ddoas(sample) -> DdoaSet:
    timestamps = {c.anchor_id: c.rx_time for c in sample.raw_cirs}
    return measured_ddoa_set(timestamps)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Row-wise x @ x as a stack of (1, n) @ (n, 1) products.

    This is the same dot product the one-row ``x @ x`` and
    ``np.linalg.norm(x)`` compute, so results stay bit-identical to them.
    """
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _residuals_and_jacobian(p, ends, dd, k):
    """Residuals (n, m), Jacobian (n, m, k) and, for ``_second_order_term``,
    unit vectors g (k, n, 2m) and distances d (n, 2m) of n rows at points p.

    ``ends`` (3, n, 2m) holds the coordinate planes of the anchors at the i
    ends of the m pairs, then at the j ends. The Jacobian is a (n, m, k) view
    of a (k, n, m) array, so its pair axis is contiguous: with a C-ordered
    Jacobian, J^T J takes another BLAS path than the one-row solver's
    recorded results and rounds differently.
    """
    m = dd.shape[1]
    u = p.T[:, :, None] - ends
    d = np.sqrt((u[0] * u[0] + u[1] * u[1]) + u[2] * u[2])  # np.linalg.norm over x, y, z
    r = (d[:, :m] - d[:, m:]) - dd
    d = np.maximum(d, 1e-12)
    g = u[:k] / d
    return r, (g[:, :, :m] - g[:, :, m:]).transpose(1, 2, 0), (g, d)


def _second_order_term(g, d, r):
    """Second-order term (n, k, k) at residuals r (n, m), g and d: the Hessian of
    |p - a| is (I - g g^T) / d, so that of r . r / 2 is J^T J plus the term
    sum_m r_m (H_i - H_j). A pad pair's r of 0 gives it weight 0."""
    k, m = len(g), r.shape[1]
    gi, gj = g[:, :, :m], g[:, :, m:]
    wi, wj = r / d[:, :m], r / d[:, m:]
    term = (gj * wj).transpose(1, 0, 2) @ gj.transpose(1, 2, 0)
    term -= (gi * wi).transpose(1, 0, 2) @ gi.transpose(1, 2, 0)
    diagonal = term.reshape(len(r), k * k)[:, :: k + 1]
    diagonal += (wi - wj).sum(axis=1)[:, None]
    return term


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


def _levenberg_marquardt(starts, ends, dd, options: SolverOptions):
    """Levenberg-Marquardt from every row's start, all rows in lockstep.

    Row r minimizes its own hyperboloid residuals (pair ends ``ends[:, r]``,
    DDoAs ``dd[r]``) from ``starts[r]`` and keeps its own point, residuals,
    Jacobian, damping, cost and stopping state. The damping is multiplied by
    10 on a rejected step (or a singular normal matrix) and divided by 10 on
    an accepted one. A row's normal matrix is J^T J until its first accepted
    step that lowers the cost by less than ``SECOND_ORDER_RTOL`` of it, and
    adds the second-order term from then on: damped exact-Hessian steps
    converge fast where the residuals at the minimum are large (Madsen,
    Nielsen & Tingleff 2004, 3.4; Dennis, Gay & Welsch 1981).

    A free coordinate on a wall whose gradient g = J^T r would
    carry it out of the box is held there (the active set of Moré 1978): its
    row and column of the normal matrix become the identity's and its entry
    of g is zeroed, so the step moves the other coordinates only. A row stops
    at the first of, in this order: the projected gradient is small,
    max |g| <= ``GRAD_TOL`` (the step is then not taken); the step norm is
    below ``STEP_TOL``; an accepted step lowers the cost r . r by no more
    than ``COST_RTOL`` of it; a rejected step pushes the damping above 1e14;
    ``MAX_ITERATIONS``. The first three are convergence (Madsen, Nielsen &
    Tingleff 2004). Stopped rows leave the stack and the others carry on. A
    row that ends within ``TIP_DIST`` of one of its anchors stops as "tip"
    instead, whatever rule stopped it.

    Every row is padded to one pair count with pairs of zero residual and
    zero Jacobian (``_pair_geometry``), so each product and sum runs once
    over the whole stack, and a row's arithmetic is that of a solve of its
    set alone at that width, whatever rows share its stack.

    Returns positions (R, 3), residual norms (R,), iterations (R,), stop
    reasons (R,) as indices into ``STOP_REASONS``, and on-bound flags (R,):
    a free coordinate of the result lies on a box wall.
    """
    fix_z = options.fix_z
    k = 2 if fix_z is not None else 3  # the free coordinates: x, y and, off the plane, z
    eye = np.eye(k)
    diag = np.arange(k)
    box_lo, box_hi = (np.array(b, dtype=float) for b in options.bounds)
    if fix_z is not None:  # a flat z range: clamping a point into the box puts it on the plane
        box_lo[2] = box_hi[2] = fix_z
    wall_lo, wall_hi = box_lo[:k, None], box_hi[:k, None]
    p = np.minimum(np.maximum(np.array(starts, dtype=float), box_lo), box_hi)
    r, jac, _ = _residuals_and_jacobian(p, ends, dd, k)
    cost = _sq_norms(r)
    lam = np.full(len(p), DAMPING)
    second = np.zeros(len(p), dtype=bool)  # the rows that have switched to full-Hessian steps
    term = np.zeros((len(p), k, k))  # the second-order term at p, kept for those rows only
    all_ends = ends
    rows = np.arange(len(p))  # the output row of each row still running
    out_p, out_cost = np.empty_like(p), np.empty_like(cost)
    iterations = np.full(len(p), MAX_ITERATIONS)
    reasons = np.full(len(p), _CAP)
    for it in range(1, MAX_ITERATIONS + 1):
        if rows.size == 0:
            break
        jac_t = jac.swapaxes(1, 2)  # jac_t @ jac on one buffer runs as syrk, like jac.T @ jac
        normal = jac_t @ jac + lam[:, None, None] * eye
        normal += term * second[:, None, None]
        grad = jac_t @ r[:, :, None]  # J^T r, half the gradient of the cost
        x = p[:, :k, None]
        held = np.where(grad > 0.0, x <= wall_lo, (x >= wall_hi) & (grad < 0.0))
        if held.any():
            grad[held] = 0.0
            held = held[:, :, 0]
            normal[held[:, :, None] | held[:, None, :]] = 0.0
            normal[:, diag, diag] = np.where(held, 1.0, normal[:, diag, diag])
        flat = np.abs(grad).max(axis=(1, 2)) <= GRAD_TOL
        try:
            step, solved = np.linalg.solve(normal, -grad)[:, :, 0], True
        except np.linalg.LinAlgError:
            step, solved = _solve_each(normal, -grad)
        p_new = p.copy()
        p_new[:, :k] += step
        p_new = np.minimum(np.maximum(p_new, box_lo), box_hi)  # np.clip, without its call overhead
        r_new, jac_new, geometry = _residuals_and_jacobian(p_new, ends, dd, k)
        cost_new = _sq_norms(r_new)
        small = solved & (np.sqrt(_sq_norms(step)) < STEP_TOL)
        accept = solved & (cost_new < cost) & ~flat  # a NaN cost is never lower
        level = accept & (cost - cost_new <= COST_RTOL * cost)
        second |= accept & (cost - cost_new < SECOND_ORDER_RTOL * cost)
        np.copyto(p, p_new, where=accept[:, None])
        np.copyto(r, r_new, where=accept[:, None])
        np.copyto(jac, jac_new, where=accept[:, None, None])
        if (moved := accept & second).any():  # only these rows read the term at their new point
            np.copyto(term, _second_order_term(*geometry, r_new), where=moved[:, None, None])
        cost = np.where(accept, cost_new, cost)
        lam = np.where(accept, np.maximum(lam / 10.0, 1e-15), lam * 10.0)
        damped = solved & ~accept & (lam > 1e14)
        stop = flat | small | level | damped
        if stop.any():
            why = np.where(flat, _GRADIENT, np.where(small, _STEP, np.where(level, _COST, _DAMPING)))
            done = rows[stop]
            out_p[done], out_cost[done] = p[stop], cost[stop]
            iterations[done], reasons[done] = it, why[stop]
            keep = ~stop
            rows, p, r, jac, term, cost, lam, second, dd = (
                x[keep] for x in (rows, p, r, jac, term, cost, lam, second, dd)
            )
            ends = ends[:, keep]
    out_p[rows], out_cost[rows] = p, cost
    u = out_p.T[:, :, None] - all_ends
    reasons[np.sqrt((u[0] * u[0] + u[1] * u[1]) + u[2] * u[2]).min(axis=1) <= TIP_DIST] = _TIP
    on_bound = ((out_p[:, :k] <= box_lo[:k]) | (out_p[:, :k] >= box_hi[:k])).any(axis=1)
    return out_p, np.sqrt(out_cost), iterations, reasons, on_bound


def _starts(ddoas: DdoaSet, pos: Mapping[int, np.ndarray], referenced, fix_z) -> list[np.ndarray]:
    """A set's LM start points, in the order its solves are scanned.

    A set whose pairs (i, ref, d) all end on one anchor ref, with at least
    k + 1 pairs for k free coordinates, starts from the linear least-squares
    point and then the anchors' centroid: with q = p - a_ref, b_i = a_i - a_ref
    and r_0 = |q|, |q - b_i|^2 = (r_0 + d_i)^2 gives 2 b_i . q + 2 d_i r_0 =
    |b_i|^2 - d_i^2, linear in q (q_z is known on the plane) and r_0 (Smith &
    Abel 1987; Chan & Ho 1994). Any other set starts from the centroid and up
    to ``EXTRA_STARTS`` points 80% of the way from it to an anchor.
    """
    participating = np.array([pos[i] for i in sorted(referenced)])
    centroid = participating.mean(axis=0)
    k = 2 if fix_z is not None else 3
    if len({j for _, j, _ in ddoas.pairs}) == 1 and len(ddoas.pairs) > k:
        ref = pos[ddoas.pairs[0][1]]
        b = np.array([pos[i] for i, _, _ in ddoas.pairs]) - ref
        d = np.array([dd for _, _, dd in ddoas.pairs])
        rhs = (b * b).sum(axis=1) - d * d
        point = ref.copy()
        if fix_z is not None:
            rhs -= 2.0 * b[:, 2] * (fix_z - ref[2])
            point[2] = fix_z
        point[:k] += np.linalg.lstsq(2.0 * np.column_stack([b[:, :k], d]), rhs, rcond=None)[0][:k]
        return [point, centroid]
    picks = np.linspace(0, len(participating) - 1, min(EXTRA_STARTS, len(participating)))
    return [centroid] + [0.8 * participating[int(i)] + 0.2 * centroid for i in picks]


def _solve_group(
    ddoa_sets: Sequence[DdoaSet], anchors: Sequence[Anchor], options: SolverOptions
) -> list[PositionEstimate]:
    """Multi-start solves of DDoA sets of any pair counts, in one LM run.

    Each set contributes one row per start, stacked in input order and
    padded to one width: the number of anchors less one, the most pairs a
    ``measured_ddoa_set`` over them holds, unless a set is wider. A set's
    result is its first start with a strictly lowest residual norm,
    scanning the starts in order and stopping at the first whose running
    best is exact-level (<= 1e-9).
    """
    pos = {a.id: a.position for a in anchors}
    width = max(len(anchors) - 1, *(len(ddoas.pairs) for ddoas in ddoa_sets))
    first, starts, geometry = [0], [], []  # set n's rows are first[n] to first[n + 1]
    for ddoas in ddoa_sets:
        referenced = _require_three_anchors(ddoas)
        geometry.append(_pair_geometry(ddoas, pos, width))  # raises MissingAnchorError
        starts.extend(_starts(ddoas, pos, referenced, options.fix_z))
        first.append(len(starts))
    owner = [n for n in range(len(ddoa_sets)) for _ in range(first[n], first[n + 1])]
    ends = np.ascontiguousarray(np.stack([e for e, _ in geometry])[owner].transpose(2, 0, 1))
    dd = np.stack([d for _, d in geometry])[owner]
    position, residual, iterations, reasons, on_bound = _levenberg_marquardt(starts, ends, dd, options)
    results = []
    for lo, hi in zip(first, first[1:]):
        best = lo
        for row in range(lo, hi):
            if residual[row] < residual[best]:
                best = row
            if residual[best] <= 1e-9:
                break
        results.append(
            PositionEstimate(
                position=position[best].copy(),
                residual_norm=float(residual[best]),
                iterations=int(iterations[best]),
                stop_reason=STOP_REASONS[reasons[best]],
                on_bound=bool(on_bound[best]),
            )
        )
    return results


def solve_tdoa(
    ddoas: DdoaSet, anchors: Sequence[Anchor], options: SolverOptions = SolverOptions()
) -> PositionEstimate:
    """Least-squares tag position from a DDoA set.

    Levenberg-Marquardt on the hyperboloid residuals: the damping factor is
    multiplied by 10 on a rejected step and divided by 10 on an accepted one,
    the steps use the exact Hessian once Gauss-Newton progress slows, and a
    coordinate that a wall of ``options.bounds`` holds is left out of the
    step. A run converges on a small projected gradient, step or relative
    cost decrease (``GRAD_TOL``, ``STEP_TOL``, ``COST_RTOL``), and otherwise
    stops at the damping limit or after ``MAX_ITERATIONS``, or ends on one of
    its anchors (``TIP_DIST``); the estimate's ``stop_reason`` says which.
    Non-convergence returns the best iterate with ``converged`` False rather
    than raising.

    The squared-residual surface has mirror basins, so the solver runs from
    two or more starts (``_starts``): the closed-form least-squares point and
    the centroid where it can, else the centroid and anchor-biased points. It
    keeps the lowest-cost result (the first start at exact-level residual wins).

    ``options.fix_z`` constrains the solution to a horizontal plane, which
    avoids the ill-conditioned vertical axis of near-planar anchor layouts.
    """
    return _solve_group([ddoas], anchors, options)[0]


def baseline_position(
    sample, anchors: Sequence[Anchor], *, options: SolverOptions = SolverOptions()
) -> PositionEstimate:
    """Uncorrected TDoA estimate from a sample's reception timestamps."""
    return solve_tdoa(_sample_ddoas(sample), anchors, options)


def solve_baselines(
    samples, anchors: Sequence[Anchor], options: SolverOptions = SolverOptions()
) -> list[Optional[PositionEstimate]]:
    """Baseline estimates for many samples, solved together.

    The solvable samples are solved in input order, in lockstep LM runs of
    up to ``BATCH_SAMPLES`` samples each, every set padded to the width the
    anchors fix. Every result equals ``baseline_position`` on the same
    sample; an unsolvable sample (fewer than 2 timestamps or 3 anchors)
    gives ``None`` at its index.
    """
    results: list[Optional[PositionEstimate]] = [None] * len(samples)
    solvable: list[tuple[int, DdoaSet]] = []
    for k, sample in enumerate(samples):
        try:
            ddoas = _sample_ddoas(sample)
            _require_three_anchors(ddoas)
        except InsufficientDataError:
            continue
        solvable.append((k, ddoas))
    for lo in range(0, len(solvable), BATCH_SAMPLES):
        batch = solvable[lo : lo + BATCH_SAMPLES]
        for (k, _), estimate in zip(batch, _solve_group([d for _, d in batch], anchors, options)):
            results[k] = estimate
    return results
