import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbcorr import (
    SPEED_OF_LIGHT,
    Anchor,
    DdoaSet,
    Environment,
    SolverOptions,
    baseline_position,
    default_environment,
    euclidean_distance,
    generate_dataset,
    measured_ddoa_set,
    solve_baselines,
    solve_tdoa,
)
from uwbcorr import tdoa
from uwbcorr.simulate import random_trajectory
from uwbcorr.errors import (
    ConfigError,
    InsufficientAnchorsError,
    InsufficientDataError,
    MissingAnchorError,
)

from test_solver_golden import golden_cases

finite_coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
point = st.tuples(finite_coord, finite_coord, finite_coord).map(np.array)


def make_anchors(positions):
    return [Anchor(i + 1, np.asarray(p, dtype=float)) for i, p in enumerate(positions)]


def true_ddoa(p, a_i, a_j):
    """d_i - d_j in meters for a tag at p: the Euclidean distance to anchor i
    minus the distance to anchor j."""
    if a_i.id == a_j.id:
        raise ValueError(f"true_ddoa needs two distinct anchors, got id {a_i.id} twice")
    return math.dist(p, a_i.position) - math.dist(p, a_j.position)


def residuals(p, ddoas, anchors):
    """Per-pair hyperboloid residuals [d_i(p) - d_j(p)] - ddoa_ij in meters,
    one pair at a time."""
    pos = {a.id: a.position for a in anchors}
    return np.array(
        [math.dist(p, pos[i]) - math.dist(p, pos[j]) - d for i, j, d in ddoas.pairs]
    )


class TestEuclideanDistance:
    def test_345_triangle(self):
        assert euclidean_distance((3, 4, 0), (0, 0, 0)) == 5.0

    def test_identity(self):
        assert euclidean_distance((1.5, -2.0, 7.0), (1.5, -2.0, 7.0)) == 0.0

    def test_hand_arithmetic(self):
        assert euclidean_distance((1, 2, 3), (4, 6, 3)) == pytest.approx(5.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            euclidean_distance((np.nan, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            euclidean_distance((0, 0, 0), (np.inf, 0, 0))

    @given(p=point, a=point)
    def test_symmetric_and_nonnegative(self, p, a):
        d = euclidean_distance(p, a)
        assert d >= 0
        assert d == euclidean_distance(a, p)


class TestTrueDdoa:
    def test_equidistant_tag(self):
        a1, a2 = make_anchors([(5, 0, 0), (-5, 0, 0)])
        assert true_ddoa((0, 3, 1), a1, a2) == pytest.approx(0.0)

    def test_collinear(self):
        a_i, a_j = Anchor(1, [5, 0, 0]), Anchor(2, [2, 0, 0])
        assert true_ddoa((0, 0, 0), a_i, a_j) == pytest.approx(3.0)
        assert true_ddoa((0, 0, 0), a_j, a_i) == pytest.approx(-3.0)

    def test_same_anchor_rejected(self):
        a = Anchor(1, [0, 0, 0])
        with pytest.raises(ValueError):
            true_ddoa((1, 1, 1), a, Anchor(1, [5, 5, 5]))

    @given(p=point, ai=point, aj=point)
    def test_antisymmetry(self, p, ai, aj):
        a1, a2 = Anchor(1, ai), Anchor(2, aj)
        assert true_ddoa(p, a1, a2) == pytest.approx(-true_ddoa(p, a2, a1), abs=1e-9)

    @given(p=point, a=point, b=point, c=point)
    def test_triangle_identity(self, p, a, b, c):
        a1, a2, a3 = Anchor(1, a), Anchor(2, b), Anchor(3, c)
        lhs = true_ddoa(p, a1, a2) + true_ddoa(p, a2, a3)
        assert lhs == pytest.approx(true_ddoa(p, a1, a3), abs=1e-9)


class TestMeasuredDdoaSet:
    def test_equal_timestamps(self):
        # a tie for the earliest reception goes to the smallest id
        ddoas = measured_ddoa_set({1: 5e-6, 2: 5e-6})
        assert ddoas.pairs == ((2, 1, 0.0),)

    def test_one_nanosecond(self):
        ddoas = measured_ddoa_set({1: 0.0, 2: 1e-9})
        assert len(ddoas.pairs) == 1
        assert ddoas.pairs[0][2] == pytest.approx(0.299792458, abs=1e-12)

    def test_reference_anchor_uses_earliest(self):
        ddoas = measured_ddoa_set({1: 3e-9, 2: 1e-9, 3: 2e-9})
        assert len(ddoas.pairs) == 2
        assert all(j == 2 for _, j, _ in ddoas.pairs)
        assert all(d > 0 for _, _, d in ddoas.pairs)

    def test_requires_two_timestamps(self):
        with pytest.raises(InsufficientDataError):
            measured_ddoa_set({1: 0.0})


class TestDdoaSetInvariants:
    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            DdoaSet(pairs=((1, 1, 0.0),))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            DdoaSet(pairs=((1, 2, 0.0), (2, 1, 0.5)))


def ddoas_from_truth(p, anchors):
    timestamps = {
        a.id: euclidean_distance(p, a.position) / SPEED_OF_LIGHT for a in anchors
    }
    return measured_ddoa_set(timestamps)


class TestSolveTdoa:
    def test_symmetric_square(self):
        anchors = make_anchors([(5, 5, 1.5), (-5, 5, 1.5), (-5, -5, 1.5), (5, -5, 1.5)])
        truth = np.array([0.0, 0.0, 1.5])
        ddoas = ddoas_from_truth(truth, anchors)
        est = solve_tdoa(ddoas, anchors, SolverOptions(fix_z=1.5))
        assert np.allclose(est.position, truth, atol=1e-8)
        assert est.residual_norm <= 1e-9

    def test_noise_free_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            anchors = make_anchors(rng.uniform([0, 0, 0], [20, 20, 8], size=(8, 3)))
            truth = rng.uniform([2, 2, 1], [18, 18, 7])
            est = solve_tdoa(ddoas_from_truth(truth, anchors), anchors)
            assert np.linalg.norm(est.position - truth) < 1e-6
            assert est.residual_norm <= 1e-9
            assert est.converged and est.iterations <= 100

    def test_common_mode_offset_shifts_position(self):
        rng = np.random.default_rng(4)
        anchors = make_anchors(rng.uniform([0, 0, 0], [20, 20, 8], size=(8, 3)))
        truth = rng.uniform([4, 4, 2], [16, 16, 6])
        clean = ddoas_from_truth(truth, anchors)
        shifted = DdoaSet(pairs=tuple((i, j, d + 1.0) for i, j, d in clean.pairs))
        est = solve_tdoa(shifted, anchors)
        assert np.linalg.norm(est.position - truth) > 1e-3
        assert est.residual_norm > 0

    def test_insufficient_anchors(self):
        anchors = make_anchors([(0, 0, 0), (10, 0, 0)])
        ddoas = DdoaSet(pairs=((1, 2, 1.0),))
        with pytest.raises(InsufficientAnchorsError):
            solve_tdoa(ddoas, anchors)

    def test_local_minimum(self):
        rng = np.random.default_rng(5)
        anchors = make_anchors(rng.uniform([0, 0, 0], [20, 20, 8], size=(6, 3)))
        truth = rng.uniform([4, 4, 2], [16, 16, 6])
        noisy = ddoas_from_truth(truth, anchors)
        noisy = DdoaSet(pairs=tuple((i, j, d + rng.normal(0, 0.3)) for i, j, d in noisy.pairs))
        est = solve_tdoa(noisy, anchors)
        base = np.sum(residuals(est.position, noisy, anchors) ** 2)
        for _ in range(100):
            perturbed = est.position + rng.normal(0, 1e-4, size=3)
            assert np.sum(residuals(perturbed, noisy, anchors) ** 2) >= base - 1e-12


class TestResiduals:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(6)
        anchors = make_anchors(rng.uniform([0, 0, 0], [20, 20, 8], size=(5, 3)))
        truth = rng.uniform([4, 4, 2], [16, 16, 6])
        r = residuals(truth, ddoas_from_truth(truth, anchors), anchors)
        assert np.allclose(r, 0.0, atol=1e-9)

    def test_single_pair_on_hyperboloid(self):
        anchors = make_anchors([(5, 0, 0), (-5, 0, 0)])
        ddoas = DdoaSet(pairs=((1, 2, 0.0),))
        r = residuals(np.array([0.0, 7.0, 2.0]), ddoas, anchors)
        assert r[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_recomputation(self):
        anchors = make_anchors([(0, 0, 3), (10, 0, 2.5), (10, 10, 3), (0, 10, 2.8)])
        truth = np.array([4.0, 6.0, 1.0])
        ddoas = ddoas_from_truth(truth, anchors)
        p = truth + np.array([1.0, 0.0, 0.0])
        got = residuals(p, ddoas, anchors)
        pos = {a.id: a.position for a in anchors}
        expected = [
            np.linalg.norm(p - pos[i]) - np.linalg.norm(p - pos[j]) - d
            for i, j, d in ddoas.pairs
        ]
        assert np.allclose(got, expected, atol=1e-12)

    def test_missing_anchor(self):
        anchors = make_anchors([(0, 0, 0), (10, 0, 0), (0, 10, 0)])
        ddoas = DdoaSet(pairs=((1, 9, 0.0), (2, 9, 0.0)))
        with pytest.raises(MissingAnchorError, match="no position known for anchor id 9"):
            solve_tdoa(ddoas, anchors)


def test_baseline_position_round_trip(clean_dataset, open_env):
    for sample in clean_dataset:
        est = baseline_position(
            sample, open_env.anchors, options=SolverOptions(fix_z=1.0)
        )
        assert np.linalg.norm(est.position - sample.true_position) < 1e-6


def assert_same_estimate(got, want):
    assert np.array_equal(got.position, want.position)
    assert (got.residual_norm, got.iterations, got.stop_reason, got.on_bound) == (
        want.residual_norm,
        want.iterations,
        want.stop_reason,
        want.on_bound,
    )


def keep_anchors(sample, n):
    """The sample as received by its first n anchors only."""
    return replace(sample, raw_cirs=sample.raw_cirs[:n])


@pytest.fixture(scope="module")
def hall():
    env = default_environment()
    points = random_trajectory(env, 24, z=1.0, seed=41, step=2.0)
    return env, generate_dataset(env, points, 0.4, 42)


class TestSolverOptions:
    @pytest.mark.parametrize(
        "bounds",
        [
            ((5.0, 5.0, 0.0), (25.0, 5.0, 3.0)),  # no y range
            ((6.0, 6.0, 0.0), (24.0, 4.0, 3.0)),  # y inverted
            ((5.0, 5.0, 5.0), (0.0, 0.0, 0.0)),  # every axis inverted
        ],
        ids=["empty", "inverted", "all_inverted"],
    )
    def test_an_empty_or_inverted_box_is_rejected(self, bounds):
        with pytest.raises(ConfigError, match="solver box must have lo < hi on every axis"):
            SolverOptions(bounds=bounds)

    def test_a_flat_z_range_is_refused(self):
        """A flat z range would hold z on both walls of a 3-D solve, which is
        not the plane solve ``fix_z`` asks for; with ``fix_z`` the box keeps
        its z range."""
        for box in (((0.0, 0.0, 1.0), (5.0, 5.0, 1.0)), ((0.0, 0.0, 2.0), (5.0, 5.0, 1.0))):
            with pytest.raises(ConfigError, match=r"^solver box must have lo < hi on every axis, got lo \("):
                SolverOptions(bounds=box)
            with pytest.raises(ConfigError, match="lo < hi on every axis"):
                SolverOptions(fix_z=1.0, bounds=box)
        box = ((0.0, 0.0, 0.0), (5.0, 5.0, 3.0))
        assert SolverOptions(fix_z=1.0, bounds=box).bounds == box

    def test_the_default_box_is_unbounded(self):
        unbounded = ((-math.inf,) * 3, (math.inf,) * 3)
        assert SolverOptions().bounds == SolverOptions(fix_z=1.0).bounds == unbounded

    @pytest.mark.parametrize("fix_z", ["abc", True, float("nan")])
    def test_fix_z_must_be_a_number_or_none(self, fix_z):
        with pytest.raises(ConfigError, match=f"fix_z must be a finite number or null, got {fix_z!r}"):
            SolverOptions(fix_z=fix_z)
        assert SolverOptions(fix_z=None).fix_z is None

    @pytest.mark.parametrize("fix_z", [-0.5, 3.5])
    def test_a_plane_outside_the_box_is_rejected(self, fix_z):
        env = default_environment()  # 3 m high
        with pytest.raises(ConfigError, match=rf"^fix_z must lie in the box's z range \[0.0, 3.0\], got {fix_z}$"):
            SolverOptions.for_environment(env, fix_z=fix_z)
        for z in (0.0, 3.0):  # the floor and ceiling planes are in the box
            assert SolverOptions.for_environment(env, fix_z=z).fix_z == z


class TestUnboundedBox:
    """The default box's walls lie at infinity and hold no finite point, so
    an unbounded solve is the solve in any box too large to bind."""

    @pytest.mark.parametrize("fix_z", [1.0, None])
    def test_equals_a_solve_in_a_box_too_large_to_bind(self, fix_z):
        env, samples = golden_cases()
        far = SolverOptions(fix_z=fix_z, bounds=((-1e6,) * 3, (1e6,) * 3))
        unbounded = solve_baselines(samples, env.anchors, SolverOptions(fix_z=fix_z))
        boxed = solve_baselines(samples, env.anchors, far)
        assert sum(e is not None for e in unbounded) >= 50
        for got, want in zip(unbounded, boxed):
            assert (got is None) == (want is None)
            if got is not None:
                assert not got.on_bound
                assert_same_estimate(got, want)
                assert got.position.tobytes() == want.position.tobytes()  # -0.0 too


class TestSolveBaselines:
    @pytest.mark.parametrize("fix_z", [1.0, None])
    def test_equals_baseline_position(self, hall, fix_z):
        env, samples = hall
        options = SolverOptions.for_environment(env, fix_z=fix_z)
        batched = solve_baselines(samples, env.anchors, options)
        assert len(batched) == len(samples)
        for sample, got in zip(samples, batched):
            assert_same_estimate(got, baseline_position(sample, env.anchors, options=options))

    def test_unsolvable_samples_are_none_in_place(self, hall):
        env, samples = hall
        mixed = [keep_anchors(samples[0], 1), samples[1], keep_anchors(samples[2], 2), samples[3]]
        options = SolverOptions.for_environment(env, fix_z=1.0)
        got = solve_baselines(mixed, env.anchors, options)
        assert got[0] is None and got[2] is None
        for k in (1, 3):
            assert_same_estimate(got[k], baseline_position(mixed[k], env.anchors, options=options))

    def test_mixed_pair_counts_keep_input_order(self, hall):
        env, samples = hall
        counts = [7, 3, 5, 3, 9, 4, 7, 3]
        mixed = [keep_anchors(s, n) for s, n in zip(samples, counts)]
        assert len({len(s.raw_cirs) for s in mixed}) >= 4
        got = solve_baselines(mixed, env.anchors, SolverOptions(fix_z=1.0))
        for sample, estimate in zip(mixed, got):
            assert_same_estimate(
                estimate, baseline_position(sample, env.anchors, options=SolverOptions(fix_z=1.0))
            )

    def test_empty(self, hall):
        env, _ = hall
        assert solve_baselines([], env.anchors) == []

    def test_singular_row_leaves_other_rows_alone(self, monkeypatch):
        # Without damping, a tag start on the line through collinear anchors
        # gives a Jacobian with a zero y column, so every normal matrix of
        # that set is singular. The batched solve then falls back to one
        # solve per row, and only the singular rows get their damping raised.
        anchors = make_anchors(
            [(0, 0, 0), (10, 0, 0), (20, 0, 0), (0, 0, 3), (10, 10, 2.5), (0, 10, 2.8),
             (5, 5, 3), (15, 2, 2), (9, 14, 2.6)]
        )
        truth = np.array([4.0, 6.0, 0.0])
        sets = [
            ddoas_from_truth(truth, [anchors[k] for k in ids])
            for ids in ([3, 4, 5], [0, 1, 2], [6, 7, 8])
        ]
        monkeypatch.setattr(tdoa, "DAMPING", 0.0)
        plane = SolverOptions(fix_z=0.0)
        alone = [solve_tdoa(d, anchors, plane) for d in sets]
        assert alone[1].iterations == 100 and not alone[1].converged
        assert alone[1].stop_reason == "cap"
        fallbacks = []
        solve_each = tdoa._solve_each
        monkeypatch.setattr(tdoa, "_solve_each", lambda *a: fallbacks.append(1) or solve_each(*a))
        together = tdoa._solve_group(sets, anchors, plane)
        assert fallbacks
        for got, want in zip(together, alone):
            assert_same_estimate(got, want)
        assert alone[0].converged and alone[2].converged


class TestPaddedSolve:
    """One LM run holds sets of every pair count, padded to the widest."""

    @pytest.mark.parametrize("fix_z", [1.0, None])
    def test_widths_around_16_match_one_at_a_time(self, fix_z):
        # n receiving anchors give n - 1 reference pairs, which the default
        # hall's 15 anchors keep below 16. On a 24-anchor hall, 11 to 22
        # anchors give 10 to 21 pairs: BLAS sums change their order from a
        # length of 16, so these straddle it
        hall = default_environment()
        anchors = [
            Anchor(8 * row + col + 1, np.array([x, y, 2.8]))
            for row, y in enumerate((0.5, 5.0, 9.5))
            for col, x in enumerate(np.linspace(1.0, 29.0, 8))
        ]
        env = Environment(anchors=anchors, obstacles=hall.obstacles, extent=hall.extent)
        points = random_trajectory(env, 30, z=1.0, seed=46, step=2.0)
        wide = [s for s in generate_dataset(env, points, 0.1, 47) if len(s.raw_cirs) >= 22]
        batch = [keep_anchors(s, n) for s, n in zip(wide, range(11, 23))]
        assert sorted(len(s.raw_cirs) - 1 for s in batch) == list(range(10, 22))
        options = SolverOptions.for_environment(env, fix_z=fix_z)
        got = solve_baselines(batch, env.anchors, options)
        for sample, estimate in zip(batch, got):
            assert_same_estimate(estimate, baseline_position(sample, env.anchors, options=options))

    def test_more_samples_than_one_run_keep_input_order(self):
        env = default_environment()
        points = random_trajectory(env, tdoa.BATCH_SAMPLES + 6, z=1.0, seed=43, step=2.0)
        samples = generate_dataset(env, points, 0.3, 44)
        rng = np.random.default_rng(45)
        mixed = [keep_anchors(s, int(rng.integers(3, 10))) for s in samples]
        assert len({len(s.raw_cirs) for s in mixed}) >= 5
        options = SolverOptions.for_environment(env, fix_z=1.0)
        got = solve_baselines(mixed, env.anchors, options)
        assert len(got) == len(mixed) > tdoa.BATCH_SAMPLES
        for sample, estimate in zip(mixed, got):
            assert_same_estimate(estimate, baseline_position(sample, env.anchors, options=options))

    @pytest.mark.parametrize("fix_z", [1.0, None])
    def test_a_mixed_batch_with_rows_on_the_wall_matches_one_at_a_time(self, hall, fix_z):
        # rows whose coordinates the box wall holds change the normal
        # matrices of some rows in some iterations and not of others
        env, samples = hall
        mixed = [keep_anchors(s, n) for s, n in zip(samples, [3, 4, 5, 6, 7, 8] * 4)]
        options = SolverOptions.for_environment(env, fix_z=fix_z)
        got = solve_baselines(mixed, env.anchors, options)
        assert sum(e.on_bound for e in got) >= 5 and sum(not e.on_bound for e in got) >= 5
        for sample, estimate in zip(mixed, got):
            assert_same_estimate(estimate, baseline_position(sample, env.anchors, options=options))

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_pad_pair_has_zero_residual_and_jacobian(self, k):
        anchors = make_anchors([(0, 0, 3), (10, 0, 2.5), (10, 10, 3), (0, 10, 2.8)])
        ddoas = DdoaSet(pairs=((2, 1, 0.7), (3, 1, -1.2), (4, 1, 0.4)))
        pos = {a.id: a.position for a in anchors}
        # the second point sits on anchor 2, the pad pairs' anchor
        points = np.array([[4.0, 6.0, 1.0], pos[2], [-30.0, 55.0, 9.0]])

        def evaluate(width, summed):
            ends, dd = tdoa._pair_geometry(ddoas, pos, width)
            stacked = np.ascontiguousarray(np.repeat(ends[None], len(points), 0).transpose(2, 0, 1))
            dd = np.repeat(dd[None], len(points), 0)
            r, jac, geometry = tdoa._residuals_and_jacobian(points, stacked, dd, k)
            return r, jac, tdoa._second_order_term(*geometry, r, [(0, len(points), summed)])

        r, jac, term = evaluate(3, 3)
        r_pad, jac_pad, term_pad = evaluate(7, 3)
        assert np.array_equal(r_pad[:, :3], r) and np.array_equal(jac_pad[:, :3], jac)
        assert np.all(r_pad[:, 3:] == 0.0) and np.all(jac_pad[:, 3:] == 0.0)
        assert np.array_equal(term_pad, term)
        # summed over the pad columns too, the pad pairs add exactly 0 to the
        # second-order term, on their anchor as well as away from it
        assert np.array_equal(evaluate(7, 7)[2], term)
        # the pair axis is contiguous, as in the one-row solver's J^T J
        assert jac_pad.strides[1] == jac_pad.itemsize


class TestSecondOrderTerm:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_central_differences_of_the_gradient(self, k):
        # J^T J plus the term is the Hessian of r . r / 2 over the k free
        # coordinates, so the term is the central difference of J^T r less J^T J
        anchors = make_anchors([(0, 0, 3), (10, 0, 2.5), (10, 10, 3), (0, 10, 2.8), (5, -4, 0.5)])
        ddoas = DdoaSet(pairs=((2, 1, 0.7), (3, 1, -1.2), (4, 1, 3.4), (5, 1, -2.0)))
        pos = {a.id: a.position for a in anchors}
        rng = np.random.default_rng(48)
        points = rng.uniform((-5.0, -5.0, -2.0), (15.0, 15.0, 5.0), size=(40, 3))
        points = points[[min(math.dist(p, a) for a in pos.values()) > 1.0 for p in points]]
        ends, dd = tdoa._pair_geometry(ddoas, pos, 4)
        ends = np.ascontiguousarray(np.repeat(ends[None], len(points), 0).transpose(2, 0, 1))
        dd = np.repeat(dd[None], len(points), 0)
        spans = [(0, len(points), 4)]

        def grad(at):
            r, jac, _ = tdoa._residuals_and_jacobian(at, ends, dd, k)
            return (jac.swapaxes(1, 2) @ r[:, :, None])[:, :, 0]

        r, jac, geometry = tdoa._residuals_and_jacobian(points, ends, dd, k)
        term = tdoa._second_order_term(*geometry, r, spans)
        h = 1e-5
        diff = np.empty_like(term)
        for c in range(k):
            step = np.zeros(3)
            step[c] = h
            diff[:, :, c] = (grad(points + step) - grad(points - step)) / (2 * h)
        assert len(points) >= 30 and np.abs(term).max() > 0.1
        np.testing.assert_allclose(term, diff - jac.swapaxes(1, 2) @ jac, rtol=0, atol=1e-7)


def cost_and_gradient(position, sample, anchors, options):
    """The solver's cost r . r at ``position`` and J^T r over the free
    coordinates, from the formula one pair at a time, with the mask of the
    coordinates a box wall holds: on the wall, with the descent direction
    -J^T r pointing out of the box."""
    timestamps = {c.anchor_id: c.rx_time for c in sample.raw_cirs}
    ddoas = measured_ddoa_set(timestamps)
    pos = {a.id: a.position for a in anchors}
    r = residuals(position, ddoas, anchors)
    unit = {a: (position - pos[a]) / math.dist(position, pos[a]) for a in pos}
    grad = sum(ri * (unit[i] - unit[j]) for ri, (i, j, _) in zip(r, ddoas.pairs))
    k = 2 if options.fix_z is not None else 3
    grad, x = grad[:k], position[:k]
    lo, hi = np.array(options.bounds[0][:k]), np.array(options.bounds[1][:k])
    held = ((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))
    return float(r @ r), grad, held


class TestFirstOrder:
    """Converged solves of the golden cases end at a minimum of the cost on
    the box, as far as their stop rule can tell."""

    @pytest.mark.parametrize("fix_z", [1.0, None])
    def test_converged_results_meet_the_first_order_conditions(self, fix_z):
        env, samples = golden_cases()
        options = SolverOptions.for_environment(env, fix_z=fix_z)
        estimates = solve_baselines(samples, env.anchors, options)
        results = [(s, e) for s, e in zip(samples, estimates) if e is not None]
        k = 2 if fix_z is not None else 3
        lo, hi = np.array(options.bounds[0][:k]), np.array(options.bounds[1][:k])
        # every solve reaches a minimum: a converged one, or a cone tip of the
        # cost on an anchor, where it has no gradient to test
        assert all(e.converged or e.stop_reason == "tip" for _, e in results)
        converged = [(s, e) for s, e in results if e.converged]
        for sample, estimate in results:
            on_anchor = min(math.dist(estimate.position, a.position) for a in env.anchors)
            assert (on_anchor <= tdoa.TIP_DIST) == (estimate.stop_reason == "tip"), sample.true_position
        for sample, estimate in converged:
            p = estimate.position
            cost, grad, held = cost_and_gradient(p, sample, env.anchors, options)
            on_wall = (p[:k] <= lo) | (p[:k] >= hi)
            assert estimate.on_bound == bool(on_wall.any()), sample.true_position
            # a coordinate on a wall is held there by its gradient, or has none
            assert np.all(held | ~on_wall | (np.abs(grad) <= tdoa.GRAD_TOL)), sample.true_position
            free = np.max(np.abs(np.where(held, 0.0, grad)))
            if estimate.stop_reason == "gradient":
                assert free <= tdoa.GRAD_TOL, sample.true_position
            else:
                # the cost rule's promise: a move of 1e-7 m along any free
                # coordinate lowers the cost (slope 2 J^T r) by at most
                # COST_RTOL of it
                assert 2 * free * 1e-7 <= tdoa.COST_RTOL * cost, sample.true_position


class TestStarts:
    """A set with one reference anchor and enough pairs starts from the
    closed-form least-squares point, then the centroid; any other set keeps
    the centroid and the anchor-biased points."""

    @staticmethod
    def starts(ddoas, anchors, fix_z):
        pos = {a.id: a.position for a in anchors}
        return tdoa._starts(ddoas, pos, tdoa._require_three_anchors(ddoas), fix_z)

    @staticmethod
    def multi_start(ddoas, anchors):
        ids = sorted({i for i, _, _ in ddoas.pairs} | {j for _, j, _ in ddoas.pairs})
        pts = np.array([a.position for a in anchors if a.id in ids])
        centroid = pts.mean(axis=0)
        picks = np.linspace(0, len(pts) - 1, min(tdoa.EXTRA_STARTS, len(pts)))
        return [centroid] + [0.8 * pts[int(i)] + 0.2 * centroid for i in picks]

    @pytest.mark.parametrize("fix_z, n_pairs", [(1.2, 3), (1.2, 7), (None, 4), (None, 9)])
    def test_the_closed_form_point_is_the_truth_on_noise_free_ddoas(self, fix_z, n_pairs):
        rng = np.random.default_rng(60 + n_pairs)
        for _ in range(10):
            anchors = make_anchors(rng.uniform([0, 0, 0], [20, 20, 8], size=(n_pairs + 1, 3)))
            truth = rng.uniform([2, 2, 1], [18, 18, 7])
            if fix_z is not None:
                truth[2] = fix_z
            ddoas = ddoas_from_truth(truth, anchors)
            assert len(ddoas.pairs) == n_pairs
            point, centroid = self.starts(ddoas, anchors, fix_z)
            assert np.linalg.norm(point - truth) <= 1e-9
            assert np.array_equal(centroid, self.multi_start(ddoas, anchors)[0])

    @pytest.mark.parametrize(
        "fix_z, pairs",
        [
            (1.0, ((2, 1, 1.5), (3, 1, -2.0))),  # 2 pairs on the plane
            (None, ((2, 1, 1.5), (3, 1, -2.0), (4, 1, 0.5))),  # 3 pairs in 3-D
            (1.0, ((2, 1, 1.5), (3, 1, -2.0), (4, 2, 0.5), (5, 1, 3.0))),  # two references
        ],
        ids=["plane-2-pairs", "3d-3-pairs", "mixed-references"],
    )
    def test_other_sets_keep_the_centroid_and_anchor_biased_starts(self, fix_z, pairs):
        anchors = make_anchors([(0, 0, 3), (10, 0, 2.5), (10, 10, 3), (0, 10, 2.8), (5, 5, 2.6)])
        ddoas = DdoaSet(pairs=pairs)
        got, want = self.starts(ddoas, anchors, fix_z), self.multi_start(ddoas, anchors)
        assert len(got) == len(want) > 2
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
