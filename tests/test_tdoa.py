from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbcorr import (
    SPEED_OF_LIGHT,
    Anchor,
    DdoaSet,
    SolverOptions,
    baseline_position,
    default_environment,
    euclidean_distance,
    generate_dataset,
    measured_ddoa_set,
    residuals,
    solve_baselines,
    solve_tdoa,
    true_ddoa,
)
from uwbcorr import tdoa
from uwbcorr.simulate import random_trajectory
from uwbcorr.errors import (
    ConfigError,
    InsufficientAnchorsError,
    InsufficientDataError,
    MissingAnchorError,
)

finite_coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
point = st.tuples(finite_coord, finite_coord, finite_coord).map(np.array)


def make_anchors(positions):
    return [Anchor(i + 1, np.asarray(p, dtype=float)) for i, p in enumerate(positions)]


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
        ddoas = measured_ddoa_set({1: 5e-6, 2: 5e-6}, "all_pairs")
        assert ddoas.pairs == ((1, 2, 0.0),)

    def test_one_nanosecond(self):
        ddoas = measured_ddoa_set({1: 0.0, 2: 1e-9}, "all_pairs")
        assert len(ddoas.pairs) == 1
        assert ddoas.pairs[0][2] == pytest.approx(-0.299792458, abs=1e-12)

    def test_all_pairs_count(self):
        ddoas = measured_ddoa_set({i: i * 1e-9 for i in range(4)}, "all_pairs")
        assert len(ddoas.pairs) == 6

    def test_reference_anchor_uses_earliest(self):
        ddoas = measured_ddoa_set({1: 3e-9, 2: 1e-9, 3: 2e-9}, "reference_anchor")
        assert len(ddoas.pairs) == 2
        assert all(j == 2 for _, j, _ in ddoas.pairs)
        assert all(d > 0 for _, _, d in ddoas.pairs)

    def test_requires_two_timestamps(self):
        with pytest.raises(InsufficientDataError):
            measured_ddoa_set({1: 0.0})

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            measured_ddoa_set({1: 0.0, 2: 0.0}, "nearest")


class TestDdoaSetInvariants:
    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            DdoaSet(pairs=((1, 1, 0.0),))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            DdoaSet(pairs=((1, 2, 0.0), (2, 1, 0.5)))


def ddoas_from_truth(p, anchors, policy="reference_anchor"):
    timestamps = {
        a.id: euclidean_distance(p, a.position) / SPEED_OF_LIGHT for a in anchors
    }
    return measured_ddoa_set(timestamps, policy)


class TestSolveTdoa:
    def test_symmetric_square(self):
        anchors = make_anchors([(5, 5, 1.5), (-5, 5, 1.5), (-5, -5, 1.5), (5, -5, 1.5)])
        truth = np.array([0.0, 0.0, 1.5])
        ddoas = ddoas_from_truth(truth, anchors)
        est = solve_tdoa(ddoas, anchors, fix_z=1.5)
        assert np.allclose(est.position, truth, atol=1e-8)
        assert est.residual_norm <= 1e-9

    @pytest.mark.parametrize("policy", ["all_pairs", "reference_anchor"])
    def test_noise_free_round_trip(self, policy):
        rng = np.random.default_rng(3)
        for _ in range(10):
            anchors = make_anchors(rng.uniform([0, 0, 0], [20, 20, 8], size=(8, 3)))
            truth = rng.uniform([2, 2, 1], [18, 18, 7])
            est = solve_tdoa(ddoas_from_truth(truth, anchors, policy), anchors)
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
        ddoas = DdoaSet(pairs=((1, 9, 0.0),))
        with pytest.raises(MissingAnchorError):
            residuals(np.zeros(3), ddoas, anchors)


def test_baseline_position_round_trip(clean_dataset, open_env):
    for sample in clean_dataset:
        est = baseline_position(
            sample, open_env.anchors, options=SolverOptions(fix_z=1.0)
        )
        assert np.linalg.norm(est.position - sample.true_position) < 1e-6


def assert_same_estimate(got, want):
    assert np.array_equal(got.position, want.position)
    assert (got.residual_norm, got.iterations, got.converged) == (
        want.residual_norm,
        want.iterations,
        want.converged,
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
    @pytest.mark.parametrize("margin", [-5.0, -6.0])
    def test_an_empty_or_inverted_box_is_rejected(self, margin):
        # 10 m deep: -5 m on each side leaves no y range, -6 m inverts it
        with pytest.raises(ConfigError, match="solver box must have lo < hi on x and y"):
            SolverOptions.for_environment(default_environment(), margin=margin)

    def test_a_flat_z_range_is_a_plane(self):
        box = ((0.0, 0.0, 1.0), (5.0, 5.0, 1.0))
        assert SolverOptions(bounds=box).bounds == box
        with pytest.raises(ConfigError, match="lo <= hi on z"):
            SolverOptions(bounds=((0.0, 0.0, 2.0), (5.0, 5.0, 1.0)))

    @pytest.mark.parametrize("fix_z", ["abc", True, float("nan")])
    def test_fix_z_must_be_a_number_or_none(self, fix_z):
        with pytest.raises(ConfigError, match=f"fix_z must be a finite number or null, got {fix_z!r}"):
            SolverOptions(fix_z=fix_z)
        assert SolverOptions(fix_z=None).fix_z is None


class TestSolveBaselines:
    @pytest.mark.parametrize("policy", ["all_pairs", "reference_anchor"])
    @pytest.mark.parametrize("fix_z", [1.0, None])
    def test_equals_baseline_position(self, hall, policy, fix_z):
        env, samples = hall
        options = SolverOptions.for_environment(env, pair_policy=policy, fix_z=fix_z)
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
        alone = [solve_tdoa(d, anchors, fix_z=0.0) for d in sets]
        assert alone[1].iterations == 100 and not alone[1].converged
        fallbacks = []
        solve_each = tdoa._solve_each
        monkeypatch.setattr(tdoa, "_solve_each", lambda *a: fallbacks.append(1) or solve_each(*a))
        together = tdoa._solve_group(sets, anchors, fix_z=0.0, bounds=None)
        assert fallbacks
        for got, want in zip(together, alone):
            assert_same_estimate(got, want)
        assert alone[0].converged and alone[2].converged
