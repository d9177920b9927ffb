import numpy as np
import pytest

from conftest import reference_dataset
from uwbcorr import (
    SPEED_OF_LIGHT,
    Anchor,
    Box,
    RawCir,
    SolverOptions,
    baseline_position,
    default_environment,
    euclidean_distance,
    generate_dataset,
    los_status,
    mae,
    random_trajectory,
    synth_cir,
)
from uwbcorr.cir import iq_to_amplitude
from uwbcorr.errors import OutOfBoundsError
from uwbcorr.simulate import NLOS_EXCESS_M, SAMPLE_PERIOD_S


def timestamp_bias(raw, tag, anchor):
    """Seconds by which a CIR sent at time 0 is timestamped after the true
    line-of-sight delay."""
    return raw.rx_time - euclidean_distance(tag, anchor.position) / SPEED_OF_LIGHT


class TestLosStatus:
    def test_no_obstacles(self):
        assert los_status([0, 0, 0], Anchor(1, [5, 5, 2]), [])

    def test_blocking_box(self):
        box = Box([4, -1, -1], [6, 1, 1])
        assert not los_status([0, 0, 0], Anchor(1, [10, 0, 0]), [box])

    def test_box_off_the_path(self):
        box = Box([4, 5, 0], [6, 7, 1])
        assert los_status([0, 0, 0], Anchor(1, [10, 0, 0]), [box])

    def test_vertical_clearance(self):
        box = Box([4, -1, 0], [6, 1, 2])
        assert los_status([0, 0, 3], Anchor(1, [10, 0, 3]), [box])


def brute_force_blocked(p0, p1, box, n=4001):
    ts = np.linspace(0, 1, n)[1:-1]
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    inside = np.all((pts >= box.lo - 1e-12) & (pts <= box.hi + 1e-12), axis=1)
    return bool(inside.any())


def test_los_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    agree = 0
    for _ in range(300):
        p0 = rng.uniform(0, 10, 3)
        p1 = rng.uniform(0, 10, 3)
        lo = rng.uniform(0, 8, 3)
        box = Box(lo, lo + rng.uniform(0.5, 3, 3))
        got = not los_status(p0, Anchor(1, p1), [box])
        want = brute_force_blocked(p0, p1, box)
        agree += got == want
    # dense sampling can miss razor-thin crossings; demand near-perfect agreement
    assert agree >= 298


class TestSynthCir:
    def test_los_peak_at_first_path(self, open_env):
        tag = np.array([3.0, 3.0, 1.0])
        raw = synth_cir(tag, open_env.anchors[0], open_env, np.random.default_rng(0), None)
        amp = iq_to_amplitude(raw)
        assert int(np.argmax(amp)) == raw.first_path_index
        assert timestamp_bias(raw, tag, open_env.anchors[0]) == pytest.approx(0.0, abs=1e-15)

    def test_nlos_bias_lies_in_the_excess_range(self, small_env):
        tag = np.array([3.0, 5.0, 1.0])  # obstacle sits between tag and anchor 3
        anchor = small_env.anchors[2]  # id 3
        assert not los_status(tag, anchor, small_env.obstacles)
        lo, hi = (m / SPEED_OF_LIGHT for m in NLOS_EXCESS_M)
        biases = []
        for seed in range(20):
            raw = synth_cir(tag, anchor, small_env, np.random.default_rng(seed), None)
            biases.append(timestamp_bias(raw, tag, anchor))
        assert all(lo * (1 - 1e-12) <= eps <= hi * (1 + 1e-12) for eps in biases)
        assert min(biases) > 0
        assert len(set(biases)) == len(biases)  # drawn per link, not fixed

    def test_deterministic_per_seed(self, small_env):
        tag = np.array([2.0, 2.0, 1.0])
        a = synth_cir(tag, small_env.anchors[0], small_env, np.random.default_rng(123), 20.0)
        b = synth_cir(tag, small_env.anchors[0], small_env, np.random.default_rng(123), 20.0)
        assert np.array_equal(a.iq, b.iq)
        assert a.rx_time == b.rx_time and a.first_path_index == b.first_path_index

    def test_out_of_bounds_tag(self, small_env):
        with pytest.raises(OutOfBoundsError):
            synth_cir([50.0, 2.0, 1.0], small_env.anchors[0], small_env, np.random.default_rng(0), 20.0)

    def test_nlos_bias_always_positive(self, small_env):
        rng = np.random.default_rng(10)
        count = 0
        for seed in range(40):
            tag = rng.uniform([1, 1, 0.5], [9, 9, 1.5])
            for anchor in small_env.anchors:
                if los_status(tag, anchor, small_env.obstacles):
                    continue
                raw = synth_cir(tag, anchor, small_env, np.random.default_rng(seed), 20.0)
                assert timestamp_bias(raw, tag, anchor) > 0
                count += 1
        assert count > 10  # the obstacle must actually block something

    def test_los_first_path_delay_within_half_sample(self, open_env):
        rng = np.random.default_rng(12)
        for _ in range(20):
            tag = rng.uniform([1, 1, 0.5], [9, 9, 1.5])
            for anchor in open_env.anchors:
                raw = synth_cir(tag, anchor, open_env, np.random.default_rng(3), None)
                measured = raw.rx_time * SPEED_OF_LIGHT
                true = np.linalg.norm(tag - anchor.position)
                assert abs(measured - true) <= 0.5 * SAMPLE_PERIOD_S * SPEED_OF_LIGHT


class TestGenerateDataset:
    def test_no_drops_keeps_every_anchor(self, small_env):
        points = [np.array([2.0, 2.0, 1.0])] * 3
        ds = generate_dataset(small_env, points, 0.0, 1)
        assert all(len(s.raw_cirs) == small_env.n_anchors for s in ds)

    def test_drop_probability_one_rejected(self, small_env):
        with pytest.raises(ValueError):
            generate_dataset(small_env, [np.zeros(3)], 1.0, 1)

    def test_empty_trajectory_rejected(self, small_env):
        with pytest.raises(ValueError):
            generate_dataset(small_env, [], 0.0, 1)

    def test_deterministic(self, small_env):
        points = [np.array([2.0, 2.0, 1.0]), np.array([7.0, 8.0, 1.0])]
        a = generate_dataset(small_env, points, 0.4, 9)
        b = generate_dataset(small_env, points, 0.4, 9)
        for sa, sb in zip(a, b):
            assert [c.anchor_id for c in sa.raw_cirs] == [c.anchor_id for c in sb.raw_cirs]
            for ca, cb in zip(sa.raw_cirs, sb.raw_cirs):
                assert np.array_equal(ca.iq, cb.iq) and ca.rx_time == cb.rx_time

    def test_at_least_one_anchor_kept(self, small_env):
        ds = generate_dataset(small_env, [np.array([5.0, 2.0, 1.0])] * 50, 0.85, 3)
        assert all(len(s.raw_cirs) >= 1 for s in ds)

    def test_point_outside_the_extent_is_named(self, small_env):
        points = [np.array([2.0, 2.0, 1.0]), np.array([2.0, 12.0, 1.0])]
        with pytest.raises(OutOfBoundsError, match=r"\[2\.0, 12\.0, 1\.0\] outside"):
            generate_dataset(small_env, points, 0.5, 1)

    @pytest.mark.parametrize("snr_db", [20.0, None], ids=["default", "noise_free"])
    def test_matches_the_per_tap_reference_bit_for_bit(self, snr_db):
        """Same draws, same pulse sums in tap order, same signed zeros."""
        env = default_environment()
        points = random_trajectory(env, n_points=60, seed=4, step=2.0)
        got = generate_dataset(env, points, 0.3, 17, snr_db)
        want = reference_dataset(env, points, 0.3, 17, snr_db)
        assert len(got) == len(want)
        for sample, cirs in zip(got, want):
            assert [(c.anchor_id, c.rx_time) for c in sample.raw_cirs] == [c[:2] for c in cirs]
            assert [c.iq.tobytes() for c in sample.raw_cirs] == [c[2].tobytes() for c in cirs]


def test_raw_cir_takes_numpy_integers():
    raw = RawCir(iq=np.zeros(160), first_path_index=np.int64(64), rx_time=0.0, anchor_id=np.int32(3))
    assert raw.first_path_index == 64 and raw.anchor_id == 3


def test_end_to_end_error_ordering(open_env, small_env, clean_dataset):
    opts = SolverOptions(fix_z=1.0)
    clean_est = [
        baseline_position(s, open_env.anchors, options=opts).position
        for s in clean_dataset
    ]
    clean_truth = [s.true_position for s in clean_dataset]
    clean_mae = mae(np.array(clean_est), np.array(clean_truth))
    assert clean_mae < 1e-6

    rng = np.random.default_rng(14)
    points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1, 9, size=(30, 2))]
    nlos_ds = generate_dataset(small_env, points, 0.0, 15)
    est = [baseline_position(s, small_env.anchors, options=opts).position for s in nlos_ds]
    truth = [s.true_position for s in nlos_ds]
    assert mae(np.array(est), np.array(truth)) > clean_mae
