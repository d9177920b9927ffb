import numpy as np
import pytest

from uwbcorr import (
    SPEED_OF_LIGHT,
    Anchor,
    Box,
    ChannelConfig,
    SolverOptions,
    baseline_position,
    generate_dataset,
    los_status,
    mae,
    synth_cir,
    timestamp_error,
)
from uwbcorr.cir import iq_to_amplitude
from uwbcorr.errors import OutOfBoundsError


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
    def test_los_single_tap_peak_at_first_path(self, open_env):
        cfg = ChannelConfig(snr_db=None, multipath=False)
        tag = np.array([3.0, 3.0, 1.0])
        raw = synth_cir(tag, open_env.anchors[0], open_env, 0, cfg)
        amp = iq_to_amplitude(raw)
        assert int(np.argmax(amp)) == raw.first_path_index
        assert timestamp_error(raw, tag, open_env.anchors[0]) == pytest.approx(0.0, abs=1e-15)

    def test_nlos_three_meter_excess(self, small_env):
        cfg = ChannelConfig(snr_db=None, multipath=False, nlos_excess_m=(3.0, 3.0))
        tag = np.array([3.0, 5.0, 1.0])  # obstacle sits between tag and anchor 3
        anchor = small_env.anchor_by_id(3)
        assert not los_status(tag, anchor, small_env.obstacles)
        raw = synth_cir(tag, anchor, small_env, 4, cfg)
        eps = timestamp_error(raw, tag, anchor)
        assert eps == pytest.approx(3.0 / SPEED_OF_LIGHT, rel=1e-12)
        assert eps > 0

    def test_deterministic_per_seed(self, small_env):
        tag = np.array([2.0, 2.0, 1.0])
        a = synth_cir(tag, small_env.anchors[0], small_env, 123)
        b = synth_cir(tag, small_env.anchors[0], small_env, 123)
        assert np.array_equal(a.iq, b.iq)
        assert a.rx_time == b.rx_time and a.first_path_index == b.first_path_index

    def test_out_of_bounds_tag(self, small_env):
        with pytest.raises(OutOfBoundsError):
            synth_cir([50.0, 2.0, 1.0], small_env.anchors[0], small_env, 0)

    def test_nlos_bias_always_positive(self, small_env):
        rng = np.random.default_rng(10)
        count = 0
        for seed in range(40):
            tag = rng.uniform([1, 1, 0.5], [9, 9, 1.5])
            for anchor in small_env.anchors:
                if los_status(tag, anchor, small_env.obstacles):
                    continue
                raw = synth_cir(tag, anchor, small_env, seed)
                assert timestamp_error(raw, tag, anchor) > 0
                count += 1
        assert count > 10  # the obstacle must actually block something

    def test_los_first_path_delay_within_half_sample(self, open_env):
        cfg = ChannelConfig(snr_db=None)
        rng = np.random.default_rng(12)
        for _ in range(20):
            tag = rng.uniform([1, 1, 0.5], [9, 9, 1.5])
            for anchor in open_env.anchors:
                raw = synth_cir(tag, anchor, open_env, 3, cfg)
                measured = raw.rx_time * SPEED_OF_LIGHT
                true = np.linalg.norm(tag - anchor.position)
                assert abs(measured - true) <= 0.5 * cfg.sample_period_s * SPEED_OF_LIGHT


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
