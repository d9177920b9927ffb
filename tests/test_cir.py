import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uwbcorr import RawCir, Sample, build_input_tensor, iq_to_amplitude, normalize_minmax, trim_window
from uwbcorr.cir import WINDOW_BEFORE, WINDOW_LENGTH
from uwbcorr.errors import InsufficientDataError, MissingAnchorError


class TestIqToAmplitude:
    def test_345(self):
        assert iq_to_amplitude(np.array([3 + 4j]))[0] == pytest.approx(5.0)

    def test_all_zero(self):
        assert np.array_equal(iq_to_amplitude(np.zeros(8, dtype=complex)), np.zeros(8))

    def test_unit_diagonal(self):
        assert iq_to_amplitude(np.array([1 - 1j]))[0] == pytest.approx(np.sqrt(2))

    def test_accepts_raw_cir(self):
        raw = RawCir(iq=np.full(160, 2j), first_path_index=60, rx_time=0.0, anchor_id=1)
        assert np.allclose(iq_to_amplitude(raw), 2.0)


def reference_trim(amplitude, first_path_index):
    # independent index-by-index reimplementation
    out = []
    for k in range(WINDOW_LENGTH):
        src = first_path_index - WINDOW_BEFORE + k
        out.append(amplitude[src] if 0 <= src < len(amplitude) else 0.0)
    return np.array(out)


class TestTrimWindow:
    def test_exact_slice(self):
        amp = np.arange(300.0)
        assert np.array_equal(trim_window(amp, 50), amp[:150])

    def test_early_first_path_zero_fills_front(self):
        amp = np.arange(300.0) + 1
        out = trim_window(amp, 10)
        assert np.array_equal(out[:40], np.zeros(40))
        assert np.array_equal(out[40:], amp[: 150 - 40])

    def test_late_first_path_zero_fills_back(self):
        amp = np.arange(200.0) + 1
        out = trim_window(amp, len(amp) - 10)
        assert np.array_equal(out, reference_trim(amp, len(amp) - 10))
        assert np.array_equal(out[60:], np.zeros(90))

    @given(
        n=st.integers(150, 400),
        fpi=st.integers(0, 399),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference(self, n, fpi, seed):
        fpi = min(fpi, n - 1)
        amp = np.random.default_rng(seed).uniform(size=n)
        assert np.array_equal(trim_window(amp, fpi), reference_trim(amp, fpi))
        assert len(trim_window(amp, fpi)) == WINDOW_LENGTH


class TestNormalizeMinmax:
    def test_simple(self):
        assert np.allclose(normalize_minmax(np.array([0.0, 5.0, 10.0])), [0, 0.5, 1])

    def test_constant_window_maps_to_zeros(self):
        assert np.array_equal(normalize_minmax(np.full(150, 3.7)), np.zeros(150))

    @given(hnp.arrays(np.float64, 150, elements=st.floats(0, 1e6, allow_nan=False)))
    def test_range_and_idempotence(self, window):
        out = normalize_minmax(window)
        if np.ptp(window) == 0:
            assert np.array_equal(out, np.zeros(150))
        else:
            assert out.min() == 0.0 and out.max() == pytest.approx(1.0)
            assert np.allclose(normalize_minmax(out), out)


def make_sample(entries, n=160):
    """entries: list of (anchor_id, rx_time); CIR contents arbitrary nonzero."""
    cirs = []
    for aid, rx in entries:
        rng = np.random.default_rng(aid)
        iq = rng.normal(size=n) + 1j * rng.normal(size=n)
        cirs.append(RawCir(iq=iq, first_path_index=64, rx_time=rx, anchor_id=aid))
    return Sample(true_position=np.array([2.0, 2.0, 1.0]), raw_cirs=tuple(cirs))


def row_ids(tensor, env):
    """The id of each row's anchor, found by its position."""
    ids = {tuple(a.position): a.id for a in env.anchors}
    return [ids[tuple(p)] for p in tensor.anchor_positions]


class TestBuildInputTensor:
    def test_fixed_with_single_detection(self, small_env):
        sample = make_sample([(3, 1e-8)])
        m = build_input_tensor(sample, small_env, "fixed")
        assert m.n_rows == small_env.n_anchors == 4
        assert np.isnan(m.rx_times).tolist() == [True, True, False, True]
        assert np.any(m.values[2] != 0)
        assert np.array_equal(m.values[[0, 1, 3]], np.zeros((3, 150)))
        # absent rows still carry the anchor position
        assert np.allclose(m.anchor_positions[0], small_env.anchors[0].position)  # id 1
        assert np.isnan(m.rx_times[0])

    def test_time_based_sorts_by_rx(self, small_env):
        sample = make_sample([(3, 2e-9), (1, 1e-9)])
        m = build_input_tensor(sample, small_env, "time_based")
        assert row_ids(m, small_env) == [1, 3]
        assert m.n_rows == 2 and not m.padded

    def test_time_tie_broken_by_id(self, small_env):
        sample = make_sample([(4, 5e-9), (2, 5e-9)])
        m = build_input_tensor(sample, small_env, "time_based")
        assert row_ids(m, small_env) == [2, 4]

    def test_time_based_padded(self, small_env):
        sample = make_sample([(3, 2e-9), (1, 1e-9)])
        m = build_input_tensor(sample, small_env, "time_based", pad_missing=True)
        assert m.n_rows == 4 and m.padded
        assert row_ids(m, small_env) == [1, 3, 2, 4]
        assert np.isnan(m.rx_times).tolist() == [False, False, True, True]

    @pytest.mark.parametrize(
        "ordering, pad_missing, ids",
        [
            ("fixed", False, [1, 2, 3, 4]),
            ("time_based", False, [3, 1]),
            ("time_based", True, [3, 1, 2, 4]),
        ],
    )
    def test_rows_are_processed_cirs_or_absent(self, small_env, ordering, pad_missing, ids):
        sample = make_sample([(1, 4e-9), (3, 2e-9)])
        raw = {c.anchor_id: c for c in sample.raw_cirs}
        m = build_input_tensor(sample, small_env, ordering, pad_missing=pad_missing)
        assert row_ids(m, small_env) == ids
        by_id = {a.id: a for a in small_env.anchors}
        for row, anchor_id in enumerate(ids):
            assert np.array_equal(m.anchor_positions[row], by_id[anchor_id].position)
            if anchor_id in raw:
                c = raw[anchor_id]
                want = normalize_minmax(trim_window(iq_to_amplitude(c), c.first_path_index))
                assert np.array_equal(m.values[row], want)
                assert m.rx_times[row] == c.rx_time
            else:
                assert not m.values[row].any()
                assert np.isnan(m.rx_times[row])

    def test_empty_sample_rejected(self, small_env):
        sample = make_sample([(1, 0.0)])
        object.__setattr__(sample, "raw_cirs", ())
        with pytest.raises(InsufficientDataError):
            build_input_tensor(sample, small_env, "fixed")

    def test_an_anchor_the_environment_lacks(self, small_env):
        sample = make_sample([(1, 0.0), (9, 1e-9)])
        with pytest.raises(MissingAnchorError, match="^no position known for anchor id 9$"):
            build_input_tensor(sample, small_env, "fixed")

    def test_row_values_are_processed_cirs(self, small_env):
        sample = make_sample([(2, 3e-9)])
        m = build_input_tensor(sample, small_env, "fixed")
        row = m.values[1]
        assert len(row) == WINDOW_LENGTH
        assert row.min() == 0.0 and row.max() == pytest.approx(1.0)
