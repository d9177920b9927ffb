import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataclasses import replace

from uwbcorr import (
    CorrectionModel,
    PatchSet,
    frequency_bands,
    make_model_config,
    patch_multi_cir,
    patch_per_cir,
    spatial_pe,
    time_diff_pe,
)
from uwbcorr.encodings import DELTA_T_MAX_S, constant_encoding_rows, max_bands, token_time_deltas
from uwbcorr.errors import ConfigError, IncompatibleEncodingError, OutOfBoundsError
from uwbcorr.model import prepare_from_tensor
from uwbcorr.simulate import default_environment

from test_patching import dummy_tensor


class TestFrequencyBands:
    def test_two_bands_are_endpoints(self):
        assert np.allclose(frequency_bands(2, 1, 100), [1, 100])

    def test_geometric_midpoint(self):
        assert np.allclose(frequency_bands(3, 1, 100), [1, 10, 100])

    def test_single_band(self):
        assert np.allclose(frequency_bands(1, 2.5, 100), [2.5])

    @given(f=st.integers(2, 40), lo=st.floats(0.01, 10), ratio=st.floats(1.5, 1e4))
    def test_constant_ratio(self, f, lo, ratio):
        bands = frequency_bands(f, lo, lo * ratio)
        ratios = bands[1:] / bands[:-1]
        assert np.allclose(ratios, ratios[0])
        assert bands[0] == pytest.approx(lo) and bands[-1] == pytest.approx(lo * ratio)

    def test_invalid_range(self):
        with pytest.raises(ConfigError):
            frequency_bands(3, 0.0, 10)
        with pytest.raises(ConfigError):
            frequency_bands(3, 5.0, 5.0)


class TestSpatialPe:
    def test_origin(self):
        pe = spatial_pe((0, 0, 0), (30, 10, 3), 64)
        f = max_bands(64)
        assert np.array_equal(pe[: 6 * f : 2], np.zeros(3 * f))  # sin entries
        assert np.array_equal(pe[1 : 6 * f : 2], np.ones(3 * f))  # cos entries
        assert np.array_equal(pe[6 * f :], np.zeros(64 - 6 * f))

    def test_d64_band_count_and_padding(self):
        assert max_bands(64) == 10
        pe = spatial_pe((12, 3, 2), (30, 10, 3), 64)
        assert len(pe) == 64
        assert np.array_equal(pe[60:], np.zeros(4))

    def test_distinct_anchors_distinct_encodings(self):
        env = default_environment()
        codes = [spatial_pe(a.position, env.extent, 64) for a in env.anchors]
        for i in range(len(codes)):
            for j in range(i + 1, len(codes)):
                assert np.linalg.norm(codes[i] - codes[j]) > 1e-6

    def test_out_of_extent(self):
        with pytest.raises(OutOfBoundsError):
            spatial_pe((31, 5, 1), (30, 10, 3), 32)

    @given(
        x=st.floats(0, 30),
        y=st.floats(0, 10),
        z=st.floats(0, 3),
        d=st.sampled_from([32, 64, 128, 256]),
    )
    def test_bounds(self, x, y, z, d):
        pe = spatial_pe((x, y, z), (30, 10, 3), d)
        assert np.all(np.abs(pe) <= 1.0)
        assert np.linalg.norm(pe) <= np.sqrt(6 * max_bands(d)) + 1e-12


class TestTimeDiffPe:
    def test_zero_delta(self):
        pe = time_diff_pe(0.0, 32)
        f = max_bands(32)
        assert np.array_equal(pe[: 2 * f : 2], np.zeros(f))
        assert np.array_equal(pe[1 : 2 * f : 2], np.ones(f))

    def test_max_delta(self):
        bands = frequency_bands(max_bands(32), 1.0, 1000.0)
        pe = time_diff_pe(DELTA_T_MAX_S, 32)
        assert DELTA_T_MAX_S == 200e-9
        assert np.allclose(pe[: 2 * len(bands) : 2], np.sin(bands))
        assert np.allclose(pe[1 : 2 * len(bands) : 2], np.cos(bands))

    def test_clamps_above_max(self):
        assert np.allclose(time_diff_pe(1.0, 32), time_diff_pe(DELTA_T_MAX_S, 32))


P_TDOA = np.array([5.0, 5.0, 1.0])


def learned_model(n_total=2):
    """Per-CIR learned model whose table has 2 * n_total + 1 rows."""
    cfg = make_model_config("per_cir", "time_based", "learned", 75, 16, n_total=n_total, n_heads=2)
    return CorrectionModel.initialize(cfg, seed=1, zero_final_layer=False)


class TestLearnedPe:
    """The graph adds row s of the trainable ``pe.seq`` table to token s."""

    def test_lookup_stable(self):
        model = learned_model()
        ex = prepare_from_tensor(dummy_tensor(1, padded=False), model.config, P_TDOA)
        assert ex.n_tokens == 3 and model.params["pe.seq"].shape[0] == 5
        before = model.predict_prepared([ex])
        assert np.array_equal(model.predict_prepared([ex]), before)
        model.params["pe.seq"].data[3:] += 1.0  # rows past the sequence are never read
        assert np.array_equal(model.predict_prepared([ex]), before)

    def test_mutating_the_row_changes_the_lookup(self):
        model = learned_model()
        ex = prepare_from_tensor(dummy_tensor(1, padded=False), model.config, P_TDOA)
        before = model.predict_prepared([ex])
        model.params["pe.seq"].data[2] += 0.1  # what a gradient step does
        assert not np.array_equal(before, model.predict_prepared([ex]))

    def test_overflow(self):
        cfg = learned_model().config
        assert cfg.max_seq_len == 5
        fits = prepare_from_tensor(dummy_tensor(2, padded=False), cfg, P_TDOA)
        assert fits.n_tokens == 5
        with pytest.raises(ConfigError, match="7 tokens exceed max_seq_len=5"):
            prepare_from_tensor(dummy_tensor(3, padded=False), cfg, P_TDOA)


class TestApplyEncodings:
    """The sin/cos addends on real PatchSets, and the trainable rows the
    graph adds by sequence position or within-CIR patch index."""

    def test_whole_cir_spatial_offsets_only_by_anchor(self):
        m = dummy_tensor(3)
        rows = constant_encoding_rows(patch_per_cir(m, 150), "spatial", 32, (10, 10, 3))
        assert rows.shape == (3, 32)
        for t in range(3):
            assert np.array_equal(rows[t], spatial_pe(m.anchor_positions[t], (10, 10, 3), 32))

    def test_split_cir_adds_within_rows(self):
        m = dummy_tensor(2)
        cfg = make_model_config("per_cir", "fixed", "spatial", 75, 32, n_total=2, extent=(10, 10, 3))
        ex = prepare_from_tensor(m, cfg, P_TDOA)
        # both patches of one CIR share the constant row; only pe.within tells them apart
        assert np.array_equal(ex.pe_const[0], ex.pe_const[1])
        assert np.array_equal(patch_per_cir(m, 75).patch_j, [0, 1, 0, 1])
        model = CorrectionModel.initialize(cfg, seed=2, zero_final_layer=False)
        before = model.predict_prepared([ex])
        halves_swapped = replace(m, values=np.hstack([m.values[:, 75:], m.values[:, :75]]))
        swapped_ex = prepare_from_tensor(halves_swapped, cfg, P_TDOA)
        assert not np.allclose(model.predict_prepared([swapped_ex]), before, atol=1e-6)
        # swapping the within rows too gives every token its old input back
        model.params["pe.within"].data[:] = model.params["pe.within"].data[::-1].copy()
        assert np.allclose(model.predict_prepared([swapped_ex]), before, rtol=0, atol=1e-12)

    def test_multi_cir_spatial_rejected(self):
        ps = patch_multi_cir(dummy_tensor(4), 75)
        with pytest.raises(IncompatibleEncodingError):
            constant_encoding_rows(ps, "spatial", 16, (10, 10, 3))

    def test_learned_adds_sequence_rows(self):
        m = dummy_tensor(3)
        cfg = make_model_config("per_cir", "fixed", "learned", 150, 16, n_total=3, n_heads=2)
        model = CorrectionModel.initialize(cfg, seed=4, zero_final_layer=False)
        before = model.predict_prepared([prepare_from_tensor(m, cfg, P_TDOA)])
        perm = np.array([2, 0, 1])
        permuted_ex = prepare_from_tensor(m.permuted(perm), cfg, P_TDOA)
        assert not np.allclose(model.predict_prepared([permuted_ex]), before, atol=1e-6)
        # moving each body row of the table with its token gives every token its old input back
        seq = model.params["pe.seq"].data
        seq[1:] = seq[1:][perm].copy()
        assert np.allclose(model.predict_prepared([permuted_ex]), before, rtol=0, atol=1e-12)

    def test_spatial_time_adds_both(self):
        m = dummy_tensor(3, seed=5)
        ps = patch_per_cir(m, 150)
        spatial = constant_encoding_rows(ps, "spatial", 32, (10, 10, 3))
        combined = constant_encoding_rows(ps, "spatial_time", 32, (10, 10, 3))
        for t in range(3):
            expected = spatial[t] + time_diff_pe(m.rx_times[t] - m.rx_times.min(), 32)
            assert np.allclose(combined[t], expected)


def test_spatial_rows_agree_across_orderings(small_env, small_dataset):
    """The spatial addend follows the anchor, not the row position."""
    from uwbcorr.cir import build_input_tensor

    sample = small_dataset[0]
    by_anchor = {}
    for ordering in ("fixed", "time_based"):
        tensor = build_input_tensor(sample, small_env, ordering)
        ps = patch_per_cir(tensor, 150)
        rows = constant_encoding_rows(ps, "spatial", 32, small_env.extent)
        for anchor_id, row in zip(tensor.anchor_ids, rows):
            by_anchor.setdefault(int(anchor_id), []).append(row)
    for anchor_id, rows in by_anchor.items():
        assert len(rows) == 2
        assert np.array_equal(rows[0], rows[1])


def test_max_bands_values():
    assert [max_bands(d) for d in (8, 16, 32, 64, 128, 256)] == [1, 2, 5, 10, 21, 42]


def _per_value_row(values, d_model):
    """Loop reference: interleaved sin/cos of each value, one value at a time,
    over max_bands(d_model) bands from 1 to 1000 rad."""
    bands = frequency_bands(max_bands(d_model), 1.0, 1000.0)
    out = np.zeros(d_model)
    for i, v in enumerate(values):
        out[2 * i * len(bands) : 2 * (i + 1) * len(bands) : 2] = np.sin(v * bands)
        out[2 * i * len(bands) + 1 : 2 * (i + 1) * len(bands) : 2] = np.cos(v * bands)
    return out


def _random_patches(rng, extent, n_anchors, k_per_cir):
    anchors = rng.uniform(0.0, 1.0, size=(n_anchors, 3)) * np.asarray(extent)
    times = rng.uniform(0.0, 150e-9, size=n_anchors)
    times[rng.random(n_anchors) < 0.3] = np.nan  # absent, zero-padded rows
    rows = np.repeat(np.arange(n_anchors), k_per_cir)
    return PatchSet(
        values=np.zeros((len(rows), 150 // k_per_cir)),
        patch_j=np.tile(np.arange(k_per_cir), n_anchors),
        anchor_positions=anchors[rows],
        rx_times=times[rows],
    )


@pytest.mark.parametrize("kind", ["spatial", "spatial_time"])
@pytest.mark.parametrize("d_model", [8, 64, 128])
def test_constant_rows_equal_the_per_token_encodings(kind, d_model):
    extent = (30.0, 10.0, 3.0)
    rng = np.random.default_rng(d_model)
    for _ in range(10):
        patches = _random_patches(rng, extent, int(rng.integers(1, 16)), int(rng.integers(1, 4)))
        rows = constant_encoding_rows(patches, kind, d_model, extent)
        deltas = token_time_deltas(patches)
        positions = patches.anchor_positions
        per_row = np.stack([spatial_pe(p, extent, d_model) for p in positions])
        loop = np.stack([_per_value_row(p / np.asarray(extent), d_model) for p in positions])
        if kind == "spatial_time":
            per_row = per_row + np.stack([time_diff_pe(dt, d_model) for dt in deltas])
            clamped = np.minimum(deltas, 200e-9) / 200e-9
            loop = loop + np.stack([_per_value_row([v], d_model) for v in clamped])
        assert np.array_equal(rows, per_row)
        assert np.array_equal(rows, loop)


def test_constant_rows_keep_bounds_checks():
    extent = (30.0, 10.0, 3.0)
    patches = _random_patches(np.random.default_rng(3), extent, 4, 1)
    patches.anchor_positions[1] = (31.0, 5.0, 1.0)
    with pytest.raises(OutOfBoundsError, match=r"\[31\.0, 5\.0, 1\.0\]"):
        constant_encoding_rows(patches, "spatial", 32, extent)
    patches.anchor_positions[2] = np.nan
    with pytest.raises(IncompatibleEncodingError):
        constant_encoding_rows(patches, "spatial", 32, extent)


def test_fixed_ordering_examples_share_one_read_only_spatial_addend(small_env, small_dataset):
    from uwbcorr.model import make_model_config, prepare_example

    cfg = make_model_config("per_cir", "fixed", "spatial", 150, 16, env=small_env, n_heads=2)
    a, b = (prepare_example(s, small_env, cfg, s.true_position) for s in small_dataset[:2])
    assert a.pe_const is b.pe_const
    with pytest.raises(ValueError):
        a.pe_const[0, 0] = 1.0

    timed = make_model_config("per_cir", "fixed", "spatial_time", 150, 16, env=small_env, n_heads=2)
    c = prepare_example(small_dataset[0], small_env, timed, small_dataset[0].true_position)
    c.pe_const[0, 0] += 1.0  # spatial_time rows are the example's own
