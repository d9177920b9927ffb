import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbcorr import (
    generate_dataset,
    make_model_config,
    patch_multi_cir,
    patch_per_cir,
)
from uwbcorr.cir import InputTensor, build_input_tensor
from uwbcorr.errors import ConfigError, IncompatibleOrderingError
from uwbcorr.model import CorrectionModel, prepare_example, prepare_from_tensor

from conftest import reference_spatial_pe

DIVISORS = sorted({1, 3, 5, 6, 10, 15, 30, 50, 75, 150})


def dummy_tensor(n_rows, padded=True, seed=0):
    rng = np.random.default_rng(seed)
    return InputTensor(
        values=rng.uniform(size=(n_rows, 150)),
        anchor_positions=rng.uniform([0, 0, 0], [10, 10, 3], size=(n_rows, 3)),
        rx_times=rng.uniform(0, 1e-7, size=n_rows),
        padded=padded,
    )


class TestPatchingConfig:
    """The patching fields of the model config."""

    def test_non_divisor_rejected(self):
        with pytest.raises(ConfigError, match="l_patch must divide 150, got 7"):
            make_model_config("per_cir", "fixed", "spatial", 7, 32)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="unknown patching strategy 'striped'"):
            make_model_config("striped", "fixed", "learned", 15, 32)

    def test_k(self):
        assert make_model_config("multi_cir", "fixed", "learned", 15, 32).k_per_cir == 10


class TestPatchMultiCir:
    def test_15_anchors_l15(self):
        ps = patch_multi_cir(dummy_tensor(15), 15)
        assert ps.values.shape == (10, 225)

    def test_l75_two_patches(self):
        assert patch_multi_cir(dummy_tensor(15), 75).values.shape == (2, 15 * 75)

    def test_non_divisor(self):
        with pytest.raises(ConfigError):
            patch_multi_cir(dummy_tensor(15), 7)

    def test_unpadded_time_tensor_rejected(self):
        m = dummy_tensor(6, padded=False)
        with pytest.raises(IncompatibleOrderingError):
            patch_multi_cir(m, 15)

    def test_patch_content_is_column_block(self):
        m = dummy_tensor(4)
        ps = patch_multi_cir(m, 30)
        k = 2
        block = ps.values[k].reshape(4, 30)
        assert np.array_equal(block, m.values[:, 60:90])

    @pytest.mark.parametrize("l_patch", [l for l in DIVISORS if l <= 75])
    def test_lossless_partition(self, l_patch):
        m = dummy_tensor(15)
        ps = patch_multi_cir(m, l_patch)
        k = 150 // l_patch
        rebuilt = np.concatenate(
            [ps.values[i].reshape(15, l_patch) for i in range(k)], axis=1
        )
        assert np.array_equal(rebuilt, m.values)


class TestPatchPerCir:
    def test_whole_cir_tokens(self):
        ps = patch_per_cir(dummy_tensor(6, padded=False), 150)
        assert ps.values.shape == (6, 150)

    def test_fixed_15_l75(self):
        assert patch_per_cir(dummy_tensor(15), 75).values.shape == (30, 75)

    def test_index_arithmetic(self):
        m = dummy_tensor(5)
        ps = patch_per_cir(m, 75)  # K = 2: patch 7 is row 7 // 2 = 3, block 7 % 2 = 1
        assert np.array_equal(ps.values[7], m.values[3, 75:])
        cfg = make_model_config("per_cir", "fixed", "spatial", 75, 16, n_total=5, extent=(10, 10, 3))
        ex = prepare_from_tensor(m, cfg, np.array([5.0, 5.0, 1.0]))
        assert np.array_equal(ex.pe_const[7], reference_spatial_pe(m.anchor_positions[3], (10, 10, 3), 16))

    def test_non_divisor(self):
        with pytest.raises(ConfigError):
            patch_per_cir(dummy_tensor(5), 8)

    def test_each_patch_from_one_row(self):
        m = dummy_tensor(4)
        ps = patch_per_cir(m, 50)
        for k in range(ps.n_patches):
            i, j = k // 3, k % 3  # row-major: K = 150 / 50 = 3
            assert np.array_equal(ps.values[k], m.values[i, j * 50 : (j + 1) * 50])

    @pytest.mark.parametrize("l_patch", DIVISORS)
    def test_lossless_partition(self, l_patch):
        m = dummy_tensor(7, seed=3)
        ps = patch_per_cir(m, l_patch)
        assert np.array_equal(ps.values.reshape(7, 150), m.values)

    @given(n=st.integers(1, 20), l=st.sampled_from(DIVISORS))
    def test_counts(self, n, l):
        assert patch_per_cir(dummy_tensor(n), l).n_patches == n * (150 // l)


def dense_patches(ex):
    """The (n_patches, patch_size) matrix ``forward_prepared`` rebuilds from
    an example's kept rows."""
    out = np.zeros((ex.n_tokens - 1, ex.patch_values.shape[1]))
    out[ex.patch_rows] = ex.patch_values
    return out


class TestEmbedPatches:
    """What reaches the model's patch embedding: the prepared example's
    patches, token count and per-token encoding rows."""

    def test_zero_patch_zero_bias(self, small_env):
        """An absent anchor's zero-padded row reaches the embedding as zero
        patches, so its tokens carry only the bias and the anchor's
        encodings, and it keeps its spatial row."""
        sample = generate_dataset(small_env, [np.array([5.0, 2.0, 1.0])], 0.5, 3)[0]
        present = {c.anchor_id for c in sample.raw_cirs}
        absent = [i for i, a in enumerate(small_env.anchors) if a.id not in present]
        assert absent
        cfg = make_model_config("per_cir", "fixed", "spatial", 75, 16, env=small_env)
        ex = prepare_example(sample, small_env, cfg, np.array([5.0, 5.0, 1.0]))
        patches = dense_patches(ex)
        for i in absent:
            assert not patches[2 * i : 2 * i + 2].any()
            assert not np.isin([2 * i, 2 * i + 1], ex.patch_rows).any()  # not stored
            want = reference_spatial_pe(small_env.anchors[i].position, small_env.extent, cfg.d_model)
            assert np.array_equal(ex.pe_const[2 * i], want)
        assert all(patches[2 * i].any() for i in range(small_env.n_anchors) if i not in absent)

    @pytest.mark.parametrize("l_patch", [150, 30])
    def test_an_example_keeps_only_its_non_zero_patches(self, small_env, l_patch):
        sample = generate_dataset(small_env, [np.array([5.0, 2.0, 1.0])], 0.5, 3)[0]
        cfg = make_model_config("per_cir", "fixed", "spatial", l_patch, 16, env=small_env)
        ex = prepare_example(sample, small_env, cfg, np.array([5.0, 5.0, 1.0]))
        tensor = build_input_tensor(sample, small_env, "fixed")
        full = patch_per_cir(tensor, l_patch).values
        assert np.array_equal(ex.patch_rows, np.flatnonzero(full.any(axis=1)))
        assert len(ex.patch_rows) < len(full) and ex.patch_values.any(axis=1).all()
        assert np.array_equal(dense_patches(ex), full)

    def test_shape_multi_cir(self):
        cfg = make_model_config("multi_cir", "fixed", "learned", 15, 16, n_total=15)
        ex = prepare_from_tensor(dummy_tensor(15), cfg, np.array([5.0, 5.0, 1.0]))
        assert dense_patches(ex).shape == (10, 225) and ex.n_tokens == 11
        assert ex.pe_const is None
        model = CorrectionModel.initialize(cfg)
        assert "pe.within" not in model.params
        assert model.params["embed.w"].shape == (225, 16)
        assert model.predict_prepared([ex]).shape == (1, 3)

    def test_meta_propagation(self):
        m = dummy_tensor(3)
        cfg = make_model_config("per_cir", "fixed", "spatial", 75, 16, n_total=3, extent=(10, 10, 3))
        ex = prepare_from_tensor(m, cfg, np.array([5.0, 5.0, 1.0]))
        assert ex.n_tokens == 7
        # token k is block k % 2 of row k // 2: the within index is k % 2
        assert np.array_equal(patch_per_cir(m, 75).values, m.values.reshape(6, 75))
        for k in range(6):
            want = reference_spatial_pe(m.anchor_positions[k // 2], (10, 10, 3), cfg.d_model)
            assert np.array_equal(ex.pe_const[k], want)
