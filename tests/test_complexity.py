import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbcorr import SweepResult, cnn_baseline_ops, make_model_config, op_count, pareto_front
from uwbcorr.errors import ConfigError


def cfg_for(patching, ordering, l_patch, d_model, n_total=15):
    encoding = "learned" if patching == "multi_cir" else "spatial"
    return make_model_config(patching, ordering, encoding, l_patch, d_model, n_total=n_total)


class TestOpCount:
    def test_total_identity(self):
        cfg = cfg_for("per_cir", "fixed", 75, 32)
        ops = op_count(cfg, 6)
        assert ops.total_ops == (
            ops.embedding_ops + cfg.n_layers * (ops.attention_ops + ops.feedforward_ops) + ops.head_ops
        )

    def test_time_ordering_cheaper_than_fixed(self):
        fixed = op_count(cfg_for("per_cir", "fixed", 75, 32), 6)
        timed = op_count(cfg_for("per_cir", "time_based", 75, 32), 6)
        assert timed.total_ops < fixed.total_ops

    def test_multi_cir_attention_shrinks_with_l_patch(self):
        wide = op_count(cfg_for("multi_cir", "fixed", 75, 32), 6)
        narrow = op_count(cfg_for("multi_cir", "fixed", 15, 32), 6)
        assert wide.attention_ops < narrow.attention_ops
        # L=75 gives 2 patches + CLS
        assert wide.attention_ops == 3 * 3 * 32

    def test_attention_linear_in_d_model(self):
        a = op_count(cfg_for("multi_cir", "fixed", 15, 32), 6)
        b = op_count(cfg_for("multi_cir", "fixed", 15, 64), 6)
        assert b.attention_ops == 2 * a.attention_ops

    def test_embedding_formula(self):
        ops = op_count(cfg_for("multi_cir", "fixed", 15, 32), 6)
        assert ops.embedding_ops == 15 * 150 * 32
        timed = op_count(cfg_for("per_cir", "time_based", 15, 32), 6)
        assert timed.embedding_ops == 6 * 150 * 32

    def test_head_ops_exact(self):
        ops = op_count(cfg_for("per_cir", "fixed", 150, 64), 6)
        assert ops.head_ops == 67 * 256 + 256 * 128 + 128 * 64 + 64 * 3

    def test_n_av_cannot_exceed_total(self):
        with pytest.raises(ConfigError):
            op_count(cfg_for("per_cir", "time_based", 75, 32), 20)

    def test_environment_scaling_leaves_time_based_constant(self):
        small = op_count(cfg_for("per_cir", "time_based", 75, 32, n_total=15), 6)
        large = op_count(cfg_for("per_cir", "time_based", 75, 32, n_total=50), 6)
        assert small.attention_ops == large.attention_ops
        assert small.feedforward_ops == large.feedforward_ops
        assert small.total_ops == large.total_ops
        # while fixed-order architectures grow
        f_small = op_count(cfg_for("per_cir", "fixed", 75, 32, n_total=15), 6)
        f_large = op_count(cfg_for("per_cir", "fixed", 75, 32, n_total=50), 6)
        assert f_large.total_ops > f_small.total_ops


class TestCnnBaseline:
    def test_fifteen_pairs(self):
        assert cnn_baseline_ops(15) == 2_605_560

    def test_zero_pairs(self):
        assert cnn_baseline_ops(0) == 0

    def test_single_pair(self):
        assert cnn_baseline_ops(1) == 173_704

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cnn_baseline_ops(-1)


def result(ops, mae_value):
    return SweepResult(config={}, total_ops=ops, mae=mae_value)


def oracle_front(results):
    """O(n^2) pairwise domination."""
    front = []
    for r in results:
        dominated = any(
            (s.total_ops <= r.total_ops and s.mae < r.mae)
            or (s.total_ops < r.total_ops and s.mae <= r.mae)
            for s in results
        )
        if not dominated:
            front.append(r)
    return sorted(front, key=lambda r: (r.total_ops, r.mae))


class TestParetoFront:
    def test_single_result(self):
        r = result(10, 1.0)
        assert pareto_front([r]) == [r]

    def test_three_point_example(self):
        rs = [result(10, 1.0), result(20, 0.5), result(30, 0.7)]
        assert pareto_front(rs) == rs[:2]

    def test_front_is_mutually_non_dominating(self):
        rng = np.random.default_rng(3)
        rs = [result(float(o), float(m)) for o, m in rng.uniform(0, 100, size=(60, 2))]
        front = pareto_front(rs)
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (
                    (b.total_ops <= a.total_ops and b.mae < a.mae)
                    or (b.total_ops < a.total_ops and b.mae <= a.mae)
                )

    def test_matches_oracle_on_random_records(self):
        rng = np.random.default_rng(4)
        rs = [
            result(float(o), float(m))
            for o, m in zip(
                rng.integers(1, 40, size=252).astype(float),  # force ties
                np.round(rng.uniform(0.1, 2.0, size=252), 2),
            )
        ]
        assert pareto_front(rs) == oracle_front(rs)

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=60
        )
    )
    def test_matches_oracle_property(self, points):
        rs = [result(float(o), float(m)) for o, m in points]
        assert pareto_front(rs) == oracle_front(rs)

    def test_cannot_be_enlarged(self):
        rng = np.random.default_rng(5)
        rs = [result(float(o), float(m)) for o, m in rng.uniform(0, 50, size=(40, 2))]
        front = pareto_front(rs)
        outside = [r for r in rs if r not in front]
        for r in outside:
            dominated = any(
                (s.total_ops <= r.total_ops and s.mae < r.mae)
                or (s.total_ops < r.total_ops and s.mae <= r.mae)
                for s in front
            )
            assert dominated
