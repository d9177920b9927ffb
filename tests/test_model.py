import json
import re

import numpy as np
import pytest

from uwbcorr import (
    CorrectionModel,
    SolverOptions,
    baseline_position,
    build_input_tensor,
    generate_dataset,
    load_checkpoint,
    make_model_config,
    patch_multi_cir,
    patch_per_cir,
    save_checkpoint,
)
from uwbcorr import autodiff as ad
from uwbcorr import model as model_module
from uwbcorr.errors import ConfigError, IncompatibleEncodingError
from uwbcorr.model import (
    ModelConfig,
    _encoder_stack,
    _multi_head_attention,
    prepare_example,
    prepare_from_tensor,
)

from conftest import permute_rows, reference_spatial_pe, reference_time_pe


def naive_attention(q, k, v):
    n, h = q.shape
    m = k.shape[0]
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        scores = np.array([sum(q[i, d] * k[j, d] for d in range(h)) for j in range(m)])
        scores = scores / np.sqrt(h)
        w = np.exp(scores - scores.max())
        w = w / w.sum()
        for j in range(m):
            out[i] += w[j] * v[j]
    return out


def attend(queries, x):
    """``_multi_head_attention`` with one head and identity projections:
    softmax(queries x^T / sqrt(d)) x."""
    d = x.shape[-1]
    prm = {f"attn.w{n}": ad.Tensor(np.eye(d)) for n in "qkvo"}
    prm.update({f"attn.b{n}": ad.Tensor(np.zeros(d)) for n in "qkvo"})
    cfg = ModelConfig(d_model=d, n_heads=1)
    return _multi_head_attention(ad.Tensor(queries[None]), ad.Tensor(x[None]), prm, "", cfg).data[0]


class TestAttention:
    def test_single_query_returns_value(self):
        x = np.array([[0.3, 0.4, 5.0]])
        assert np.allclose(attend(np.array([[1.0, -2.0, 0.5]]), x), x)

    def test_zero_queries_average_values(self):
        x = np.random.default_rng(0).normal(size=(6, 4))
        out = attend(np.zeros((2, 4)), x)
        assert np.allclose(out, np.tile(x.mean(axis=0), (2, 1)))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        queries, x = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        assert np.allclose(attend(queries, x), naive_attention(queries, x, x), atol=1e-10)

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(2)
        queries, x = rng.normal(size=(2, 4)), rng.normal(size=(5, 4))
        out = attend(queries, x)
        assert np.all(out.min(axis=0) >= x.min(axis=0) - 1e-12)
        assert np.all(out.max(axis=0) <= x.max(axis=0) + 1e-12)


def layer_norm(v, gain, bias):
    mu = v.mean(axis=-1, keepdims=True)
    var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
    return (v - mu) / np.sqrt(var + 1e-5) * gain + bias


def reference_block(x, prm, pre, n_heads):
    """One post-norm encoder block over every row of x (n, d), attention
    head by head through the double loop."""
    q, k, v = (x @ prm[pre + f"attn.w{n}"] + prm[pre + f"attn.b{n}"] for n in "qkv")
    hw = x.shape[1] // n_heads
    ctx = np.hstack([
        naive_attention(q[:, h : h + hw], k[:, h : h + hw], v[:, h : h + hw])
        for h in range(0, x.shape[1], hw)
    ])
    att = ctx @ prm[pre + "attn.wo"] + prm[pre + "attn.bo"]
    x = layer_norm(x + att, prm[pre + "ln1.g"], prm[pre + "ln1.b"])
    ff = np.maximum(x @ prm[pre + "ff.w1"] + prm[pre + "ff.b1"], 0)
    ff = ff @ prm[pre + "ff.w2"] + prm[pre + "ff.b2"]
    return layer_norm(x + ff, prm[pre + "ln2.g"], prm[pre + "ln2.b"])


def staged_reference(model, sample, env, p_tdoa):
    """Full-sequence numpy forward, one stage at a time: embedding and CLS,
    positional rows, every row of every encoder block, then the head.
    Token t >= 1 of a per-CIR model comes from tensor row (t - 1) // K and
    is block (t - 1) % K of it."""
    cfg, prm = model.config, model.parameter_arrays()
    multi = cfg.patching == "multi_cir"
    tensor = build_input_tensor(sample, env, cfg.ordering, pad_missing=multi)
    ps = (patch_multi_cir if multi else patch_per_cir)(tensor, cfg.l_patch)
    x = np.vstack([prm["cls"], ps.values @ prm["embed.w"] + prm["embed.b"]])
    if cfg.encoding == "learned":
        x += prm["pe.seq"][: len(x)]
    else:
        x[0] += prm["pe.cls"]
        k = cfg.k_per_cir
        t0 = np.nanmin(tensor.rx_times)
        for t in range(1, len(x)):
            row = (t - 1) // k
            x[t] += reference_spatial_pe(tensor.anchor_positions[row], env.extent, cfg.d_model)
            if cfg.encoding == "spatial_time":
                delay = np.nan_to_num(tensor.rx_times[row] - t0, nan=np.inf)  # absent: clamp
                x[t] += reference_time_pe(delay, cfg.d_model)
            if "pe.within" in prm:
                x[t] += prm["pe.within"][(t - 1) % k]
    for i in range(cfg.n_layers):
        x = reference_block(x, prm, f"enc{i}.", cfg.n_heads)
    h = np.concatenate([x[0], p_tdoa / np.asarray(cfg.extent)])
    for j in range(len(cfg.head_widths)):
        h = h @ prm[f"head{j}.w"] + prm[f"head{j}.b"]
        h = np.maximum(h, 0) if j < len(cfg.head_widths) - 1 else h
    return p_tdoa + h


def predict(model, sample, env, p_tdoa):
    """One sample's prediction through ``prepare_example`` and the graph."""
    return model.predict_prepared([prepare_example(sample, env, model.config, p_tdoa)])[0]


def tiny_model(env, l_patch=75, d_model=8, kind="spatial", **kw):
    cfg = make_model_config(
        "per_cir", "fixed", kind, l_patch, d_model, env=env,
        n_heads=kw.pop("n_heads", 2), n_layers=kw.pop("n_layers", 1), **kw,
    )
    return CorrectionModel.initialize(cfg, seed=kw.get("seed", 3), zero_final_layer=False)


def train_forward(model, examples, seed):
    """A training forward's predictions, with the masks ``chunks`` draws
    from a Generator seeded ``seed``; the batch must be one chunk."""
    ((chunk, keeps),) = model.chunks(examples, True, np.random.default_rng(seed))
    return model.forward_prepared(chunk, True, keeps).data


def one_sample(env, seed=0, drop=0.0):
    rng = np.random.default_rng(seed)
    point = rng.uniform([1, 1, 1], [9, 9, 1])
    return generate_dataset(env, [point], drop, seed)[0]


class TestModelConfig:
    def test_head_must_end_in_three(self):
        with pytest.raises(ConfigError):
            make_model_config("per_cir", "fixed", "spatial", 150, 32, head_widths=(64, 2))

    def test_heads_divide_width(self):
        with pytest.raises(ConfigError):
            make_model_config("per_cir", "fixed", "spatial", 150, 30, n_heads=8)

    def test_multi_cir_spatial_rejected(self):
        with pytest.raises(IncompatibleEncodingError):
            make_model_config("multi_cir", "fixed", "spatial", 15, 32)

    def test_unknown_ordering_and_encoding_rejected(self):
        with pytest.raises(ConfigError, match="unknown ordering 'random'"):
            make_model_config("per_cir", "random", "spatial", 15, 32)
        with pytest.raises(ConfigError, match="unknown encoding kind 'rope'"):
            make_model_config("per_cir", "fixed", "rope", 15, 32)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("l_patch", "75"),
            ("d_model", "abc"),
            ("d_model", 0),
            ("n_layers", 0),
            ("n_heads", 2.0),
            ("d_ff", True),
            ("n_heads", -8),
            ("n_total", 0),
            ("n_total", 15.0),
        ],
    )
    def test_sizes_must_be_positive_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer >= 1, got {value!r}$"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("dropout_p", "x", "dropout_p must be a number in [0, 1)"),
            ("dropout_p", True, "dropout_p must be a number in [0, 1)"),
            ("dropout_p", 1.0, "dropout_p must be a number in [0, 1)"),
            ("dropout_p", -0.1, "dropout_p must be a number in [0, 1)"),
            ("dropout_p", float("nan"), "dropout_p must be a number in [0, 1)"),
            ("extent", (30.0, 10.0), "extent must be 3 finite positive numbers"),
            ("extent", (30.0, 10.0, 0.0), "extent must be 3 finite positive numbers"),
            ("extent", (30.0, float("inf"), 3.0), "extent must be 3 finite positive numbers"),
            ("extent", "abc", "extent must be 3 finite positive numbers"),
            ("head_widths", ("a", 3), "head_widths must be a list of integers >= 1"),
            ("head_widths", (0, 3), "head_widths must be a list of integers >= 1"),
            ("head_widths", "abc", "head_widths must be a list of integers >= 1"),
            ("head_widths", (), "regression head must end in 3 outputs"),
        ],
    )
    def test_dropout_extent_and_head_widths_are_checked(self, field, value, rule):
        with pytest.raises(ConfigError) as info:
            ModelConfig(**{field: value})
        assert str(info.value) == f"{rule}, got {value!r}"

    def test_max_seq_len_counts_the_full_sequence(self):
        multi = make_model_config("multi_cir", "fixed", "learned", 15, 32, n_total=15)
        assert multi.max_seq_len == 10 + 1
        per = make_model_config("per_cir", "fixed", "learned", 75, 32, n_total=6)
        assert per.max_seq_len == 6 * 2 + 1


class TestEncoderForward:
    def test_eval_mode_is_deterministic(self, small_env):
        model = tiny_model(small_env)
        assert model.config.dropout_p > 0
        p_tdoa = np.array([5.0, 5.0, 1.0])
        example = prepare_example(one_sample(small_env), small_env, model.config, p_tdoa)
        a = model.predict_prepared([example])
        b = model.predict_prepared([example])
        assert np.array_equal(a, b)

    def test_training_without_an_rng_is_refused(self, small_env):
        """Dropout draws from the caller's rng only, so a seeded run repeats:
        ``chunks`` refuses a training batch without an rng, and a training
        forward refuses to run without the masks ``chunks`` draws."""
        model = tiny_model(small_env)
        example = prepare_example(one_sample(small_env), small_env, model.config, np.array([5.0, 5.0, 1.0]))
        with pytest.raises(ValueError, match="needs an rng"):
            model.chunks([example], train=True)
        with pytest.raises(ValueError, match="needs dropout masks"):
            model.forward_prepared([example], train=True)
        a = train_forward(model, [example], 1)
        b = train_forward(model, [example], 1)
        assert np.array_equal(a, b) and not np.array_equal(a, model.predict_prepared([example]))

    def test_predict_builds_no_tape_and_matches_the_taped_forward(self, small_env, monkeypatch):
        model = tiny_model(small_env)
        p_tdoa = np.array([5.0, 5.0, 1.0])
        examples = [
            prepare_example(one_sample(small_env, seed=s), small_env, model.config, p_tdoa)
            for s in range(3)
        ]
        taped = model.forward_prepared(examples)
        assert taped._backward is not None
        outputs = []
        forward = CorrectionModel.forward_prepared

        def recording(self, *args, **kwargs):
            outputs.append(forward(self, *args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(CorrectionModel, "forward_prepared", recording)
        assert np.array_equal(model.predict_prepared(examples), taped.data)
        assert outputs[0]._backward is None and not outputs[0].requires_grad

    def test_hand_computed_two_token_layer(self, small_env):
        """Two blocks over two tokens: both rows of block 0 feed the keys and
        values of block 1, whose CLS row is all the stack returns."""
        d = 4
        model = tiny_model(small_env, d_model=d, n_heads=1, n_layers=2)
        rng = np.random.default_rng(7)
        arrays = {k: t.data for k, t in model.params.items()}
        for pre in ("enc0.", "enc1."):
            for name in ("wq", "wk", "wv", "wo"):
                arrays[f"{pre}attn.{name}"][:] = rng.normal(0, 0.5, size=(d, d))
                arrays[f"{pre}attn.b{name[1]}"][:] = rng.normal(0, 0.1, size=d)
            arrays[pre + "ff.w1"][:] = rng.normal(0, 0.5, size=arrays[pre + "ff.w1"].shape)
            arrays[pre + "ff.w2"][:] = rng.normal(0, 0.5, size=arrays[pre + "ff.w2"].shape)
            arrays[pre + "ln1.g"][:] = rng.uniform(0.5, 1.5, size=d)
            arrays[pre + "ln2.b"][:] = rng.normal(0, 0.1, size=d)

        x = rng.normal(size=(2, d))
        got = _encoder_stack(ad.Tensor(x[None]), model.params, model.config, None).data
        assert got.shape == (1, 1, d)

        h = reference_block(reference_block(x, arrays, "enc0.", 1), arrays, "enc1.", 1)
        assert np.allclose(got[0, 0], h[0], atol=1e-9)
        assert not np.allclose(h[0], h[1], atol=1e-3)  # the rows are not interchangeable


def test_encoder_shape_for_every_sweep_config():
    """Shape preservation and a full forward for all 252 grid configs."""
    from uwbcorr.config import SweepSpec, enumerate_sweep
    from uwbcorr.model import prepare_from_tensor
    from test_patching import dummy_tensor

    for combo in enumerate_sweep(SweepSpec()):
        cfg = make_model_config(n_total=15, n_layers=1, **combo)
        model = CorrectionModel.initialize(cfg, seed=0)
        if combo["patching"] == "multi_cir" or combo["ordering"] == "fixed":
            tensor = dummy_tensor(15, padded=True)
        else:
            tensor = dummy_tensor(6, padded=False)
        ex = prepare_from_tensor(tensor, cfg, np.array([5.0, 5.0, 1.0]))
        out = model.forward_prepared([ex])
        assert out.data.shape == (1, 3)


def test_non_finite_activations_raise(small_env):
    """Non-finite activations reach the training loss, which refuses them."""
    from uwbcorr.training import compute_gradients

    model = tiny_model(small_env)
    sample = one_sample(small_env)
    p_tdoa = np.array([5.0, 5.0, 1.0])
    example = prepare_example(sample, small_env, model.config, p_tdoa, sample.true_position)
    model.params["cls"].data[:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        compute_gradients(model, [example])


def unfused_encoder_stack(x, prm, cfg, keeps):
    """``_encoder_stack`` with each block tail as separate nodes: dropout as a
    ``mul`` by the float64 mask ``keep / (1 - p)``, an ``add`` and a plain
    ``layer_norm``, and a ``relu`` node after the first feed-forward product.
    It reads the same boolean masks ``keeps``, two per block in order."""
    b, _, d = x.data.shape
    p = cfg.dropout_p

    def dropout(t, j):
        if keeps is None:
            return t
        mask = keeps[j] / (1.0 - p)
        return ad.mul(t, ad.Tensor(mask[:, : t.data.shape[1]]))

    for i in range(cfg.n_layers):
        pre = f"enc{i}."
        rows = x
        if i == cfg.n_layers - 1:
            rows = ad.reshape(ad.select(x, 1, 0), (b, 1, d))
        att = dropout(_multi_head_attention(rows, x, prm, pre, cfg), 2 * i)
        x = ad.layer_norm(ad.add(rows, att), prm[pre + "ln1.g"], prm[pre + "ln1.b"])
        h = ad.relu(ad.matmul(x, prm[pre + "ff.w1"], prm[pre + "ff.b1"]))
        h = dropout(ad.matmul(h, prm[pre + "ff.w2"], prm[pre + "ff.b2"]), 2 * i + 1)
        x = ad.layer_norm(ad.add(x, h), prm[pre + "ln2.g"], prm[pre + "ln2.b"])
    return x


def graph_nodes(root):
    """Every tensor the tape under ``root`` reaches, ``root`` included."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


class TestFusedBlockTail:
    """Each block's dropout, residual add and layer norm run as one
    ``layer_norm`` node, and the feed-forward relu inside its ``matmul``;
    ``unfused_encoder_stack`` is the chain of nodes they replace."""

    @staticmethod
    def setup(env):
        model = tiny_model(env, n_layers=2)  # a full-row block and a CLS-only one
        assert model.config.dropout_p > 0
        p_tdoa = np.array([5.0, 5.0, 1.0])
        samples = [one_sample(env, seed=s) for s in range(3)]
        examples = [prepare_example(s, env, model.config, p_tdoa, s.true_position) for s in samples]
        return model, examples

    def test_training_forward_and_step_match_the_unfused_graph(self, small_env, monkeypatch):
        from uwbcorr.training import compute_gradients

        model, examples = self.setup(small_env)
        runs = []
        for stack in (model_module._encoder_stack, unfused_encoder_stack):
            monkeypatch.setattr(model_module, "_encoder_stack", stack)
            out = train_forward(model, examples, 4)
            _, grads = compute_gradients(model, examples, train=True, rng=np.random.default_rng(5))
            runs.append((out, grads))
        (out, grads), (want_out, want_grads) = runs
        assert np.array_equal(out, want_out)
        assert not np.array_equal(out, model.predict_prepared(examples))  # dropout was on
        # as in the golden test: a gradient that is zero in exact arithmetic
        # (the key biases) stays below 1e-12 of the largest entry of any array
        floor = 1e-12 * max(np.abs(g).max() for g in want_grads.values())
        for name, want in want_grads.items():
            scale = np.abs(want).max()
            if scale < floor:
                assert np.abs(grads[name]).max() < floor, name
            else:
                assert np.abs(grads[name] - want).max() <= 1e-12 * scale, name

    def test_each_block_takes_five_fewer_nodes(self, small_env, monkeypatch):
        """Per block: two dropout muls, two residual adds and the relu."""
        from uwbcorr.training import batch_loss

        model, examples = self.setup(small_env)
        ((chunk, keeps),) = model.chunks(examples, True, np.random.default_rng(4))
        fused = len(graph_nodes(batch_loss(model, chunk, True, keeps)))
        monkeypatch.setattr(model_module, "_encoder_stack", unfused_encoder_stack)
        unfused = len(graph_nodes(batch_loss(model, chunk, True, keeps)))
        assert unfused - fused == 5 * model.config.n_layers


def test_no_backward_closure_of_a_training_loss_holds_a_tensor(small_env):
    """A node's closure captures slots, shapes and the arrays its backward
    reads, never an operand Tensor, whose data would then stay on the tape."""
    from uwbcorr.training import batch_loss

    model, examples = TestFusedBlockTail.setup(small_env)
    ((chunk, keeps),) = model.chunks(examples, True, np.random.default_rng(4))
    nodes = graph_nodes(batch_loss(model, chunk, True, keeps))
    closures = [node._backward for node in nodes if node._backward]
    assert len(closures) == len(nodes) - len(model.params)  # every node but the leaves
    for bw in closures:
        for cell in bw.__closure__:
            value = cell.cell_contents
            items = value if isinstance(value, (tuple, list)) else (value,)
            assert not any(isinstance(v, ad.Tensor) for v in items), bw.__qualname__


def test_a_single_sample_forward_has_no_relu_node(small_env):
    """The head's hidden layers take their relu inside ``matmul``, as the
    feed-forward does, so no graph holds a separate ``relu`` node."""
    model = tiny_model(small_env, n_layers=2)
    example = prepare_example(one_sample(small_env), small_env, model.config, np.array([5.0, 5.0, 1.0]))
    nodes = graph_nodes(model.forward_prepared([example]))
    names = {node._backward.__qualname__.split(".")[0] for node in nodes if node._backward}
    assert "matmul" in names and "relu" not in names


def test_multi_cir_time_ordering_pads_missing_anchors(small_env):
    cfg = make_model_config("multi_cir", "time_based", "learned", 15, 16, env=small_env)
    sample = one_sample(small_env, seed=3, drop=0.5)
    assert len(sample.raw_cirs) < small_env.n_anchors
    example = prepare_example(sample, small_env, cfg, np.array([5.0, 5.0, 1.0]))
    # zero padding keeps the patch height at n_total even with missing anchors
    assert example.n_tokens == 11 and example.patch_values.shape[1] == small_env.n_anchors * 15
    model = CorrectionModel.initialize(cfg, seed=0)
    assert model.predict_prepared([example]).shape == (1, 3)


def head_only_prediction(small_env, edit):
    """predict_prepared of a trained-looking model after edit(params)."""
    cfg = make_model_config("per_cir", "fixed", "spatial", 150, 32, env=small_env)
    model = CorrectionModel.initialize(cfg, seed=0, zero_final_layer=False)
    for name, tensor in model.params.items():
        edit(name, tensor.data)
    p_tdoa = np.array([3.0, 4.0, 1.0])
    example = prepare_example(one_sample(small_env, seed=1), small_env, cfg, p_tdoa)
    return model.predict_prepared([example])[0], p_tdoa


class TestRegressionHead:
    def test_zero_weights_residual_identity(self, small_env):
        def zero_head(name, data):
            if name.startswith("head"):
                data[:] = 0.0

        out, p_tdoa = head_only_prediction(small_env, zero_head)
        assert np.array_equal(out, p_tdoa)

    def test_zero_weights_add_the_bias_to_the_baseline(self, small_env):
        """With zero weights the head's output is its last bias, added to the baseline."""

        def bias_only(name, data):
            if name.startswith("head") and name.endswith(".w"):
                data[:] = 0.0
            if name == "head3.b":
                data[:] = [1.0, 2.0, 3.0]

        out, p_tdoa = head_only_prediction(small_env, bias_only)
        assert np.allclose(out, p_tdoa + [1.0, 2.0, 3.0])

    def test_layer_widths(self, small_env):
        cfg = make_model_config("per_cir", "fixed", "spatial", 150, 64, env=small_env)
        model = CorrectionModel.initialize(cfg, seed=0)
        assert model.params["head0.w"].shape == (67, 256)
        assert model.params["head1.w"].shape == (256, 128)
        assert model.params["head2.w"].shape == (128, 64)
        assert model.params["head3.w"].shape == (64, 3)


class TestForward:
    def test_safe_start_equals_baseline(self, small_env, small_dataset):
        cfg = make_model_config("per_cir", "fixed", "spatial", 150, 32, env=small_env)
        model = CorrectionModel.initialize(cfg, seed=1)  # final layer zero by default
        opts = SolverOptions(fix_z=1.0)
        for sample in small_dataset[:4]:
            p_tdoa = baseline_position(sample, small_env.anchors, options=opts).position
            out = predict(model, sample, small_env, p_tdoa)
            assert np.array_equal(out, p_tdoa)

    @pytest.mark.parametrize(
        "patching, ordering, kind, l_patch",
        [
            ("per_cir", "fixed", "spatial", 75),
            ("per_cir", "fixed", "spatial", 150),
            ("per_cir", "time_based", "spatial_time", 30),
            ("per_cir", "time_based", "learned", 75),
            ("multi_cir", "fixed", "learned", 15),
            ("multi_cir", "time_based", "learned", 30),
        ],
    )
    def test_graph_matches_staged_pipeline(self, small_env, patching, ordering, kind, l_patch):
        """The batched graph, whose last block computes only the CLS row,
        agrees with the full-sequence numpy reference, which computes every
        row of every block."""
        cfg = make_model_config(patching, ordering, kind, l_patch, 32, env=small_env)
        model = CorrectionModel.initialize(cfg, seed=5, zero_final_layer=False)
        sample = one_sample(small_env, seed=2, drop=0.3)
        p_tdoa = np.array([4.0, 5.0, 1.0])

        got = predict(model, sample, small_env, p_tdoa)
        want = staged_reference(model, sample, small_env, p_tdoa)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.abs(got - p_tdoa).max() > 1e-3  # the encoder output reaches the result


class TestPermutationBehaviour:
    def _predictions_under_permutations(self, small_env, kind, n_perm=20, l_patch=75):
        cfg = make_model_config("per_cir", "fixed", kind, l_patch, 32, env=small_env)
        model = CorrectionModel.initialize(cfg, seed=4, zero_final_layer=False)
        sample = one_sample(small_env, seed=6)
        tensor = build_input_tensor(sample, small_env, "fixed")
        p_tdoa = np.array([5.0, 5.0, 1.0])
        base = model.predict_prepared([prepare_from_tensor(tensor, cfg, p_tdoa)])[0]
        rng = np.random.default_rng(7)
        deltas = []
        for _ in range(n_perm):
            perm = rng.permutation(tensor.n_rows)
            ex = prepare_from_tensor(permute_rows(tensor, perm), cfg, p_tdoa)
            deltas.append(np.abs(model.predict_prepared([ex])[0] - base).max())
        return deltas

    def test_spatial_is_permutation_invariant(self, small_env):
        deltas = self._predictions_under_permutations(small_env, "spatial")
        assert max(deltas) < 1e-9

    def test_learned_is_order_sensitive(self, small_env):
        deltas = self._predictions_under_permutations(small_env, "learned")
        assert max(deltas) > 1e-6


class TestCheckpoint:
    def test_round_trip(self, small_env, tmp_path):
        cfg = make_model_config("per_cir", "time_based", "spatial_time", 75, 32, env=small_env)
        model = CorrectionModel.initialize(cfg, seed=9, zero_final_layer=False)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name, tensor in model.params.items():
            assert np.array_equal(loaded.params[name].data, tensor.data)
        sample = one_sample(small_env, seed=8)
        p = np.array([2.0, 7.0, 1.0])
        assert np.array_equal(
            predict(model, sample, small_env, p), predict(loaded, sample, small_env, p)
        )

    def _broken_checkpoint(self, small_env, tmp_path, edit):
        cfg = make_model_config("per_cir", "fixed", "spatial", 75, 32, env=small_env)
        path = tmp_path / "model.npz"
        save_checkpoint(CorrectionModel.initialize(cfg, seed=9), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        edit(arrays)
        broken = tmp_path / "broken.npz"
        np.savez(broken, **arrays)
        return broken

    def test_missing_parameter_names_file_and_key(self, small_env, tmp_path):
        path = self._broken_checkpoint(small_env, tmp_path, lambda a: a.pop("enc2.ff.w1"))
        with pytest.raises(ConfigError, match=r"broken\.npz.*'enc2\.ff\.w1'"):
            load_checkpoint(path)

    def test_wrong_shape_names_file_and_key(self, small_env, tmp_path):
        def wrong_shape(arrays):
            arrays["enc0.attn.wq"] = np.zeros((32, 16))

        path = self._broken_checkpoint(small_env, tmp_path, wrong_shape)
        with pytest.raises(ConfigError, match=r"broken\.npz.*'enc0\.attn\.wq'.*\(32, 16\)"):
            load_checkpoint(path)

    def test_missing_metadata_names_file(self, small_env, tmp_path):
        path = self._broken_checkpoint(small_env, tmp_path, lambda a: a.pop("__meta__"))
        with pytest.raises(ConfigError, match=r"broken\.npz.*'__meta__'"):
            load_checkpoint(path)

    def _rewritten_meta(self, small_env, tmp_path, rewrite):
        """A checkpoint whose ``__meta__`` text is rewrite(the stored dict)."""

        def edit(arrays):
            arrays["__meta__"] = np.array(rewrite(json.loads(str(arrays["__meta__"]))))

        return self._broken_checkpoint(small_env, tmp_path, edit)

    def test_schema_1_is_refused(self, small_env, tmp_path):
        """Neither the nested schema-1 config nor the schema-2 config, which
        still held ``residual_output``, has a loader any more."""
        for version in (1, 2):
            path = self._rewritten_meta(
                small_env, tmp_path, lambda m, v=version: json.dumps({**m, "schema_version": v})
            )
            with pytest.raises(
                ConfigError, match=rf"broken\.npz: checkpoint schema {version} not supported"
            ):
                load_checkpoint(path)

    def test_missing_config_key_is_named(self, small_env, tmp_path):
        def drop_n_total(meta):
            del meta["config"]["n_total"]
            return json.dumps(meta)

        path = self._rewritten_meta(small_env, tmp_path, drop_n_total)
        with pytest.raises(ConfigError, match=r"broken\.npz: missing config key 'n_total'"):
            load_checkpoint(path)

    def test_unknown_config_key_is_named(self, small_env, tmp_path):
        def add_clamp(meta):
            meta["config"]["clamp_to_extent"] = True
            return json.dumps(meta)

        path = self._rewritten_meta(small_env, tmp_path, add_clamp)
        with pytest.raises(ConfigError, match=r"broken\.npz: unknown config key 'clamp_to_extent'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("l_patch", 7, "l_patch must divide 150, got 7"),
            ("n_heads", 0, "n_heads must be an integer >= 1, got 0"),
            ("patching", "multi_cir", "spatial encodings need per-CIR patches"),
            ("extent", [30.0, 10.0], r"extent must be 3 finite positive numbers, got \[30\.0, 10\.0\]$"),
            ("head_widths", ["a", 3], r"head_widths must be a list of .* got \['a', 3\]$"),
            ("head_widths", [0, 3], r"head_widths must be a list of .* got \[0, 3\]$"),
            ("head_widths", [], r"regression head must end in 3 outputs, got \[\]$"),
        ],
    )
    def test_rejected_config_value_names_the_file(self, small_env, tmp_path, field, value, message):
        def set_value(meta):
            meta["config"][field] = value
            return json.dumps(meta)

        path = self._rewritten_meta(small_env, tmp_path, set_value)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    def test_unknown_parameter_is_rejected(self, small_env, tmp_path):
        path = self._broken_checkpoint(
            small_env, tmp_path, lambda a: a.__setitem__("enc9.ln1.g", np.ones(32))
        )
        with pytest.raises(ConfigError, match=r"broken\.npz.*'enc9\.ln1\.g'"):
            load_checkpoint(path)


CHECKPOINT_CONFIGS = {
    "default": (
        ("per_cir", "fixed", "spatial", 150, 64),
        {},
        {
            "patching": "per_cir",
            "ordering": "fixed",
            "encoding": "spatial",
            "l_patch": 150,
            "d_model": 64,
            "n_layers": 4,
            "n_heads": 8,
            "d_ff": 256,
            "dropout_p": 0.15,
            "head_widths": [256, 128, 64, 3],
            "n_total": 15,
            "extent": [30.0, 10.0, 3.0],
        },
    ),
    "multi_cir_learned": (
        ("multi_cir", "time_based", "learned", 15, 32),
        {"n_heads": 4, "head_widths": (32, 3), "dropout_p": 0.0},
        {
            "patching": "multi_cir",
            "ordering": "time_based",
            "encoding": "learned",
            "l_patch": 15,
            "d_model": 32,
            "n_layers": 4,
            "n_heads": 4,
            "d_ff": 256,
            "dropout_p": 0.0,
            "head_widths": [32, 3],
            "n_total": 15,
            "extent": [30.0, 10.0, 3.0],
        },
    ),
}


@pytest.mark.parametrize("name", list(CHECKPOINT_CONFIGS))
def test_checkpoint_config_json_is_pinned_and_round_trips(name, tmp_path):
    from uwbcorr.simulate import default_environment

    args, overrides, expected = CHECKPOINT_CONFIGS[name]
    cfg = make_model_config(*args, env=default_environment(), **overrides)
    path = tmp_path / "model.npz"
    save_checkpoint(CorrectionModel.initialize(cfg, seed=3), path)
    with np.load(path) as data:
        meta = str(data["__meta__"])
    # the exact JSON text, key order included, of a schema-3 checkpoint
    assert meta == json.dumps({"schema_version": 3, "config": expected})
    assert load_checkpoint(path).config == cfg
