import numpy as np
import pytest

from uwbcorr import (
    ChannelConfig,
    CorrectionModel,
    SolverOptions,
    compute_gradients,
    evaluate_model,
    generate_dataset,
    make_model_config,
    train,
)
from uwbcorr.errors import ConfigError
from uwbcorr.training import (
    TrainConfig,
    _token_batches,
    batch_loss,
    learning_rate,
    prepare_training_examples,
)

OPTS = SolverOptions(fix_z=1.0)


@pytest.fixture(scope="module")
def tiny_setup(small_env):
    rng = np.random.default_rng(20)
    points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1, 9, size=(8, 2))]
    dataset = generate_dataset(small_env, points, 0.0, 30, ChannelConfig())
    cfg = make_model_config(
        "per_cir", "fixed", "spatial", 75, 8, env=small_env, n_heads=2, n_layers=1
    )
    model = CorrectionModel.initialize(cfg, seed=2, zero_final_layer=False)
    examples, skipped = prepare_training_examples(dataset, small_env, cfg, OPTS)
    assert skipped == 0
    return model, examples


@pytest.mark.parametrize("name", ["batch_size", "max_epochs", "early_stop_patience"])
@pytest.mark.parametrize("value", [0, -3, "two", 2.0, True])
def test_step_counts_must_be_positive_integers(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer >= 1, got {value!r}"):
        TrainConfig(**{name: value})
    assert getattr(TrainConfig(**{name: 1}), name) == 1


@pytest.mark.parametrize(
    "name, value, rule",
    [
        ("lr_peak", -1.0, "a finite positive number"),
        ("lr_peak", 0, "a finite positive number"),
        ("lr_peak", "abc", "a finite positive number"),
        ("lr_peak", float("inf"), "a finite positive number"),
        ("adam_eps", True, "a finite positive number"),
        ("warmup_fraction", "x", "a number in (0, 1)"),
        ("warmup_fraction", 1.0, "a number in (0, 1)"),
        ("validation_fraction", "x", "a number in (0, 1)"),
        ("validation_fraction", float("nan"), "a number in (0, 1)"),
        ("beta1", 1.0, "a number in [0, 1)"),
        ("beta2", "0.999", "a number in [0, 1)"),
        ("seed", 1.5, "an integer >= 0"),
        ("seed", -1, "an integer >= 0"),
        ("seed", True, "an integer >= 0"),
    ],
)
def test_rates_fractions_and_seed_are_checked(name, value, rule):
    with pytest.raises(ConfigError) as info:
        TrainConfig(**{name: value})
    assert str(info.value) == f"{name} must be {rule}, got {value!r}"


class TestLearningRate:
    def test_schedule_endpoints(self):
        cfg = TrainConfig(lr_peak=1e-3, warmup_fraction=0.05)
        total = 1000
        assert learning_rate(0, total, cfg) == 0.0
        assert learning_rate(50, total, cfg) == pytest.approx(1e-3)
        assert learning_rate(total, total, cfg) == pytest.approx(0.0)
        assert learning_rate(total - 1, total, cfg) < 2e-5

    def test_piecewise_linear(self):
        cfg = TrainConfig(lr_peak=2e-3, warmup_fraction=0.1)
        total = 200
        warm = [learning_rate(s, total, cfg) for s in range(21)]
        assert np.allclose(np.diff(warm), warm[1] - warm[0])
        decay = [learning_rate(s, total, cfg) for s in range(20, 201)]
        assert np.allclose(np.diff(decay), decay[1] - decay[0])


class TestComputeGradients:
    def test_zero_loss_gives_zero_gradients(self, tiny_setup):
        model, examples = tiny_setup
        preds = model.predict_prepared(examples[:2])
        relabeled = []
        for e, p in zip(examples[:2], preds):
            relabeled.append(type(e)(**{**e.__dict__, "target": p}))
        loss, grads = compute_gradients(model, relabeled)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert all(np.allclose(g, 0.0, atol=1e-12) for g in grads.values())

    def test_duplicated_sample_same_gradient(self, tiny_setup):
        model, examples = tiny_setup
        one = examples[:1]
        loss1, grads1 = compute_gradients(model, one)
        loss2, grads2 = compute_gradients(model, one * 2)
        assert loss1 == pytest.approx(loss2)
        for name in grads1:
            assert np.allclose(grads1[name], grads2[name], atol=1e-12)

    def test_empty_batch_rejected(self, tiny_setup):
        model, _ = tiny_setup
        with pytest.raises(ValueError):
            compute_gradients(model, [])

    def test_covers_every_parameter(self, tiny_setup):
        model, examples = tiny_setup
        _, grads = compute_gradients(model, examples[:2])
        assert set(grads) == set(model.params)
        # encodings and CLS receive signal
        assert np.abs(grads["cls"]).max() > 0
        assert np.abs(grads["pe.cls"]).max() > 0
        assert np.abs(grads["pe.within"]).max() > 0

    def test_learned_table_gradcheck(self, small_env):
        cfg = make_model_config(
            "per_cir", "fixed", "learned", 75, 8, env=small_env, n_heads=2, n_layers=1
        )
        model = CorrectionModel.initialize(cfg, seed=3, zero_final_layer=False)
        rng = np.random.default_rng(31)
        points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1, 9, size=(2, 2))]
        ds = generate_dataset(small_env, points, 0.0, 32, ChannelConfig())
        examples, _ = prepare_training_examples(ds, small_env, cfg, OPTS)
        _, grads = compute_gradients(model, examples)
        table = model.params["pe.seq"]
        got = grads["pe.seq"]
        for idx in [(0, 0), (1, 3), (5, 7)]:
            old = table.data[idx]
            table.data[idx] = old + 1e-5
            up = float(batch_loss(model, examples).data)
            table.data[idx] = old - 1e-5
            down = float(batch_loss(model, examples).data)
            table.data[idx] = old
            fd = (up - down) / 2e-5
            assert got[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestTokenBatches:
    @pytest.fixture(scope="class")
    def mixed(self, small_env):
        """Time-ordered examples with 3 or 4 available anchors, so the
        token counts differ from sample to sample."""
        rng = np.random.default_rng(44)
        points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1, 9, size=(30, 2))]
        dataset = generate_dataset(small_env, points, 0.25, 45, ChannelConfig())
        cfg = make_model_config(
            "per_cir", "time_based", "spatial", 75, 8, env=small_env, n_heads=2, n_layers=1
        )
        examples, _ = prepare_training_examples(dataset, small_env, cfg, OPTS)
        counts = [e.n_tokens for e in examples]
        assert len(set(counts)) >= 2 and counts != sorted(counts)
        return examples

    @pytest.mark.parametrize("seed", [None, 3])
    def test_each_index_once_in_batches_of_one_token_count(self, mixed, seed):
        rng = None if seed is None else np.random.default_rng(seed)
        batches = _token_batches(mixed, 4, rng)
        assert sorted(i for b in batches for i in b) == list(range(len(mixed)))
        for batch in batches:
            assert 1 <= len(batch) <= 4
            assert len({mixed[i].n_tokens for i in batch}) == 1

    def test_without_rng_the_input_order_is_kept(self, mixed):
        batches = _token_batches(mixed, 4)
        first_seen = list(dict.fromkeys(e.n_tokens for e in mixed))
        by_group = sorted(range(len(mixed)), key=lambda i: first_seen.index(mixed[i].n_tokens))
        assert [i for b in batches for i in b] == by_group
        for n in first_seen:  # each group is cut in order into full batches and a rest
            sizes = [len(b) for b in batches if mixed[b[0]].n_tokens == n]
            assert all(size == 4 for size in sizes[:-1])

    def test_with_rng_one_permutation_per_group_in_order(self, mixed):
        batches = _token_batches(mixed, 4, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        expected = []
        for idx in _token_batches(mixed, len(mixed)):
            shuffled = [idx[i] for i in rng.permutation(len(idx))]
            expected += [shuffled[lo : lo + 4] for lo in range(0, len(shuffled), 4)]
        assert batches == expected


class TestTrain:
    def test_smoke_run_reduces_loss_tenfold(self, small_env):
        rng = np.random.default_rng(40)
        points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1, 9, size=(200, 2))]
        dataset = generate_dataset(small_env, points, 0.0, 41, ChannelConfig())
        cfg = make_model_config(
            "per_cir", "fixed", "spatial", 150, 16, env=small_env, n_layers=2, dropout_p=0.05
        )
        tcfg = TrainConfig(max_epochs=150, seed=1, early_stop_patience=150, batch_size=32)
        model = train(dataset, small_env, cfg, tcfg, solver=OPTS)
        records = model.history.records
        assert records[0].train_loss / min(r.train_loss for r in records) >= 10.0

    def test_same_seed_same_parameters(self, small_env):
        rng = np.random.default_rng(42)
        points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1, 9, size=(24, 2))]
        dataset = generate_dataset(small_env, points, 0.3, 43, ChannelConfig())
        cfg = make_model_config(
            "per_cir", "time_based", "spatial", 150, 8, env=small_env, n_heads=2, n_layers=1
        )
        tcfg = TrainConfig(max_epochs=4, seed=5, batch_size=8)
        a = train(dataset, small_env, cfg, tcfg, solver=OPTS)
        b = train(dataset, small_env, cfg, tcfg, solver=OPTS)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_empty_dataset_rejected(self, small_env):
        cfg = make_model_config("per_cir", "fixed", "spatial", 150, 8, env=small_env, n_heads=2)
        with pytest.raises(ValueError):
            train([], small_env, cfg, TrainConfig(max_epochs=1))

    def test_history_schema(self, small_env, small_dataset):
        cfg = make_model_config(
            "per_cir", "fixed", "spatial", 150, 8, env=small_env, n_heads=2, n_layers=1
        )
        tcfg = TrainConfig(max_epochs=3, seed=2, batch_size=4)
        model = train(small_dataset, small_env, cfg, tcfg, solver=OPTS)
        assert len(model.history.records) == 3
        for r in model.history.records:
            assert r.val_loss >= 0 and r.train_loss >= 0 and r.lr >= 0
            assert r.step_ms > 0 and r.samples_per_s > 0 and r.grad_norm > 0
        assert 0 <= model.history.best_epoch < 3

    def test_grad_norm_is_the_epoch_mean_of_the_global_norms(
        self, small_env, small_dataset, monkeypatch
    ):
        import uwbcorr.training as training

        norms = []

        def recording(*args, **kwargs):
            loss, grads = compute_gradients(*args, **kwargs)
            norms.append(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
            return loss, grads

        monkeypatch.setattr(training, "compute_gradients", recording)
        cfg = make_model_config(
            "per_cir", "fixed", "spatial", 150, 8, env=small_env, n_heads=2, n_layers=1
        )
        tcfg = TrainConfig(max_epochs=2, seed=2, batch_size=4)
        model = train(small_dataset, small_env, cfg, tcfg, solver=OPTS)
        steps = len(norms) // 2
        assert steps * 2 == len(norms) and steps > 1
        for epoch, r in enumerate(model.history.records):
            assert r.grad_norm == pytest.approx(np.mean(norms[epoch * steps : (epoch + 1) * steps]))


class TestEvaluateModel:
    def test_untrained_residual_model_equals_baseline(self, small_env, small_dataset):
        cfg = make_model_config("per_cir", "fixed", "spatial", 150, 16, env=small_env)
        model = CorrectionModel.initialize(cfg, seed=0)
        result = evaluate_model(model, small_dataset, small_env, solver=OPTS)
        assert result.report.mae == result.baseline_report.mae
        assert np.array_equal(result.estimates, result.baselines)

    def test_unsolvable_samples_counted(self, small_env, small_dataset):
        # strip one sample down to two anchors: not solvable
        import dataclasses

        crippled = dataclasses.replace(
            small_dataset[0],
            raw_cirs=small_dataset[0].raw_cirs[:2],
        )
        cfg = make_model_config("per_cir", "fixed", "spatial", 150, 16, env=small_env)
        model = CorrectionModel.initialize(cfg, seed=0)
        result = evaluate_model(
            model, [crippled] + list(small_dataset[1:]), small_env, solver=OPTS
        )
        assert result.n_unsolvable == 1
        assert result.report.n_samples == len(small_dataset) - 1
