"""Acceptance suite: one test per criterion, each prints a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end criterion
trains a real model on synthetic data and takes several minutes; everything
else finishes in seconds.
"""

import time
import zlib

import numpy as np
import pytest

from uwbcorr import (
    Anchor,
    Box,
    CorrectionModel,
    Environment,
    SolverOptions,
    cnn_baseline_ops,
    generate_dataset,
    grid_trajectory,
    make_model_config,
    measured_ddoa_set,
    op_count,
    pareto_front,
    random_trajectory,
    solve_tdoa,
)
from uwbcorr.cir import WINDOW_LENGTH, build_input_tensor
from uwbcorr.complexity import SweepResult
from uwbcorr.config import MULTI_CIR_L_PATCH, PER_CIR_L_PATCH
from uwbcorr.encodings import constant_encoding_rows, max_bands
from uwbcorr.metrics import CEP_QUANTILES, cep
from uwbcorr.model import prepare_from_tensor
from uwbcorr.patching import patch_multi_cir, patch_per_cir
from uwbcorr.tdoa import SPEED_OF_LIGHT, euclidean_distance
from uwbcorr.training import (
    TrainConfig,
    batch_loss,
    compute_gradients,
    evaluate_model,
    prepare_training_examples,
    train,
)

from conftest import permute_rows, reference_spatial_pe
from test_encodings import anchor_tensor
from test_patching import dummy_tensor


def report(n, name, detail):
    print(f"\n[acceptance] criterion {n} ({name}): PASS: {detail}")


def test_criterion_1_solver_round_trip():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    hits = 0
    for _ in range(200):
        anchors = [Anchor(i + 1, rng.uniform([0, 0, 0], [20, 20, 8])) for i in range(8)]
        truth = rng.uniform([2, 2, 1], [18, 18, 7])
        timestamps = {
            a.id: euclidean_distance(truth, a.position) / SPEED_OF_LIGHT for a in anchors
        }
        ddoas = measured_ddoa_set(timestamps)
        estimate = solve_tdoa(ddoas, anchors)
        hits += np.linalg.norm(estimate.position - truth) < 1e-6
    elapsed = time.monotonic() - started
    assert hits >= 198, f"only {hits}/200 geometries recovered within 1e-6 m"
    assert elapsed < 5.0, f"took {elapsed:.2f} s (budget 5 s)"
    report(1, "solver round trip", f"{hits}/200 within 1e-6 m in {elapsed:.2f} s")


def test_criterion_2_gradient_correctness(small_env):
    started = time.monotonic()
    cfg = make_model_config(
        "per_cir", "fixed", "spatial", 75, 8, env=small_env, n_heads=2, n_layers=1
    )
    model = CorrectionModel.initialize(cfg, seed=7, zero_final_layer=False)
    rng = np.random.default_rng(1002)
    points = [np.array([x, y, 1.0]) for x, y in rng.uniform(1, 9, size=(2, 2))]
    dataset = generate_dataset(small_env, points, 0.0, 1003)
    examples, _ = prepare_training_examples(
        dataset, small_env, cfg, SolverOptions.for_environment(small_env, fix_z=1.0)
    )
    assert len(examples) == 2
    _, grads = compute_gradients(model, examples)

    def loss_value():
        return float(batch_loss(model, examples).data)

    step = 1e-4
    checked = 0
    for name, tensor in model.params.items():
        flat = tensor.data.reshape(-1)
        analytic = grads[name].reshape(-1)
        size = flat.size
        if size <= 4096:
            indices = np.arange(size)
        else:
            group_rng = np.random.default_rng(zlib.crc32(name.encode()))
            indices = group_rng.choice(size, size=1024, replace=False)
        numeric = np.empty(len(indices))
        for pos, idx in enumerate(indices):
            old = flat[idx]
            flat[idx] = old + step
            up = loss_value()
            flat[idx] = old - step
            down = loss_value()
            flat[idx] = old
            numeric[pos] = (up - down) / (2 * step)
        sampled = analytic[indices]
        denom = np.maximum(np.maximum(np.abs(numeric), np.abs(sampled)), 1e-6)
        worst = float(np.max(np.abs(numeric - sampled) / denom))
        assert worst < 1e-4, f"group {name}: worst relative error {worst:.2e}"
        group_rel = np.linalg.norm(numeric - sampled) / max(
            np.linalg.norm(numeric), 1e-12
        )
        assert group_rel < 1e-4, f"group {name}: norm-relative error {group_rel:.2e}"
        checked += len(indices)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f} s (budget 60 s)"
    report(
        2,
        "gradient correctness",
        f"{checked} entries across {len(model.params)} groups, worst < 1e-4, {elapsed:.1f} s",
    )


def test_criterion_3_shape_and_count_suite():
    n_total = 15
    for l_patch in MULTI_CIR_L_PATCH:
        m = dummy_tensor(n_total, seed=l_patch)
        ps = patch_multi_cir(m, l_patch)
        k = WINDOW_LENGTH // l_patch
        assert ps.n_patches == k
        assert ps.values.shape == (k, n_total * l_patch)
        rebuilt = np.concatenate(
            [ps.values[i].reshape(n_total, l_patch) for i in range(k)], axis=1
        )
        assert np.array_equal(rebuilt, m.values), "multi-CIR partition must be lossless"
    for l_patch in PER_CIR_L_PATCH:
        for n_rows in (6, 15):
            m = dummy_tensor(n_rows, seed=l_patch + n_rows)
            ps = patch_per_cir(m, l_patch)
            k = WINDOW_LENGTH // l_patch
            assert ps.n_patches == n_rows * k
            assert np.array_equal(
                ps.values.reshape(n_rows, WINDOW_LENGTH), m.values
            ), "per-CIR partition must be lossless"
    anchor = anchor_tensor([(12.0, 3.0, 2.0)])
    for d_model in (32, 64, 128, 256):
        f = max_bands(d_model)
        assert 6 * f <= d_model < 6 * (f + 1)
        pe = constant_encoding_rows(anchor, 1, "spatial", d_model, (30.0, 10.0, 3.0))[0]
        assert pe.shape == (d_model,)
        assert np.array_equal(pe, reference_spatial_pe((12.0, 3.0, 2.0), (30.0, 10.0, 3.0), d_model))
        assert np.array_equal(pe[6 * f :], np.zeros(d_model - 6 * f))
        assert np.any(pe[: 6 * f] != 0)
    report(
        3,
        "shape/count suite",
        f"patch counts for {len(MULTI_CIR_L_PATCH) + len(PER_CIR_L_PATCH)} widths, "
        f"6F padding for d_model 32/64/128/256",
    )


def test_criterion_4_permutation_invariance(small_env):
    sample = generate_dataset(small_env, [np.array([3.0, 7.0, 1.0])], 0.0, 1004)[0]
    tensor = build_input_tensor(sample, small_env, "fixed")
    p_tdoa = np.array([4.0, 6.0, 1.0])
    rng = np.random.default_rng(1005)
    perms = [rng.permutation(tensor.n_rows) for _ in range(50)]

    def spread(kind):
        cfg = make_model_config("per_cir", "fixed", kind, 75, 32, env=small_env)
        model = CorrectionModel.initialize(cfg, seed=9, zero_final_layer=False)
        base = model.predict_prepared([prepare_from_tensor(tensor, cfg, p_tdoa)])[0]
        deltas = []
        for perm in perms:
            ex = prepare_from_tensor(permute_rows(tensor, perm), cfg, p_tdoa)
            deltas.append(np.abs(model.predict_prepared([ex])[0] - base).max())
        return max(deltas)

    spatial_delta = spread("spatial")
    learned_delta = spread("learned")
    assert spatial_delta < 1e-9, f"spatial encoding moved output by {spatial_delta:.2e}"
    assert learned_delta > 1e-9, "learned encoding should be order-sensitive"
    report(
        4,
        "permutation invariance",
        f"spatial max delta {spatial_delta:.2e} over 50 permutations; "
        f"learned delta {learned_delta:.2e}",
    )


def test_criterion_5_safe_start(small_env, small_dataset):
    cfg = make_model_config("per_cir", "fixed", "spatial", 150, 64, env=small_env)
    model = CorrectionModel.initialize(cfg, seed=11)  # final head layer zero by default
    options = SolverOptions.for_environment(small_env, fix_z=1.0)
    result = evaluate_model(model, small_dataset, small_env, solver=options)
    assert result.report.mae == result.baseline_report.mae
    assert np.array_equal(result.estimates, result.baselines)
    for q in CEP_QUANTILES:
        assert result.report.cep[q] == result.baseline_report.cep[q]
    report(
        5,
        "safe start",
        f"untrained residual model reproduces baseline MAE {result.report.mae:.6f} m exactly",
    )


@pytest.mark.slow
def test_criterion_6_synthetic_end_to_end():
    started = time.monotonic()
    env = Environment(
        anchors=tuple(
            Anchor(i + 1, np.array(c))
            for i, c in enumerate(
                [
                    (1.0, 0.5, 2.8), (8.0, 0.5, 2.7), (15.0, 0.5, 2.9), (22.0, 0.5, 2.8),
                    (29.0, 0.5, 2.7), (1.0, 9.5, 2.6), (8.0, 9.5, 2.8), (15.0, 9.5, 2.7),
                    (22.0, 9.5, 2.9), (29.0, 9.5, 2.6), (4.5, 5.0, 3.0), (11.5, 5.0, 2.9),
                    (18.5, 5.0, 3.0), (25.5, 5.0, 2.9), (15.0, 2.0, 2.7),
                ]
            )
        ),
        obstacles=(
            Box([6.0, 2.0, 0.0], [7.0, 8.0, 2.2]),
            Box([14.0, 2.5, 0.0], [15.0, 8.5, 2.2]),
            Box([22.0, 1.5, 0.0], [23.0, 7.5, 2.2]),
        ),
        extent=(30.0, 10.0, 3.0),
    )
    assert env.n_anchors == 15 and len(env.obstacles) == 3
    train_set = generate_dataset(env, grid_trajectory(env, 10, 300, z=1.0), 0.587, 7)
    eval_set = generate_dataset(env, random_trajectory(env, 1000, z=1.0, seed=8), 0.587, 8)
    assert len(train_set) == 3000 and len(eval_set) == 1000

    options = SolverOptions.for_environment(env, fix_z=1.0)
    cfg = make_model_config("per_cir", "fixed", "spatial", 150, 64, env=env)
    train_cfg = TrainConfig(max_epochs=90, seed=1)  # within the 100-epoch budget
    model = train(train_set, env, cfg, train_cfg, solver=options)
    result = evaluate_model(model, eval_set, env, solver=options)

    improvement = 1.0 - result.report.mae / result.baseline_report.mae
    elapsed = time.monotonic() - started
    assert improvement >= 0.30, (
        f"corrected MAE {result.report.mae:.3f} m vs baseline "
        f"{result.baseline_report.mae:.3f} m: only {improvement:.1%} improvement"
    )
    assert elapsed < 1800.0, f"took {elapsed:.0f} s (budget 30 min)"
    report(
        6,
        "synthetic end-to-end",
        f"baseline {result.baseline_report.mae:.3f} m -> corrected "
        f"{result.report.mae:.3f} m ({improvement:.1%} improvement) in {elapsed:.0f} s",
    )


def test_criterion_7_complexity_oracle():
    assert cnn_baseline_ops(15) == 2_605_560

    def cfg_for(patching, ordering, n_total=15):
        encoding = "learned" if patching == "multi_cir" else "spatial"
        return make_model_config(patching, ordering, encoding, 75, 32, n_total=n_total)

    at_point = {
        "per_cir_fixed": op_count(cfg_for("per_cir", "fixed"), 6).total_ops,
        "per_cir_time": op_count(cfg_for("per_cir", "time_based"), 6).total_ops,
        "multi_cir": op_count(cfg_for("multi_cir", "fixed"), 6).total_ops,
    }
    assert at_point["per_cir_fixed"] > at_point["per_cir_time"] > at_point["multi_cir"]

    small = op_count(cfg_for("per_cir", "time_based"), 6)
    large = op_count(cfg_for("per_cir", "time_based", n_total=50), 6)
    assert small.attention_ops == large.attention_ops
    assert small.feedforward_ops == large.feedforward_ops
    assert small.total_ops == large.total_ops
    report(
        7,
        "complexity oracle",
        f"CNN 15 pairs = 2,605,560; ordering {at_point['per_cir_fixed']:.0f} > "
        f"{at_point['per_cir_time']:.0f} > {at_point['multi_cir']:.0f}; "
        f"time-based counts constant for 15 -> 50 anchors",
    )


def test_criterion_8_metrics_oracle():
    rng = np.random.default_rng(1006)

    def brute_force_cep(errors, q):
        errors = np.sort(errors)
        n = len(errors)
        for r in errors:
            if np.sum(errors <= r) / n >= q / 100.0 - 1e-12:
                return r
        return errors[-1]

    for _ in range(1000):
        errors = rng.exponential(1.0, size=int(rng.integers(1, 40)))
        estimates = np.stack([errors, np.zeros_like(errors), np.zeros_like(errors)], axis=1)
        truths = np.zeros_like(estimates)
        for q in CEP_QUANTILES:
            assert cep(estimates, truths, q) == brute_force_cep(errors, q)

    def oracle_front(results):
        front = [
            r
            for r in results
            if not any(
                (s.total_ops <= r.total_ops and s.mae < r.mae)
                or (s.total_ops < r.total_ops and s.mae <= r.mae)
                for s in results
            )
        ]
        return sorted(front, key=lambda r: (r.total_ops, r.mae))

    records = [
        SweepResult(config={}, total_ops=float(o), mae=float(m))
        for o, m in zip(
            rng.integers(1, 60, size=252).astype(float),
            np.round(rng.uniform(0.1, 2.0, size=252), 2),
        )
    ]
    assert pareto_front(records) == oracle_front(records)
    report(
        8,
        "metrics oracle",
        "CEP matches coverage oracle on 1000 error sets; Pareto front matches "
        "pairwise-domination oracle on 252 records",
    )
