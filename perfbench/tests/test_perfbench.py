"""Tests for the benchmark's own code: span arithmetic, percentiles, wrappers.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, percentile, self_times, tail_percentile  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_of_nested_spans():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("child", 1.0, 4.0, 0),
        span("grandchild", 2.0, 3.0, 1),
        span("child2", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0  # self times partition the root


def test_self_time_of_overlapping_children_counts_the_union_once():
    spans = [
        span("parent", 0.0, 10.0, -1),
        span("a", 1.0, 5.0, 0),
        span("b", 3.0, 7.0, 0),  # overlaps a by 2
        span("c", 9.0, 12.0, 0),  # runs past the parent's end
        span("d", 4.0, 4.5, 0),  # inside a and b
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_with_an_injected_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    tracer.end(tracer.begin("inner"))
    tracer.end(outer)
    assert [s[:4] for s in tracer.spans] == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    assert self_times(tracer.spans) == [2.0, 1.0]


@pytest.mark.parametrize(
    "n, cap, expected",
    [
        (1000, 99.0, 99.0),  # exactly ten beyond p99
        (999, 99.0, 95.0),
        (200, 99.0, 95.0),
        (199, 99.0, 90.0),
        (40, 99.0, 75.0),
        (20, 99.0, 50.0),
        (19, 99.0, None),
        (100_000, 99.0, 99.0),  # never above the cap
        (100_000, 99.9, 99.9),
        (1000, 90.0, 90.0),
    ],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, cap, expected):
    assert tail_percentile(n, cap) == expected


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(3).exponential(size=137))
    for q in (50.0, 90.0, 99.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_benchmark_json_names_every_metric_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


# --- wrappers --------------------------------------------------------------------


def _snapshot():
    import uwbcorr  # noqa: F401
    import uwbcorr.model as model
    import uwbcorr.training as training

    attrs = {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "uwbcorr" or name.startswith("uwbcorr.")
        for key, value in vars(module).items()
    }
    for cls in (model.CorrectionModel, training.Adam):
        attrs.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return attrs


def _tiny_batch():
    from uwbcorr.model import CorrectionModel, make_model_config, prepare_example
    from uwbcorr.simulate import default_environment, generate_dataset

    env = default_environment()
    points = [np.array([x, y, 1.0]) for x, y in ((3.0, 2.0), (12.0, 7.0), (20.0, 4.0))]
    samples = generate_dataset(env, points, 0.0, 5)
    cfg = make_model_config("per_cir", "fixed", "spatial", 75, 8, env=env, n_heads=2, n_layers=1)
    examples = [
        prepare_example(s, env, cfg, s.true_position + 0.3, s.true_position) for s in samples
    ]
    model = CorrectionModel.initialize(cfg, seed=4, zero_final_layer=False)
    return model, examples


def _gradients(model, examples):
    from uwbcorr.training import compute_gradients

    return compute_gradients(model, examples, train=True, rng=np.random.default_rng(9))


def test_wrappers_leave_loss_and_gradients_bit_identical_and_restore_attributes():
    model, examples = _tiny_batch()
    before = _snapshot()
    loss, grads = _gradients(model, examples)
    tracer = Tracer()
    with tracing.installed(tracer):
        assert _snapshot() != before
        traced_loss, traced_grads = _gradients(model, examples)
    assert _snapshot() == before
    assert traced_loss == loss
    assert traced_grads.keys() == grads.keys()
    for name, g in grads.items():
        assert np.array_equal(traced_grads[name], g), name

    names = {s[0] for s in tracer.spans}
    assert {"training.compute_gradients", "autodiff.backward", "autodiff.matmul.bw"} <= names
    roles = {s[4]["role"] for s in tracer.spans if s[0] == "autodiff.matmul.fw"}
    assert roles == set(tracing.MATMUL_ROLES)


def test_attributes_are_restored_when_the_block_raises():
    before = _snapshot()
    with pytest.raises(KeyError):
        with tracing.installed(Tracer()):
            raise KeyError("boom")
    assert _snapshot() == before


def test_summary_of_a_traced_step_counts_nodes_and_covers_the_wall():
    model, examples = _tiny_batch()
    tracer = Tracer()
    with tracing.installed(tracer):
        _gradients(model, examples)
        _gradients(model, examples)
    top = [s for s in tracer.spans if s[3] == -1]
    wall = top[-1][2] - top[0][1]
    values, _ = layers.summarize([], tracer.spans, wall, 0.0, batch_size=64)
    assert set(values) == set(layers.PER_LAYER)
    step = next(s for s in tracer.spans if s[0] == "training.compute_gradients")
    nodes = sum(
        1
        for s in tracer.spans
        if s[0].startswith("autodiff.") and s[0].endswith(".fw") and step[1] <= s[1] <= step[2]
    )
    assert values["autodiff.nodes_per_step"] == nodes
    assert values["training.compute_gradients.ms_p50"] > 0
    assert 0.9 < values["trace.coverage_frac"] <= 1.0


def test_speed_factor_scales_to_the_reference():
    import calibration

    speed = calibration.Speed()
    speed.samples = [calibration.REFERENCE_S * 2, calibration.REFERENCE_S * 2]
    assert speed.factor() == pytest.approx(0.5)  # a host at half speed halves the times


@pytest.mark.parametrize("n", [96, 128, 7])
def test_anchor_count_quota_sums_to_n_and_follows_the_binomial(n):
    quota = workloads.anchor_count_quota(n, 15)
    assert sum(quota.values()) == n
    assert min(quota) == 3 and max(quota) == workloads.MIX_TOP_BIN
    if n >= 96:
        assert max(quota, key=quota.get) == 6  # mode of Binomial(15, 0.413)


def test_targets_the_package_lacks_are_skipped_and_listed(monkeypatch):
    monkeypatch.setattr(
        tracing, "LAYER_TARGETS", tracing.LAYER_TARGETS + (("uwbcorr.training", "gone", "x.gone"),)
    )
    before = _snapshot()
    tracer = Tracer()
    with tracing.installed(tracer):
        pass
    assert tracer.missing == ["uwbcorr.training.gone"]
    assert _snapshot() == before
