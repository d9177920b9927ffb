"""Per-layer metrics from the spans of one traced run.

Every workload reports every name in :data:`PER_LAYER`; a layer the
workload never calls reports 0 (no calls, no time).
"""

from __future__ import annotations

from tracing import MATMUL_ROLES, percentile, self_times, tail_percentile

AUTODIFF_CATEGORIES = ("softmax", "layer_norm", "elementwise", "shape")

# name -> unit, in the order printed.
PER_LAYER = {
    "simulate.generate_dataset.ms_per_sample": "ms",
    "dataio.write_samples_jsonl.ms_per_sample": "ms",
    "dataio.read_samples_jsonl.ms_per_sample": "ms",
    "tdoa.baseline_position.calls": "count",
    "tdoa.baseline_position.ms_p50": "ms",
    "tdoa.baseline_position.ms_p99": "ms",
    "tdoa.baseline_position.share": "fraction",
    "tdoa.iterations_mean": "count",
    "tdoa.iterations_at_cap_frac": "fraction",
    "tdoa.converged_frac": "fraction",
    "tdoa.on_bound_frac": "fraction",
    "tdoa.unsolvable_frac": "fraction",
    "cir.build_input_tensor.us_per_call": "us",
    "patching.patch.us_per_call": "us",
    "patching.tokens_per_sample_mean": "count",
    "encodings.constant_encoding_rows.us_per_call": "us",
    "model.prepare_example.self_us_per_call": "us",
    "model.forward_prepared.train_ms_p50": "ms",
    "model.forward_prepared.batch_eval_ms_p50": "ms",
    "model.forward_prepared.b1_ms_p50": "ms",
    "model.forward_prepared.b1_ms_p99": "ms",
    "model.checkpoint_roundtrip_ms": "ms",
    **{
        f"autodiff.matmul.{role}.{d}_ms_per_step": "ms"
        for role in MATMUL_ROLES
        for d in ("fw", "bw")
    },
    **{f"autodiff.{c}.{d}_ms_per_step": "ms" for c in AUTODIFF_CATEGORIES for d in ("fw", "bw")},
    "autodiff.backward.graph_ms_per_step": "ms",
    "autodiff.nodes_per_step": "count",
    "autodiff.matmul.gflop_per_step": "GFLOP",
    "autodiff.bytes_out_per_step": "B",
    "training.compute_gradients.ms_p50": "ms",
    "training.compute_gradients.ms_p90": "ms",
    "training.Adam.step.ms_p50": "ms",
    "training.steps": "count",
    "training.batch_fill_frac": "fraction",
    "training.val_pass_ms_per_epoch": "ms",
    "training.prepare_training_examples.s": "s",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}

SOLVER_MAX_ITERATIONS = 100  # solve_tdoa's default cap, which baseline_position uses
UNSOLVABLE_ERRORS = ("InsufficientDataError", "InsufficientAnchorsError")


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _per_sample_ms(spans) -> float:
    samples = sum(s[4]["samples"] for s in spans if s[4])
    return sum(s[2] - s[1] for s in spans) * 1e3 / samples if samples else 0.0


def _capped(values, q: float, used: dict, name: str) -> float:
    """Percentile q of values, lowered to the tail rule when too few samples."""
    if not values:
        return 0.0
    rule = tail_percentile(len(values), cap=q) or 50.0
    if rule != q:
        used[name] = rule
    return percentile(values, rule)


def _on_bound(position, bounds) -> bool:
    if bounds is None:
        return False
    return any(
        abs(p - lo) <= 1e-9 or abs(p - hi) <= 1e-9
        for p, lo, hi in zip(position, bounds[0], bounds[1])
    )


def summarize(setup_spans, spans, wall_s: float, overhead_frac: float, batch_size: int):
    """Per-layer metrics, plus the percentiles that fell back to the tail rule."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    used: dict[str, float] = {}
    by_name: dict[str, list] = {}
    for index, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(index)

    def durations(name, keep=lambda s: True, scale=1e3):
        return [(spans[i][2] - spans[i][1]) * scale for i in by_name.get(name, ()) if keep(spans[i])]

    setup_by_name: dict[str, list] = {}
    for s in setup_spans:
        setup_by_name.setdefault(s[0], []).append(s)
    for name in ("simulate.generate_dataset", "dataio.write_samples_jsonl", "dataio.read_samples_jsonl"):
        out[f"{name}.ms_per_sample"] = _per_sample_ms(setup_by_name.get(name, []))
    roundtrips = setup_by_name.get("model.load_checkpoint", [])
    if roundtrips:
        both = setup_by_name["model.save_checkpoint"] + roundtrips
        out["model.checkpoint_roundtrip_ms"] = sum(s[2] - s[1] for s in both) * 1e3 / len(roundtrips)

    solves = [spans[i] for i in by_name.get("tdoa.baseline_position", ())]
    ok = [s[4] for s in solves if s[4] and "iterations" in s[4]]
    solve_ms = durations("tdoa.baseline_position")
    out["tdoa.baseline_position.calls"] = float(len(solves))
    if solves:
        out["tdoa.baseline_position.ms_p50"] = percentile(solve_ms, 50.0)
        out["tdoa.baseline_position.ms_p99"] = _capped(solve_ms, 99.0, used, "tdoa.baseline_position.ms_p99")
        out["tdoa.baseline_position.share"] = sum(solve_ms) / 1e3 / wall_s
        unsolvable = sum(1 for s in solves if s[4] and s[4].get("error") in UNSOLVABLE_ERRORS)
        out["tdoa.unsolvable_frac"] = unsolvable / len(solves)
    if ok:
        out["tdoa.iterations_mean"] = _mean([i["iterations"] for i in ok])
        out["tdoa.iterations_at_cap_frac"] = _mean(
            [i["iterations"] >= SOLVER_MAX_ITERATIONS for i in ok]
        )
        out["tdoa.converged_frac"] = _mean([i["converged"] for i in ok])
        out["tdoa.on_bound_frac"] = _mean(
            [_on_bound(i["position"], i["options"].bounds if i["options"] else None) for i in ok]
        )

    out["cir.build_input_tensor.us_per_call"] = _mean(durations("cir.build_input_tensor", scale=1e6))
    out["patching.patch.us_per_call"] = _mean(durations("patching.patch", scale=1e6))
    out["patching.tokens_per_sample_mean"] = _mean(
        [spans[i][4]["tokens"] for i in by_name.get("patching.patch", ())]
    )
    out["encodings.constant_encoding_rows.us_per_call"] = _mean(
        durations("encodings.constant_encoding_rows", scale=1e6)
    )
    selfs = self_times(spans)
    out["model.prepare_example.self_us_per_call"] = _mean(
        [selfs[i] * 1e6 for i in by_name.get("model.prepare_example", ())]
    )
    forward = "model.forward_prepared"
    train_fw = durations(forward, lambda s: s[4]["train"])
    eval_fw = durations(forward, lambda s: not s[4]["train"] and s[4]["batch"] > 1)
    b1_fw = durations(forward, lambda s: not s[4]["train"] and s[4]["batch"] == 1)
    if train_fw:
        out["model.forward_prepared.train_ms_p50"] = percentile(train_fw, 50.0)
    if eval_fw:
        out["model.forward_prepared.batch_eval_ms_p50"] = percentile(eval_fw, 50.0)
    if b1_fw:
        out["model.forward_prepared.b1_ms_p50"] = percentile(b1_fw, 50.0)
        out["model.forward_prepared.b1_ms_p99"] = _capped(b1_fw, 99.0, used, "model.forward_prepared.b1_ms_p99")

    _autodiff(spans, selfs, by_name, out)

    grads = durations("training.compute_gradients")
    runs = len(by_name.get("training.train", ()))
    if grads:
        out["training.compute_gradients.ms_p50"] = percentile(grads, 50.0)
        out["training.compute_gradients.ms_p90"] = _capped(grads, 90.0, used, "training.compute_gradients.ms_p90")
        batches = [spans[i][4]["batch"] for i in by_name["training.compute_gradients"]]
        out["training.batch_fill_frac"] = sum(batches) / (len(batches) * batch_size)
    adam = durations("training.Adam.step")
    if adam:
        out["training.Adam.step.ms_p50"] = percentile(adam, 50.0)
    if runs:
        out["training.steps"] = len(grads) / runs
        epochs = sum(spans[i][4]["epochs"] for i in by_name["training.train"])
        out["training.val_pass_ms_per_epoch"] = _val_pass_ms(spans, by_name) / epochs
        out["training.prepare_training_examples.s"] = _mean(
            durations("training.prepare_training_examples", scale=1.0)
        )

    out["trace.overhead_frac"] = overhead_frac
    out["trace.coverage_frac"] = sum(selfs) / wall_s
    return out, used


def _val_pass_ms(spans, by_name) -> float:
    """Time in batch_loss calls inside train() but outside a gradient step."""
    inside = [None] * len(spans)  # nearest train / compute_gradients ancestor
    for i, s in enumerate(spans):
        if s[0] in ("training.train", "training.compute_gradients"):
            inside[i] = s[0]
        elif s[3] >= 0:
            inside[i] = inside[s[3]]
    return sum(
        (spans[i][2] - spans[i][1]) * 1e3
        for i in by_name.get("training.batch_loss", ())
        if inside[spans[i][3]] == "training.train"
    )


def _autodiff(spans, selfs, by_name, out):
    """Op time, node, flop and byte counts per step.

    A step is one ``compute_gradients`` call where the workload trains, and
    one ``forward_prepared`` call where it only predicts.
    """
    step_name = (
        "training.compute_gradients" if by_name.get("training.compute_gradients") else "model.forward_prepared"
    )
    n_steps = len(by_name.get(step_name, ()))
    if not n_steps:
        return
    step_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s[0] == step_name:
            step_of[i] = i
        elif s[3] >= 0:
            step_of[i] = step_of[s[3]]
    totals: dict[str, float] = {}
    nodes = 0
    flop = 0.0
    nbytes = 0
    for i, s in enumerate(spans):
        if step_of[i] < 0 or not s[0].startswith("autodiff."):
            continue
        if s[0] == "autodiff.backward":
            key = "autodiff.backward.graph_ms_per_step"
            totals[key] = totals.get(key, 0.0) + selfs[i] * 1e3
            continue
        info = s[4]
        direction = s[0].rsplit(".", 1)[1]
        if info["category"] == "matmul":
            key = f"autodiff.matmul.{info['role']}.{direction}_ms_per_step"
            flop += info["flop"] if direction == "fw" else info["bw_flop"]
        else:
            key = f"autodiff.{info['category']}.{direction}_ms_per_step"
        if direction == "fw":
            nodes += 1
            nbytes += info["bytes"]
        totals[key] = totals.get(key, 0.0) + (s[2] - s[1]) * 1e3
    for key, value in totals.items():
        if key in out:
            out[key] = value / n_steps
    out["autodiff.nodes_per_step"] = nodes / n_steps
    out["autodiff.matmul.gflop_per_step"] = flop / 1e9 / n_steps
    out["autodiff.bytes_out_per_step"] = nbytes / n_steps

