"""Training-step outputs pinned to the full-sequence encoder.

``data/training_golden.npz`` holds, for each model config in ``CONFIGS``:

* ``<config>/loss`` and ``<config>/grad/<parameter>``: the loss and every
  parameter gradient of one seeded ``compute_gradients(train=True)`` on the
  largest equal-token batch of the prepared examples, from a model with a
  non-zero final layer;
* ``<config>/predict``: ``predict_prepared`` on that batch with the same
  parameters;
* ``<config>/trained``: the predictions for every prepared example after a
  seeded 8-epoch ``train()``.

The configs are the benchmark's two training models (per-CIR fixed/spatial
with ``l_patch=150``; per-CIR time-ordered spatial+time with ``l_patch=30``)
and multi-CIR with learned encodings, at a small width (d_model 16, two
encoder blocks) so the file stays small. It was first written at commit
209e218, where every encoder block computed all token rows and the head
read the CLS row afterwards, and held unchanged through 8b07e4f, which
stores only the non-zero patch rows of an example. It was re-recorded
(``PYTHONPATH=src python tests/test_training_golden.py --rewrite``) in the
next commit, whose active-set solver moved the baseline positions
``p_tdoa`` the examples are built from; the model code was the one that had
reproduced the 209e218 arrays. It was re-recorded the same way, with the
model code unchanged, when the solver's steps gained the second-order term,
which moved ``p_tdoa`` by up to 5 cm, and again, with the model code
unchanged, when sets sharing one reference anchor started from the
closed-form least-squares point and the centroid, which moved ``p_tdoa`` by
up to 1.5e-7 m. ``.npz`` stores the float64 arrays exactly.
Do not regenerate it for a change to the model: it is the reference a
rewrite of the forward or backward pass must reproduce. The script refuses
to overwrite the file unless it is given ``--rewrite``, and then prints the
loss of each config.

Gradients and the loss must match to 1e-12 relative to the largest entry
of each array, positions to 1e-10 m. Those margins cover summation-order
round-off only. A gradient that is zero in exact arithmetic (the attention
key biases) is held below 1e-12 of the largest gradient entry instead.
"""

import argparse
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from uwbcorr import (
    CorrectionModel,
    SolverOptions,
    TrainConfig,
    default_environment,
    generate_dataset,
    make_model_config,
    train,
)
from uwbcorr.simulate import random_trajectory
from uwbcorr.model import prepare_example
from uwbcorr.training import batch_loss, compute_gradients, prepare_training_examples

FIXTURE = Path(__file__).parent / "data" / "training_golden.npz"
CONFIGS = {
    "train_default": ("per_cir", "fixed", "spatial", 150),
    "train_ragged": ("per_cir", "time_based", "spatial_time", 30),
    "multi_cir_learned": ("multi_cir", "fixed", "learned", 15),
}
N_SAMPLES = 48
MAX_BATCH = 16
EPOCHS = 8
GRAD_RTOL = 1e-12
POSITION_TOL_M = 1e-10


def golden_config(name, env):
    patching, ordering, encoding, l_patch = CONFIGS[name]
    return make_model_config(
        patching, ordering, encoding, l_patch, 16, env=env,
        n_heads=2, n_layers=2, d_ff=32, head_widths=(32, 16, 3),
    )


def golden_samples(env):
    points = random_trajectory(env, N_SAMPLES, z=1.0, seed=41, step=2.0)
    return generate_dataset(env, points, 0.587, 42)


def golden_setup(name):
    """The config, solver, samples and gradient batch of one fixture entry."""
    env = default_environment()
    cfg = golden_config(name, env)
    solver = SolverOptions.for_environment(env, fix_z=1.0)
    samples = golden_samples(env)
    examples, _ = prepare_training_examples(samples, env, cfg, solver)
    counts = [e.n_tokens for e in examples]
    largest = max(sorted(set(counts)), key=counts.count)
    batch = [e for e in examples if e.n_tokens == largest][:MAX_BATCH]
    return env, cfg, solver, samples, examples, batch


def compute_entry(name):
    """Every array the fixture stores for one config, keyed as in the file."""
    env, cfg, solver, samples, examples, batch = golden_setup(name)
    model = CorrectionModel.initialize(cfg, seed=7, zero_final_layer=False)
    loss, grads = compute_gradients(model, batch, train=True, rng=np.random.default_rng(8))
    entry = {f"{name}/loss": np.array(loss), f"{name}/predict": model.predict_prepared(batch)}
    entry.update({f"{name}/grad/{k}": g for k, g in grads.items()})
    train_cfg = TrainConfig(batch_size=8, max_epochs=EPOCHS, early_stop_patience=EPOCHS, seed=9)
    trained = train(samples, env, cfg, train_cfg, solver=solver)
    entry[f"{name}/trained"] = trained.predict_prepared(examples)
    return entry


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as data:
        return {k: data[k] for k in data.files}


@pytest.fixture(scope="module", params=list(CONFIGS))
def entry(request):
    return request.param, compute_entry(request.param)


def test_fixture_covers_every_config(golden):
    for name in CONFIGS:
        assert {f"{name}/loss", f"{name}/predict", f"{name}/trained"} <= set(golden)
        assert any(k.startswith(f"{name}/grad/") for k in golden)


def test_loss_and_gradients_match_golden(golden, entry):
    name, got = entry
    assert abs(got[f"{name}/loss"] - golden[f"{name}/loss"]) <= GRAD_RTOL * golden[f"{name}/loss"]
    grad_keys = sorted(k for k in golden if k.startswith(f"{name}/grad/"))
    assert sorted(k for k in got if "/grad/" in k) == grad_keys
    # The key biases add the same amount to every score of a softmax row, so
    # their gradient is zero in exact arithmetic and the fixture holds only
    # round-off there: such arrays must stay below the bound, not match it.
    floor = GRAD_RTOL * max(np.max(np.abs(golden[k])) for k in grad_keys)
    for key in grad_keys:
        scale = np.max(np.abs(golden[key]))
        if scale < floor:
            assert np.max(np.abs(got[key])) < floor, key
        else:
            assert np.max(np.abs(got[key] - golden[key])) <= GRAD_RTOL * scale, key


def test_predictions_match_golden(golden, entry):
    name, got = entry
    for key in (f"{name}/predict", f"{name}/trained"):
        assert got[key].shape == golden[key].shape, key
        assert np.max(np.abs(got[key] - golden[key])) <= POSITION_TOL_M, key


def tape_and_step_peak(name, size):
    """Bytes the tape of one forward of a ``size``-sample batch holds, its
    dropout masks included, and the peak bytes of a training step on that
    batch, by tracemalloc; with the model, so the caller can see how the
    step splits the batch."""
    env = default_environment()
    cfg = golden_config(name, env)
    examples = [
        prepare_example(s, env, cfg, s.true_position, s.true_position)
        for s in golden_samples(env)
    ]
    counts = [e.n_tokens for e in examples]
    group = [e for e in examples if e.n_tokens == max(set(counts), key=counts.count)]
    batch = [group[i % len(group)] for i in range(size)]
    model = CorrectionModel.initialize(cfg, seed=7, zero_final_layer=False)

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rng, shape = np.random.default_rng(8), (size, batch[0].n_tokens, cfg.d_model)
        keeps = [rng.random(shape) >= cfg.dropout_p for _ in range(2 * cfg.n_layers)]
        loss = batch_loss(model, batch, True, keeps)  # one forward over the whole batch
        tape = tracemalloc.get_traced_memory()[0] - start
        del loss, keeps
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        compute_gradients(model, batch, train=True, rng=np.random.default_rng(8))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return tape, peak, model, batch


@pytest.mark.parametrize("name, size", [("train_default", 64), ("train_ragged", 17)])
def test_a_training_step_peaks_near_the_tape_a_forward_keeps(name, size):
    """The backward sweep frees each activation and inner gradient once it has
    passed, so a step's peak stays near the bytes its forward tape holds; a
    sweep that kept them all to the end peaked near twice that."""
    tape, peak, _, _ = tape_and_step_peak(name, size)
    assert peak <= 1.25 * tape, (peak, tape)


def test_a_two_chunk_step_peaks_below_the_full_batch_tape():
    """A step over two chunks holds one chunk's tape at a time, so it peaks
    well below the tape of one forward over the whole batch."""
    tape, peak, model, batch = tape_and_step_peak("train_default", 64)
    assert [len(chunk) for chunk, _ in model.chunks(batch)] == [32, 32]
    assert peak <= 0.75 * tape, (peak, tape)


def test_running_the_module_keeps_the_fixture():
    before = FIXTURE.read_bytes()
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "pass --rewrite to overwrite it" in proc.stderr
    assert FIXTURE.read_bytes() == before


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=f"Record {FIXTURE.name} from the current training code.")
    parser.add_argument("--rewrite", action="store_true", help="overwrite an existing fixture")
    if not parser.parse_args().rewrite and FIXTURE.exists():
        parser.error(f"{FIXTURE} is the reference; pass --rewrite to overwrite it")
    arrays = {}
    for config in CONFIGS:
        arrays.update(compute_entry(config))
    np.savez(FIXTURE, **arrays)
    losses = ", ".join(f"{name} {float(arrays[f'{name}/loss']):.6g}" for name in CONFIGS)
    print(f"wrote {FIXTURE} ({len(arrays)} arrays); losses {losses}")
