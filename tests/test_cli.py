import argparse
import csv
import json
import resource
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from uwbcorr import (
    Anchor,
    CorrectionModel,
    Environment,
    dataio,
    default_environment,
    make_model_config,
    save_checkpoint,
)
from uwbcorr.cli import build_parser, main
from uwbcorr.config import (
    ExperimentConfig,
    SweepSpec,
    apply_overrides,
    enumerate_sweep,
    load_experiment_config,
)
from uwbcorr.errors import ConfigError, IncompatibleEncodingError, is_number
from uwbcorr.metrics import metrics_report
from uwbcorr.tdoa import STOP_REASONS, SolverOptions, solve_baselines
from uwbcorr.training import train


TINY_MODEL = [
    "--set",
    "train.max_epochs=2",
    "--set",
    "model.d_model=8",
    "--set",
    "model.n_heads=2",
    "--set",
    "model.n_layers=1",
    "--set",
    "train.batch_size=16",
]

TINY_DATA = [
    "--set",
    "dataset.train_lines=3",
    "--set",
    "dataset.train_points_per_line=12",
    "--set",
    "dataset.n_eval=12",
    "--set",
    "dataset.drop_probability=0.3",
    "--set",
    "seed=5",
]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A small simulate run shared by the command tests."""
    out = tmp_path_factory.mktemp("run")
    assert main(["simulate", "--output-dir", str(out), *TINY_DATA]) == 0
    return out


# former TrainConfig fields, now constants of ``uwbcorr.training``
FOLDED_TRAIN_KEYS = ("lr_peak", "warmup_fraction", "beta1", "beta2", "adam_eps", "validation_fraction")
# former config keys, now the CLI's output layout: --output-dir and the fixed file names
LAYOUT_SETTINGS = ("dataset.train_path=5", "dataset.eval_path=eval.jsonl", "output_dir=[]")


def _numeric_settings() -> list[str]:
    """``section.key`` of every config field whose default is a number or a
    tuple of numbers, and the top-level numbers."""

    def numeric(value):
        return is_number(value) or (isinstance(value, tuple) and all(map(is_number, value)))

    default = ExperimentConfig()
    keys = []
    for f in fields(default):
        value = getattr(default, f.name)
        if is_dataclass(value):
            keys += [f"{f.name}.{g.name}" for g in fields(value) if numeric(getattr(value, g.name))]
        elif numeric(value):
            keys.append(f.name)
    return keys


class TestSweepEnumeration:
    def test_total_grid_size(self):
        combos = enumerate_sweep(SweepSpec())
        assert len(combos) == 252

    def test_multi_cir_block(self):
        combos = [c for c in enumerate_sweep(SweepSpec()) if c["patching"] == "multi_cir"]
        assert len(combos) == 2 * 9 * 6 == 108
        assert all(c["encoding"] == "learned" for c in combos)

    def test_per_cir_block(self):
        combos = [c for c in enumerate_sweep(SweepSpec()) if c["patching"] == "per_cir"]
        assert len(combos) == 2 * 3 * 6 * 4 == 144
        assert {c["encoding"] for c in combos} == {"learned", "spatial", "spatial_time"}

    def test_no_invalid_combination(self):
        for combo in enumerate_sweep(SweepSpec()):
            if combo["patching"] == "multi_cir":
                assert combo["encoding"] == "learned"


class TestConfig:
    def test_overrides(self):
        payload = apply_overrides({}, ["model.d_model=128", "dataset.snr_db=null", "model.patching=multi_cir"])
        assert payload["model"]["d_model"] == 128
        assert payload["dataset"]["snr_db"] is None
        assert payload["model"]["patching"] == "multi_cir"  # not JSON: kept as a string
        with pytest.raises(ConfigError, match="override 'model.d_model=4': 'model' is not a section"):
            apply_overrides({"model": 3}, ["model.d_model=4"])

    def test_invalid_combination_rejected_at_validation(self):
        with pytest.raises(IncompatibleEncodingError):
            load_experiment_config(
                None, ["model.patching=multi_cir", "model.encoding=spatial", "model.l_patch=15"]
            )

    def test_model_section_matches_the_model_config(self):
        """The model section is a ModelConfig whose defaults, filled from the
        default hall, are the paper's default model; the file sets neither the
        head widths nor the environment's anchor count and extent."""
        hall = default_environment()
        assert ExperimentConfig().model.with_environment(hall) == make_model_config(
            "per_cir", "fixed", "spatial", 150, 64, env=hall
        )
        eight = Environment(anchors=hall.anchors[:8], obstacles=(), extent=(30.0, 10.0, 4.0))
        filled = ExperimentConfig().model.with_environment(eight)
        assert (filled.n_total, filled.extent) == (8, (30.0, 10.0, 4.0))
        for key in ("head_widths", "n_total", "extent"):
            with pytest.raises(ConfigError, match=rf"^unknown keys in section 'model': \['{key}'\]$"):
                load_experiment_config(None, [f"model.{key}=[1]"])

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9, "model": {"d_model": 32}}))
        cfg = load_experiment_config(path, ["model.l_patch=75"])
        assert cfg.seed == 9
        assert cfg.model.d_model == 32 and cfg.model.l_patch == 75


class TestConfigFileErrors:
    """A config file that is not JSON, or holds no JSON object, ends the run
    with one error line naming it and status 2, before any output."""

    @pytest.mark.parametrize(
        "text, shown",
        [("{bad", "not a JSON config: "), ("[1]", "a config file holds a JSON object, got [1]")],
    )
    def test_names_the_file_and_makes_no_directory(self, tmp_path, capsys, text, shown):
        path, out = tmp_path / "bad.json", tmp_path / "out"
        path.write_text(text)
        assert main(["complexity", "--config", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: {path}: {shown}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("setting", LAYOUT_SETTINGS)
    def test_a_file_with_a_former_layout_key_is_refused(self, tmp_path, capsys, setting):
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(apply_overrides({}, [setting])))
        assert main(["simulate", "--config", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert setting.split("=")[0].split(".")[-1] in err  # names the key
        assert not out.exists()


class TestSimulate:
    def test_outputs_exist(self, tiny_run):
        assert (tiny_run / "train.jsonl").exists()
        assert (tiny_run / "eval.jsonl").exists()
        assert (tiny_run / "environment.json").exists()
        summary = json.loads((tiny_run / "simulate_summary.json").read_text())
        assert summary["n_train"] == 36 and summary["n_eval"] == 12
        # drop model on: mean available anchors lands near n_anchors * keep rate
        assert summary["mean_available_anchors"] == pytest.approx(15 * 0.7, abs=1.0)

    def test_eval_points_off_the_training_lines(self, tiny_run):
        train = dataio.read_samples_jsonl(tiny_run / "train.jsonl")
        evals = dataio.read_samples_jsonl(tiny_run / "eval.jsonl")
        train_ys = {round(float(s.true_position[1]), 9) for s in train}
        eval_ys = {round(float(s.true_position[1]), 9) for s in evals}
        assert not train_ys & eval_ys

    def test_deterministic_rerun(self, tiny_run, tmp_path):
        assert main(["simulate", "--output-dir", str(tmp_path), *TINY_DATA]) == 0
        assert (tmp_path / "train.jsonl").read_bytes() == (tiny_run / "train.jsonl").read_bytes()
        assert (tmp_path / "eval.jsonl").read_bytes() == (tiny_run / "eval.jsonl").read_bytes()

    def test_env_file_is_the_environment_simulated(self, tmp_path):
        hall = default_environment()
        custom = Environment(anchors=hall.anchors[7:], obstacles=hall.obstacles[:1], extent=hall.extent)
        env_path = tmp_path / "custom.json"
        dataio.write_environment(env_path, custom)
        out = tmp_path / "out"
        assert main(["simulate", "--output-dir", str(out), "--env", str(env_path), *TINY_DATA]) == 0
        assert (out / "environment.json").read_bytes() == env_path.read_bytes()
        samples = dataio.read_samples_jsonl(out / "train.jsonl")
        samples += dataio.read_samples_jsonl(out / "eval.jsonl")
        heard = {c.anchor_id for s in samples for c in s.raw_cirs}
        assert heard <= {a.id for a in custom.anchors} and len(heard) > 1
        assert json.loads((out / "simulate_summary.json").read_text())["n_anchors"] == 8


class TestBaseline:
    def test_metrics_written(self, tiny_run, tmp_path):
        rc = main(
            [
                "baseline",
                "--output-dir",
                str(tmp_path),
                "--dataset",
                str(tiny_run / "eval.jsonl"),
                "--env",
                str(tiny_run / "environment.json"),
            ]
        )
        assert rc == 0
        metrics = json.loads((tmp_path / "baseline_metrics.json").read_text())
        assert set(metrics["cep_m"]) == {"50", "75", "90", "95", "99"}
        assert metrics["mae_m"] >= 0
        assert "n_unsolvable" in metrics

    def test_records_why_each_solve_stopped(self, tiny_run, tmp_path):
        dataset, env_path = tiny_run / "eval.jsonl", tiny_run / "environment.json"
        argv = ["baseline", "--output-dir", str(tmp_path), "--dataset", str(dataset), "--env", str(env_path)]
        assert main(argv) == 0
        metrics = json.loads((tmp_path / "baseline_metrics.json").read_text())
        with (tmp_path / "baseline_estimates.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[-2:] == ["stop_reason", "on_bound"]
        # the rows are the solvable samples' estimates, in dataset order
        env = dataio.read_environment(env_path)
        cfg = load_experiment_config(None, [])
        options = SolverOptions.for_environment(env, cfg.environment.tag_height)
        estimates = [e for e in solve_baselines(dataio.read_samples_jsonl(dataset), env.anchors, options) if e]
        assert [(r["stop_reason"], r["on_bound"]) for r in rows] == [
            (e.stop_reason, str(int(e.on_bound))) for e in estimates
        ]
        assert set(metrics["stop_reasons"]) == set(STOP_REASONS)
        assert metrics["stop_reasons"] == {k: sum(r["stop_reason"] == k for r in rows) for k in STOP_REASONS}
        assert sum(metrics["stop_reasons"].values()) == metrics["n_samples"] == len(rows)
        assert metrics["on_bound_share"] == np.mean([e.on_bound for e in estimates])

    def test_solves_on_the_plane_of_the_tag_height(self, tmp_path):
        """Tags simulated at 1.5 m are solved on z = 1.5, the one tag height
        both commands read, not on a plane of the solver's own."""
        height = ["--set", "environment.tag_height=1.5"]
        assert main(["simulate", "--output-dir", str(tmp_path), *TINY_DATA, *height]) == 0
        dataset = dataio.read_samples_jsonl(tmp_path / "eval.jsonl")
        assert {float(s.true_position[2]) for s in dataset} == {1.5}
        dataset_path = str(tmp_path / "eval.jsonl")
        assert main(["baseline", "--output-dir", str(tmp_path), "--dataset", dataset_path, *height]) == 0
        mae = json.loads((tmp_path / "baseline_metrics.json").read_text())["mae_m"]

        env = dataio.read_environment(tmp_path / "environment.json")

        def plane_mae(z):
            estimates = solve_baselines(dataset, env.anchors, SolverOptions.for_environment(env, fix_z=z))
            solved = [(s.true_position, e.position) for s, e in zip(dataset, estimates) if e is not None]
            truths, positions = (np.array(column) for column in zip(*solved))
            return metrics_report(positions, truths).mae

        assert mae == plane_mae(1.5)
        assert mae != plane_mae(1.0)


class TestTrainEvaluate:
    def test_train_then_evaluate(self, tiny_run, tmp_path):
        rc = main(
            [
                "train",
                "--output-dir",
                str(tmp_path),
                "--env",
                str(tiny_run / "environment.json"),
                "--dataset",
                str(tiny_run / "train.jsonl"),
                "--eval-dataset",
                str(tiny_run / "eval.jsonl"),
                *TINY_MODEL,
            ]
        )
        assert rc == 0
        assert (tmp_path / "checkpoint.npz").exists()
        assert (tmp_path / "history.csv").read_text().startswith("epoch,train_loss,val_loss,lr")
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics["cep_m"]) == {"50", "75", "90", "95", "99"}

        rc = main(
            [
                "evaluate",
                "--output-dir",
                str(tmp_path / "eval_out"),
                "--checkpoint",
                str(tmp_path / "checkpoint.npz"),
                "--dataset",
                str(tiny_run / "eval.jsonl"),
                "--env",
                str(tiny_run / "environment.json"),
            ]
        )
        assert rc == 0
        metrics = json.loads((tmp_path / "eval_out" / "metrics.json").read_text())
        assert "baseline_mae_m" in metrics and "n_unsolvable" in metrics
        assert (tmp_path / "eval_out" / "estimates.csv").exists()
        # train and evaluate share one evaluate-and-write path
        for name in ("metrics.json", "estimates.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "eval_out" / name).read_bytes()

    def test_history_counts_each_epochs_minor_page_faults(self, tiny_run, tmp_path):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rc = main(
            [
                "train",
                "--output-dir",
                str(tmp_path),
                "--env",
                str(tiny_run / "environment.json"),
                "--dataset",
                str(tiny_run / "train.jsonl"),
                *TINY_MODEL,
            ]
        )
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert rc == 0
        with open(tmp_path / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and list(rows[0])[-1] == "minor_faults"
        counts = [int(row["minor_faults"]) for row in rows]
        # the epochs' counts are parts of the run's own: none negative, and
        # together no more than the process faulted while the command ran
        assert min(counts) >= 0 and sum(counts) <= faults

    def test_only_the_default_eval_dataset_may_be_absent(self, tiny_run, tmp_path, capsys):
        args = [
            "train",
            "--output-dir",
            str(tmp_path),
            "--env",
            str(tiny_run / "environment.json"),
            "--dataset",
            str(tiny_run / "train.jsonl"),
            *TINY_MODEL,
        ]
        missing = tmp_path / "no_such_eval.jsonl"
        assert main([*args, "--eval-dataset", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and str(missing) in err
        assert not (tmp_path / "checkpoint.npz").exists()  # failed before training

        assert main(args) == 0  # <output-dir>/eval.jsonl is absent: train only
        assert (tmp_path / "checkpoint.npz").exists()
        assert not (tmp_path / "metrics.json").exists()


def two_anchor_dataset(tiny_run, tmp_path):
    """The tiny run's evaluation set as received by two anchors: no sample
    can be solved."""
    records = [json.loads(line) for line in (tiny_run / "eval.jsonl").read_text().splitlines()]
    for record in records:
        record["measurements"] = record["measurements"][:2]
    path = tmp_path / "two_anchors.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestErrorExit:
    """A uwbcorr error ends the run with one stderr line and status 2."""

    @pytest.mark.parametrize(
        "setting",
        [f"{key}=abc" for key in _numeric_settings()]
        # keys that became the output layout, training constants or left the
        # model: a file that still sets one is refused at load, naming the key
        + list(LAYOUT_SETTINGS)
        + [f"train.{key}=abc" for key in FOLDED_TRAIN_KEYS]
        + ["model.residual_output=abc"],
    )
    def test_every_setting_is_checked_at_load(self, tmp_path, capsys, setting):
        out = tmp_path / "out"
        assert main(["simulate", "--output-dir", str(out), "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert setting.split("=")[0].split(".")[-1] in err  # names the field
        assert not out.exists()  # nothing written

    def test_evaluate_on_a_corrupt_checkpoint(self, tiny_run, tmp_path, capsys):
        path, arrays = self._checkpoint_arrays(tiny_run, tmp_path)
        name = next(k for k in arrays if k != "__meta__")
        arrays[name] = arrays[name][:-1]  # one row short
        np.savez(path, **arrays)
        assert self._evaluate(tiny_run, tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: {path}: parameter {name!r} has shape")
        assert err.count("\n") == 1

    def test_evaluate_on_a_file_that_is_not_an_npz(self, tiny_run, tmp_path, capsys):
        text = tmp_path / "junk.npz"
        text.write_text("garbage")  # 7 bytes of text
        array = tmp_path / "array.npy"
        np.save(array, np.zeros(3))
        for path in (text, array):
            assert self._evaluate(tiny_run, tmp_path, path) == 2
            assert capsys.readouterr().err == f"error: ConfigError: {path}: not an .npz checkpoint\n"
            assert not (tmp_path / "out").exists()  # the checkpoint is read before the directory is made

    def test_evaluate_on_metadata_that_is_not_json(self, tiny_run, tmp_path, capsys):
        path = tmp_path / "checkpoint.npz"
        np.savez(path, __meta__=np.array("{not json"), cls=np.zeros(8))
        assert self._evaluate(tiny_run, tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: {path}: '__meta__' is not JSON: ")
        assert err.count("\n") == 1

    def test_evaluate_on_a_checkpoint_with_a_rejected_config_value(self, tiny_run, tmp_path, capsys):
        path, arrays = self._checkpoint_arrays(tiny_run, tmp_path)
        meta = json.loads(str(arrays["__meta__"]))
        meta["config"]["l_patch"] = 7
        arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        assert self._evaluate(tiny_run, tmp_path, path) == 2
        assert capsys.readouterr().err == (
            f"error: ConfigError: {path}: l_patch must divide 150, got 7\n"
        )

    def test_evaluate_without_a_solvable_sample(self, tiny_run, tmp_path, capsys):
        checkpoint, _ = self._checkpoint_arrays(tiny_run, tmp_path)
        path = two_anchor_dataset(tiny_run, tmp_path)
        assert self._evaluate(tiny_run, tmp_path, checkpoint, path) == 2
        assert capsys.readouterr().err == (
            f"error: InsufficientDataError: {path}: no solvable samples to evaluate\n"
        )
        assert not (tmp_path / "out").exists()  # solved before the directory is made

    def test_evaluate_a_multi_cir_checkpoint_on_another_anchor_count(self, tiny_run, tmp_path, capsys):
        """A multi-CIR patch holds one CIR per anchor, so a checkpoint for 15
        anchors is refused on a 10-anchor environment before any solve; a
        per-CIR checkpoint runs there, since its token count varies anyway."""
        hall = default_environment()
        ten = Environment(anchors=hall.anchors[:10], obstacles=(), extent=hall.extent)
        run = tmp_path / "ten"
        dataio.write_environment(run / "environment.json", ten)
        assert main(["simulate", "--output-dir", str(run), "--env", str(run / "environment.json"), *TINY_DATA]) == 0
        capsys.readouterr()
        for patching, encoding, rc in (("multi_cir", "learned", 2), ("per_cir", "spatial", 0)):
            checkpoint = tmp_path / f"{patching}.npz"
            cfg = make_model_config(patching, "fixed", encoding, 150, 8, env=hall, n_heads=2)
            save_checkpoint(CorrectionModel.initialize(cfg), checkpoint)
            assert self._evaluate(run, tmp_path, checkpoint) == rc
            assert (tmp_path / "out").exists() == (rc == 0)
        assert capsys.readouterr().err == (
            f"error: ConfigError: {tmp_path / 'multi_cir.npz'}: a multi_cir checkpoint for "
            "n_total=15 anchors cannot run on an environment of 10\n"
        )

    def test_evaluate_a_learned_checkpoint_on_more_anchors(self, tiny_run, tmp_path, capsys):
        """A learned encoding has a table row per token of its n_total anchors,
        so a checkpoint for 15 anchors is refused on a 16-anchor environment
        before any solve, naming the checkpoint; on 15 anchors it runs."""
        hall = default_environment()
        sixteen = Environment(
            anchors=(*hall.anchors, Anchor(16, [15.0, 5.0, 2.9])), obstacles=hall.obstacles, extent=hall.extent
        )
        run = tmp_path / "sixteen"
        dataio.write_environment(run / "environment.json", sixteen)
        checkpoint = tmp_path / "learned.npz"
        cfg = make_model_config("per_cir", "fixed", "learned", 150, 8, env=hall, n_heads=2)
        save_checkpoint(CorrectionModel.initialize(cfg), checkpoint)
        assert self._evaluate(run, tmp_path, checkpoint, tiny_run / "eval.jsonl") == 2
        assert capsys.readouterr().err == (
            f"error: ConfigError: {checkpoint}: a learned-encoding checkpoint for "
            "n_total=15 anchors cannot run on an environment of 16\n"
        )
        assert not (tmp_path / "out").exists()
        assert self._evaluate(tiny_run, tmp_path, checkpoint) == 0

    def _checkpoint_arrays(self, tiny_run, tmp_path):
        """A saved checkpoint's path and its arrays, to edit and save back."""
        env = dataio.read_environment(tiny_run / "environment.json")
        model = CorrectionModel.initialize(
            make_model_config("per_cir", "fixed", "spatial", 150, 8, env=env, n_heads=2)
        )
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(model, path)
        with np.load(path) as data:
            return path, {k: data[k] for k in data.files}

    def _evaluate(self, tiny_run, tmp_path, checkpoint, dataset=None):
        return main(
            [
                "evaluate",
                "--output-dir",
                str(tmp_path / "out"),
                "--checkpoint",
                str(checkpoint),
                "--dataset",
                str(dataset or tiny_run / "eval.jsonl"),
                "--env",
                str(tiny_run / "environment.json"),
            ]
        )

    def _baseline(self, tiny_run, tmp_path, dataset):
        return main(
            [
                "baseline",
                "--output-dir",
                str(tmp_path / "out"),
                "--dataset",
                str(dataset),
                "--env",
                str(tiny_run / "environment.json"),
            ]
        )

    def test_baseline_on_a_malformed_line(self, tiny_run, tmp_path, capsys):
        lines = (tiny_run / "eval.jsonl").read_text().splitlines()
        lines[1] = json.dumps({"sample_id": 1, "true_position": [1.0, 2.0, 1.0]})
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert self._baseline(tiny_run, tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err == f"error: DatasetFormatError: {path}:2: missing field 'measurements'\n"
        assert not (tmp_path / "out").exists()  # the dataset is read before the directory is made

    def test_baseline_on_a_line_without_measurements(self, tiny_run, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"true_position": [1.0, 2.0, 1.0], "measurements": []}) + "\n")
        assert self._baseline(tiny_run, tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: DatasetFormatError: {path}:1: malformed record: "
            "a sample needs at least one receiving anchor\n"
        )

    def test_baseline_on_a_non_finite_reception_time(self, tiny_run, tmp_path, capsys):
        lines = (tiny_run / "eval.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["measurements"][0]["rx_time_s"] = float("nan")
        lines[0] = json.dumps(record)  # writes NaN
        path = tmp_path / "nan.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert self._baseline(tiny_run, tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: DatasetFormatError: {path}:1: malformed record: "
            "rx_time must be a finite number, got nan\n"
        )
        assert not (tmp_path / "out").exists()

    def test_baseline_without_a_solvable_sample(self, tiny_run, tmp_path, capsys):
        path = two_anchor_dataset(tiny_run, tmp_path)
        assert self._baseline(tiny_run, tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err == f"error: InsufficientDataError: {path}: no solvable samples\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("anchor_id", ["1", 1.5, True])
    def test_baseline_with_an_anchor_id_that_is_not_an_integer(self, tiny_run, tmp_path, capsys, anchor_id):
        payload = json.loads((tiny_run / "environment.json").read_text())
        payload["anchors"][0]["id"] = anchor_id
        run = tmp_path / "run"
        run.mkdir()
        (run / "environment.json").write_text(json.dumps(payload))
        assert self._baseline(run, tmp_path, tiny_run / "eval.jsonl") == 2
        assert capsys.readouterr().err == (
            f"error: DatasetFormatError: {run / 'environment.json'}: bad environment value: "
            f"anchor id must be an integer, got {anchor_id!r}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["baseline", "train", "evaluate"])
    def test_a_dataset_naming_an_anchor_the_environment_lacks(
        self, tiny_run, tmp_path, capsys, tiny_checkpoint, command
    ):
        name = "train.jsonl" if command == "train" else "eval.jsonl"
        lines = (tiny_run / name).read_text().splitlines()
        record = json.loads(lines[0])
        record["measurements"][0]["anchor_id"] = 99
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in [json.dumps(record), *lines[1:]]))
        run = {
            "baseline": lambda: self._baseline(tiny_run, tmp_path, path),
            "train": lambda: self._train(tiny_run, tmp_path, path),
            "evaluate": lambda: self._evaluate(tiny_run, tmp_path, tiny_checkpoint, path),
        }[command]
        assert run() == 2
        assert capsys.readouterr().err == (
            f"error: MissingAnchorError: {path}: no position known for anchor id 99\n"
        )
        assert not (tmp_path / "out").exists()

    def test_simulate_outside_the_extent(self, tmp_path, capsys):
        out = tmp_path / "out"
        setting = ["--set", "environment.tag_height=5.0"]  # above the 3 m ceiling
        assert main(["simulate", "--output-dir", str(out), *TINY_DATA, *setting]) == 2
        err = capsys.readouterr().err
        # the setting is checked against the environment's z extent as the command loads it
        want = "environment.tag_height must lie in the environment's z range [0.0, 3.0], got 5.0"
        assert err == f"error: ConfigError: {want}\n"
        assert not out.exists()  # before any dataset is generated or the directory is made

    def _train(self, tiny_run, tmp_path, dataset):
        return main(
            [
                "train",
                "--output-dir",
                str(tmp_path / "out"),
                "--dataset",
                str(dataset),
                "--env",
                str(tiny_run / "environment.json"),
                *TINY_MODEL,
            ]
        )

    @pytest.mark.parametrize(
        "n_lines, shown", [(0, "no samples"), (1, "need at least 2 solvable samples to train")]
    )
    def test_train_on_too_few_samples(self, tiny_run, tmp_path, capsys, n_lines, shown):
        path = tmp_path / "few.jsonl"
        path.write_text("".join((tiny_run / "train.jsonl").read_text().splitlines(keepends=True)[:n_lines]))
        assert self._train(tiny_run, tmp_path, path) == 2
        assert capsys.readouterr().err == f"error: InsufficientDataError: {path}: {shown}\n"
        assert not (tmp_path / "out").exists()  # refused or trained before the directory is made

    def test_other_exceptions_keep_their_traceback(self, tiny_run, tmp_path):
        folder = tmp_path / "a_folder"  # an input path that names a directory
        folder.mkdir()
        with pytest.raises(IsADirectoryError):
            self._baseline(tiny_run, tmp_path, folder)
        with pytest.raises(IsADirectoryError):
            self._evaluate(tiny_run, tmp_path, folder)

    @pytest.mark.parametrize("value, shown", [("0", "0"), ("two", "'two'")])
    def test_train_with_a_bad_epoch_count(self, tiny_run, tmp_path, capsys, monkeypatch, value, shown):
        solves = []
        monkeypatch.setattr("uwbcorr.training.solve_baselines", lambda *a, **k: solves.append(a))
        rc = main(
            [
                "train",
                "--output-dir",
                str(tmp_path),
                "--env",
                str(tiny_run / "environment.json"),
                "--dataset",
                str(tiny_run / "train.jsonl"),
                *TINY_MODEL,
                "--set",
                f"train.max_epochs={value}",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: ConfigError: max_epochs must be an integer >= 1, got {shown}\n"
        )
        assert solves == []
        assert not (tmp_path / "checkpoint.npz").exists()

    @pytest.mark.parametrize(
        "override, shown",
        [
            ("model.d_model=abc", "d_model must be an integer >= 1, got 'abc'"),
            ("model.n_layers=0", "n_layers must be an integer >= 1, got 0"),
            ("model.dropout_p=x", "dropout_p must be a number in [0, 1), got 'x'"),
        ],
    )
    def test_train_with_a_bad_model_size(self, tiny_run, tmp_path, capsys, monkeypatch, override, shown):
        reads = []
        monkeypatch.setattr("uwbcorr.dataio.read_samples_jsonl", lambda *a: reads.append(a))
        rc = main(
            [
                "train",
                "--output-dir",
                str(tmp_path),
                "--env",
                str(tiny_run / "environment.json"),
                "--dataset",
                str(tiny_run / "train.jsonl"),
                *TINY_MODEL,
                "--set",
                override,
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: ConfigError: {shown}\n"
        assert reads == []
        assert not (tmp_path / "checkpoint.npz").exists()

    @pytest.mark.parametrize(
        "override, shown",
        [
            ("train.lr_peak=0.002", "unknown keys in section 'train': ['lr_peak']"),
            ("train.seed=abc", "seed must be an integer >= 0, got 'abc'"),
            ("seed=abc", "seed must be an integer >= 0, got 'abc'"),
            ("model=3", "section 'model' must be a JSON object, got 3"),
        ],
    )
    def test_train_with_a_bad_config_value(self, tiny_run, tmp_path, capsys, monkeypatch, override, shown):
        solves = []
        monkeypatch.setattr("uwbcorr.training.solve_baselines", lambda *a, **k: solves.append(a))
        rc = main(
            [
                "train",
                "--output-dir",
                str(tmp_path),
                "--env",
                str(tiny_run / "environment.json"),
                "--dataset",
                str(tiny_run / "train.jsonl"),
                *TINY_MODEL,
                "--set",
                override,
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: ConfigError: {shown}\n"
        assert solves == []
        assert not (tmp_path / "checkpoint.npz").exists()

    @pytest.mark.parametrize(
        "override, shown",
        [
            # the solve plane is the tag height: a plane above the 3 m ceiling is rejected;
            # the case keeps the id it had when the solver reported the plane as fix_z
            pytest.param(
                "environment.tag_height=5",
                "environment.tag_height must lie in the environment's z range [0.0, 3.0], got 5",
                id="environment.tag_height=5-fix_z must lie in the box's z range [0.0, 3.0], got 5",
            ),
            # the solver settings are tdoa constants: a file that still has the section is refused
            ("solver.bound_margin=1", "unknown config key 'solver'"),
        ],
    )
    def test_baseline_with_a_bad_solver_value(self, tiny_run, tmp_path, capsys, monkeypatch, override, shown):
        reads = []
        monkeypatch.setattr("uwbcorr.dataio.read_samples_jsonl", lambda *a: reads.append(a))
        out = tmp_path / "out"
        rc = main(
            [
                "baseline",
                "--output-dir",
                str(out),
                "--dataset",
                str(tiny_run / "eval.jsonl"),
                "--env",
                str(tiny_run / "environment.json"),
                "--set",
                override,
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: ConfigError: {shown}\n"
        assert reads == []  # the solver box and plane are checked before the dataset is read
        assert not out.exists()  # and before the output directory is made


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "checkpoint.npz"
    config = make_model_config("per_cir", "fixed", "spatial", 150, 8, env=default_environment(), n_heads=2)
    save_checkpoint(CorrectionModel.initialize(config), path)
    return path


class TestMissingInputs:
    """A missing input file ends the run with one stderr line naming it and
    status 2, before the output directory is made."""

    INPUTS = {  # each command's input flags and the tiny run's file for each
        "simulate": {"--env": "environment.json"},
        "baseline": {"--env": "environment.json", "--dataset": "eval.jsonl"},
        "train": {"--env": "environment.json", "--dataset": "train.jsonl", "--eval-dataset": "eval.jsonl"},
        "evaluate": {"--env": "environment.json", "--dataset": "eval.jsonl", "--checkpoint": None},
        "sweep": {"--env": "environment.json", "--dataset": "train.jsonl", "--eval-dataset": "eval.jsonl"},
        "pareto": {"--results": "sweep_results.csv"},
    }

    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in INPUTS.items() for f in flags])
    def test_names_the_file_and_makes_no_directory(
        self, tiny_run, tiny_checkpoint, tmp_path, capsys, command, flag
    ):
        out, missing = tmp_path / "out", tmp_path / "missing.file"
        argv = [command, "--output-dir", str(out), *TINY_MODEL]
        for name, file in self.INPUTS[command].items():
            path = tiny_checkpoint if file is None else tiny_run / file
            argv += [name, str(missing if name == flag else path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and err.count("\n") == 1
        assert f"'{missing}'" in err
        assert not out.exists()


class TestSweepCommand:
    def test_sweep_and_train_seed_training_with_train_seed(self, tiny_run, tmp_path):
        """The first sweep row and a train run of the same model and epochs
        report the same MAE: both train with train.seed, not the top-level seed."""
        data = [
            "--env",
            str(tiny_run / "environment.json"),
            "--dataset",
            str(tiny_run / "train.jsonl"),
            "--eval-dataset",
            str(tiny_run / "eval.jsonl"),
            "--set",
            "train.batch_size=16",
            "--set",
            "train.seed=3",
        ]
        sweep = [
            "--limit",
            "1",
            "--set",
            "sweep.max_epochs=2",
            "--set",
            "sweep.multi_d_model=[8]",
            "--set",
            "sweep.multi_l_patch=[75]",
        ]
        assert main(["sweep", "--output-dir", str(tmp_path / "sweep"), *data, *sweep]) == 0
        (row,) = dataio.read_sweep_rows(tmp_path / "sweep" / "sweep_results.csv")
        assert row["status"] == "ok"
        model = [f"model.{k}={row[k]}" for k in ("patching", "ordering", "encoding", "l_patch", "d_model")]
        sets = [arg for kv in [*model, "train.max_epochs=2"] for arg in ("--set", kv)]
        assert main(["train", "--output-dir", str(tmp_path / "train"), *data, *sets]) == 0
        metrics = json.loads((tmp_path / "train" / "metrics.json").read_text())
        assert row["mae"] == f"{metrics['mae_m']:.6f}"

    def test_limited_sweep_and_pareto(self, tiny_run, tmp_path):
        args = [
            "sweep",
            "--output-dir",
            str(tmp_path),
            "--env",
            str(tiny_run / "environment.json"),
            "--dataset",
            str(tiny_run / "train.jsonl"),
            "--eval-dataset",
            str(tiny_run / "eval.jsonl"),
            "--limit",
            "2",
            "--set",
            "sweep.max_epochs=1",
            "--set",
            "sweep.multi_d_model=[8]",
            "--set",
            "sweep.multi_l_patch=[75]",
            "--set",
            "train.batch_size=16",
        ]
        assert main(args) == 0
        rows = dataio.read_sweep_rows(tmp_path / "sweep_results.csv")
        assert len(rows) == 2
        assert all(r["status"] == "ok" for r in rows)
        # resumable: a second invocation adds nothing
        assert main(args) == 0
        assert len(dataio.read_sweep_rows(tmp_path / "sweep_results.csv")) == 2
        pareto = dataio.read_sweep_rows(tmp_path / "pareto.csv")
        assert 1 <= len(pareto) <= 2
        for row in pareto:
            for other in pareto:
                if row is other:
                    continue
                assert not (
                    float(other["total_ops"]) <= float(row["total_ops"])
                    and float(other["mae"]) < float(row["mae"])
                )

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_a_limit_below_one_is_rejected(self, tiny_run, tmp_path, capsys, limit):
        rc = main(
            [
                "sweep",
                "--output-dir",
                str(tmp_path / "out"),
                "--env",
                str(tiny_run / "environment.json"),
                "--dataset",
                str(tiny_run / "train.jsonl"),
                "--eval-dataset",
                str(tiny_run / "eval.jsonl"),
                "--limit",
                limit,
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: ConfigError: --limit must be an integer >= 1, got {limit}\n"
        assert not (tmp_path / "out").exists()  # no sweep_results.csv, nothing written


    @pytest.mark.parametrize("flag", ["--dataset", "--eval-dataset"])
    def test_an_empty_dataset_is_refused_before_training(self, tiny_run, tmp_path, capsys, flag):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        files = {"--dataset": tiny_run / "train.jsonl", "--eval-dataset": tiny_run / "eval.jsonl", flag: empty}
        argv = ["sweep", "--output-dir", str(tmp_path / "out"), "--env", str(tiny_run / "environment.json")]
        # pytest turns warnings into errors here, so numpy's mean of an empty slice would fail it
        assert main([*argv, *(str(a) for kv in files.items() for a in kv), "--limit", "1"]) == 2
        assert capsys.readouterr().err == f"error: InsufficientDataError: {empty}: no samples\n"
        assert not (tmp_path / "out").exists()  # nothing trained, nothing written


    def test_an_empty_table_gets_a_header(self, tiny_run, tmp_path, monkeypatch):
        """A 0-byte sweep_results.csv is a table with no rows: the first row
        goes under a header, so a rerun skips it and the Pareto front has it.
        The sweep reads the simulate run's files in --output-dir."""
        for name in ("environment.json", "train.jsonl", "eval.jsonl"):
            (tmp_path / name).write_bytes((tiny_run / name).read_bytes())
        (tmp_path / "sweep_results.csv").write_text("")
        trained = []
        monkeypatch.setattr("uwbcorr.cli.train", lambda *a, **k: trained.append(a[2]) or train(*a, **k))
        sets = ["sweep.max_epochs=1", "sweep.multi_d_model=[8]", "sweep.multi_l_patch=[75]", "train.batch_size=16"]
        argv = ["sweep", "--output-dir", str(tmp_path), *(a for kv in sets for a in ("--set", kv))]
        assert main([*argv, "--limit", "1"]) == 0
        assert [r["status"] for r in dataio.read_sweep_rows(tmp_path / "sweep_results.csv")] == ["ok"]
        assert len(dataio.read_sweep_rows(tmp_path / "pareto.csv")) == 1
        assert main([*argv, "--limit", "2"]) == 0
        assert [c.ordering for c in trained] == ["fixed", "time_based"]  # the rerun trained configuration 2 only
        assert len(dataio.read_sweep_rows(tmp_path / "sweep_results.csv")) == 2

    def test_a_table_to_resume_without_a_key_column_fails_before_training(
        self, tiny_run, tmp_path, capsys, monkeypatch
    ):
        columns = [c for c in dataio.SWEEP_COLUMNS if c != "d_model"]
        dataio.write_table(tmp_path / "sweep_results.csv", [dict.fromkeys(columns, "1")], columns)
        trained = []
        monkeypatch.setattr("uwbcorr.cli.train", lambda *a, **k: trained.append(a))
        argv = ["sweep", "--output-dir", str(tmp_path), "--env", str(tiny_run / "environment.json")]
        files = ["--dataset", str(tiny_run / "train.jsonl"), "--eval-dataset", str(tiny_run / "eval.jsonl")]
        assert main([*argv, *files, "--limit", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: DatasetFormatError: {tmp_path / 'sweep_results.csv'}: row 1: no 'd_model' column\n"
        )
        assert trained == [] and not (tmp_path / "pareto.csv").exists()


class TestSweepFailureHandling:
    def test_bad_config_recorded_and_sweep_continues(self, tiny_run, tmp_path):
        rc = main(
            [
                "sweep",
                "--output-dir",
                str(tmp_path),
                "--env",
                str(tiny_run / "environment.json"),
                "--dataset",
                str(tiny_run / "train.jsonl"),
                "--eval-dataset",
                str(tiny_run / "eval.jsonl"),
                "--limit",
                "2",
                "--set",
                "sweep.max_epochs=1",
                "--set",
                "sweep.multi_l_patch=[7,75]",  # 7 does not divide 150
                "--set",
                "sweep.multi_d_model=[8]",
                "--set",
                "train.batch_size=16",
            ]
        )
        assert rc == 0
        rows = dataio.read_sweep_rows(tmp_path / "sweep_results.csv")
        assert len(rows) == 2
        statuses = sorted(r["status"][:5] for r in rows)
        assert statuses == ["error", "ok"]
        bad = next(r for r in rows if r["l_patch"] == "7")
        assert bad["status"] == "error:ConfigError: l_patch must divide 150, got 7"


class TestParetoCommand:
    def test_keeps_the_non_dominated_ok_rows_as_written(self, tmp_path):
        header = ",".join(dataio.SWEEP_COLUMNS)
        rows = {
            "cheap": "multi_cir,fixed,learned,75,8,1000,3.0,1,2,3,4,5.0,ok",
            "tie_a": "per_cir,fixed,spatial,150,32,2e3,2.50,1.5,2,2,3,4,ok",
            "tie_b": "per_cir,time_based,spatial,150,32,2000,2.5,1.25,2,2,3,4,ok",
            "dominated": "per_cir,fixed,learned,75,64,3000,2.75,1,2,3,4,5,ok",
            "error": "multi_cir,fixed,learned,7,8,10,0.5,,,,,,error:ConfigError: boom",
            "accurate": "per_cir,fixed,spatial_time,30,128,4000.0,1.500000,1,1,1,1,1,ok",
        }
        results = tmp_path / "sweep_results.csv"
        results.write_text("\r\n".join([header, *rows.values()]) + "\r\n")
        assert main(["pareto", "--output-dir", str(tmp_path), "--results", str(results)]) == 0
        front = ["cheap", "tie_a", "tie_b", "accurate"]
        expected = "\r\n".join([header, *(rows[k] for k in front)]) + "\r\n"
        assert (tmp_path / "pareto.csv").read_bytes() == expected.encode()


    @pytest.mark.parametrize(
        "edit, shown",
        [
            (lambda row: row.replace(",1000,", ",abc,"), "row 1: 'total_ops' is 'abc', not a finite number"),
            (lambda row: row.replace(",3.0,", ",nan,"), "row 1: 'mae' is 'nan', not a finite number"),
            (lambda row: row.rsplit(",", 1)[0], "row 1: no 'status' column"),
        ],
    )
    def test_a_bad_ok_row_fails_before_the_directory_is_made(self, tmp_path, capsys, edit, shown):
        header = ",".join(dataio.SWEEP_COLUMNS)
        good = "per_cir,fixed,spatial,150,32,2000,2.5,1,2,3,4,5,ok"
        results, out = tmp_path / "sweep_results.csv", tmp_path / "out"
        results.write_text("\n".join([header, edit("multi_cir,fixed,learned,75,8,1000,3.0,1,2,3,4,5.0,ok"), good]))
        assert main(["pareto", "--output-dir", str(out), "--results", str(results)]) == 2
        assert capsys.readouterr().err == f"error: DatasetFormatError: {results}: {shown}\n"
        assert not out.exists()

    def test_a_table_without_total_ops_fails_before_the_directory_is_made(self, tmp_path, capsys):
        columns = [c for c in dataio.SWEEP_COLUMNS if c != "total_ops"]
        results, out = tmp_path / "sweep_results.csv", tmp_path / "out"
        dataio.write_table(results, [{**dict.fromkeys(columns, "1"), "status": "error:X"}], columns)
        dataio.write_table(results, [{**dict.fromkeys(columns, "1"), "status": "ok"}], columns, append=True)
        assert main(["pareto", "--output-dir", str(out), "--results", str(results)]) == 2
        assert capsys.readouterr().err == f"error: DatasetFormatError: {results}: row 2: no 'total_ops' column\n"
        assert not out.exists()


class TestParser:
    def test_flag_sets(self):
        common = {"-h", "--help", "--config", "--output-dir", "--set"}
        expected = {
            "simulate": {"--env"},
            "baseline": {"--dataset", "--env"},
            "train": {"--dataset", "--eval-dataset", "--env"},
            "evaluate": {"--checkpoint", "--dataset", "--env"},
            "sweep": {"--dataset", "--eval-dataset", "--env", "--limit"},
            "complexity": {"--n-total", "--n-av"},
            "pareto": {"--results"},
        }
        (subcommands,) = (
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(subcommands.choices) == set(expected)
        for name, parser in subcommands.choices.items():
            flags = {s for a in parser._actions for s in a.option_strings}
            assert flags == common | expected[name], name


class TestComplexityCommand:
    @pytest.mark.parametrize("n_av", ["nan", "-1", "20"])
    def test_a_bad_n_av_fails_before_the_directory_is_made(self, tmp_path, capsys, n_av):
        out = tmp_path / "out"
        assert main(["complexity", "--output-dir", str(out), f"--n-av={n_av}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: ConfigError: n_av must be a number in [0, n_total=15], got {float(n_av)!r}\n"
        assert not out.exists()

    def test_writes_full_grid(self, tmp_path):
        rc = main(["complexity", "--output-dir", str(tmp_path), "--n-total", "15", "--n-av", "6"])
        assert rc == 0
        import csv

        with (tmp_path / "complexity.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 252
        assert all(float(r["total_ops"]) > 0 for r in rows)
