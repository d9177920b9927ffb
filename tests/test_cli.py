import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from uwbcorr import CorrectionModel, dataio, default_environment, make_model_config, save_checkpoint
from uwbcorr.cli import build_parser, main
from uwbcorr.config import (
    ExperimentConfig,
    ModelSpec,
    SweepSpec,
    apply_overrides,
    enumerate_sweep,
    load_experiment_config,
)
from uwbcorr.errors import ConfigError, IncompatibleEncodingError
from uwbcorr.model import ModelConfig


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


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A small simulate run shared by the command tests."""
    out = tmp_path_factory.mktemp("run")
    rc = main(
        [
            "simulate",
            "--output-dir",
            str(out),
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
    )
    assert rc == 0
    return out


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
        payload = apply_overrides({}, ["model.d_model=128", "solver.fix_z=null", "output_dir=x"])
        assert payload["model"]["d_model"] == 128
        assert payload["solver"]["fix_z"] is None
        assert payload["output_dir"] == "x"
        with pytest.raises(ConfigError, match="override 'model.d_model=4': 'model' is not a section"):
            apply_overrides({"model": 3}, ["model.d_model=4"])

    def test_invalid_combination_rejected_at_validation(self, tiny_run):
        cfg = load_experiment_config(None, ["model.patching=multi_cir", "model.encoding=spatial", "model.l_patch=15"])
        env = dataio.read_environment(tiny_run / "environment.json")
        with pytest.raises(IncompatibleEncodingError):
            cfg.model.build(env)

    def test_model_section_matches_the_model_config(self):
        """Every model-section field is a ModelConfig field, and the section's
        defaults build the paper's default config."""
        model_fields = {f.name for f in fields(ModelConfig)}
        assert {f.name for f in fields(ModelSpec)} <= model_fields
        env = default_environment()
        assert ExperimentConfig().model.build(env) == make_model_config(
            "per_cir", "fixed", "spatial", 150, 64, env=env
        )

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9, "model": {"d_model": 32}}))
        cfg = load_experiment_config(path, ["model.l_patch=75"])
        assert cfg.seed == 9
        assert cfg.model.d_model == 32 and cfg.model.l_patch == 75


class TestSimulate:
    def test_outputs_exist(self, tiny_run):
        assert (tiny_run / "train.jsonl").exists()
        assert (tiny_run / "eval.jsonl").exists()
        assert (tiny_run / "environment.json").exists()
        assert (tiny_run / "anchors.json").exists()
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
        rc = main(
            [
                "simulate",
                "--output-dir",
                str(tmp_path),
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
        )
        assert rc == 0
        assert (tmp_path / "train.jsonl").read_bytes() == (tiny_run / "train.jsonl").read_bytes()
        assert (tmp_path / "eval.jsonl").read_bytes() == (tiny_run / "eval.jsonl").read_bytes()


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

    def test_only_the_default_eval_dataset_may_be_absent(self, tiny_run, tmp_path):
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
        with pytest.raises(FileNotFoundError, match="no_such_eval.jsonl"):
            main([*args, "--eval-dataset", str(missing)])
        assert not (tmp_path / "checkpoint.npz").exists()  # failed before training

        assert main(args) == 0  # <output-dir>/eval.jsonl is absent: train only
        assert (tmp_path / "checkpoint.npz").exists()
        assert not (tmp_path / "metrics.json").exists()


class TestErrorExit:
    """A uwbcorr error ends the run with one stderr line and status 2."""

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

    def _evaluate(self, tiny_run, tmp_path, checkpoint):
        return main(
            [
                "evaluate",
                "--output-dir",
                str(tmp_path / "out"),
                "--checkpoint",
                str(checkpoint),
                "--dataset",
                str(tiny_run / "eval.jsonl"),
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

    def test_baseline_on_a_line_without_measurements(self, tiny_run, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"true_position": [1.0, 2.0, 1.0], "measurements": []}) + "\n")
        assert self._baseline(tiny_run, tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: DatasetFormatError: {path}:1: malformed record: "
            "a sample needs at least one receiving anchor\n"
        )

    def test_baseline_without_a_solvable_sample(self, tiny_run, tmp_path, capsys):
        records = [json.loads(line) for line in (tiny_run / "eval.jsonl").read_text().splitlines()]
        for record in records:
            record["measurements"] = record["measurements"][:2]  # two anchors: no fix
        path = tmp_path / "two_anchors.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert self._baseline(tiny_run, tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err == f"error: InsufficientDataError: {path}: no solvable samples\n"
        assert not (tmp_path / "out" / "baseline_metrics.json").exists()

    def test_other_exceptions_keep_their_traceback(self, tiny_run, tmp_path):
        with pytest.raises(FileNotFoundError):
            self._baseline(tiny_run, tmp_path, tmp_path / "absent.jsonl")
        with pytest.raises(FileNotFoundError):
            self._evaluate(tiny_run, tmp_path, tmp_path / "absent.npz")

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
            ('model.residual_output="no"', "residual_output must be a bool, got 'no'"),
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
            ("train.lr_peak=abc", "lr_peak must be a finite positive number, got 'abc'"),
            ("train.lr_peak=-1", "lr_peak must be a finite positive number, got -1"),
            ("train.warmup_fraction=x", "warmup_fraction must be a number in (0, 1), got 'x'"),
            ("train.validation_fraction=x", "validation_fraction must be a number in (0, 1), got 'x'"),
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
            # the default hall is 10 m deep: -5 m on each side leaves no y range
            (
                "solver.bound_margin=-5",
                "solver box must have lo < hi on x and y and lo <= hi on z, "
                "got lo (5, 5, 0.0), hi (25.0, 5.0, 3.0)",
            ),
            (
                "solver.bound_margin=-6",
                "solver box must have lo < hi on x and y and lo <= hi on z, "
                "got lo (6, 6, 0.0), hi (24.0, 4.0, 3.0)",
            ),
            ("solver.fix_z=abc", "fix_z must be a finite number or null, got 'abc'"),
            ("solver.bound_margin=abc", "bound_margin must be a number or null, got 'abc'"),
        ],
    )
    def test_baseline_with_a_bad_solver_value(self, tiny_run, tmp_path, capsys, override, shown):
        rc = main(
            [
                "baseline",
                "--output-dir",
                str(tmp_path),
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
        assert not (tmp_path / "baseline_metrics.json").exists()


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


class TestParser:
    def test_flag_sets(self):
        common = {"-h", "--help", "--config", "--output-dir", "--set"}
        expected = {
            "simulate": set(),
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
    def test_writes_full_grid(self, tmp_path):
        rc = main(["complexity", "--output-dir", str(tmp_path), "--n-total", "15", "--n-av", "6"])
        assert rc == 0
        import csv

        with (tmp_path / "complexity.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 252
        assert all(float(r["total_ops"]) > 0 for r in rows)
