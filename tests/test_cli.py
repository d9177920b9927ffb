import json

import pytest

from uwbcorr import dataio
from uwbcorr.cli import main
from uwbcorr.config import (
    SweepSpec,
    apply_overrides,
    enumerate_sweep,
    load_experiment_config,
)
from uwbcorr.errors import IncompatibleEncodingError


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

    def test_invalid_combination_rejected_at_validation(self, tiny_run):
        cfg = load_experiment_config(None, ["model.patching=multi_cir", "model.encoding=spatial", "model.l_patch=15"])
        env = dataio.read_environment(tiny_run / "environment.json")
        with pytest.raises(IncompatibleEncodingError):
            cfg.model.build(env)

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
                "--max-epochs",
                "2",
                "--set",
                "model.d_model=8",
                "--set",
                "model.n_heads=2",
                "--set",
                "model.n_layers=1",
                "--set",
                "train.batch_size=16",
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


class TestSweepCommand:
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


class TestComplexityCommand:
    def test_writes_full_grid(self, tmp_path):
        rc = main(["complexity", "--output-dir", str(tmp_path), "--n-total", "15", "--n-av", "6"])
        assert rc == 0
        import csv

        with (tmp_path / "complexity.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 252
        assert all(float(r["total_ops"]) > 0 for r in rows)
