import json

import numpy as np
import pytest

from uwbcorr import dataio
from uwbcorr.errors import DatasetFormatError
from uwbcorr.simulate import ChannelConfig, default_environment, generate_dataset


def test_samples_jsonl_round_trip(tmp_path, small_env, small_dataset):
    path = tmp_path / "ds.jsonl"
    dataio.write_samples_jsonl(path, small_dataset)
    back = dataio.read_samples_jsonl(path)
    assert len(back) == len(small_dataset)
    for a, b in zip(small_dataset, back):
        assert np.allclose(a.true_position, b.true_position)
        assert [c.anchor_id for c in a.raw_cirs] == [c.anchor_id for c in b.raw_cirs]
        for ca, cb in zip(a.raw_cirs, b.raw_cirs):
            assert ca.rx_time == cb.rx_time
            assert ca.first_path_index == cb.first_path_index
            assert np.allclose(ca.iq, cb.iq, atol=1e-6)  # CIRs rounded on write


def test_write_is_byte_identical_across_runs(tmp_path, small_env):
    points = [np.array([2.0, 3.0, 1.0]), np.array([8.0, 7.0, 1.0])]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    dataio.write_samples_jsonl(p1, generate_dataset(small_env, points, 0.4, 5, ChannelConfig()))
    dataio.write_samples_jsonl(p2, generate_dataset(small_env, points, 0.4, 5, ChannelConfig()))
    assert p1.read_bytes() == p2.read_bytes()


def test_environment_round_trip(tmp_path):
    env = default_environment()
    path = tmp_path / "env.json"
    dataio.write_environment(path, env)
    back = dataio.read_environment(path)
    assert back.extent == env.extent
    assert len(back.anchors) == len(env.anchors)
    for a, b in zip(env.anchors, back.anchors):
        assert a.id == b.id and np.allclose(a.position, b.position)
    for a, b in zip(env.obstacles, back.obstacles):
        assert np.allclose(a.lo, b.lo) and np.allclose(a.hi, b.hi)


def test_anchors_file_round_trip(tmp_path):
    env = default_environment()
    path = tmp_path / "anchors.json"
    dataio.write_anchors(path, env.anchors)
    back = dataio.load_anchors(path)
    assert len(back) == 15
    assert all(a.id == b.id and np.allclose(a.position, b.position) for a, b in zip(env.anchors, back))


def test_sweep_rows_round_trip(tmp_path):
    path = tmp_path / "sweep.csv"
    row = {
        "patching": "per_cir",
        "ordering": "fixed",
        "encoding": "spatial",
        "l_patch": 150,
        "d_model": 64,
        "total_ops": "123456",
        "mae": "0.5",
        "cep50": "0.3",
        "cep75": "0.5",
        "cep90": "0.8",
        "cep95": "1.0",
        "cep99": "1.5",
        "status": "ok",
    }
    dataio.append_sweep_row(path, row)
    dataio.append_sweep_row(path, {**row, "d_model": 128})
    rows = dataio.read_sweep_rows(path)
    assert len(rows) == 2
    assert rows[0]["d_model"] == "64" and rows[1]["d_model"] == "128"


def test_truncated_line_names_file_and_line(tmp_path, small_dataset):
    path = tmp_path / "ds.jsonl"
    dataio.write_samples_jsonl(path, small_dataset[:3])
    text = path.read_text()
    path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
    with pytest.raises(DatasetFormatError, match=r"ds\.jsonl:3: invalid JSON"):
        dataio.read_samples_jsonl(path)


def test_missing_field_names_file_line_and_field(tmp_path, small_dataset):
    path = tmp_path / "ds.jsonl"
    dataio.write_samples_jsonl(path, small_dataset[:3])
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    del record["measurements"][0]["rx_time_s"]
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"ds\.jsonl:2: missing field 'rx_time_s'"):
        dataio.read_samples_jsonl(path)


def test_environment_without_extent_names_file_and_key(tmp_path):
    path = tmp_path / "env.json"
    dataio.write_environment(path, default_environment())
    payload = json.loads(path.read_text())
    del payload["extent"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetFormatError, match=r"env\.json: environment lacks key 'extent'"):
        dataio.read_environment(path)


def test_environment_with_bad_extent_names_file_and_value(tmp_path):
    path = tmp_path / "env.json"
    dataio.write_environment(path, default_environment())
    payload = json.loads(path.read_text())
    payload["extent"] = [30.0, -1.0, 3.0]
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetFormatError, match=r"env\.json: bad environment value: extent"):
        dataio.read_environment(path)


def test_anchor_record_without_z_names_file_and_key(tmp_path):
    path = tmp_path / "anchors.json"
    records = dataio.anchors_to_records(default_environment().anchors)
    del records[3]["z"]
    path.write_text(json.dumps(records))
    with pytest.raises(DatasetFormatError, match=r"anchors\.json: anchor record lacks key 'z'"):
        dataio.load_anchors(path)


def test_history_csv_appends_step_columns_after_lr(tmp_path):
    from uwbcorr.training import EpochRecord, TrainingHistory

    record = EpochRecord(0, 1.5, 2.5, 1e-4, step_ms=12.5, samples_per_s=5120.0, grad_norm=0.75)
    path = tmp_path / "history.csv"
    dataio.write_history_csv(path, TrainingHistory(records=[record]))
    header, row = path.read_text().splitlines()
    assert header == "epoch,train_loss,val_loss,lr,step_ms,samples_per_s,grad_norm"
    assert row == "0,1.5,2.5,0.0001,12.5,5120,0.75"
