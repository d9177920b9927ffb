import json

import numpy as np
import pytest

from conftest import reference_write_samples_jsonl
from uwbcorr import dataio
from uwbcorr.errors import DatasetFormatError
from uwbcorr.simulate import RawCir, Sample, default_environment, generate_dataset


def test_write_matches_the_round_per_value_writer(tmp_path, small_dataset):
    """Byte for byte, on values that test 6-decimal rounding: ties at the 7th
    decimal and their neighbouring doubles, values below 1e-4 that repr
    writes with an exponent, small negatives that round to -0.0, and
    magnitudes too large for an exact integer count of millionths; in CIRs
    of different lengths within one sample."""
    rng = np.random.default_rng(3)
    halves = (rng.integers(-(10**7), 10**7, 400) + 0.5) / 1e6
    hand = [0.0000005, 1.2345665, -1.2345665, 0.0078125, -0.0078125, 2.5e-06, 123.4567895]
    hand += [5e-05, 9.9999995e-05, 1.5e-07, 5e-324, -4e-07, -1e-12, -0.0, 0.0]
    hand += [4503599627.3705, 1e17, 1e305, -3e300, float("inf"), float("nan")]
    values = np.concatenate(
        [hand, halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)]
        + [rng.uniform(1e10, 1e12, 200), rng.normal(0, 0.1, 199)]
    )
    iq = values.view(complex)  # a float view keeps every bit of each value
    cirs = [
        RawCir(iq=iq[start:stop], first_path_index=64, rx_time=1e-8, anchor_id=i)
        for i, (start, stop) in enumerate([(0, 192), (192, 342), (342, 534), (534, 810)])
    ]
    samples = [*small_dataset, Sample(true_position=[1.0, 2.0, 1.0], raw_cirs=cirs)]
    dataio.write_samples_jsonl(tmp_path / "fast.jsonl", samples)
    reference_write_samples_jsonl(tmp_path / "reference.jsonl", samples)
    assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()


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
    dataio.write_samples_jsonl(p1, generate_dataset(small_env, points, 0.4, 5))
    dataio.write_samples_jsonl(p2, generate_dataset(small_env, points, 0.4, 5))
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
    with pytest.raises(FileNotFoundError):
        dataio.read_sweep_rows(tmp_path / "missing.csv")


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


@pytest.mark.parametrize(
    "edit, problem",
    [
        (
            lambda r: r["measurements"][0].update(rx_time_s=float("nan")),
            "rx_time must be a finite number, got nan",
        ),
        (
            lambda r: r.update(true_position=[1.0, 2.0]),
            r"true_position must be 3 finite numbers, got \[1\.0, 2\.0\]",
        ),
        (
            lambda r: r["measurements"].append(r["measurements"][0]),
            r"anchor id \d+ appears twice",
        ),
        (
            lambda r: r["measurements"][0].update(first_path_index=64.5),
            r"first_path_index must be an integer, got 64\.5",
        ),
        (
            lambda r: r["measurements"][0].update(first_path_index=True),
            "first_path_index must be an integer, got True",
        ),
        (
            lambda r: r["measurements"][0].update(anchor_id="3"),
            "anchor_id must be an integer, got '3'",
        ),
    ],
    ids=[
        "nan_rx_time",
        "short_true_position",
        "repeated_anchor",
        "fractional_first_path_index",
        "bool_first_path_index",
        "string_anchor_id",
    ],
)
def test_bad_value_names_file_line_and_problem(tmp_path, small_dataset, edit, problem):
    """A value the pipeline cannot use fails as its line is read, not mid-solve."""
    path = tmp_path / "ds.jsonl"
    dataio.write_samples_jsonl(path, small_dataset[:3])
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=rf"ds\.jsonl:2: malformed record: {problem}$"):
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
    path = tmp_path / "env.json"
    dataio.write_environment(path, default_environment())
    payload = json.loads(path.read_text())
    del payload["anchors"][3]["z"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetFormatError, match=r"env\.json: environment lacks key 'z'"):
        dataio.read_environment(path)


def test_history_csv_appends_step_columns_after_lr(tmp_path):
    from uwbcorr.training import EpochRecord, TrainingHistory

    record = EpochRecord(
        0, 1.5, 2.5, 1e-4, step_ms=12.5, samples_per_s=5120.0, grad_norm=0.75, minor_faults=10240
    )
    path = tmp_path / "history.csv"
    dataio.write_history_csv(path, TrainingHistory(records=[record]))
    header, row = path.read_text().splitlines()
    assert header == "epoch,train_loss,val_loss,lr,step_ms,samples_per_s,grad_norm,minor_faults"
    assert row == "0,1.5,2.5,0.0001,12.5,5120,0.75,10240"
