"""File formats: JSONL datasets, environment/anchor files, CSV tables.

Dataset lines look like::

    {"sample_id": 0, "true_position": [x, y, z], "tx_time_s": 0.0,
     "measurements": [{"anchor_id": 1, "rx_time_s": ..., "first_path_index": 64,
                       "cir_real": [...], "cir_imag": [...]}, ...]}

CIR samples are rounded to 6 decimals on write (well below the noise floor).
``read_samples_jsonl`` is the adapter point for external captures: anything
that maps onto this schema can be replayed through the pipeline.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DatasetFormatError
from .metrics import CEP_QUANTILES, MetricsReport
from .simulate import Box, Environment, RawCir, Sample
from .tdoa import Anchor
from .training import TrainingHistory


def _round_list(values, digits=6):
    return [round(float(v), digits) for v in values]


def write_samples_jsonl(path, samples: Sequence[Sample]):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for idx, sample in enumerate(samples):
            record = {
                "sample_id": idx,
                "true_position": [float(v) for v in sample.true_position],
                "tx_time_s": 0.0,
                "measurements": [
                    {
                        "anchor_id": int(c.anchor_id),
                        "rx_time_s": float(c.rx_time),
                        "first_path_index": int(c.first_path_index),
                        "cir_real": _round_list(c.iq.real),
                        "cir_imag": _round_list(c.iq.imag),
                    }
                    for c in sample.raw_cirs
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _sample_from_record(record: dict) -> Sample:
    cirs = tuple(
        RawCir(
            iq=np.array(m["cir_real"]) + 1j * np.array(m["cir_imag"]),
            first_path_index=m["first_path_index"],
            rx_time=m["rx_time_s"],
            anchor_id=m["anchor_id"],
        )
        for m in record["measurements"]
    )
    return Sample(true_position=np.array(record["true_position"]), raw_cirs=cirs)


def read_samples_jsonl(path) -> list[Sample]:
    """Samples from a JSONL dataset; a bad line raises DatasetFormatError
    naming the file, the 1-based line and the problem."""
    samples = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                samples.append(_sample_from_record(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except KeyError as exc:
                raise DatasetFormatError(
                    f"{path}:{lineno}: missing field {exc.args[0]!r}"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise DatasetFormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
    return samples


def anchors_to_records(anchors: Sequence[Anchor]) -> list[dict]:
    return [
        {"id": a.id, "x": float(a.position[0]), "y": float(a.position[1]), "z": float(a.position[2])}
        for a in anchors
    ]


def anchors_from_records(records: Sequence[dict]) -> tuple[Anchor, ...]:
    return tuple(Anchor(id=r["id"], position=np.array([r["x"], r["y"], r["z"]])) for r in records)


def write_anchors(path, anchors: Sequence[Anchor]):
    Path(path).write_text(json.dumps(anchors_to_records(anchors), indent=2) + "\n")


@contextmanager
def _schema_errors(path, what: str):
    """Turn a JSON error, a missing key or a bad value met while reading
    ``path`` into a DatasetFormatError naming the file."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise DatasetFormatError(f"{path}: {what} lacks key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}: bad {what} value: {exc}") from exc


def load_anchors(path) -> tuple[Anchor, ...]:
    with _schema_errors(path, "anchor record"):
        return anchors_from_records(json.loads(Path(path).read_text()))


def write_environment(path, env: Environment):
    payload = {
        "extent": list(env.extent),
        "anchors": anchors_to_records(env.anchors),
        "obstacles": [
            {"lo": [float(v) for v in b.lo], "hi": [float(v) for v in b.hi]}
            for b in env.obstacles
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_environment(path) -> Environment:
    with _schema_errors(path, "environment"):
        payload = json.loads(Path(path).read_text())
        return Environment(
            anchors=anchors_from_records(payload["anchors"]),
            obstacles=tuple(
                Box(lo=np.array(b["lo"]), hi=np.array(b["hi"])) for b in payload["obstacles"]
            ),
            extent=tuple(payload["extent"]),
        )


def write_metrics_json(path, report: MetricsReport, extra: dict | None = None):
    payload = {
        "mae_m": report.mae,
        "cep_m": {str(q): report.cep[q] for q in CEP_QUANTILES},
        "n_samples": report.n_samples,
        **(extra or {}),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_history_csv(path, history: TrainingHistory):
    columns = ["train_loss", "val_loss", "lr", "step_ms", "samples_per_s", "grad_norm"]
    rows = [
        {"epoch": r.epoch, **{c: f"{getattr(r, c):.8g}" for c in columns}}
        for r in history.records
    ]
    write_table(path, rows, ["epoch"] + columns)


def write_estimates_csv(path, truths, baselines, estimates=None):
    columns = ["true_x", "true_y", "true_z", "tdoa_x", "tdoa_y", "tdoa_z"]
    blocks = [truths, baselines]
    if estimates is not None:
        columns += ["corr_x", "corr_y", "corr_z"]
        blocks.append(estimates)
    rows = [
        dict(zip(columns, (f"{v:.6f}" for position in positions for v in position)))
        for positions in zip(*blocks)
    ]
    write_table(path, rows, columns)


def write_table(path, rows: Sequence[dict], columns: Sequence[str], append: bool = False):
    """CSV of ``rows`` under a header of ``columns``; a column a row lacks is
    left empty and a key outside ``columns`` is dropped. With ``append`` the
    rows go after the file's, and the header is written only to a new file."""
    path = Path(path)
    header = not (append and path.exists())
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a" if append else "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(columns), restval="", extrasaction="ignore")
        if header:
            writer.writeheader()
        writer.writerows(rows)


SWEEP_COLUMNS = [
    "patching",
    "ordering",
    "encoding",
    "l_patch",
    "d_model",
    "total_ops",
    "mae",
    "cep50",
    "cep75",
    "cep90",
    "cep95",
    "cep99",
    "status",
]


def append_sweep_row(path, row: dict):
    write_table(path, [row], SWEEP_COLUMNS, append=True)


def read_sweep_rows(path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))
