"""File formats: JSONL datasets, environment files, CSV tables.

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
from dataclasses import fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DatasetFormatError
from .metrics import CEP_QUANTILES, MetricsReport
from .model import SWEEP_KEYS
from .simulate import Box, Environment, RawCir, Sample
from .tdoa import Anchor
from .training import EpochRecord, TrainingHistory


def _round6(values: np.ndarray) -> np.ndarray:
    """``round(float(v), 6)`` of each value, mostly without the loop: an
    integer below 2**53 over 1e6 is the correctly rounded decimal, so only a
    value within round-off of a half at the 7th decimal, or too large for
    that, goes through ``round``."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite: see below
        scaled = values * 1e6
        out = np.rint(scaled) / 1e6
        slack = np.abs(scaled - np.floor(scaled) - 0.5) <= np.abs(scaled) * 2.0**-50
    for i in np.flatnonzero(slack | ~(np.abs(scaled) < 2.0**52)):
        out[i] = round(float(values[i]), 6)
    return out


def write_samples_jsonl(path, samples: Sequence[Sample]):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for idx, sample in enumerate(samples):
            cirs = sample.raw_cirs
            # One rounding pass over the sample's IQ, as float pairs, split per CIR.
            flat = np.concatenate([c.iq for c in cirs]).view(float)
            iqs = np.split(_round6(flat).view(complex), np.cumsum([len(c.iq) for c in cirs[:-1]]))
            record = {
                "sample_id": idx,
                "true_position": [float(v) for v in sample.true_position],
                "tx_time_s": 0.0,
                "measurements": [
                    {
                        "anchor_id": int(c.anchor_id),
                        "rx_time_s": float(c.rx_time),
                        "first_path_index": int(c.first_path_index),
                        "cir_real": iq.real.tolist(),
                        "cir_imag": iq.imag.tolist(),
                    }
                    for c, iq in zip(cirs, iqs)
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


def write_environment(path, env: Environment):
    payload = {
        "extent": list(env.extent),
        "anchors": [
            {"id": a.id, **{k: float(v) for k, v in zip("xyz", a.position)}}
            for a in env.anchors
        ],
        "obstacles": [
            {"lo": [float(v) for v in b.lo], "hi": [float(v) for v in b.hi]}
            for b in env.obstacles
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_environment(path) -> Environment:
    """The environment in ``path``; a JSON error, a missing key or a bad
    value raises DatasetFormatError naming the file."""
    try:
        payload = json.loads(Path(path).read_text())
        return Environment(
            anchors=tuple(
                Anchor(id=r["id"], position=np.array([r["x"], r["y"], r["z"]]))
                for r in payload["anchors"]
            ),
            obstacles=tuple(
                Box(lo=np.array(b["lo"]), hi=np.array(b["hi"])) for b in payload["obstacles"]
            ),
            extent=tuple(payload["extent"]),
        )
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise DatasetFormatError(f"{path}: environment lacks key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}: bad environment value: {exc}") from exc


def write_metrics_json(path, report: MetricsReport, extra: dict):
    payload = {
        "mae_m": report.mae,
        "cep_m": {str(q): report.cep[q] for q in CEP_QUANTILES},
        "n_samples": report.n_samples,
        **extra,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_history_csv(path, history: TrainingHistory):
    epoch, *columns = [f.name for f in fields(EpochRecord)]
    rows = [{epoch: r.epoch, **{c: f"{getattr(r, c):.8g}" for c in columns}} for r in history.records]
    write_table(path, rows, [epoch] + columns)


def write_estimates_csv(path, truths, baselines, estimates=None, solves=None):
    """True, baseline and (given ``estimates``) corrected positions per row;
    ``solves``, the baseline ``PositionEstimate`` of each row, adds why its
    solve stopped and whether it ended on the box wall (1) or not (0)."""
    columns = ["true_x", "true_y", "true_z", "tdoa_x", "tdoa_y", "tdoa_z"]
    blocks = [truths, baselines]
    if estimates is not None:
        columns += ["corr_x", "corr_y", "corr_z"]
        blocks.append(estimates)
    rows = [
        dict(zip(columns, (f"{v:.6f}" for position in positions for v in position)))
        for positions in zip(*blocks)
    ]
    if solves is not None:
        columns += ["stop_reason", "on_bound"]
        for row, solve in zip(rows, solves):
            row.update(stop_reason=solve.stop_reason, on_bound=int(solve.on_bound))
    write_table(path, rows, columns)


def write_table(path, rows: Sequence[dict], columns: Sequence[str], append: bool = False):
    """CSV of ``rows`` under a header of ``columns``; a column a row lacks is
    left empty and a key outside ``columns`` is dropped. With ``append`` the
    rows go after the file's, and the header is written only to a new or empty file."""
    path = Path(path)
    header = not (append and path.exists() and path.stat().st_size)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a" if append else "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(columns), restval="", extrasaction="ignore")
        if header:
            writer.writeheader()
        writer.writerows(rows)


SWEEP_COLUMNS = (*SWEEP_KEYS, "total_ops", "mae", *(f"cep{q}" for q in CEP_QUANTILES), "status")


def append_sweep_row(path, row: dict):
    write_table(path, [row], SWEEP_COLUMNS, append=True)


def read_sweep_rows(path) -> list[dict]:
    """The rows of a sweep table; a missing file raises FileNotFoundError."""
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))
