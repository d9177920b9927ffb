"""Experiment configuration: one JSON file, every field flag-overridable.

Sections: environment, dataset, model, train, sweep, and the top-level seed.
The config names no file: ``cli`` fixes where a command reads and writes,
in ``--output-dir``. The model section is a ``model.ModelConfig``: a file
sets all of it but ``head_widths`` and the environment's ``n_total`` and
``extent``, which a command fills with ``ModelConfig.with_environment``. The
train section is a ``training.TrainConfig``. The solver has no section:
every command solves on the plane z = ``environment.tag_height`` in the
environment's extent grown by ``tdoa.BOUND_MARGIN``. Values omitted from the
file keep their defaults. Each section checks its values when it is built,
so a bad value fails with a ConfigError as the config loads.
``apply_overrides`` implements the ``--set section.key=value`` CLI mechanism.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain, product
from pathlib import Path
from typing import Optional

from .cir import ORDERINGS
from .encodings import ENCODING_KINDS
from .errors import ConfigError, check_int, check_ints, is_number
from .model import SWEEP_KEYS, ModelConfig
from .training import TrainConfig

MULTI_CIR_L_PATCH = (1, 3, 5, 6, 10, 15, 30, 50, 75)
MULTI_CIR_D_MODEL = (8, 16, 32, 64, 128, 256)
PER_CIR_L_PATCH = (6, 15, 30, 50, 75, 150)
PER_CIR_D_MODEL = (32, 64, 128, 256)


def _check_number(name: str, value) -> None:
    if not (is_number(value) and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass
class EnvironmentSpec:
    tag_height: float = 1.0

    def __post_init__(self):
        _check_number("tag_height", self.tag_height)


@dataclass
class DatasetSpec:
    train_lines: int = 10
    train_points_per_line: int = 300
    n_eval: int = 1000
    drop_probability: float = 0.587
    snr_db: Optional[float] = 20.0

    def __post_init__(self):
        for name in ("train_lines", "train_points_per_line", "n_eval"):
            check_int(name, getattr(self, name))
        p = self.drop_probability
        if not (is_number(p) and 0.0 <= p < 1.0):
            raise ConfigError(f"drop_probability must be a number in [0, 1), got {p!r}")
        if self.snr_db is not None:  # None turns the noise off
            _check_number("snr_db", self.snr_db)


@dataclass
class SweepSpec:
    multi_l_patch: tuple = MULTI_CIR_L_PATCH
    multi_d_model: tuple = MULTI_CIR_D_MODEL
    per_l_patch: tuple = PER_CIR_L_PATCH
    per_d_model: tuple = PER_CIR_D_MODEL
    max_epochs: int = 40  # desk-scale default; raise for a full run
    n_train_cap: Optional[int] = 1000  # None = every sample
    n_eval_cap: Optional[int] = 400

    def __post_init__(self):
        for name in ("multi_l_patch", "multi_d_model", "per_l_patch", "per_d_model"):
            check_ints(name, getattr(self, name))
        check_int("max_epochs", self.max_epochs)
        for name in ("n_train_cap", "n_eval_cap"):
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name))


@dataclass
class ExperimentConfig:
    seed: int = 7
    environment: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sweep: SweepSpec = field(default_factory=SweepSpec)

    def __post_init__(self):
        check_int("seed", self.seed, minimum=0)


# section name -> its dataclass, for every field of ExperimentConfig built by a factory
_SECTIONS = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if f.default_factory is not MISSING
}
# the keys each section of a file takes: its dataclass's fields, but the model
# section leaves the head widths and the environment's n_total and extent out
_SECTION_KEYS = {name: {f.name for f in fields(cls)} for name, cls in _SECTIONS.items()}
_SECTION_KEYS["model"] -= {"head_widths", "n_total", "extent"}


def config_from_json_dict(payload: dict) -> ExperimentConfig:
    kwargs = {}
    for key, value in payload.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be a JSON object, got {value!r}")
            unknown = set(value) - _SECTION_KEYS[key]
            if unknown:
                raise ConfigError(f"unknown keys in section {key!r}: {sorted(unknown)}")
            coerced = {
                k: tuple(v) if isinstance(v, list) else v for k, v in value.items()
            }
            kwargs[key] = _SECTIONS[key](**coerced)
        elif key == "seed":
            kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**kwargs)


def load_experiment_config(path=None, overrides=()) -> ExperimentConfig:
    """The config in the JSON file ``path`` (defaults without one) with the
    ``--set`` overrides applied; a file that is not JSON, or holds no JSON
    object, raises ConfigError naming it."""
    payload = {}
    if path:
        try:
            payload = json.loads(Path(path).read_text())
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"{path}: not a JSON config: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: a config file holds a JSON object, got {payload!r}")
    payload = apply_overrides(payload, overrides)
    return config_from_json_dict(payload)


def apply_overrides(payload: dict, overrides) -> dict:
    """Apply ``section.key=value`` strings; values parse as JSON, else string."""
    payload = json.loads(json.dumps(payload))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = payload
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part!r} is not a section")
        node[leaf] = value
    return payload


def enumerate_sweep(spec: SweepSpec) -> list[dict]:
    """Every valid (patching, ordering, encoding, l_patch, d_model) combo.

    Multi-CIR runs learned encoding only (its tokens have no single source
    anchor); per-CIR runs all three encodings. Both orderings everywhere.
    """
    multi = product(["multi_cir"], ORDERINGS, ["learned"], spec.multi_l_patch, spec.multi_d_model)
    per = product(["per_cir"], ORDERINGS, ENCODING_KINDS, spec.per_l_patch, spec.per_d_model)
    return [dict(zip(SWEEP_KEYS, combo)) for combo in chain(multi, per)]
