"""Experiment configuration: one JSON file, every field flag-overridable.

Sections: environment, dataset, solver, model, train, sweep. Values omitted
from the file keep the defaults below. ``apply_overrides`` implements the
``--set section.key=value`` CLI mechanism.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .errors import ConfigError, check_int, is_number
from .model import ModelConfig, make_model_config
from .simulate import Environment, default_environment
from .tdoa import SolverOptions
from .training import TrainConfig

MULTI_CIR_L_PATCH = (1, 3, 5, 6, 10, 15, 30, 50, 75)
MULTI_CIR_D_MODEL = (8, 16, 32, 64, 128, 256)
PER_CIR_L_PATCH = (6, 15, 30, 50, 75, 150)
PER_CIR_D_MODEL = (32, 64, 128, 256)


@dataclass
class EnvironmentSpec:
    environment_file: Optional[str] = None  # full environment JSON
    anchors_file: Optional[str] = None  # replaces the default anchor layout
    tag_height: float = 1.0


@dataclass
class DatasetSpec:
    train_path: str = "train.jsonl"
    eval_path: str = "eval.jsonl"
    train_lines: int = 10
    train_points_per_line: int = 300
    n_eval: int = 1000
    drop_probability: float = 0.587
    snr_db: Optional[float] = 20.0


@dataclass
class SolverSpec:
    pair_policy: str = "reference_anchor"
    fix_z: Optional[float] = 1.0  # keep equal to tag_height for planar runs
    bound_margin: Optional[float] = 2.0  # search box beyond the extent; None = unbounded

    def __post_init__(self):
        if self.bound_margin is not None and not is_number(self.bound_margin):
            raise ConfigError(f"bound_margin must be a number or null, got {self.bound_margin!r}")

    def options(self, env: Environment) -> SolverOptions:
        if self.bound_margin is None:
            return SolverOptions(pair_policy=self.pair_policy, fix_z=self.fix_z)
        return SolverOptions.for_environment(env, self.pair_policy, self.fix_z, self.bound_margin)


@dataclass
class ModelSpec:
    patching: str = "per_cir"
    ordering: str = "fixed"
    encoding: str = "spatial"
    l_patch: int = 150
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 8
    d_ff: int = 256
    dropout_p: float = 0.15
    residual_output: bool = True

    def build(self, env: Environment) -> ModelConfig:
        return make_model_config(**asdict(self), env=env)


@dataclass
class SweepSpec:
    multi_l_patch: tuple = MULTI_CIR_L_PATCH
    multi_d_model: tuple = MULTI_CIR_D_MODEL
    per_l_patch: tuple = PER_CIR_L_PATCH
    per_d_model: tuple = PER_CIR_D_MODEL
    max_epochs: int = 40  # desk-scale default; raise for a full run
    n_train_cap: Optional[int] = 1000
    n_eval_cap: Optional[int] = 400


@dataclass
class ExperimentConfig:
    seed: int = 7
    output_dir: str = "runs/default"
    environment: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    sweep: SweepSpec = field(default_factory=SweepSpec)

    def __post_init__(self):
        check_int("seed", self.seed, minimum=0)


# section name -> its dataclass, for every field of ExperimentConfig built by a factory
_SECTIONS = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if f.default_factory is not MISSING
}


def config_from_json_dict(payload: dict) -> ExperimentConfig:
    kwargs = {}
    for key, value in payload.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be a JSON object, got {value!r}")
            cls = _SECTIONS[key]
            allowed = {f.name for f in fields(cls)}
            unknown = set(value) - allowed
            if unknown:
                raise ConfigError(f"unknown keys in section {key!r}: {sorted(unknown)}")
            coerced = {
                k: tuple(v) if isinstance(v, list) else v for k, v in value.items()
            }
            kwargs[key] = cls(**coerced)
        elif key in ("seed", "output_dir"):
            kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**kwargs)


def load_experiment_config(path=None, overrides=()) -> ExperimentConfig:
    payload = json.loads(Path(path).read_text()) if path else {}
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


def resolve_environment(spec: EnvironmentSpec) -> Environment:
    from .dataio import load_anchors, read_environment

    if spec.environment_file:
        return read_environment(spec.environment_file)
    env = default_environment()
    if spec.anchors_file:
        env = Environment(
            anchors=load_anchors(spec.anchors_file),
            obstacles=env.obstacles,
            extent=env.extent,
        )
    return env


def enumerate_sweep(spec: SweepSpec) -> list[dict]:
    """Every valid (patching, ordering, encoding, l_patch, d_model) combo.

    Multi-CIR runs learned encoding only (its tokens have no single source
    anchor); per-CIR runs all three encodings. Both orderings everywhere.
    """
    combos = []
    for ordering in ("fixed", "time_based"):
        for l_patch in spec.multi_l_patch:
            for d_model in spec.multi_d_model:
                combos.append(
                    {
                        "patching": "multi_cir",
                        "ordering": ordering,
                        "encoding": "learned",
                        "l_patch": l_patch,
                        "d_model": d_model,
                    }
                )
    for ordering in ("fixed", "time_based"):
        for encoding in ("learned", "spatial", "spatial_time"):
            for l_patch in spec.per_l_patch:
                for d_model in spec.per_d_model:
                    combos.append(
                        {
                            "patching": "per_cir",
                            "ordering": ordering,
                            "encoding": encoding,
                            "l_patch": l_patch,
                            "d_model": d_model,
                        }
                    )
    return combos
