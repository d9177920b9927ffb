"""UWB TDoA positioning with transformer-based CIR error correction."""

from .cir import InputTensor, build_input_tensor, iq_to_amplitude, normalize_minmax, trim_window
from .complexity import OperationCount, SweepResult, cnn_baseline_ops, op_count, pareto_front
from .encodings import frequency_bands
from .metrics import MetricsReport, cep, mae, metrics_report
from .model import CorrectionModel, ModelConfig, load_checkpoint, make_model_config, save_checkpoint
from .patching import PatchSet, patch_multi_cir, patch_per_cir
from .simulate import (
    Box,
    Environment,
    RawCir,
    Sample,
    default_environment,
    generate_dataset,
    grid_trajectory,
    los_status,
    random_trajectory,
    synth_cir,
)
from .tdoa import (
    SPEED_OF_LIGHT,
    Anchor,
    DdoaSet,
    PositionEstimate,
    SolverOptions,
    baseline_position,
    euclidean_distance,
    measured_ddoa_set,
    solve_baselines,
    solve_tdoa,
)
from .training import TrainConfig, compute_gradients, evaluate_model, train

__all__ = [name for name in dir() if not name.startswith("_")]
