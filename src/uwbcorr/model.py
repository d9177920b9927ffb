"""Encoder-only transformer that corrects TDoA position estimates.

Pipeline per sample: raw CIRs -> ordered input tensor -> patches -> linear
token embedding (+ CLS) -> positional encodings -> post-norm encoder blocks
(multi-head self-attention and a position-wise feed-forward, each with
residual + layer norm) -> the CLS output concatenated with the normalized
baseline estimate feeds an MLP head (256, 128, 64, 3). With
``residual_output`` the head predicts a correction added to the baseline, so
a zero-initialized final layer reproduces the baseline exactly.

Everything runs in float64 on a small tape-based autodiff engine. One
batched graph, ``CorrectionModel.forward_prepared``, serves training,
evaluation and single-sample prediction.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .cir import ORDERINGS, WINDOW_LENGTH, InputTensor, build_input_tensor
from .encodings import ENCODING_KINDS, constant_encoding_rows
from .errors import ConfigError, IncompatibleEncodingError, check_int, is_number
from .patching import PATCH_STRATEGIES, check_l_patch, patch_multi_cir, patch_per_cir
from .simulate import Environment, Sample

CHECKPOINT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    """Every settable value of a model: the five sweep keys (patching,
    ordering, encoding, l_patch, d_model), the encoder and head sizes, and
    the environment's anchor count and extent."""

    patching: str = "per_cir"
    ordering: str = "fixed"
    encoding: str = "spatial"
    l_patch: int = 150
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 8
    d_ff: int = 256
    dropout_p: float = 0.15
    head_widths: tuple[int, ...] = (256, 128, 64, 3)
    residual_output: bool = True
    n_total: int = 15
    extent: tuple[float, float, float] = (30.0, 10.0, 3.0)

    def __post_init__(self):
        for name in ("l_patch", "d_model", "n_layers", "n_heads", "d_ff", "n_total"):
            check_int(name, getattr(self, name))
        extent = self.extent
        if not (
            isinstance(extent, (tuple, list))
            and len(extent) == 3
            and all(is_number(v) and 0.0 < v < math.inf for v in extent)
        ):
            raise ConfigError(f"extent must be 3 finite positive numbers, got {extent!r}")
        # JSON gives lists; keep the config hashable and its extent float
        object.__setattr__(self, "head_widths", tuple(self.head_widths))
        object.__setattr__(self, "extent", tuple(float(v) for v in extent))
        if self.patching not in PATCH_STRATEGIES:
            raise ConfigError(
                f"unknown patching strategy {self.patching!r}; use one of {PATCH_STRATEGIES}"
            )
        check_l_patch(self.l_patch)
        if self.encoding not in ENCODING_KINDS:
            raise ConfigError(f"unknown encoding kind {self.encoding!r}; use one of {ENCODING_KINDS}")
        if self.ordering not in ORDERINGS:
            raise ConfigError(f"unknown ordering {self.ordering!r}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.head_widths[-1] != 3:
            raise ConfigError("regression head must end in 3 outputs")
        if self.patching == "multi_cir" and self.encoding != "learned":
            raise IncompatibleEncodingError(
                "spatial encodings need per-CIR patches; multi-CIR tokens mix "
                "samples from every anchor"
            )
        if not (is_number(self.dropout_p) and 0.0 <= self.dropout_p < 1.0):
            raise ConfigError(f"dropout_p must be a number in [0, 1), got {self.dropout_p!r}")
        if not isinstance(self.residual_output, bool):
            raise ConfigError(f"residual_output must be a bool, got {self.residual_output!r}")

    @property
    def k_per_cir(self) -> int:
        return WINDOW_LENGTH // self.l_patch

    @property
    def max_seq_len(self) -> int:
        """Tokens in a full sequence, CLS included: the rows of ``pe.seq``."""
        body = self.k_per_cir if self.patching == "multi_cir" else self.n_total * self.k_per_cir
        return body + 1


def make_model_config(
    patching: str,
    ordering: str,
    encoding: str,
    l_patch: int,
    d_model: int,
    env: Optional[Environment] = None,
    **overrides,
) -> ModelConfig:
    """A ModelConfig from the five sweep keys; ``env`` fills n_total and extent."""
    if env is not None:
        overrides = {"n_total": env.n_anchors, "extent": env.extent, **overrides}
    return ModelConfig(patching, ordering, encoding, l_patch, d_model, **overrides)


def init_parameters(
    cfg: ModelConfig, seed: int = 0, zero_final_layer: bool = True
) -> dict[str, np.ndarray]:
    """Fresh parameter arrays: fan-in normal for linear maps, N(0, 0.02^2)
    for embeddings/encoding tables, identity layer norms.

    The final head layer starts at zero by default so a residual-output model
    reproduces the baseline estimate before any training.
    """
    rng = np.random.default_rng(seed)
    d = cfg.d_model

    def linear(fan_in, fan_out):
        return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))

    patch_size = cfg.l_patch * (cfg.n_total if cfg.patching == "multi_cir" else 1)

    params: dict[str, np.ndarray] = {}
    params["embed.w"] = linear(patch_size, d)
    params["embed.b"] = np.zeros(d)
    params["cls"] = rng.normal(0.0, 0.02, size=d)
    if cfg.encoding == "learned":
        params["pe.seq"] = rng.normal(0.0, 0.02, size=(cfg.max_seq_len, d))
    else:
        params["pe.cls"] = rng.normal(0.0, 0.02, size=d)
        if cfg.k_per_cir > 1:
            params["pe.within"] = rng.normal(0.0, 0.02, size=(cfg.k_per_cir, d))
    for i in range(cfg.n_layers):
        pre = f"enc{i}."
        for name in ("wq", "wk", "wv", "wo"):
            params[pre + f"attn.{name}"] = linear(d, d)
            params[pre + f"attn.b{name[1]}"] = np.zeros(d)
        params[pre + "ln1.g"] = np.ones(d)
        params[pre + "ln1.b"] = np.zeros(d)
        params[pre + "ff.w1"] = linear(d, cfg.d_ff)
        params[pre + "ff.b1"] = np.zeros(cfg.d_ff)
        params[pre + "ff.w2"] = linear(cfg.d_ff, d)
        params[pre + "ff.b2"] = np.zeros(d)
        params[pre + "ln2.g"] = np.ones(d)
        params[pre + "ln2.b"] = np.zeros(d)
    widths = (d + 3,) + tuple(cfg.head_widths)
    for j in range(len(cfg.head_widths)):
        last = j == len(cfg.head_widths) - 1
        if last and zero_final_layer:
            params[f"head{j}.w"] = np.zeros((widths[j], widths[j + 1]))
        else:
            params[f"head{j}.w"] = linear(widths[j], widths[j + 1])
        params[f"head{j}.b"] = np.zeros(widths[j + 1])
    return params


@dataclass
class PreparedExample:
    """Constant per-sample inputs for the differentiable forward pass."""

    patches: np.ndarray  # (n_patches, patch_size)
    pe_const: Optional[np.ndarray]  # (n_patches, d_model) sin/cos addend, spatial kinds
    p_tdoa: np.ndarray  # (3,)
    target: Optional[np.ndarray]  # (3,) true position, None at inference
    n_tokens: int


def prepare_from_tensor(
    tensor: InputTensor,
    cfg: ModelConfig,
    p_tdoa: np.ndarray,
    target=None,
) -> PreparedExample:
    patch = patch_multi_cir if cfg.patching == "multi_cir" else patch_per_cir
    patches = patch(tensor, cfg.l_patch)
    if cfg.encoding == "learned":
        pe_const = None
        if patches.n_patches + 1 > cfg.max_seq_len:
            raise ConfigError(
                f"{patches.n_patches + 1} tokens exceed max_seq_len={cfg.max_seq_len}"
            )
    else:
        pe_const = constant_encoding_rows(patches, cfg.encoding, cfg.d_model, cfg.extent)
    return PreparedExample(
        patches=patches.values,
        pe_const=pe_const,
        p_tdoa=np.asarray(p_tdoa, dtype=float),
        target=None if target is None else np.asarray(target, dtype=float),
        n_tokens=patches.n_patches + 1,
    )


def prepare_example(
    sample: Sample,
    env: Environment,
    cfg: ModelConfig,
    p_tdoa: np.ndarray,
    target=None,
) -> PreparedExample:
    tensor = build_input_tensor(
        sample, env, cfg.ordering, pad_missing=(cfg.patching == "multi_cir")
    )
    return prepare_from_tensor(tensor, cfg, p_tdoa, target)


def _dropout(x: ad.Tensor, p: float, train: bool, rng, n_tokens: int) -> ad.Tensor:
    """Inverted dropout on (B, rows, d). The mask is drawn for all n_tokens
    rows and its leading rows are kept, so a block that computes only the
    CLS row takes the same draws from rng as one that computes every row."""
    if not train or p <= 0.0:
        return x
    b, rows, d = x.data.shape
    mask = (rng.random((b, n_tokens, d)) >= p) / (1.0 - p)
    return ad.mul(x, ad.Tensor(mask[:, :rows]))


def _multi_head_attention(
    queries: ad.Tensor, x: ad.Tensor, prm, pre: str, cfg: ModelConfig
) -> ad.Tensor:
    """The rows of queries (B, m, d) attend over every row of x (B, n, d)."""
    b, _, d = x.data.shape
    heads = cfg.n_heads
    hw = d // heads

    def project(name, src):
        t = ad.matmul(src, prm[pre + f"attn.w{name}"], prm[pre + f"attn.b{name}"])
        return ad.transpose(ad.reshape(t, (b, src.data.shape[1], heads, hw)), (0, 2, 1, 3))

    q, k, v = project("q", queries), project("k", x), project("v", x)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))
    ctx = ad.matmul(ad.softmax(scores, 1.0 / math.sqrt(hw)), v)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, queries.data.shape[1], d))
    return ad.matmul(ctx, prm[pre + "attn.wo"], prm[pre + "attn.bo"])


def _encoder_stack(x: ad.Tensor, prm, cfg: ModelConfig, train: bool, rng) -> ad.Tensor:
    """Post-norm encoder blocks over (B, n, d) tokens, returning (B, 1, d).

    The last block computes only the CLS row: its keys and values still come
    from every token, but the query, attention output, residual adds, layer
    norms and feed-forward run on row 0, which is all the regression head
    reads.
    """
    b, n, d = x.data.shape
    for i in range(cfg.n_layers):
        pre = f"enc{i}."
        rows = x
        if i == cfg.n_layers - 1:
            rows = ad.reshape(ad.select(x, 1, 0), (b, 1, d))
        att = _multi_head_attention(rows, x, prm, pre, cfg)
        att = _dropout(att, cfg.dropout_p, train, rng, n)
        x = ad.layer_norm(ad.add(rows, att), prm[pre + "ln1.g"], prm[pre + "ln1.b"])
        h = ad.relu(ad.matmul(x, prm[pre + "ff.w1"], prm[pre + "ff.b1"]))
        h = ad.matmul(h, prm[pre + "ff.w2"], prm[pre + "ff.b2"])
        h = _dropout(h, cfg.dropout_p, train, rng, n)
        x = ad.layer_norm(ad.add(x, h), prm[pre + "ln2.g"], prm[pre + "ln2.b"])
    return x


class CorrectionModel:
    """Parameter store plus the differentiable forward pass."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray], history=None):
        self.config = config
        self.params = {k: ad.Tensor(np.array(v, dtype=float), requires_grad=True) for k, v in params.items()}
        self.history = history

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0, zero_final_layer: bool = True):
        return cls(config, init_parameters(config, seed, zero_final_layer))

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        for k, t in self.params.items():
            t.data = arrays[k].copy()

    def forward_prepared(
        self, examples: Sequence[PreparedExample], train: bool = False, rng=None
    ) -> ad.Tensor:
        """Batched predictions (B, 3); all examples must share a token count."""
        if not examples:
            raise ValueError("empty batch")
        if train and rng is None:
            rng = np.random.default_rng()
        n_tokens = examples[0].n_tokens
        if any(e.n_tokens != n_tokens for e in examples):
            raise ValueError("examples in one batch must have equal token counts")
        cfg = self.config
        prm = self.params
        batch = len(examples)

        patches = ad.Tensor(np.stack([e.patches for e in examples]))
        embedded = ad.matmul(patches, prm["embed.w"], prm["embed.b"])
        cls_tok = ad.add(
            ad.reshape(prm["cls"], (1, 1, cfg.d_model)),
            ad.Tensor(np.zeros((batch, 1, cfg.d_model))),
        )
        if cfg.encoding == "learned":
            x = ad.concat([cls_tok, embedded], axis=1)
            x = ad.add(x, ad.gather(prm["pe.seq"], np.arange(n_tokens)))
        else:
            body = ad.add(embedded, ad.Tensor(np.stack([e.pe_const for e in examples])))
            if cfg.k_per_cir > 1:  # per-CIR tokens: rows 0..K-1 of pe.within, once per CIR
                within = np.tile(np.arange(cfg.k_per_cir), (n_tokens - 1) // cfg.k_per_cir)
                body = ad.add(body, ad.gather(prm["pe.within"], within))
            cls_tok = ad.add(cls_tok, ad.reshape(prm["pe.cls"], (1, 1, cfg.d_model)))
            x = ad.concat([cls_tok, body], axis=1)

        x = _encoder_stack(x, prm, cfg, train, rng)
        cls_out = ad.select(x, 1, 0)
        p_tdoa = np.stack([e.p_tdoa for e in examples])
        h = ad.concat([cls_out, ad.Tensor(p_tdoa / np.asarray(cfg.extent))], axis=1)
        for j in range(len(cfg.head_widths)):
            h = ad.matmul(h, prm[f"head{j}.w"], prm[f"head{j}.b"])
            if j < len(cfg.head_widths) - 1:
                h = ad.relu(h)
        if cfg.residual_output:
            h = ad.add(h, ad.Tensor(p_tdoa))
        return h

    def predict_prepared(self, examples: Sequence[PreparedExample]) -> np.ndarray:
        return self.forward_prepared(examples, train=False).data

    def predict(self, sample: Sample, env: Environment, p_tdoa) -> np.ndarray:
        example = prepare_example(sample, env, self.config, p_tdoa)
        return self.predict_prepared([example])[0]


def save_checkpoint(model: CorrectionModel, path):
    meta = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": asdict(model.config),
    }
    np.savez(path, __meta__=np.array(json.dumps(meta)), **model.parameter_arrays())


def load_checkpoint(path) -> CorrectionModel:
    """Model from a checkpoint. A file that is not an .npz, a missing or
    non-JSON ``__meta__``, another schema version, a missing or unknown
    config key, a config value ``ModelConfig`` rejects, or parameter names
    and shapes other than those ``init_parameters`` gives for the stored
    config raise ConfigError naming the file and the first offending key."""
    try:
        with np.load(path, allow_pickle=False) as data:
            params = {k: data[k] for k in data.files}
    except (ValueError, EOFError, TypeError, zipfile.BadZipFile):  # TypeError: a .npy file
        raise ConfigError(f"{path}: not an .npz checkpoint") from None
    if "__meta__" not in params:
        raise ConfigError(f"{path}: no '__meta__' entry; not a uwbcorr checkpoint")
    try:
        meta = json.loads(str(params.pop("__meta__")))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: '__meta__' is not JSON: {exc}") from None
    version = meta.get("schema_version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise ConfigError(f"{path}: checkpoint schema {version} not supported")
    stored = meta.get("config", {})
    names = {f.name for f in fields(ModelConfig)}
    missing = sorted(names - set(stored))
    if missing:
        raise ConfigError(f"{path}: missing config key {missing[0]!r}")
    unknown = sorted(set(stored) - names)
    if unknown:
        raise ConfigError(f"{path}: unknown config key {unknown[0]!r}")
    try:
        config = ModelConfig(**stored)
    except (TypeError, ValueError) as exc:  # ValueError covers every UwbcorrError
        raise ConfigError(f"{path}: {exc}") from None
    expected = init_parameters(config)
    for name, want in expected.items():
        if name not in params:
            raise ConfigError(f"{path}: missing parameter {name!r}")
        if params[name].shape != want.shape:
            raise ConfigError(
                f"{path}: parameter {name!r} has shape {params[name].shape}, "
                f"the config needs {want.shape}"
            )
    unknown = sorted(set(params) - set(expected))
    if unknown:
        raise ConfigError(f"{path}: unknown parameter {unknown[0]!r}")
    return CorrectionModel(config, params)
