"""Encoder-only transformer that corrects TDoA position estimates.

Pipeline per sample: raw CIRs -> ordered input tensor -> patches -> linear
token embedding (+ CLS) -> positional encodings -> post-norm encoder blocks
(multi-head self-attention and a position-wise feed-forward, each with
residual + layer norm) -> the CLS output concatenated with the normalized
baseline estimate feeds an MLP head (256, 128, 64, 3). The head predicts a
correction that is added to the baseline, so a zero-initialized final layer
reproduces the baseline exactly.

Everything runs in float64 on a small tape-based autodiff engine. One
batched graph, ``CorrectionModel.forward_prepared``, serves training,
evaluation and single-sample prediction.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .cir import ORDERINGS, WINDOW_LENGTH, InputTensor, build_input_tensor
from .encodings import ENCODING_KINDS, constant_encoding_rows
from .errors import ConfigError, IncompatibleEncodingError, check_int, check_ints, is_number
from .patching import PATCH_STRATEGIES, check_l_patch, patch_multi_cir, patch_per_cir
from .simulate import Environment, Sample

CHECKPOINT_SCHEMA_VERSION = 3
SWEEP_KEYS = ("patching", "ordering", "encoding", "l_patch", "d_model")
CHUNK_ROWS = 512  # token rows (samples x tokens) a chunk of ``chunks`` holds, unless one sample has more


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
        check_ints("head_widths", self.head_widths)
        if not self.head_widths or self.head_widths[-1] != 3:
            raise ConfigError(f"regression head must end in 3 outputs, got {self.head_widths!r}")
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
        if self.patching == "multi_cir" and self.encoding != "learned":
            raise IncompatibleEncodingError(
                "spatial encodings need per-CIR patches; multi-CIR tokens mix "
                "samples from every anchor"
            )
        if not (is_number(self.dropout_p) and 0.0 <= self.dropout_p < 1.0):
            raise ConfigError(f"dropout_p must be a number in [0, 1), got {self.dropout_p!r}")

    def with_environment(self, env: Environment) -> "ModelConfig":
        """This config with the anchor count and extent of ``env``."""
        return replace(self, n_total=env.n_anchors, extent=env.extent)

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
    cfg = ModelConfig(patching, ordering, encoding, l_patch, d_model, **overrides)
    return cfg if env is None else cfg.with_environment(env)


def init_parameters(
    cfg: ModelConfig, seed: int = 0, zero_final_layer: bool = True
) -> dict[str, np.ndarray]:
    """Fresh parameter arrays: fan-in normal for linear maps, N(0, 0.02^2)
    for embeddings/encoding tables, identity layer norms.

    The final head layer starts at zero by default, so the predicted
    correction is zero and the model reproduces the baseline estimate
    before any training.
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
    """Constant per-sample inputs for the differentiable forward pass.

    Only the patches that are not all zero are kept, with their row indices;
    the zero rows of absent anchors are restored in ``forward_prepared``.
    """

    patch_rows: np.ndarray  # (n_kept,) indices of the kept patches, ascending
    patch_values: np.ndarray  # (n_kept, patch_size) those patches
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
        pe_const = constant_encoding_rows(
            tensor, cfg.k_per_cir, cfg.encoding, cfg.d_model, cfg.extent
        )
    rows = np.flatnonzero(patches.values.any(axis=1))
    return PreparedExample(
        patch_rows=rows,
        patch_values=patches.values[rows],
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


def _multi_head_attention(
    queries: ad.Tensor, x: ad.Tensor, prm, pre: str, cfg: ModelConfig
) -> ad.Tensor:
    """The rows of queries (B, m, d) attend over every row of x (B, n, d)."""
    b, _, d = x.data.shape
    heads = cfg.n_heads
    hw = d // heads

    def project(name, src, axes):
        t = ad.matmul(src, prm[pre + f"attn.w{name}"], prm[pre + f"attn.b{name}"])
        return ad.transpose(ad.reshape(t, (b, src.data.shape[1], heads, hw)), axes)

    # (B, heads, rows, hw) queries and values, and the keys as (B, heads, hw, n)
    q, v = project("q", queries, (0, 2, 1, 3)), project("v", x, (0, 2, 1, 3))
    scores = ad.matmul(q, project("k", x, (0, 2, 3, 1)))
    ctx = ad.matmul(ad.softmax(scores, 1.0 / math.sqrt(hw)), v)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, queries.data.shape[1], d))
    return ad.matmul(ctx, prm[pre + "attn.wo"], prm[pre + "attn.bo"])


def _encoder_stack(x: ad.Tensor, prm, cfg: ModelConfig, keeps) -> ad.Tensor:
    """Post-norm encoder blocks over (B, n, d) tokens, returning (B, 1, d).

    The last block computes only the CLS row: its keys and values still come
    from every token, but the query, attention output, residual adds, layer
    norms and feed-forward run on row 0, which is all the regression head
    reads. ``keeps``, the 2 * n_layers boolean (B, n, d) dropout masks that
    ``CorrectionModel.chunks`` draws, gives block i masks 2i and 2i + 1, cut
    to its rows; without them no dropout is applied.
    """
    b, n, d = x.data.shape
    scale = 1.0 / (1.0 - cfg.dropout_p)
    for i in range(cfg.n_layers):
        pre = f"enc{i}."
        rows, m = x, n
        if i == cfg.n_layers - 1:
            rows, m = ad.reshape(ad.select(x, 1, 0), (b, 1, d)), 1
        keep1, keep2 = (keeps[2 * i][:, :m], keeps[2 * i + 1][:, :m]) if keeps else (None, None)
        att = _multi_head_attention(rows, x, prm, pre, cfg)
        x = ad.layer_norm(rows, prm[pre + "ln1.g"], prm[pre + "ln1.b"], h=att, keep=keep1, scale=scale)
        h = ad.matmul(x, prm[pre + "ff.w1"], prm[pre + "ff.b1"], relu=True)
        h = ad.matmul(h, prm[pre + "ff.w2"], prm[pre + "ff.b2"])
        x = ad.layer_norm(x, prm[pre + "ln2.g"], prm[pre + "ln2.b"], h=h, keep=keep2, scale=scale)
    return x


class CorrectionModel:
    """Parameter store plus the differentiable forward pass."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = {k: ad.Tensor(np.array(v, dtype=float), requires_grad=True) for k, v in params.items()}
        self.history = None  # the TrainingHistory that ``train`` sets

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0, zero_final_layer: bool = True):
        return cls(config, init_parameters(config, seed, zero_final_layer))

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        for k, t in self.params.items():
            t.data = arrays[k].copy()

    def forward_prepared(
        self, examples: Sequence[PreparedExample], train: bool = False, keeps=None
    ) -> ad.Tensor:
        """Batched predictions (B, 3); all examples must share a token count.
        ``keeps`` are the chunk's dropout masks from ``chunks``; with
        dropout_p > 0 a training forward refuses to run without them."""
        if not examples:
            raise ValueError("empty batch")
        n_tokens = examples[0].n_tokens
        if any(e.n_tokens != n_tokens for e in examples):
            raise ValueError("examples in one batch must have equal token counts")
        cfg = self.config
        if train and cfg.dropout_p > 0.0 and keeps is None:
            raise ValueError("train=True needs dropout masks from chunks")
        prm = self.params
        batch = len(examples)

        patch_size = prm["embed.w"].data.shape[0]
        patches = np.zeros((batch, n_tokens - 1, patch_size))
        for b, e in enumerate(examples):
            patches[b, e.patch_rows] = e.patch_values
        embedded = ad.matmul(ad.Tensor(patches), prm["embed.w"], prm["embed.b"])
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

        x = _encoder_stack(x, prm, cfg, keeps)
        cls_out = ad.select(x, 1, 0)
        p_tdoa = np.stack([e.p_tdoa for e in examples])
        h = ad.concat([cls_out, ad.Tensor(p_tdoa / np.asarray(cfg.extent))], axis=1)
        for j in range(len(cfg.head_widths)):
            h = ad.matmul(h, prm[f"head{j}.w"], prm[f"head{j}.b"], relu=j < len(cfg.head_widths) - 1)
        return ad.add(h, ad.Tensor(p_tdoa))

    def chunks(self, examples: Sequence[PreparedExample], train: bool = False, rng=None):
        """(chunk, keeps) pairs of at most max(1, CHUNK_ROWS // n_tokens) consecutive examples.
        The only draw of dropout masks: a training batch with dropout_p > 0 first takes
        2 * n_layers boolean masks ``rng.random((B, n_tokens, d_model)) >= p`` from ``rng``,
        two per block, and each chunk's keeps are its rows of them; otherwise keeps is
        None. A batch ``forward_prepared`` refuses stays whole and is refused there."""
        if train and rng is None:
            raise ValueError("train=True needs an rng for the dropout masks")
        if len({e.n_tokens for e in examples}) != 1:
            return [(examples, None)]
        n_tokens, cfg = examples[0].n_tokens, self.config
        size = max(1, CHUNK_ROWS // n_tokens)
        shape, p = (len(examples), n_tokens, cfg.d_model), cfg.dropout_p
        keeps = [rng.random(shape) >= p for _ in range(2 * cfg.n_layers)] if train and p > 0.0 else None
        return [
            (examples[lo : lo + size], None if keeps is None else [keep[lo : lo + size] for keep in keeps])
            for lo in range(0, len(examples), size)
        ]

    def predict_prepared(self, examples: Sequence[PreparedExample]) -> np.ndarray:
        """Grad-free (B, 3) predictions in input order for any mix of token
        counts: each group of ``token_batches`` runs through ``chunks``."""
        if not examples:
            raise ValueError("empty batch")
        out = np.empty((len(examples), 3))
        with ad.no_grad():
            for idx in token_batches(examples, len(examples)):
                group = [examples[i] for i in idx]
                out[idx] = np.concatenate([self.forward_prepared(c).data for c, _ in self.chunks(group)])
        return out


def token_batches(examples: Sequence[PreparedExample], size: int, rng=None) -> list[list[int]]:
    """The one grouping by token count: indices into ``examples`` in batches of at
    most ``size`` with one count, groups in order of first appearance. With ``rng``
    each group is shuffled, one permutation per group, before it is cut."""
    groups: dict[int, list[int]] = {}
    for i, example in enumerate(examples):
        groups.setdefault(example.n_tokens, []).append(i)
    batches = []
    for idx in groups.values():
        if rng is not None:
            idx = [idx[i] for i in rng.permutation(len(idx))]
        batches.extend(idx[lo : lo + size] for lo in range(0, len(idx), size))
    return batches


def save_checkpoint(model: CorrectionModel, path):
    meta = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": asdict(model.config),
    }
    np.savez(path, __meta__=np.array(json.dumps(meta)), **model.parameter_arrays())


def load_checkpoint(path) -> CorrectionModel:
    """Model from a checkpoint. A file that is not an .npz, a missing or
    non-JSON ``__meta__``, another schema version, a config that is not a
    JSON object, a missing or unknown config key, a config value
    ``ModelConfig`` rejects, or parameter names and shapes other than those
    ``init_parameters`` gives for the stored config raise ConfigError naming
    the file and the first offending key."""
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
    if not isinstance(stored, dict):
        raise ConfigError(f"{path}: config must be a JSON object, got {json.dumps(stored)}")
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
