"""Span tracing installed from outside the package.

A :class:`Tracer` keeps spans in memory: name, start, end, the index of the
enclosing span and a small info dict. :func:`installed` wraps module and
class attributes of ``uwbcorr`` with timing wrappers and puts the originals
back on exit, so the package source stays untouched. Every ``autodiff`` op
gets a forward span, and the backward closure it leaves on its output node
is wrapped so the backward sweep records a matching backward span.

The wrappers only time calls and read shapes; they do no arithmetic, so
losses and gradients are bit-identical with tracing on.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
import time

# Public functions and methods traced at layer boundaries, as
# (module, qualified attribute, span name).
LAYER_TARGETS = (
    ("uwbcorr.simulate", "generate_dataset", "simulate.generate_dataset"),
    ("uwbcorr.dataio", "write_samples_jsonl", "dataio.write_samples_jsonl"),
    ("uwbcorr.dataio", "read_samples_jsonl", "dataio.read_samples_jsonl"),
    ("uwbcorr.tdoa", "baseline_position", "tdoa.baseline_position"),
    ("uwbcorr.cir", "build_input_tensor", "cir.build_input_tensor"),
    ("uwbcorr.patching", "patch_per_cir", "patching.patch"),
    ("uwbcorr.patching", "patch_multi_cir", "patching.patch"),
    ("uwbcorr.encodings", "constant_encoding_rows", "encodings.constant_encoding_rows"),
    ("uwbcorr.model", "prepare_example", "model.prepare_example"),
    ("uwbcorr.model", "CorrectionModel.forward_prepared", "model.forward_prepared"),
    ("uwbcorr.model", "save_checkpoint", "model.save_checkpoint"),
    ("uwbcorr.model", "load_checkpoint", "model.load_checkpoint"),
    ("uwbcorr.training", "train", "training.train"),
    ("uwbcorr.training", "evaluate_model", "training.evaluate_model"),
    ("uwbcorr.training", "prepare_training_examples", "training.prepare_training_examples"),
    ("uwbcorr.training", "compute_gradients", "training.compute_gradients"),
    ("uwbcorr.training", "batch_loss", "training.batch_loss"),
    ("uwbcorr.training", "Adam.step", "training.Adam.step"),
)

# autodiff op -> the category its per-layer metrics are reported under.
AUTODIFF_OPS = {
    "matmul": "matmul",
    "softmax": "softmax",
    "layer_norm": "layer_norm",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "scale": "elementwise",
    "relu": "elementwise",
    "mean_all": "elementwise",
    "reshape": "shape",
    "transpose": "shape",
    "concat": "shape",
    "select": "shape",
    "gather": "shape",
}

MATMUL_ROLES = ("embed", "attn_proj", "attn_scores", "attn_ctx", "ff", "head")


class Tracer:
    """In-memory span recorder for one thread.

    Each span is a list ``[name, start, end, parent, info]``; ``parent`` is
    the index of the span open when it began, or -1.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        # Live parameter tensors of the model whose forward is running,
        # id -> (name, tensor); refreshed at every forward_prepared call.
        self.params: dict[int, tuple] = {}
        self.last_softmax = None
        self.missing: list[str] = []  # traced attributes the package lacks

    def begin(self, name: str, info=None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, info])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def clear(self):
        if self._open:
            raise RuntimeError("cannot clear while spans are open")
        self.spans = []


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children may overlap one another; the covered part is the union of their
    intervals clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def tail_percentile(n: int, cap: float = 99.0):
    """Highest percentile of n samples with at least ten samples beyond it.

    Percentiles are taken from the ladder 99.9, 99, 95, 90, 75, 50 and capped
    at ``cap``; returns None when even the median has fewer than ten beyond.
    """
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if q <= cap and n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# --- installing wrappers -------------------------------------------------


def _resolve(module_name: str, attr: str):
    """The object holding ``attr`` and the attribute's last name, or None."""
    try:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    return (owner, leaf) if hasattr(owner, leaf) else None


def _patch_everywhere(original, replacement, restore: list):
    """Rebind every ``uwbcorr`` module attribute that holds ``original``.

    Modules import each other's functions by name, so one function can be
    bound in several namespaces; each binding is replaced and remembered.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "uwbcorr" or mod_name.startswith("uwbcorr.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                restore.append((module, key, original))
                setattr(module, key, replacement)


def _layer_wrapper(tracer: Tracer, original, span_name: str):
    def wrapper(*args, **kwargs):
        index = tracer.begin(span_name)
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            tracer.spans[index][4] = {"error": type(exc).__name__}
            raise
        finally:
            tracer.end(index)
        info = _layer_info(span_name, args, kwargs, result)
        if info is not None:
            tracer.spans[index][4] = info
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _forward_wrapper(tracer: Tracer, original):
    def forward_prepared(self, examples, train=False, rng=None):
        tracer.params = {id(t): (name, t) for name, t in self.params.items()}
        index = tracer.begin(
            "model.forward_prepared", {"batch": len(examples), "train": bool(train)}
        )
        try:
            return original(self, examples, train, rng)
        finally:
            tracer.end(index)

    forward_prepared.__wrapped__ = original
    return forward_prepared


def _layer_info(span_name, args, kwargs, result):
    if span_name == "tdoa.baseline_position":
        return {
            "iterations": result.iterations,
            "converged": bool(result.converged),
            "position": result.position,
            "options": kwargs.get("options"),
        }
    if span_name == "simulate.generate_dataset":
        return {"samples": len(result)}
    if span_name == "dataio.write_samples_jsonl":
        return {"samples": len(args[1] if len(args) > 1 else kwargs["samples"])}
    if span_name == "dataio.read_samples_jsonl":
        return {"samples": len(result)}
    if span_name == "patching.patch":
        return {"tokens": result.n_patches + 1}
    if span_name == "training.train":
        return {"epochs": len(result.history.records)}
    if span_name == "training.compute_gradients":
        return {"batch": len(args[1] if len(args) > 1 else kwargs["examples"])}
    return None


def _matmul_role(tracer: Tracer, a, b) -> str:
    entry = tracer.params.get(id(b))
    if entry is not None and entry[1] is b:
        name = entry[0]
        if name.startswith("embed."):
            return "embed"
        if ".attn." in name:
            return "attn_proj"
        if ".ff." in name:
            return "ff"
        if name.startswith("head"):
            return "head"
        return "other"
    if a is tracer.last_softmax:
        return "attn_ctx"  # softmax weights times the values
    if a.data.ndim == 4:
        return "attn_scores"  # queries times transposed keys
    return "other"


def _op_wrapper(tracer: Tracer, original, op: str):
    category = AUTODIFF_OPS[op]
    fw_name = f"autodiff.{op}.fw"
    bw_name = f"autodiff.{op}.bw"

    def wrapper(*args, **kwargs):
        index = tracer.begin(fw_name)
        try:
            out = original(*args, **kwargs)
        finally:
            tracer.end(index)
        info = {"category": category, "bytes": out.data.nbytes}
        if op == "matmul":
            a, b = args[0], args[1]
            info["role"] = _matmul_role(tracer, a, b)
            flop = 2.0 * out.data.size * a.data.shape[-1]
            info["flop"] = flop
            info["bw_flop"] = flop * (int(a.requires_grad) + int(b.requires_grad))
        elif op == "softmax":
            tracer.last_softmax = out
        tracer.spans[index][4] = info
        backward = out._backward
        if backward is not None:

            def timed_backward(g):
                bw_index = tracer.begin(bw_name, info)
                try:
                    backward(g)
                finally:
                    tracer.end(bw_index)

            out._backward = timed_backward
        return out

    wrapper.__wrapped__ = original
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the traced attributes for the duration of the block.

    On exit every rebound attribute gets its original object back, in
    reverse order, even when the block raises. A target the package no
    longer has is skipped and listed in ``tracer.missing``; its metrics
    then read 0.
    """
    import uwbcorr.autodiff as ad

    restore: list = []
    tracer.missing = []
    try:
        for module_name, attr, span_name in LAYER_TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            owner, leaf = found
            original = getattr(owner, leaf)
            if isinstance(owner, type):
                if leaf == "forward_prepared":
                    replacement = _forward_wrapper(tracer, original)
                else:
                    replacement = _layer_wrapper(tracer, original, span_name)
                restore.append((owner, leaf, original))
                setattr(owner, leaf, replacement)
            else:
                _patch_everywhere(original, _layer_wrapper(tracer, original, span_name), restore)
        for op in AUTODIFF_OPS:
            original = getattr(ad, op, None)
            if original is None:
                tracer.missing.append(f"uwbcorr.autodiff.{op}")
                continue
            _patch_everywhere(original, _op_wrapper(tracer, original, op), restore)
        original = ad.backward
        _patch_everywhere(original, _layer_wrapper(tracer, original, "autodiff.backward"), restore)
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
