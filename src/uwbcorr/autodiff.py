"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough ops for an encoder-only transformer: broadcast arithmetic,
batched matmul, relu, fused softmax/layer-norm over the last axis, shape
moves, row gathers for trainable tables, and a full mean for the loss.
Three ops take optional operands that fold a neighbouring step into the
same node: ``matmul(a, b, bias, relu)`` adds a bias over the last axis to the
product and clamps it at zero, ``layer_norm(a, gain, bias, h=, keep=,
scale=)`` first adds a residual operand ``h``, masked by inverted dropout,
and then applies the affine, and ``softmax(a, scale)`` scales its input
first. A 2-D right operand shared across the batch dimensions of ``a`` runs
as one flattened GEMM in the forward and both backward products.

Gradients accumulate into ``Tensor.grad`` out of place: a later
contribution makes a new array and never writes into the one kept, so a
backward closure may hand over the upstream gradient or a view of it
without a copy, and several tensors may hold the same array. A node whose
inputs carry no gradient gets no closure, and inside a ``no_grad()`` block
no node gets one, so an evaluation pass keeps no tape. ``backward`` frees
the tape as it sweeps: once a node's closure has run, the node drops it,
its parents and its gradient, so each activation and inner gradient goes
as soon as the sweep has passed it. Only leaves keep ``.grad``.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True
LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@contextlib.contextmanager
def no_grad():
    """Build no closures inside the block: every op output is a plain leaf."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accum(t: Tensor, g: np.ndarray):
    """Add g to t.grad out of place; g may be shared, so it is never written."""
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, -_unbroadcast(g, b.data.shape))

    return _node(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    def bw(g):
        _accum(a, g * c)

    return _node(a.data * c, (a,), bw)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """a @ b, plus ``bias`` broadcast over the product when given, clamped at
    zero in place when ``relu``; the backward then reads ``out > 0``, so the
    tape keeps no pre-activation.

    Operands must be >= 2-D; batch dimensions broadcast like elementwise ops.
    """
    flat = b.data.ndim == 2 and a.data.ndim > 2
    if flat:
        # shared weight across the batch: one flattened gemm instead of a
        # batched product, here and in both backward products
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[-1:])
    else:
        out = a.data @ b.data
    parents = (a, b)
    if bias is not None:
        out += bias.data
        parents = (a, b, bias)
    if relu:
        np.maximum(out, 0.0, out=out)

    def bw(g):
        if relu:
            g = g * (out > 0)
        if a.requires_grad:
            if flat:
                ga = (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.data.shape)
            else:
                ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
            _accum(a, ga)
        if b.requires_grad:
            if flat:
                gb = a2.T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
            _accum(b, gb)
        if bias is not None and bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))

    return _node(out, parents, bw)


def relu(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, g * (a.data > 0))

    return _node(np.maximum(a.data, 0.0), (a,), bw)


def softmax(a: Tensor, scale: float | None = None) -> Tensor:
    """Softmax over the last axis of ``a``, or of ``a * scale`` when given."""
    if scale is None:
        y = a.data - a.data.max(axis=-1, keepdims=True)
    else:
        y = a.data * scale
        y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def bw(g):
        ga = g - (g * y).sum(axis=-1, keepdims=True)
        ga *= y
        if scale is not None:
            ga *= scale
        _accum(a, ga)

    return _node(y, (a,), bw)


def layer_norm(
    a: Tensor, gain: Tensor | None = None, bias: Tensor | None = None,
    h: Tensor | None = None, keep: np.ndarray | None = None, scale: float = 1.0,
) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then multiply by
    ``gain`` and add ``bias`` when given. With a residual ``h`` of ``a``'s
    shape the input is ``a + h * (keep * scale)``, or ``a + h`` without a
    boolean ``keep`` mask: a post-norm block's dropout, residual add and
    layer norm in one node, with the arithmetic of those three nodes. The
    backward hands ``a`` the normalized gradient and ``h`` the same times
    the mask, and reads neither input's data."""
    n = a.data.shape[-1]  # the means are ndarray.mean's sum and divide, without its wrapper
    if h is None:
        y = a.data - np.add.reduce(a.data, axis=-1, keepdims=True) / n
    else:
        y = a.data + (h.data if keep is None else h.data * (keep * scale))
        y -= np.add.reduce(y, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    y *= inv
    out = y
    if gain is not None or bias is not None:
        out = y * gain.data if gain is not None else y.copy()
        if bias is not None:
            out += bias.data
    parents = tuple(t for t in (a, h, gain, bias) if t is not None)

    def bw(g):
        if gain is not None and gain.requires_grad:
            _accum(gain, _unbroadcast(g * y, gain.data.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        if a.requires_grad or (h is not None and h.requires_grad):
            gy = g * gain.data if gain is not None else g.copy()
            gym = np.add.reduce(gy, axis=-1, keepdims=True) / n
            gyy = np.add.reduce(gy * y, axis=-1, keepdims=True) / n
            gy -= gym
            gy -= y * gyy
            gy *= inv
            _accum(a, gy)
            if h is not None and h.requires_grad:
                _accum(h, gy if keep is None else gy * (keep * scale))

    return _node(out, parents, bw)


def reshape(a: Tensor, shape) -> Tensor:
    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    def bw(g):
        # a C-ordered copy, so later products read contiguous memory
        _accum(a, g.transpose(np.argsort(axes)).copy())

    return _node(a.data.transpose(axes), (a,), bw)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    sizes = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def bw(g):
        for p, piece in zip(parts, np.split(g, sizes, axis=axis)):
            _accum(p, piece)

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


def select(a: Tensor, axis: int, index: int) -> Tensor:
    """Pick one slice along an axis (the axis is dropped)."""

    def bw(g):
        full = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        full[tuple(sl)] = g
        _accum(a, full)

    return _node(np.take(a.data, index, axis=axis), (a,), bw)


def gather(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup table[indices]; gradients scatter-add back into the table."""
    indices = np.asarray(indices, dtype=int)

    def bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, indices, g)
        _accum(table, full)

    return _node(table.data[indices], (table,), bw)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def bw(g):
        _accum(a, np.full(a.data.shape, float(g) / n))

    return _node(a.data.mean(), (a,), bw)


def backward(root: Tensor):
    """Reverse-topological sweep seeding d(root)/d(root) = 1; it frees the
    graph as it goes, so a root can be swept once."""
    if root._backward is None:
        raise ValueError("backward needs a root with a tape: built under no_grad or swept")
    topo: list[Tensor] = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    root.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward, node._parents, node.grad = None, (), None
