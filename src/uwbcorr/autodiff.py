"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough ops for an encoder-only transformer: broadcast arithmetic,
batched matmul, relu, fused softmax/layer-norm over the last axis, shape
moves, row gathers for trainable tables, and a full mean for the loss.
Three ops take optional operands that fold a neighbouring step into the
same node: ``matmul(a, b, bias, relu)`` adds a bias over the last axis to the
product and clamps it at zero, ``layer_norm(a, gain, bias, h=, keep=,
scale=)`` first adds a residual operand ``h``, masked by inverted dropout,
and then applies the affine, and ``softmax(a, scale=1.0)`` scales its input
first. A 2-D right operand shared across the batch dimensions of ``a`` runs
as one flattened GEMM in the forward and both backward products.

The tape keeps only what a backward reads. A tensor's gradient, parents and
closure live on its ``GradSlot``, apart from its data: a node's parents are
its operands' slots, and its closure captures slots, shapes and the arrays
it reads, never a ``Tensor``. So an array that no backward reads, such as a
softmax's scores or a layer norm's inputs, goes when the model code drops
its tensor. Tensors off the tape share ``OFF_TAPE``, and an op returns
before it builds a closure when no operand needs a gradient or inside a
``no_grad()`` block, so an evaluation pass keeps no tape.

Gradients accumulate into ``.grad`` out of place: a later contribution
makes a new array and never writes into the one kept, so a backward closure
may hand over the upstream gradient or a view of it without a copy, and
several tensors may hold the same array. ``backward`` frees the tape as it
sweeps: once a node's closure has run, the node drops it, its parents and
its gradient, so each captured array and inner gradient goes as soon as the
sweep has passed it. Only leaves keep ``.grad``.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True
LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


class GradSlot:
    """A tensor's place on the tape: its gradient, whether it needs one, the
    slots of the operands it came from and the closure that feeds them."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backward")

    def __init__(self, requires_grad: bool = False, parents: tuple = (), backward=None):
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward


OFF_TAPE = GradSlot()  # shared by every tensor without a slot of its own; never written


def _on_slot(name: str) -> property:
    """A Tensor attribute kept on its slot; setting it on a tensor off the
    tape first gives that tensor a slot of its own."""

    def put(t, value):
        if t.slot is OFF_TAPE:
            t.slot = GradSlot()
        setattr(t.slot, name, value)

    return property(lambda t: getattr(t.slot, name), put)


class Tensor:
    __slots__ = ("data", "slot")
    grad, requires_grad = _on_slot("grad"), _on_slot("requires_grad")
    _parents, _backward = _on_slot("_parents"), _on_slot("_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.slot = GradSlot(True) if requires_grad else OFF_TAPE

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


def _taped(*operands):
    """The operands' slots, ``OFF_TAPE`` for an absent one, when the result
    goes on the tape; None under ``no_grad`` or when none needs a gradient."""
    if _grad_enabled:
        slots = tuple(OFF_TAPE if t is None else t.slot for t in operands)
        if any(s.requires_grad for s in slots):
            return slots
    return None


def _node(data, slots, backward) -> Tensor:
    out = Tensor(data)
    out.slot = GradSlot(True, tuple(s for s in slots if s.requires_grad), backward)
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


def _accum(s: GradSlot, g: np.ndarray):
    """Add g to s.grad out of place; g may be shared, so it is never written."""
    if not s.requires_grad:
        return
    s.grad = g if s.grad is None else s.grad + g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    if (slots := _taped(a, b)) is None:
        return Tensor(out)
    (sa, sb), a_shape, b_shape = slots, a.data.shape, b.data.shape

    def bw(g):
        _accum(sa, _unbroadcast(g, a_shape))
        _accum(sb, _unbroadcast(g, b_shape))

    return _node(out, slots, bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    if (slots := _taped(a, b)) is None:
        return Tensor(out)
    (sa, sb), a_shape, b_shape = slots, a.data.shape, b.data.shape

    def bw(g):
        _accum(sa, _unbroadcast(g, a_shape))
        if sb.requires_grad:
            _accum(sb, -_unbroadcast(g, b_shape))

    return _node(out, slots, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    if (slots := _taped(a, b)) is None:
        return Tensor(out)
    (sa, sb), x, y = slots, a.data, b.data

    def bw(g):
        if sa.requires_grad:
            _accum(sa, _unbroadcast(g * y, x.shape))
        if sb.requires_grad:
            _accum(sb, _unbroadcast(g * x, y.shape))

    return _node(out, slots, bw)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c
    if (slots := _taped(a)) is None:
        return Tensor(out)
    (sa,) = slots

    def bw(g):
        _accum(sa, g * c)

    return _node(out, slots, bw)


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
    if bias is not None:
        out += bias.data
    if relu:
        np.maximum(out, 0.0, out=out)
    if (slots := _taped(a, b, bias)) is None:
        return Tensor(out)
    (sa, sb, sbias), a_shape, b_shape = slots, a.data.shape, b.data.shape
    x = (a2 if flat else a.data) if sb.requires_grad else None  # read only for b's gradient
    w = b.data if sa.requires_grad else None  # and only for a's
    positive = out if relu else None
    bias_shape = None if bias is None else bias.data.shape

    def bw(g):
        if positive is not None:
            g = g * (positive > 0)
        if sa.requires_grad:
            if flat:
                ga = (g.reshape(-1, g.shape[-1]) @ w.T).reshape(a_shape)
            else:
                ga = _unbroadcast(g @ np.swapaxes(w, -1, -2), a_shape)
            _accum(sa, ga)
        if sb.requires_grad:
            if flat:
                gb = x.T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(x, -1, -2) @ g, b_shape)
            _accum(sb, gb)
        if sbias.requires_grad:
            _accum(sbias, _unbroadcast(g, bias_shape))

    return _node(out, slots, bw)


def relu(a: Tensor) -> Tensor:
    """max(a, 0); the backward reads ``out > 0``, so the tape keeps no input."""
    out = np.maximum(a.data, 0.0)
    if (slots := _taped(a)) is None:
        return Tensor(out)
    (sa,) = slots

    def bw(g):
        _accum(sa, g * (out > 0))

    return _node(out, slots, bw)


def softmax(a: Tensor, scale: float = 1.0) -> Tensor:
    """Softmax over the last axis of ``a * scale``. The backward reads the
    output, so the tape keeps no input."""
    y = a.data * scale
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    if (slots := _taped(a)) is None:
        return Tensor(y)
    (sa,) = slots

    def bw(g):
        ga = g - (g * y).sum(axis=-1, keepdims=True)
        ga *= y
        ga *= scale
        _accum(sa, ga)

    return _node(y, slots, bw)


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
    the mask; it reads the normalized rows, their inverse deviation, the
    gain and the mask, and neither input's data."""
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
    if (slots := _taped(a, h, gain, bias)) is None:
        return Tensor(out)
    sa, sh, sgain, sbias = slots
    w = None if gain is None else gain.data
    bias_shape = None if bias is None else bias.data.shape

    def bw(g):
        if sgain.requires_grad:
            _accum(sgain, _unbroadcast(g * y, w.shape))
        if sbias.requires_grad:
            _accum(sbias, _unbroadcast(g, bias_shape))
        if sa.requires_grad or sh.requires_grad:
            gy = g * w if w is not None else g.copy()
            gym = np.add.reduce(gy, axis=-1, keepdims=True) / n
            gyy = np.add.reduce(gy * y, axis=-1, keepdims=True) / n
            gy -= gym
            gy -= y * gyy
            gy *= inv
            _accum(sa, gy)
            if sh.requires_grad:
                _accum(sh, gy if keep is None else gy * (keep * scale))

    return _node(out, slots, bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    if (slots := _taped(a)) is None:
        return Tensor(out)
    (sa,), a_shape = slots, a.data.shape

    def bw(g):
        _accum(sa, g.reshape(a_shape))

    return _node(out, slots, bw)


def transpose(a: Tensor, axes) -> Tensor:
    out = a.data.transpose(axes)
    if (slots := _taped(a)) is None:
        return Tensor(out)
    (sa,) = slots

    def bw(g):
        # a C-ordered copy, so later products read contiguous memory
        _accum(sa, g.transpose(np.argsort(axes)).copy())

    return _node(out, slots, bw)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    out = np.concatenate([p.data for p in parts], axis=axis)
    if (slots := _taped(*parts)) is None:
        return Tensor(out)
    sizes = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def bw(g):
        for s, piece in zip(slots, np.split(g, sizes, axis=axis)):
            _accum(s, piece)

    return _node(out, slots, bw)


def select(a: Tensor, axis: int, index: int) -> Tensor:
    """Pick one slice along an axis (the axis is dropped)."""
    out = np.take(a.data, index, axis=axis)
    if (slots := _taped(a)) is None:
        return Tensor(out)
    (sa,), a_shape = slots, a.data.shape

    def bw(g):
        full = np.zeros(a_shape)
        sl = [slice(None)] * len(a_shape)
        sl[axis] = index
        full[tuple(sl)] = g
        _accum(sa, full)

    return _node(out, slots, bw)


def gather(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup table[indices]; gradients scatter-add back into the table."""
    indices = np.asarray(indices, dtype=int)
    out = table.data[indices]
    if (slots := _taped(table)) is None:
        return Tensor(out)
    (st,), table_shape = slots, table.data.shape

    def bw(g):
        full = np.zeros(table_shape)
        np.add.at(full, indices, g)
        _accum(st, full)

    return _node(out, slots, bw)


def mean_all(a: Tensor) -> Tensor:
    out = a.data.mean()
    if (slots := _taped(a)) is None:
        return Tensor(out)
    (sa,), a_shape, n = slots, a.data.shape, a.data.size

    def bw(g):
        _accum(sa, np.full(a_shape, float(g) / n))

    return _node(out, slots, bw)


def backward(root: Tensor):
    """Reverse-topological sweep seeding d(root)/d(root) = 1; it frees the
    graph as it goes, so a root can be swept once."""
    top = root.slot
    if top._backward is None:
        raise ValueError("backward needs a root with a tape: built under no_grad or swept")
    topo: list[GradSlot] = []
    seen = set()
    stack = [(top, False)]
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
    top.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward, node._parents, node.grad = None, (), None
