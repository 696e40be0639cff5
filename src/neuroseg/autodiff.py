"""Minimal reverse-mode automatic differentiation for dense 5-D fields.

Activation tensors are numpy arrays of shape (batch, channels, x, y, z).
Each op returns a Tensor holding a closure that scatters the output gradient
back to its parents; ``Tensor.backward`` runs the closures in reverse
topological order. Gradients accumulate by summation, so shared
subexpressions are handled correctly.

The op set is exactly what the segmentation network needs: 3-D convolution
(same padding), batch normalization, relu, 2x max pooling, 2x transpose
convolution, inverted dropout, channel softmax, channel concatenation, and
elementwise/reduction basics for building small test graphs. Convolutions are
lowered to matrix products by im2col (Chetlur et al., cuDNN, arXiv:1410.0759):
the input is unfolded one slab of x-planes at a time into a (C·kx·ky·kz,
B·slab·Y·Z) block, so BLAS sees one large GEMM per slab while a block stays
about the size of the input. The forward pass and both gradients read these
blocks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    pass


class BatchNormStatsError(RuntimeError):
    """Eval-mode batch norm was called before any training statistics exist."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction (inference / MC sampling)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, value):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += value

    def backward(self):
        """Backpropagate from a scalar output through the recorded graph."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def _make(data, parents, backward):
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def _same_shape(a: Tensor, b: Tensor):
    if a.shape != b.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g if a.data.shape == g.shape else g.sum())
        if b.requires_grad:
            b.accumulate_grad(g if b.data.shape == g.shape else g.sum())

    return _make(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            ga = g * b.data
            a.accumulate_grad(ga if a.data.shape == ga.shape else ga.sum())
        if b.requires_grad:
            gb = g * a.data
            b.accumulate_grad(gb if b.data.shape == gb.shape else gb.sum())

    return _make(out_data, (a, b), bwd)


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum())

    def bwd(g):
        x.accumulate_grad(np.broadcast_to(g, x.data.shape))

    return _make(out_data, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        x.accumulate_grad(g * (x.data > 0))

    return _make(out_data, (x,), bwd)


def _check_5d(x: Tensor, name="input"):
    if x.data.ndim != 5:
        raise ShapeError(f"{name} must be (batch, channels, x, y, z), got {x.shape}")


def _pad(a, w):
    """Zero 'same' padding of a (B, C, X, Y, Z) array for the odd kernel ``w``."""
    return np.pad(a, ((0, 0), (0, 0)) + tuple((k // 2, k // 2) for k in w.shape[2:]))


def _slabs(xp, w, dims):
    """Yield ``(planes, block)`` for each slab of output x-planes: ``block`` is
    the im2col matrix (C·kx·ky·kz, B·slab·Y·Z) of the padded input ``xp``,
    rows in ``w.reshape(O, -1)`` order. A slab is X // (kx·ky·kz) planes (at
    least one), so a block holds about one copy of the input, not kx·ky·kz."""
    X = dims[0]
    kernel = w.shape[2:]
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3, 4))
    slab = max(1, X // int(np.prod(kernel)))
    for x0 in range(0, X, slab):
        view = windows[:, :, x0 : x0 + slab].transpose(1, 5, 6, 7, 0, 2, 3, 4)
        yield slice(x0, x0 + slab), view.reshape(w[0].size, -1)


def _correlate(xp, w, dims):
    """Cross-correlation of the padded input ``xp`` (B, C, ...) with kernel
    ``w`` (O, C, kx, ky, kz): one GEMM per slab. Returns a (B, O, X, Y, Z) view."""
    B, O = xp.shape[0], w.shape[0]
    w2 = w.reshape(O, -1)
    acc = np.empty((O, B, *dims), dtype=xp.dtype)
    for planes, block in _slabs(xp, w, dims):
        acc[:, :, planes] = (w2 @ block).reshape(acc[:, :, planes].shape)
    return acc.transpose(1, 0, 2, 3, 4)


def conv3d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Cross-correlation with odd kernel and zero 'same' padding.

    x: (B, C_in, X, Y, Z); w: (C_out, C_in, kx, ky, kz); b: (C_out,).
    Output spatial dims equal input dims. The forward pass and the input
    gradient are ``_correlate`` calls (the latter with the kernel flipped in
    space and its channel axes swapped); the weight gradient reads the same
    im2col slabs as the forward pass.
    """
    _check_5d(x)
    if w.data.ndim != 5:
        raise ShapeError(f"kernel must be 5-D, got {w.shape}")
    B, C, X, Y, Z = x.shape
    O, Cw, kx, ky, kz = w.shape
    if C != Cw:
        raise ShapeError(f"input has {C} channels but kernel expects {Cw}")
    if b.shape != (O,):
        raise ShapeError(f"bias must be ({O},), got {b.shape}")
    if kx % 2 == 0 or ky % 2 == 0 or kz % 2 == 0:
        raise ShapeError(f"kernel dims must be odd for same padding, got {(kx, ky, kz)}")
    dims = (X, Y, Z)
    xp = _pad(x.data, w.data)
    out_data = _correlate(xp, w.data, dims) + b.data.reshape(1, O, 1, 1, 1)

    def bwd(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3, 4)))
        if w.requires_grad:
            go = g.transpose(1, 0, 2, 3, 4)
            gw = sum(
                go[:, :, planes].reshape(O, -1) @ block.T
                for planes, block in _slabs(xp, w.data, dims)
            )
            w.accumulate_grad(gw.reshape(w.shape))
        if x.requires_grad:
            flipped = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            x.accumulate_grad(_correlate(_pad(g, w.data), flipped, dims))

    return _make(out_data, (x, w, b), bwd)


def transpose_conv3d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """2x upsampling transpose convolution, kernel 2 and stride 2.

    x: (B, C_in, X, Y, Z); w: (C_in, C_out, 2, 2, 2); b: (C_out,).
    Stride equals kernel size, so every output voxel receives exactly one
    kernel contribution.
    """
    _check_5d(x)
    B, C, X, Y, Z = x.shape
    if w.data.ndim != 5 or w.shape[0] != C or w.shape[2:] != (2, 2, 2):
        raise ShapeError(f"kernel must be ({C}, C_out, 2, 2, 2), got {w.shape}")
    O = w.shape[1]
    if b.shape != (O,):
        raise ShapeError(f"bias must be ({O},), got {b.shape}")
    blocks = np.tensordot(x.data, w.data, axes=([1], [0]))  # (B,X,Y,Z,O,2,2,2)
    out_data = blocks.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(B, O, 2 * X, 2 * Y, 2 * Z)
    out_data = out_data + b.data.reshape(1, O, 1, 1, 1)

    def bwd(g):
        gb = g.reshape(B, O, X, 2, Y, 2, Z, 2).transpose(0, 2, 4, 6, 1, 3, 5, 7)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3, 4)))
        if w.requires_grad:
            w.accumulate_grad(
                np.tensordot(x.data, gb, axes=([0, 2, 3, 4], [0, 1, 2, 3]))
            )
        if x.requires_grad:
            x.accumulate_grad(
                np.tensordot(gb, w.data, axes=([4, 5, 6, 7], [1, 2, 3, 4]))
                .transpose(0, 4, 1, 2, 3)
            )

    return _make(out_data, (x, w, b), bwd)


def max_pool3d(x: Tensor) -> Tensor:
    """2x max pooling on all three spatial axes.

    The gradient is routed to the argmax of each 2x2x2 block; ties break to
    the first position in (dx, dy, dz) order.
    """
    _check_5d(x)
    B, C, X, Y, Z = x.shape
    for axis, n in zip("xyz", (X, Y, Z)):
        if n % 2:
            raise ShapeError(f"max_pool3d needs even spatial dims; axis {axis} has {n}")
    blocks = (
        x.data.reshape(B, C, X // 2, 2, Y // 2, 2, Z // 2, 2)
        .transpose(0, 1, 2, 4, 6, 3, 5, 7)
        .reshape(B, C, X // 2, Y // 2, Z // 2, 8)
    )
    arg = blocks.argmax(axis=-1)
    out_data = np.take_along_axis(blocks, arg[..., None], axis=-1)[..., 0]

    def bwd(g):
        gb = np.zeros(blocks.shape, dtype=g.dtype)
        np.put_along_axis(gb, arg[..., None], g[..., None], axis=-1)
        gx = (
            gb.reshape(B, C, X // 2, Y // 2, Z // 2, 2, 2, 2)
            .transpose(0, 1, 2, 5, 3, 6, 4, 7)
            .reshape(B, C, X, Y, Z)
        )
        x.accumulate_grad(gx)

    return _make(out_data, (x,), bwd)


@dataclass
class BatchNormState:
    """Running per-channel statistics owned by one batch-norm layer."""

    running_mean: np.ndarray
    running_var: np.ndarray
    initialized: bool = False

    @classmethod
    def for_channels(cls, channels: int) -> "BatchNormState":
        return cls(np.zeros(channels), np.ones(channels), False)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    mode: str = "train",
    momentum: float = 0.9,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel standardization with learned scale/shift.

    Train mode normalizes by batch statistics (population variance over
    batch and space) and updates the running stats; the first training call
    seeds them directly, later calls blend with ``momentum``. Eval mode uses
    the running stats and fails if none were ever recorded.
    """
    _check_5d(x)
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"gamma/beta must be ({C},), got {gamma.shape}/{beta.shape}")
    axes = (0, 2, 3, 4)
    n = x.data.size // C
    if mode == "train":
        mean = x.data.mean(axis=axes, dtype=np.float64)
        var = x.data.var(axis=axes, dtype=np.float64)
        if state.initialized:
            state.running_mean = momentum * state.running_mean + (1 - momentum) * mean
            state.running_var = momentum * state.running_var + (1 - momentum) * var
        else:
            state.running_mean = mean.copy()
            state.running_var = var.copy()
            state.initialized = True
    elif mode == "eval":
        if not state.initialized:
            raise BatchNormStatsError("eval-mode batch norm before any training batch")
        mean = state.running_mean
        var = state.running_var
    else:
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    mean_c = mean.astype(x.dtype)
    shape = (1, C, 1, 1, 1)
    xhat = (x.data - mean_c.reshape(shape)) * inv.reshape(shape)
    out_data = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)

    def bwd(g):
        sg = g.sum(axis=axes)
        sgx = (g * xhat).sum(axis=axes)
        if beta.requires_grad:
            beta.accumulate_grad(sg)
        if gamma.requires_grad:
            gamma.accumulate_grad(sgx)
        if x.requires_grad:
            scale = (gamma.data * inv).reshape(shape)
            if mode == "train":
                gx = scale * (
                    g - (sg.reshape(shape) + xhat * sgx.reshape(shape)) / n
                )
            else:
                gx = scale * g
            x.accumulate_grad(gx)

    return _make(out_data, (x, gamma, beta), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero each value with probability ``rate`` and scale
    survivors by 1/(1-rate), so the expected value is unchanged and eval-time
    forwards need no rescale. Bitwise reproducible for a given rng state."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        def bwd_id(g):
            x.accumulate_grad(g)

        return _make(x.data, (x,), bwd_id)
    keep = rng.random(x.shape) >= rate
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.dtype)
    mask = keep.astype(x.dtype) * scale
    out_data = x.data * mask

    def bwd(g):
        x.accumulate_grad(g * mask)

    return _make(out_data, (x,), bwd)


def softmax_channels(x: Tensor) -> Tensor:
    """Stable softmax over the channel axis; outputs sum to 1 per voxel."""
    _check_5d(x)
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        x.accumulate_grad(out_data * (g - dot))

    return _make(out_data, (x,), bwd)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    _check_5d(a)
    _check_5d(b)
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"cannot concatenate {a.shape} with {b.shape}")
    ca = a.shape[1]
    out_data = np.concatenate([a.data, b.data], axis=1)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g[:, :ca])
        if b.requires_grad:
            b.accumulate_grad(g[:, ca:])

    return _make(out_data, (a, b), bwd)
