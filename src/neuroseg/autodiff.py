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

``parallel()`` opens the one parallel region: a pool of one thread per
usable core (``parallel_workers``), OpenBLAS pinned to one thread while it is
open, and the region published to the current context as ``no_grad``
publishes its flag, for as long as the ``with`` block that opened it; a
nested ``parallel()`` reuses it. Inside it, a convolution shares its slabs
among the calling thread and the workers, which take them in slab order from
one queue, and every slab runs the same GEMM as outside it; the weight
gradient keeps its per-slab partials and sums them in slab order, so every
result is bitwise that of one thread. Pool threads do not see the region, so
work running on them is never split again.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class ShapeError(ValueError):
    pass


class BatchNormStatsError(RuntimeError):
    """Eval-mode batch norm was called before any training statistics exist."""


# per thread (and per asyncio task): a no_grad() block elsewhere never
# stops graph building here
_grad_enabled = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph construction (inference / MC sampling) in the current
    context only."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


@functools.lru_cache(maxsize=None)
def _blas_thread_api():
    """``(get, set)`` of the OpenBLAS thread count that numpy's matmul uses,
    or None when numpy's BLAS exports neither (another BLAS, or none)."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("openblas", "scipy_openblas"):
        for suffix in ("", "64_", "_64"):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _BlasPin:
    """Process-wide count of open ``_one_blas_thread`` blocks. The BLAS
    thread count is process state, so overlapping blocks (from several
    threads) share one pin: the first sets 1 thread and the last restores the
    count the first one found."""

    lock = threading.Lock()
    depth = 0
    saved = 0


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, so that GEMMs issued from
    several Python threads at once do not contend for BLAS's own threads.
    Callers check ``_blas_thread_api()`` first."""
    get, put = _blas_thread_api()
    with _BlasPin.lock:
        if _BlasPin.depth == 0:
            _BlasPin.saved = get()
            put(1)
        _BlasPin.depth += 1
    try:
        yield
    finally:
        with _BlasPin.lock:
            _BlasPin.depth -= 1
            if _BlasPin.depth == 0:
                put(_BlasPin.saved)


def parallel_workers() -> int:
    """Workers of a parallel region: one per usable core when numpy's
    OpenBLAS thread count can be set, else 1 (no pool, BLAS threads as they
    are)."""
    if _blas_thread_api() is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class _Region:
    workers: int
    pool: Optional[ThreadPoolExecutor]  # None with one worker


_region: ContextVar[Optional[_Region]] = ContextVar("parallel_region", default=None)


@contextmanager
def parallel():
    """Run the block in a parallel region and yield it: the region already
    published in this context, else a new one published for the block, with
    ``parallel_workers()`` pool threads and OpenBLAS pinned to one thread
    while they exist."""
    region = _region.get()
    if region is not None:
        yield region
        return
    n = parallel_workers()
    pin, pool = nullcontext(), nullcontext()
    if n > 1:
        # the initializer keeps the region from a pool thread even where
        # threads inherit their creator's context (an interpreter option): no
        # nesting
        pin = _one_blas_thread()
        pool = ThreadPoolExecutor(n, "parallel", initializer=_region.set, initargs=(None,))
    with pin, pool as executor:
        region = _Region(n, executor)
        token = _region.set(region)
        try:
            yield region
        finally:
            _region.reset(token)


def _each_slab(fn, slabs):
    """Yield ``fn(s)`` for each slab, in slab order. Outside a parallel region
    each slab runs as it is yielded. In one, the calling thread and one pool
    thread per further worker take slabs from one shared queue, in slab
    order, until it is empty, so a slow or stalled worker holds up only the
    slab it has; the results are yielded once every slab is done."""
    region = _region.get()
    n = 1 if region is None else min(region.workers, len(slabs))
    if n == 1:
        yield from map(fn, slabs)
        return
    results = [None] * len(slabs)
    queue = iter(range(len(slabs)))
    lock = threading.Lock()

    def run():
        while True:
            with lock:
                i = next(queue, None)
            if i is None:
                return
            results[i] = fn(slabs[i])

    futures = [region.pool.submit(run) for _ in range(n - 1)]
    try:
        run()
    finally:
        wait(futures)  # no slab outlives the call, even when one fails
    for future in futures:
        future.result()
    yield from results


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
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
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
    """Zero 'same' padding of a (B, C, X, Y, Z) array for the odd kernel ``w``:
    ``a`` written into the interior of a zeroed array, or ``a`` itself for a
    1x1x1 kernel, which needs no padding."""
    px, py, pz = (k // 2 for k in w.shape[2:])
    if px == py == pz == 0:
        return a
    B, C, X, Y, Z = a.shape
    out = np.zeros((B, C, X + 2 * px, Y + 2 * py, Z + 2 * pz), dtype=a.dtype)
    out[:, :, px : px + X, py : py + Y, pz : pz + Z] = a
    return out


def _slabs(xp, w, dims):
    """``(planes, gather)``: the slabs of output x-planes, as slices, and
    ``gather(p)``, the im2col matrix (C·kx·ky·kz, B·slab·Y·Z) of the padded
    input ``xp`` for slab ``p``, rows in ``w.reshape(O, -1)`` order. A slab is
    X // (kx·ky·kz) planes (at least one), so a block holds about one copy of
    the input, not kx·ky·kz."""
    X = dims[0]
    kernel = w.shape[2:]
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3, 4))
    slab = max(1, X // int(np.prod(kernel)))

    def gather(planes):
        view = windows[:, :, planes].transpose(1, 5, 6, 7, 0, 2, 3, 4)
        return view.reshape(w[0].size, -1)

    return [slice(x0, x0 + slab) for x0 in range(0, X, slab)], gather


def _correlate(xp, w, dims):
    """Cross-correlation of the padded input ``xp`` (B, C, ...) with kernel
    ``w`` (O, C, kx, ky, kz): one GEMM per slab. Returns a (B, O, X, Y, Z) view."""
    B, O = xp.shape[0], w.shape[0]
    w2 = w.reshape(O, -1)
    acc = np.empty((O, B, *dims), dtype=xp.dtype)
    planes, gather = _slabs(xp, w, dims)

    def slab(p):
        acc[:, :, p] = (w2 @ gather(p)).reshape(acc[:, :, p].shape)

    for _ in _each_slab(slab, planes):
        pass  # each call writes its own planes of acc
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
    out_data = _correlate(xp, w.data, dims)
    out_data += b.data.reshape(1, O, 1, 1, 1)

    def bwd(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3, 4)))
        if w.requires_grad:
            go = g.transpose(1, 0, 2, 3, 4)
            planes, gather = _slabs(xp, w.data, dims)
            gw = 0
            # summed in slab order, whatever the worker count
            for part in _each_slab(lambda p: go[:, :, p].reshape(O, -1) @ gather(p).T, planes):
                gw = gw + part
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
    out_data += b.data.reshape(1, O, 1, 1, 1)

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

    The forward pass is a running maximum over the eight strided views of
    the 2x2x2 blocks. The block argmax is taken only in the backward pass,
    which routes the gradient to it; ties break to the first position in
    (dx, dy, dz) order, and a NaN takes the gradient from any number.
    """
    _check_5d(x)
    B, C, X, Y, Z = x.shape
    for axis, n in zip("xyz", (X, Y, Z)):
        if n % 2:
            raise ShapeError(f"max_pool3d needs even spatial dims; axis {axis} has {n}")
    out_data = x.data[:, :, 0::2, 0::2, 0::2].copy()
    for dx, dy, dz in list(np.ndindex(2, 2, 2))[1:]:
        # the running maximum is the second operand, the one np.maximum
        # returns on a tie, so even a -0/+0 tie keeps the first value
        np.maximum(x.data[:, :, dx::2, dy::2, dz::2], out_data, out=out_data)

    def bwd(g):
        blocks = (
            x.data.reshape(B, C, X // 2, 2, Y // 2, 2, Z // 2, 2)
            .transpose(0, 1, 2, 4, 6, 3, 5, 7)
            .reshape(B, C, X // 2, Y // 2, Z // 2, 8)
        )
        gb = np.zeros(blocks.shape, dtype=g.dtype)
        np.put_along_axis(gb, blocks.argmax(axis=-1)[..., None], g[..., None], axis=-1)
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
    xhat = x.data - mean_c.reshape(shape)
    xhat *= inv.reshape(shape)
    out_data = gamma.data.reshape(shape) * xhat
    out_data += beta.data.reshape(shape)

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
    mask = keep.astype(x.dtype)
    mask *= scale
    out_data = x.data * mask

    def bwd(g):
        x.accumulate_grad(g * mask)

    return _make(out_data, (x,), bwd)


def softmax_channels(x: Tensor) -> Tensor:
    """Stable softmax over the channel axis; outputs sum to 1 per voxel."""
    _check_5d(x)
    out_data = x.data - x.data.max(axis=1, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=1, keepdims=True)

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
