"""Minimal reverse-mode automatic differentiation for dense 5-D fields.

Activation tensors are numpy arrays of shape (batch, channels, x, y, z).
Each op returns a Tensor holding a closure that scatters the output gradient
back to its parents; ``Tensor.backward`` runs the closures in reverse
topological order. Gradients accumulate by summation, so shared
subexpressions are handled correctly.

The op set is exactly what the segmentation network needs: 3-D convolution
(same padding), batch normalization, relu, 2x max pooling, 2x transpose
convolution, inverted dropout, channel softmax, channel concatenation, and
elementwise/reduction basics for building small test graphs.

A convolution's forward pass and its input gradient are one correlation
each (``_correlate``), run in chunks of output x-planes. One rule, on the
input and output channel counts C and O and the plane size Y·Z
(``_kn2row_wins``), picks how each chunk is lowered to matrix products:

- kn2row (Vasudevan, Anderson & Gregg, arXiv:1704.04428) where C >= 4,
  Y·Z >= 256 and C·Y·Z >= ``_KN2ROW_MIN``, under a kernel wider than one
  voxel, and the correlation does not expand (O <= C): the full-resolution
  levels of a wide network. Each kernel offset's input is a strided view of
  the flattened padded input (``_shifted``), so nothing is gathered. A
  chunk's output is the sum of one (O, C)·(C, L) GEMM per offset.
- im2col (Chetlur et al., cuDNN, arXiv:1410.0759) elsewhere: the one-channel
  first conv, small grids, narrow levels and the 1x1x1 head. A chunk's
  input is unfolded into one (C·kx·ky·kz, B·n·Y·Z) matrix and one GEMM with
  the (O, C·kx·ky·kz) kernel gives its n planes.

A chunk holds max(1, ``_CONV_CHUNK`` // ((rows + O)·Y·Z)) planes, with rows
the GEMM's inner size: C for kn2row, C·kx·ky·kz for im2col. The two methods
sum each output's terms in different orders, so their results agree to
float rounding, not bit for bit; a given shape always takes the same method.
A convolution's weight gradient has one method for every shape
(``_kn2row_weight_grad``): per kernel offset, one (O, L)·(L, C) GEMM of the
output gradient and that offset's ``_shifted`` view, in chunks of columns
sized by ``_CONV_CHUNK`` too.

``parallel()`` opens the one parallel region: a pool of one thread per
usable core (``parallel_workers``), OpenBLAS pinned to one thread while it is
open if there are two or more, and the region published to the current
context as ``no_grad`` publishes its flag, for as long as the ``with`` block
that opened it; a nested ``parallel()`` reuses it. Inside it, a convolution
shares its chunks among the calling thread and the workers, which take them
in order from one queue (``_each_chunk``), and every chunk runs the same
GEMMs as outside it; the weight gradient keeps its partial sums, one per
column chunk, and adds them in that order, so every result is bitwise that
of one thread. Pool threads see no region and build no graph, so work
running on them is never split again and records no backward; every graph
is built on a thread outside the pool. Work that runs ahead of its caller on
the pool, n items at a time, runs in ``run_ahead``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import islice

import numpy as np


class ShapeError(ValueError):
    pass


@contextmanager
def named(path):
    """Prefix ``path`` to a ShapeError raised in the block, so that the
    error names the file on the wrong grid."""
    try:
        yield
    except ShapeError as exc:
        raise ShapeError(f"{path}: {exc}") from None


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
    OpenBLAS thread count can be set, else 1."""
    if _blas_thread_api() is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class _Region:
    """``workers`` pool threads; OpenBLAS ``pinned`` to one thread while open."""

    workers: int
    pinned: bool
    pool: ThreadPoolExecutor

    def run_ahead(self, fn, items, n, *args):
        """Yield ``fn(*args, item)`` for each of ``items`` in order, run on
        the pool: the first ``n`` are submitted at once, then the next as each
        result is taken, before it is yielded. Items are taken on the calling
        thread; an error ``fn`` raises comes at its item's turn."""
        items = iter(items)
        submit = functools.partial(self.pool.submit, fn, *args)
        pending = deque(map(submit, islice(items, n)))
        while pending:
            result = pending.popleft().result()
            pending.extend(map(submit, islice(items, 1)))
            yield result


_region: "ContextVar[_Region | None]" = ContextVar("parallel_region", default=None)


def _pool_thread_context():
    """Set a pool thread's context once, when it starts, even where threads
    inherit their creator's (an interpreter option): no region, so its work
    is never split again, and no graph."""
    _region.set(None)
    _grad_enabled.set(False)


@contextmanager
def parallel():
    """Run the block in a parallel region and yield it: the region already
    published in this context, else a new one published for the block, with
    a pool of ``parallel_workers()`` threads and, if there are two or more,
    OpenBLAS pinned to one thread while they exist.

    A pool thread sees no region and builds no graph, whoever submits to it:
    an op run there returns a tensor with no backward, even on inputs that
    require gradients. Nothing that needs a graph runs there: a conv's chunks
    are plain numpy, and an MC pass needs none."""
    region = _region.get()
    if region is not None:
        yield region
        return
    n = parallel_workers()
    pin = _one_blas_thread() if n > 1 else nullcontext()
    with pin, ThreadPoolExecutor(n, "parallel", initializer=_pool_thread_context) as pool:
        region = _Region(n, n > 1, pool)
        token = _region.set(region)
        try:
            yield region
        finally:
            _region.reset(token)


def _each_chunk(fn, chunks):
    """Yield ``fn(c)`` for each item of ``chunks``, in order: the chunks of
    output planes of a correlation (``_correlate``) or the column chunks of
    a weight gradient (``_kn2row_weight_grad``). Outside a parallel region
    each item runs as it is yielded. In one, the calling thread and one pool
    thread per further worker take items from one shared queue, in order,
    until it is empty, so a slow or stalled worker holds up only the item it
    has; the results are yielded once every item is done."""
    region = _region.get()
    n = 1 if region is None else min(region.workers, len(chunks))
    if n == 1:
        yield from map(fn, chunks)
        return
    results = [None] * len(chunks)
    queue = iter(range(len(chunks)))
    lock = threading.Lock()

    def run():
        while True:
            with lock:
                i = next(queue, None)
            if i is None:
                return
            results[i] = fn(chunks[i])

    futures = [region.pool.submit(run) for _ in range(n - 1)]
    try:
        run()
    finally:
        wait(futures)  # no chunk outlives the call, even when one fails
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
        """Add ``value`` into ``grad``. The first write is ``value + 0`` cast
        into an array shaped like ``data``: the bits a zeroed array plus
        ``value`` would hold (a -0.0 becomes +0.0), written in one pass."""
        if self.grad is None:
            self.grad = np.add(value, 0, out=np.empty_like(self.data))
        else:
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


# kn2row runs a correlation of C input channels on Y x Z planes, under a
# kernel wider than one voxel, where C >= 4, Y·Z >= 256 and C·Y·Z >= this:
# the shapes where it beat im2col on one thread (the sweep is in CHANGES.md).
# With 1 or 2 channels each offset's GEMM only streams memory (2-28x slower);
# on 8 x 8 planes kn2row ran at 0.5-1.5x, on convs of a few milliseconds.
_KN2ROW_MIN = 1 << 13
# input and output elements of one conv chunk, which stay in cache across
# its GEMMs: a chunk is max(1, _CONV_CHUNK // ((rows + O)·Y·Z)) output planes
# of a correlation, with rows = C for kn2row and C·kx·ky·kz for im2col, and
# max(1, _CONV_CHUNK // (C + O)) columns of any weight gradient
_CONV_CHUNK = 1 << 16


def _kn2row_wins(C, O, dims, kernel):
    """Whether kn2row, not im2col, runs a correlation of C input channels
    into O output channels on ``dims``. An expanding one (O > C) stays on
    im2col: on C8->16 and C32->64 at 32^3, kn2row ran at 1.2-1.3x im2col
    (the sweep is in CHANGES.md)."""
    plane = dims[1] * dims[2]
    wide = C >= 4 and plane >= 256 and C * plane >= _KN2ROW_MIN
    return kernel != (1, 1, 1) and O <= C and wide


def _shifted(xp, kernel, dims):
    """The inputs of every kernel offset of kn2row (Vasudevan, Anderson &
    Gregg, arXiv:1704.04428) as one strided (B, kx, ky, kz, C, L) view of the
    padded input ``xp``, with no copy. In ``xp`` flattened per channel, the
    input of output voxel v under offset (i, j, k) sits i·Yp·Zp + j·Zp + k
    past v's own flat index. The L columns are the padded-plane domain of the
    output, Yp·Zp per x-plane, up to one past the last output voxel. An
    unpadded input (a 1x1x1 kernel's) may itself be a strided view, so the
    column stride is that of the flattened array, not the item size."""
    B, C = xp.shape[:2]
    X, Y, Z = dims
    Xp, Yp, Zp = xp.shape[2:]
    plane = Yp * Zp
    flat = xp.reshape(B, C, Xp * plane)
    # one past the last output voxel's flat index: its offsets end the input
    end = (X - 1) * plane + (Y - 1) * Zp + Z
    e = flat.strides[2]
    return np.lib.stride_tricks.as_strided(
        flat,
        (B, *kernel, C, end),
        (flat.strides[0], plane * e, Zp * e, e, flat.strides[1], e),
        writeable=False,
    )


def _kn2row_weight_grad(xp, gp, kernel, dims):
    """A conv's weight gradient, for every kernel, grid and channel count, as
    an (O, C, kx, ky, kz) view: for each kernel offset, the output gradient
    times that offset's ``_shifted`` view of the padded input ``xp``,
    transposed, summed over the batch (kn2row's form, with no im2col). The
    output gradient comes from ``gp``, its own zero 'same' padding: from the
    first interior voxel on, the flat data of ``gp`` hold it on the
    padded-plane domain with every padding column zero, so no copy is made
    and the padding adds nothing. The columns are taken in chunks of
    max(1, ``_CONV_CHUNK`` // (C + O)), not in whole planes: every offset's
    (O, L)·(L, C) GEMM of a chunk runs in one ``np.matmul``, and on a 64^3
    plane such chunks ran 2x faster than one-plane ones. Chunks run through
    ``_each_chunk`` and their partial sums are added in chunk order, whatever
    the worker count."""
    B, O = gp.shape[:2]
    C = xp.shape[1]
    Xp, Yp, Zp = xp.shape[2:]
    windows = _shifted(xp, kernel, dims)
    end = windows.shape[-1]
    start = sum(k // 2 * n for k, n in zip(kernel, (Yp * Zp, Zp, 1)))
    grads = gp.reshape(B, 1, 1, 1, O, Xp * Yp * Zp)[..., start : start + end]
    step = max(1, _CONV_CHUNK // (C + O))

    def chunk(c0):
        cols = slice(c0, c0 + step)
        return np.matmul(grads[..., cols], windows[..., cols].swapaxes(-1, -2)).sum(axis=0)

    gw = 0
    for part in _each_chunk(chunk, range(0, end, step)):
        gw = gw + part
    return gw.transpose(3, 4, 0, 1, 2)


def _correlate(xp, w, dims):
    """Cross-correlation of the padded input ``xp`` (B, C, ...) with kernel
    ``w`` (O, C, kx, ky, kz), returned as a (B, O, X, Y, Z) array. The output
    planes run in chunks through ``_each_chunk``, each chunk writing its own
    planes, and ``_kn2row_wins`` picks how a chunk runs.

    kn2row: the chunk's output over the padded-plane domain is the sum over
    kernel offsets of one (O, C)·(C, L) GEMM each on ``_shifted``'s view. One
    ``np.matmul`` runs the ky·kz GEMMs of each x-offset i and their products
    are summed; the x-offsets' sums are added in order of i. So a chunk is a
    few numpy calls, not two per offset, and threads running chunks side by
    side seldom wait on each other for the interpreter. The sum is cropped to
    (Y, Z) as it is written.

    im2col: one gather of the chunk's windows on the output domain, rows in
    ``w.reshape(O, -1)`` order, and one GEMM with the reshaped kernel."""
    B, C = xp.shape[:2]
    O, _, kx = w.shape[:3]
    X, Y, Z = dims
    kernel = w.shape[2:]
    out = np.empty((B, O, *dims), dtype=xp.dtype)
    if _kn2row_wins(C, O, dims, kernel):
        rows = C
        Yp, Zp = xp.shape[3:]
        plane = Yp * Zp
        taps = np.ascontiguousarray(w.transpose(2, 3, 4, 0, 1))  # (kx, ky, kz, O, C)
        windows = _shifted(xp, kernel, dims)

        def chunk(p):
            n = p.stop - p.start
            cols = windows[..., p.start * plane : p.stop * plane]
            acc = np.empty((B, O, n * plane), dtype=xp.dtype)
            head = acc[:, :, : cols.shape[-1]]
            np.sum(np.matmul(taps[0], cols[:, 0]), axis=(1, 2), out=head)
            for i in range(1, kx):
                head += np.matmul(taps[i], cols[:, i]).sum(axis=(1, 2))
            # the columns after head are the last plane's padding: cropped unread
            out[:, :, p] = acc.reshape(B, O, n, Yp, Zp)[..., :Y, :Z]

    else:
        rows = w[0].size
        w2 = w.reshape(O, rows)
        windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3, 4))

        def chunk(p):
            cols = windows[:, :, p].transpose(1, 5, 6, 7, 0, 2, 3, 4).reshape(rows, -1)
            prods = (w2 @ cols).reshape(O, B, p.stop - p.start, Y, Z)
            out[:, :, p] = prods.transpose(1, 0, 2, 3, 4)

    step = max(1, _CONV_CHUNK // ((rows + O) * Y * Z))
    chunks = [slice(x0, min(x0 + step, X)) for x0 in range(0, X, step)]
    for _ in _each_chunk(chunk, chunks):
        pass  # each call writes its own planes of out
    return out


def conv3d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Cross-correlation with odd kernel and zero 'same' padding.

    x: (B, C_in, X, Y, Z); w: (C_out, C_in, kx, ky, kz); b: (C_out,).
    Output spatial dims equal input dims. The forward pass and the input
    gradient are ``_correlate`` calls (the latter with the kernel flipped in
    space and its channel axes swapped), so each runs in chunks of output
    planes, by kn2row or im2col as ``_kn2row_wins`` rules on its own input
    and output channels: C -> C_out for the forward pass, C_out -> C for the
    input gradient. The weight gradient is one ``_kn2row_weight_grad`` call
    on the padded output gradient that the input gradient also reads.
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
        gp = _pad(g, w.data)
        if w.requires_grad:
            w.accumulate_grad(_kn2row_weight_grad(xp, gp, w.shape[2:], dims))
        if x.requires_grad:
            flipped = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            x.accumulate_grad(_correlate(gp, flipped, dims))

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
    the 2x2x2 blocks. The backward pass walks the same views in (dx, dy, dz)
    order and routes each block's gradient to the first position that holds
    the block maximum or a NaN (a NaN is its block's maximum); the ``taken``
    mask keeps a later tie from receiving it again.
    """
    _check_5d(x)
    for axis, n in zip("xyz", x.shape[2:]):
        if n % 2:
            raise ShapeError(f"max_pool3d needs even spatial dims; axis {axis} has {n}")
    corners = list(np.ndindex(2, 2, 2))
    out_data = x.data[:, :, 0::2, 0::2, 0::2].copy()
    for dx, dy, dz in corners[1:]:
        # the running maximum is the second operand, the one np.maximum
        # returns on a tie, so even a -0/+0 tie keeps the first value
        np.maximum(x.data[:, :, dx::2, dy::2, dz::2], out_data, out=out_data)

    def bwd(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        taken = np.zeros(out_data.shape, dtype=bool)
        for dx, dy, dz in corners:
            view = x.data[:, :, dx::2, dy::2, dz::2]
            hit = ((view == out_data) | np.isnan(view)) & ~taken
            np.copyto(gx[:, :, dx::2, dy::2, dz::2], g, where=hit)
            taken |= hit
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


BN_MOMENTUM = 0.9  # batch_norm's running-statistics blend
BN_EPS = 1e-5  # batch_norm's variance floor


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    mode: str = "train",
) -> Tensor:
    """Per-channel standardization with learned scale/shift.

    Train mode normalizes by batch statistics (population variance over
    batch and space) and updates the running stats; the first training call
    seeds them directly, later calls blend with ``BN_MOMENTUM``. Eval mode
    uses the running stats and fails if none were ever recorded. Both modes
    floor the variance at ``BN_EPS``; each constant is read at call time.

    Train mode takes the variance from the batch mean it already has, by
    np.var's own steps in one float64 deviation buffer, and its backward
    builds the input gradient in the one ``g * xhat`` buffer it sums for
    gamma; every float operation and its order are those of ``np.var`` and
    of ``scale * (g - (sg + xhat * sgx) / n)``.
    """
    _check_5d(x)
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"gamma/beta must be ({C},), got {gamma.shape}/{beta.shape}")
    axes = (0, 2, 3, 4)
    n = x.data.size // C
    shape = (1, C, 1, 1, 1)
    if mode == "train":
        mean = x.data.mean(axis=axes, dtype=np.float64)
        # np.var's steps, from this mean: square the float64 deviations in
        # their own buffer and sum them
        dev = np.subtract(x.data, mean.reshape(shape))
        np.square(dev, out=dev)
        var = dev.sum(axis=axes) / n
        del dev
        if state.initialized:
            state.running_mean = BN_MOMENTUM * state.running_mean + (1 - BN_MOMENTUM) * mean
            state.running_var = BN_MOMENTUM * state.running_var + (1 - BN_MOMENTUM) * var
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
    inv = (1.0 / np.sqrt(var + BN_EPS)).astype(x.dtype)
    mean_c = mean.astype(x.dtype)
    xhat = x.data - mean_c.reshape(shape)
    xhat *= inv.reshape(shape)
    out_data = gamma.data.reshape(shape) * xhat
    out_data += beta.data.reshape(shape)

    def bwd(g):
        sg = g.sum(axis=axes)
        gx = np.multiply(g, xhat)
        sgx = gx.sum(axis=axes)
        if beta.requires_grad:
            beta.accumulate_grad(sg)
        if gamma.requires_grad:
            gamma.accumulate_grad(sgx)
        if x.requires_grad:
            scale = (gamma.data * inv).reshape(shape)
            if mode == "train":
                # scale * (g - (sg + xhat * sgx) / n), one step at a time in
                # the g * xhat buffer
                np.multiply(xhat, sgx.reshape(shape), out=gx)
                np.add(sg.reshape(shape), gx, out=gx)
                np.divide(gx, n, out=gx)
                np.subtract(g, gx, out=gx)
                np.multiply(scale, gx, out=gx)
            else:
                gx = scale * g
            x.accumulate_grad(gx)

    return _make(out_data, (x, gamma, beta), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero each value with probability ``rate`` and scale
    survivors by 1/(1-rate), so the expected value is unchanged and eval-time
    forwards need no rescale. Bitwise reproducible for a given rng state.
    At rate 0 the mask is all 1.0, so the values pass through unchanged; the
    U-Net skips the call then (``UNet3D._dropout``)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
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
