"""Configurable 3-D U-Net assembled on the autodiff engine.

Architecture: D encoder blocks (two conv/batch-norm/relu stages, dropout,
2x max pool; feature count doubles per level), a bottleneck of B
conv/batch-norm/relu stages without dropout, D decoder blocks (2x transpose
convolution, skip concatenation, two conv/batch-norm/relu stages, dropout;
feature count halves), and a final 1x1x1 convolution to class logits followed
by a channel softmax.
"""

from __future__ import annotations

import functools
import json
import struct
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor

CHECKPOINT_MAGIC = b"NSU1"


class ModelSpecError(ValueError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; all trainable shapes derive from it."""

    in_channels: int = 1
    num_classes: int = 28
    features: int = 16
    depth: int = 4
    bottleneck_layers: int = 2
    kernel: Tuple[int, int, int] = (3, 3, 3)
    dropout_rate: float = 0.2
    input_dims: Tuple[int, int, int] = (128, 128, 128)
    bn_eps: float = 1e-5
    bn_momentum: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "kernel", tuple(int(k) for k in self.kernel))
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        if min(self.features, self.depth, self.bottleneck_layers) < 1:
            raise ModelSpecError("features, depth and bottleneck_layers must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ModelSpecError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if any(k % 2 == 0 or k < 1 for k in self.kernel):
            raise ModelSpecError(f"kernel dims must be odd, got {self.kernel}")
        step = 2 ** self.depth
        for axis, dim in zip("xyz", self.input_dims):
            if dim % step:
                raise ModelSpecError(
                    f"input axis {axis} has {dim} voxels, not divisible by 2^depth = {step}"
                )

    @property
    def encoder_features(self) -> Tuple[int, ...]:
        return tuple(self.features * 2 ** d for d in range(self.depth))

    @property
    def bottleneck_features(self) -> int:
        return self.features * 2 ** self.depth


class _Conv:
    """Convolution with bias, or with ``transpose`` the 2x2x2 stride-2
    transpose convolution; registers ``<name>.w`` and ``<name>.b``."""

    def __init__(self, table, name, c_in, c_out, kernel, rng, dtype, transpose=False):
        fan_in = c_in * int(np.prod(kernel))
        bound = np.sqrt(6.0 / fan_in)
        shape = ((c_in, c_out) if transpose else (c_out, c_in)) + tuple(kernel)
        self.transpose = transpose
        if rng is None:
            w = np.empty(shape, dtype=dtype)
        else:
            w = rng.uniform(-bound, bound, shape).astype(dtype)
        self.w = table[f"{name}.w"] = Tensor(w, requires_grad=True)
        self.b = table[f"{name}.b"] = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        op = ad.transpose_conv3d if self.transpose else ad.conv3d
        return op(x, self.w, self.b)


class _BatchNorm:
    """Registers ``<name>.gamma``, ``<name>.beta`` and its running state as
    ``<name>``."""

    def __init__(self, table, name, channels, eps, momentum, dtype):
        self.gamma = table[f"{name}.gamma"] = Tensor(
            np.ones(channels, dtype=dtype), requires_grad=True
        )
        self.beta = table[f"{name}.beta"] = Tensor(
            np.zeros(channels, dtype=dtype), requires_grad=True
        )
        self.state = table[name] = BatchNormState.for_channels(channels)
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x, mode):
        return ad.batch_norm(
            x, self.gamma, self.beta, self.state, mode, self.momentum, self.eps
        )


class _ConvStage:
    """conv -> batch norm -> relu, registered as ``<prefix>.conv<tag>`` and
    ``<prefix>.bn<tag>``."""

    def __init__(self, table, prefix, tag, c_in, c_out, spec, rng, dtype):
        self.conv = _Conv(table, f"{prefix}.conv{tag}", c_in, c_out, spec.kernel, rng, dtype)
        self.bn = _BatchNorm(
            table, f"{prefix}.bn{tag}", c_out, spec.bn_eps, spec.bn_momentum, dtype
        )

    def __call__(self, x, mode):
        return ad.relu(self.bn(self.conv(x), mode))


class UNet3D:
    """Model handle: owns the parameter store, batch-norm state and modes.

    Every layer registers its named parameters and batch-norm state in one
    ordered table as it is built. Parameters, checkpoint arrays and the
    named state are read from that table, in construction order.
    """

    def __init__(self, spec: ModelSpec, seed: int, dtype=np.float32):
        self._build(spec, seed, dtype, np.random.default_rng(int(seed)))

    def _build(self, spec: ModelSpec, seed: int, dtype, rng) -> None:
        """Build every layer, conv weights drawn from ``rng``; with ``rng``
        None they are left uninitialised, for a loader that overwrites every
        one."""
        self.spec = spec
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.extras: Dict[str, np.ndarray] = {}
        table: "OrderedDict[str, Union[Tensor, BatchNormState]]" = OrderedDict()

        def stage(prefix, tag, c_in, c_out):
            return _ConvStage(table, prefix, tag, c_in, c_out, spec, rng, dtype)

        self.encoders = []
        c_prev = spec.in_channels
        for d, f in enumerate(spec.encoder_features, start=1):
            self.encoders.append((stage(f"enc{d}", 1, c_prev, f), stage(f"enc{d}", 2, f, f)))
            c_prev = f
        fb = spec.bottleneck_features
        self.bottleneck = []
        for i in range(1, spec.bottleneck_layers + 1):
            self.bottleneck.append(stage(f"bott{i}", "", c_prev if i == 1 else fb, fb))
        self.decoders = []
        c_prev = fb
        for d, f in enumerate(reversed(spec.encoder_features), start=1):
            self.decoders.append(
                (
                    _Conv(table, f"dec{d}.up", c_prev, f, (2, 2, 2), rng, dtype, transpose=True),
                    stage(f"dec{d}", 1, 2 * f, f),
                    stage(f"dec{d}", 2, f, f),
                )
            )
            c_prev = f
        self.head = _Conv(table, "out", c_prev, spec.num_classes, (1, 1, 1), rng, dtype)
        self._params = OrderedDict((k, v) for k, v in table.items() if isinstance(v, Tensor))
        self._bn_states = OrderedDict(
            (k, v) for k, v in table.items() if isinstance(v, BatchNormState)
        )

    def parameters(self) -> "OrderedDict[str, Tensor]":
        return self._params

    def parameter_count(self) -> int:
        """Trainable scalars; batch-norm running statistics are not trainable."""
        return sum(int(t.data.size) for t in self._params.values())

    def _dropout(self, h, active, rng):
        if active and self.spec.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("active dropout requires an rng")
            return ad.dropout(h, self.spec.dropout_rate, rng)
        return h

    def forward(
        self,
        x,
        mode: str = "train",
        dropout_active: Optional[bool] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tensor:
        """Run the network and return the per-voxel class distribution.

        ``mode`` selects batch-norm statistics; ``dropout_active`` controls
        stochasticity independently (MC sampling = eval statistics with
        active dropout) and defaults to mode == 'train'.
        """
        active = (mode == "train") if dropout_active is None else dropout_active
        return self._rest(self._first(self._input(x), mode), mode, active, rng)

    def mc_passes(
        self, x, rngs: Iterable[np.random.Generator], fuse: Callable[[Tensor], None]
    ) -> int:
        """Run one MC-dropout pass (eval statistics, active dropout) per rng
        without building a graph, and call ``fuse(field)`` on this thread for
        each, in rng order. Returns the workers of the parallel region the
        passes ran in.

        Encoder block 1 comes before the first dropout, so it runs once and
        every pass starts from its output. Each field is bitwise equal to
        ``forward(x, "eval", True, rng)``.

        Everything runs in one parallel region (``autodiff.parallel``) of w
        workers. Encoder block 1 runs first, its convolutions split over the
        pool. The passes then stream through the pool, one per worker: rngs
        are taken from ``rngs`` on this thread, and before pass i goes to
        ``fuse`` the next rng goes to the pool, so while ``fuse`` runs the
        workers run i+1 to i+w. There is no barrier between groups of passes,
        and at most w passes are in flight, each with its own working set. A
        pass's convolutions run on its worker alone. If a pass or ``fuse``
        raises, the passes already submitted still run, and a region this
        call opened closes before the error propagates.
        """
        with ad.parallel() as region:
            with ad.no_grad():
                h = self._first(self._input(x), "eval")
            if region.pool is None:
                for rng in rngs:
                    fuse(self._mc_pass(h, rng))
            else:
                rngs = iter(rngs)
                submit = functools.partial(region.pool.submit, self._mc_pass, h)
                pending = deque(map(submit, islice(rngs, region.workers)))
                while pending:
                    field = pending.popleft().result()
                    pending.extend(map(submit, islice(rngs, 1)))
                    fuse(field)
        return region.workers

    def _mc_pass(self, h: Tensor, rng) -> Tensor:
        # no_grad is per thread, so a pool thread must enter it itself
        with ad.no_grad():
            return self._rest(h, "eval", True, rng)

    def _input(self, x) -> Tensor:
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        if x.data.ndim != 5:
            raise ad.ShapeError(f"input must be 5-D, got {x.shape}")
        if x.shape[1] != self.spec.in_channels or x.shape[2:] != self.spec.input_dims:
            raise ad.ShapeError(
                f"input shape {x.shape[1:]} does not match spec "
                f"({self.spec.in_channels}, {self.spec.input_dims})"
            )
        return x

    def _first(self, x: Tensor, mode: str) -> Tensor:
        """Encoder block 1: everything before the first dropout."""
        s1, s2 = self.encoders[0]
        return s2(s1(x, mode), mode)

    def _rest(self, h: Tensor, mode: str, active: bool, rng) -> Tensor:
        """The layers after ``_first``, from its output ``h`` to the softmax."""
        skips = []  # popped by the decoder block that consumes it, which frees it
        for d, (s1, s2) in enumerate(self.encoders):
            if d > 0:
                h = s2(s1(h, mode), mode)
            h = self._dropout(h, active, rng)
            skips.append(h)
            h = ad.max_pool3d(h)
        for stage in self.bottleneck:
            h = stage(h, mode)
        for up, s1, s2 in self.decoders:
            h = up(h)
            h = ad.concat_channels(h, skips.pop())
            h = s2(s1(h, mode), mode)
            h = self._dropout(h, active, rng)
        logits = self.head(h)
        return ad.softmax_channels(logits)

    def _slots(self):
        """(array name, owner, attribute) of every named array in checkpoint
        order: parameters, then batch-norm running statistics."""
        for name, t in self._params.items():
            yield name, t, "data"
        for name, state in self._bn_states.items():
            yield f"{name}.running_mean", state, "running_mean"
            yield f"{name}.running_var", state, "running_var"

    def named_arrays(self) -> "OrderedDict[str, np.ndarray]":
        """Parameters plus batch-norm running statistics, checkpoint order."""
        return OrderedDict((name, getattr(owner, attr)) for name, owner, attr in self._slots())

    def named_state(self) -> Tuple["OrderedDict[str, np.ndarray]", Dict[str, bool]]:
        """``named_arrays()`` and each batch norm's ``initialized`` flag: all
        the state ``assign_state`` needs to reproduce this model. The arrays
        are the model's own, not copies."""
        flags = {name: state.initialized for name, state in self._bn_states.items()}
        return self.named_arrays(), flags

    def assign_state(
        self, arrays: Mapping[str, np.ndarray], bn_initialized: Mapping[str, bool]
    ) -> None:
        """Take over a full named state, as returned by ``named_state``.

        Arrays already of the model's dtype are assigned without a copy. A
        missing, unknown or mis-shaped entry raises CheckpointError and
        leaves the model unchanged.
        """
        self._check_state({name: np.shape(arr) for name, arr in arrays.items()}, bn_initialized)
        for name, owner, attr in self._slots():
            arr = np.asarray(arrays[name])
            setattr(owner, attr, arr.astype(getattr(owner, attr).dtype, copy=False))
        self._set_flags(bn_initialized)

    def _check_state(
        self, shapes: Mapping[str, Tuple[int, ...]], bn_initialized: Mapping[str, bool]
    ) -> None:
        """A full named state must name exactly this model's arrays and batch
        norms, each array with the model's shape; raises CheckpointError."""
        slots = list(self._slots())
        _require_names("array", shapes, [name for name, _, _ in slots])
        _require_names("batch-norm flag", bn_initialized, self._bn_states)
        for name, owner, attr in slots:
            have, want = tuple(shapes[name]), getattr(owner, attr).shape
            if have != want:
                raise CheckpointError(
                    f"array {name!r} has shape {have}, the model needs {want}"
                )

    def _set_flags(self, bn_initialized: Mapping[str, bool]) -> None:
        for name, state in self._bn_states.items():
            state.initialized = bool(bn_initialized[name])


def _require_names(kind, given, expected) -> None:
    missing = sorted(set(expected) - set(given))
    unknown = sorted(set(given) - set(expected))
    if missing or unknown:
        raise CheckpointError(
            f"{kind} names do not match the model: missing {missing}, unknown {unknown}"
        )


def save_checkpoint(model: UNet3D, path, extras: Optional[Dict[str, np.ndarray]] = None) -> None:
    """Versioned container: JSON header (spec, seed, array table) + raw
    little-endian array payloads. Extras (e.g. optimizer state) ride along."""
    arrays, bn_init = model.named_state()
    if extras:
        for name, arr in extras.items():
            arrays[f"extra.{name}"] = np.asarray(arr)
    table = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        le = arr.dtype.newbyteorder("<")
        blobs.append(arr.astype(le, copy=False).tobytes())
        table.append([name, list(arr.shape), le.str])
    header = {
        "format_version": 1,
        "spec": asdict(model.spec),
        "seed": model.seed,
        "dtype": model.dtype.str,
        "bn_initialized": bn_init,
        "arrays": table,
    }
    payload = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> UNet3D:
    """Restore the model a checkpoint stores, bitwise, with its extras in
    ``model.extras``. Any malformed, truncated or mismatched file raises
    CheckpointError.

    The header's array table is checked against a freshly built model first,
    one whose conv weights are not drawn, since every one is overwritten;
    each payload is then read straight into that model's own array, so the
    weights are held once."""
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
            spec = ModelSpec(**header["spec"])
            model = UNet3D.__new__(UNet3D)
            model._build(spec, header["seed"], np.dtype(header["dtype"]), None)
            bn_initialized = dict(header["bn_initialized"])
            table = [(name, tuple(shape), np.dtype(dt)) for name, shape, dt in header["arrays"]]
            shapes = {name: shape for name, shape, _ in table if not name.startswith("extra.")}
            try:
                model._check_state(shapes, bn_initialized)
            except CheckpointError as exc:
                raise CheckpointError(f"{path}: {exc}") from None
            own = model.named_arrays()
            for name, shape, dtype in table:
                if name in own:
                    arr = own[name]
                    if dtype.newbyteorder("=") != arr.dtype:
                        raise ValueError(f"array {name} is {dtype}, the model needs {arr.dtype}")
                    if fh.readinto(memoryview(arr).cast("B")) < arr.nbytes:
                        raise ValueError(f"array {name} is truncated")
                    if not dtype.isnative:
                        arr.byteswap(inplace=True)
                else:
                    n = int(np.prod(shape))
                    arr = np.fromfile(fh, dtype, count=n)
                    if arr.size < n:
                        raise ValueError(f"array {name} is truncated")
                    model.extras[name[len("extra.") :]] = arr.reshape(shape)
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    model._set_flags(bn_initialized)
    return model

