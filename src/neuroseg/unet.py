"""Configurable 3-D U-Net assembled on the autodiff engine.

Architecture: D encoder blocks (two conv/batch-norm/relu stages, dropout,
2x max pool; feature count doubles per level), a bottleneck of B
conv/batch-norm/relu stages without dropout, D decoder blocks (2x transpose
convolution, skip concatenation, two conv/batch-norm/relu stages, dropout;
feature count halves), and a final 1x1x1 convolution to class logits followed
by a channel softmax.

Every model maps one single-contrast scan (``IN_CHANNELS``) to the 28
``core.NUM_CLASSES`` with 3x3x3 convolutions (``KERNEL``) and batch norm at
``autodiff.BN_MOMENTUM`` and ``BN_EPS``. These five values are fixed, so
``ModelSpec`` holds only the settings; a checkpoint header still records them.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .core import NUM_CLASSES

CHECKPOINT_MAGIC = b"NSU1"
IN_CHANNELS = 1  # one single-contrast scan
KERNEL = (3, 3, 3)  # every conv stage's kernel

# the header's spec entries for the fixed values: (value, how an error names it)
_FIXED_SPEC = {
    "in_channels": (IN_CHANNELS, "{} input channels"),
    "num_classes": (NUM_CLASSES, "{} classes"),
    "kernel": (list(KERNEL), "kernel {}"),
    "bn_eps": (ad.BN_EPS, "batch-norm eps {}"),
    "bn_momentum": (ad.BN_MOMENTUM, "batch-norm momentum {}"),
}


class ModelSpecError(ValueError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    """The settings from which, with the module docstring's fixed values, all
    trainable shapes derive; ``input_dims`` is only the grid ``segment`` resamples onto."""

    num_classes: ClassVar[int] = NUM_CLASSES  # readable, not a setting
    features: int = 16
    depth: int = 4
    bottleneck_layers: int = 2
    dropout_rate: float = 0.2
    input_dims: Tuple[int, int, int] = (128, 128, 128)

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        if min(self.features, self.depth, self.bottleneck_layers) < 1:
            raise ModelSpecError("features, depth and bottleneck_layers must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ModelSpecError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        self.check_grid(self.input_dims, ModelSpecError)

    def check_grid(self, dims, error=ad.ShapeError) -> None:
        """Raise ``error`` unless every axis is a positive multiple of 2^depth."""
        step = 2 ** self.depth
        for axis, dim in zip("xyz", dims):
            if dim < 1 or dim % step:
                raise error(
                    f"axis {axis} has {dim} voxels, not a positive multiple of 2^depth = {step}"
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


class _ConvStage:
    """conv -> batch norm -> relu. Registers the conv as ``<prefix>.conv<tag>``
    and the batch norm's ``<prefix>.bn<tag>.gamma``, ``.beta`` and running
    state ``<prefix>.bn<tag>``."""

    def __init__(self, table, prefix, tag, c_in, c_out, rng, dtype):
        self.conv = _Conv(table, f"{prefix}.conv{tag}", c_in, c_out, KERNEL, rng, dtype)
        bn = f"{prefix}.bn{tag}"
        self.gamma = table[f"{bn}.gamma"] = Tensor(np.ones(c_out, dtype=dtype), requires_grad=True)
        self.beta = table[f"{bn}.beta"] = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
        self.state = table[bn] = BatchNormState.for_channels(c_out)

    def __call__(self, x, mode):
        return ad.relu(ad.batch_norm(self.conv(x), self.gamma, self.beta, self.state, mode))


class UNet3D:
    """Model handle: owns the parameter store, batch-norm state and modes.

    Every layer registers its named parameters and batch-norm state in one
    ordered table as it is built. Parameters and the checkpoint arrays
    (``named_arrays``) are read from that table, in construction order.
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
            return _ConvStage(table, prefix, tag, c_in, c_out, rng, dtype)

        self.encoders = []
        c_prev = IN_CHANNELS
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
        self.head = _Conv(table, "out", c_prev, NUM_CLASSES, (1, 1, 1), rng, dtype)
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
    ) -> None:
        """Run one MC-dropout pass (eval statistics, active dropout) per rng
        and call ``fuse(field)`` on this thread for each, in rng order. The
        whole call, ``fuse`` included, runs under ``no_grad``, and a pool
        thread builds no graph (``autodiff.parallel``), so no pass builds
        one.

        Encoder block 1 comes before the first dropout, so it runs once and
        every pass starts from its output. Each field is bitwise equal to
        ``forward(x, "eval", True, rng)``.

        Everything runs in one parallel region (``autodiff.parallel``) of w
        workers. Encoder block 1 runs first, its convolutions split over the
        pool. The passes then stream through the pool in its run-ahead loop
        (``run_ahead``), one per worker, so while ``fuse`` takes pass i the
        workers run i+1 to i+w. There is no barrier between groups of passes,
        and each pass in flight has its own working set. A pass's
        convolutions run on its worker alone. If a pass or ``fuse`` raises,
        the passes already submitted still run, and a region this call
        opened closes before the error propagates.
        """
        with ad.parallel() as region, ad.no_grad():
            h = self._first(self._input(x), "eval")
            for field in region.run_ahead(self._rest, rngs, region.workers, h, "eval", True):
                fuse(field)

    def _input(self, x) -> Tensor:
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        self.spec.check_grid(x.shape[-3:])  # conv3d checks the rest of the shape
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

    def named_arrays(self) -> "OrderedDict[str, np.ndarray]":
        """Parameters, then batch-norm running statistics, in checkpoint
        order. The arrays are the model's own, not copies."""
        arrays = OrderedDict((name, t.data) for name, t in self._params.items())
        for name, state in self._bn_states.items():
            arrays[f"{name}.running_mean"] = state.running_mean
            arrays[f"{name}.running_var"] = state.running_var
        return arrays


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
    arrays = model.named_arrays()
    bn_init = {name: state.initialized for name, state in model._bn_states.items()}
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
        "spec": {**asdict(model.spec), **{k: v for k, (v, _) in _FIXED_SPEC.items()}},
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
    ``model.extras``. Any malformed, truncated or mismatched file, or one
    with bytes after its last array, raises CheckpointError, as does a spec
    without an entry for each fixed value or with another value (4 classes).

    The header's array and batch-norm names are checked against a freshly
    built model first, one whose conv weights are not drawn, since every one
    is overwritten. One walk over the array table then checks each array's
    shape and dtype and reads its payload straight into that model's own
    array, so the weights are held once."""
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
            spec = dict(header["spec"])
            for key, (value, what) in _FIXED_SPEC.items():
                given = spec.pop(key)  # a missing entry is a KeyError naming it
                if given != value:
                    raise CheckpointError(
                        f"spec entry {key!r} gives {what.format(given)}, "
                        f"segctl models have {what.format(value)}"
                    )
            spec = ModelSpec(**spec)
            model = UNet3D.__new__(UNet3D)
            model._build(spec, header["seed"], np.dtype(header["dtype"]), None)
            bn_initialized = dict(header["bn_initialized"])
            own = model.named_arrays()
            table = header["arrays"]
            _require_names("array", [n for n, _, _ in table if not n.startswith("extra.")], own)
            _require_names("batch-norm flag", bn_initialized, model._bn_states)
            for name, shape, dtype in table:
                shape, dtype = tuple(shape), np.dtype(dtype)
                if name in own:
                    arr = own[name]
                    if shape != arr.shape:
                        raise CheckpointError(
                            f"array {name!r} has shape {shape}, the model needs {arr.shape}"
                        )
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
            if fh.read(1):
                raise ValueError("bytes after the last array")
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    for name, state in model._bn_states.items():
        state.initialized = bool(bn_initialized[name])
    return model

