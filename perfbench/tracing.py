"""Per-layer tracing for the benchmark, installed from outside the package.

A ``Tracer`` replaces public neuroseg functions with timing wrappers for as
long as it is installed, and puts every original back when it is removed.
A module-level function is replaced in every neuroseg module that holds a
reference to it, because modules import names from one another
(``cli`` calls its own ``mc_segment`` binding, not ``inference.mc_segment``).
Nothing inside ``src/`` knows about tracing.

All layer metrics are per operation: totals over the traced operations
divided by their count. ``phantom.generate_dataset.s`` is the exception: it
runs only in set-up and is reported per set-up.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from neuroseg import autodiff, core, inference, io, metrics, phantom, train, transforms, unet

AUTODIFF_OPS = (
    "conv3d",
    "transpose_conv3d",
    "batch_norm",
    "relu",
    "max_pool3d",
    "dropout",
    "softmax_channels",
    "concat_channels",
)
# U-Net level k = log2(model grid / conv input grid); depth 4 puts the
# bottleneck convolutions at level 4.
LEVELS = range(5)

# metric prefix -> (owner, attribute); each gets "<prefix>.s"
TIMED = {
    "autodiff.backward": (autodiff.Tensor, "backward"),
    "unet.forward": (unet.UNet3D, "forward"),
    "unet.load_checkpoint": (unet, "load_checkpoint"),
    "inference.mc_segment": (inference, "mc_segment"),
    "inference.uncertainty": (inference, "uncertainty"),
    "transforms.register_affine": (transforms, "register_affine"),
    "transforms.resample_spline": (transforms, "resample_spline"),
    "transforms.resample_nearest": (transforms, "resample_nearest"),
    "transforms.map_back": (transforms, "map_back"),
    "train.augment": (train, "augment"),
    "train.Adam.step": (train.Adam, "step"),
    "metrics.combined_loss": (metrics, "combined_loss"),
    "metrics.dice_report": (metrics, "dice_report"),
    "core.normalize_intensity": (core, "normalize_intensity"),
    "io.read_volume": (io, "read_volume"),
    "io.write_volume": (io, "write_volume"),
    "phantom.generate_dataset": (phantom, "generate_dataset"),
}
MAP_COORDINATES = (transforms.ndimage, "map_coordinates")


def _layer_metric_units():
    units = {}
    for op in AUTODIFF_OPS:
        units[f"autodiff.{op}.fwd_s"] = "s"
        units[f"autodiff.{op}.bwd_s"] = "s"
    for k in LEVELS:
        units[f"autodiff.conv3d.L{k}.fwd_s"] = "s"
        units[f"autodiff.conv3d.L{k}.bwd_s"] = "s"
        units[f"autodiff.conv3d.L{k}.gflops"] = "GFLOP/s"
    units["autodiff.conv3d.gmacs"] = "GMAC"
    for prefix in TIMED:
        units[f"{prefix}.s"] = "s"
    units["unet.forward.calls"] = "count"
    units["transforms.register_affine.calls"] = "count"
    units["transforms.register_affine.iterations"] = "count"
    units["transforms.register_affine.converged_frac"] = "ratio"
    units["transforms.register_affine.cost_ratio"] = "ratio"
    units["transforms.map_coordinates.calls"] = "count"
    units["transforms.map_coordinates.mpoints"] = "Mpoint"
    units["trace.op_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


LAYER_METRIC_UNITS = _layer_metric_units()


class Tracer:
    """Timing wrappers around neuroseg's public functions.

    ``grid`` is the model grid edge, used to assign each conv3d call to its
    U-Net level. Use as a context manager, or call ``install``/``uninstall``.
    """

    def __init__(self, grid: int):
        self.grid = grid
        self._saved = []  # (owner, attribute, original), in install order
        self.reset()

    def reset(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.conv_macs = defaultdict(int)  # level -> forward MACs
        self.map_points = 0
        self.registrations = []  # (iterations, converged, final / initial cost)

    # -- installation --

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        sites = {(id(owner), attr): owner}
        if not isinstance(owner, type):
            for name, module in list(sys.modules.items()):
                if name == "neuroseg" or name.startswith("neuroseg."):
                    for key, value in vars(module).items():
                        if value is original:
                            sites[(id(module), key)] = module
        for (_, key), site in sites.items():
            self._saved.append((site, key, getattr(site, key)))
            setattr(site, key, functools.wraps(original)(wrapper))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for op in AUTODIFF_OPS:
                fn = getattr(autodiff, op)
                self._replace(autodiff, op, self._autodiff_wrapper(op, fn))
            for prefix, (owner, attr) in TIMED.items():
                self._replace(owner, attr, self._timed_wrapper(prefix, getattr(owner, attr)))
            owner, attr = MAP_COORDINATES
            self._replace(owner, attr, self._map_coordinates_wrapper(getattr(owner, attr)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            site, key, original = self._saved.pop()
            setattr(site, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers --

    def _timed_wrapper(self, prefix, fn):
        key = f"{prefix}.s"

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - t0
                self.calls[prefix] += 1
            if prefix == "transforms.register_affine":
                self.registrations.append(
                    (result.iterations, result.converged, result.final_cost / result.initial_cost)
                )
            return result

        return wrapper

    def _level(self, edge: int) -> int:
        return int(round(math.log2(self.grid / edge)))

    def _autodiff_wrapper(self, op, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.seconds[f"autodiff.{op}.fwd_s"] += dt
            level = None
            if op == "conv3d":
                x, w = args[0], args[1]
                B, _, X, Y, Z = x.shape
                level = self._level(X)
                self.seconds[f"autodiff.conv3d.L{level}.fwd_s"] += dt
                self.conv_macs[level] += B * X * Y * Z * int(np.prod(w.shape))
            if out._backward is not None:
                out._backward = self._backward_wrapper(op, level, out._backward)
            return out

        return wrapper

    def _backward_wrapper(self, op, level, bwd):
        def wrapper(g):
            t0 = time.perf_counter()
            bwd(g)
            dt = time.perf_counter() - t0
            self.seconds[f"autodiff.{op}.bwd_s"] += dt
            if level is not None:
                self.seconds[f"autodiff.conv3d.L{level}.bwd_s"] += dt

        return wrapper

    def _map_coordinates_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            coords = args[1] if len(args) > 1 else kwargs["coordinates"]
            self.calls["transforms.map_coordinates"] += 1
            self.map_points += int(np.prod(np.shape(coords)[1:]))
            return fn(*args, **kwargs)

        return wrapper

    # -- results --

    def layer_metrics(self, n_ops: int, generate_dataset_s: float, traced_op_s, untraced_op_s):
        """Every metric of ``LAYER_METRIC_UNITS`` as {name: value}; totals are
        divided by ``n_ops``, the number of traced operations."""
        values = {name: 0.0 for name in LAYER_METRIC_UNITS}
        for key, total in self.seconds.items():
            values[key] = total / n_ops
        for k in LEVELS:
            fwd = self.seconds.get(f"autodiff.conv3d.L{k}.fwd_s", 0.0)
            if fwd > 0:
                values[f"autodiff.conv3d.L{k}.gflops"] = 2.0 * self.conv_macs[k] / fwd / 1e9
        values["autodiff.conv3d.gmacs"] = sum(self.conv_macs.values()) / n_ops / 1e9
        values["unet.forward.calls"] = self.calls["unet.forward"] / n_ops
        values["phantom.generate_dataset.s"] = generate_dataset_s
        regs = self.registrations
        values["transforms.register_affine.calls"] = len(regs) / n_ops
        if regs:
            values["transforms.register_affine.iterations"] = float(statistics.mean(r[0] for r in regs))
            values["transforms.register_affine.converged_frac"] = sum(r[1] for r in regs) / len(regs)
            values["transforms.register_affine.cost_ratio"] = statistics.median(r[2] for r in regs)
        values["transforms.map_coordinates.calls"] = self.calls["transforms.map_coordinates"] / n_ops
        values["transforms.map_coordinates.mpoints"] = self.map_points / n_ops / 1e6
        values["trace.op_s"] = statistics.median(traced_op_s)
        values["trace.overhead_frac"] = statistics.median(traced_op_s) / statistics.median(untraced_op_s) - 1.0
        unknown = set(values) - set(LAYER_METRIC_UNITS)
        if unknown:
            raise KeyError(f"tracer produced undeclared metrics {sorted(unknown)}")
        return values
