"""Affine coregistration, spline resampling and inverse label mapping.

Resampling convention: the transform passed to a resampler maps OUTPUT grid
voxel coordinates to INPUT volume voxel coordinates (the pull-back map), so
``register_affine(moving, reference, grid_dims)`` returns the transform that
resamples ``moving`` onto the reference grid, and ``map_back`` applies its
inverse to carry a segmentation to the original grid.

Resampling and registration share one sampler, ``ndimage.affine_transform``,
which takes the data in its own dtype. When the 3x4 matrix puts every output
voxel within 1e-9 of an integer input position (``_on_lattice``), the sample
is an order-0 gather through the rounded matrix, so identity, whole-voxel
shifts and right-angle rotations are exact at both orders the resamplers
use: 3 (``resample_spline``) and 0 (``resample_nearest``).

Registration runs Adam on the mean-squared intensity difference over the
image pyramid ``_LEVELS``, only as finely as ``grid_dims``, the grid the
transform will be sampled onto, resolves. That grid spans the reference's
extent, so one of its voxels covers ``reference.dims / grid_dims``
reference voxels per axis. Once a level has run, levels with a block-mean
factor below the largest one that does not exceed the smallest of those
ratios are skipped, their block means never computed; so a scan too thin
for the coarser levels still runs the first level it fits. The levels run
do exactly what they do in the whole pyramid. Each iteration
interpolates the moving image once: the warp is one linear
``affine_transform``, and the cost gradient comes from ``np.gradient`` of
the warped image through the chain rule, not from interpolated gradient
images. A level runs until its iteration cap, a non-finite cost, or a
plateau: ``_PLATEAU_ITERS`` iterations in a row that each failed to lower
the level's best cost by more than ``_PLATEAU_RTOL`` of it, ending at an
iterate whose cost is not above the level's start cost. A pyramid level has
diverged when a cost is non-finite or when its last iterate rose above its
start by more than its best gain, so a plateau stop never diverges;
``RegistrationResult.levels`` records each level's costs, why it stopped and
how long it ran.

All operations are pure functions of their inputs and safe to call
concurrently on shared volumes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np
from scipy import ndimage

from .core import AffineTransform, GeometryError, LabelMap, Volume

# The registration pyramid, coarse to fine: (block-mean factor, iteration
# cap) per level, and the Adam step on the 12 affine parameters.
_LEVELS = ((4, 80), (2, 80), (1, 50))
_STEP = 0.02
# The plateau stop of a registration pyramid level (see the module docstring).
_PLATEAU_ITERS = 10
_PLATEAU_RTOL = 1e-4


@dataclass(frozen=True)
class LevelTrace:
    """One pyramid level of a registration: its MSE at the start, at the
    best and at the last iterate, why it stopped (``"budget"``: its
    iteration cap, ``"plateau"`` or ``"nonfinite"``: a non-finite cost) and
    its wall time. ``best_cost <= start_cost`` always: the start counts as
    an iterate, and the level hands on its best one."""

    level: int
    iterations: int
    start_cost: float
    best_cost: float
    end_cost: float
    stop_reason: str
    seconds: float = field(compare=False)

    @property
    def diverged(self) -> bool:
        """A non-finite cost, or a last iterate that rose above the start by
        more than the level's best gain."""
        rise = self.end_cost - self.start_cost
        return self.stop_reason == "nonfinite" or rise > self.start_cost - self.best_cost


@dataclass(frozen=True)
class RegistrationResult:
    transform: AffineTransform
    final_cost: float
    converged: bool
    initial_cost: float
    levels: Tuple[LevelTrace, ...]

    @property
    def iterations(self) -> int:
        return sum(t.iterations for t in self.levels)


def translation_transform(offset) -> AffineTransform:
    return AffineTransform(np.eye(3), np.asarray(offset, dtype=np.float64))


def rotation_transform(angles_deg, center=(0.0, 0.0, 0.0)) -> AffineTransform:
    """Rotate voxel coordinates about ``center``; angles are (x, y, z) in
    degrees, applied as Rz @ Ry @ Rx."""
    ax, ay, az = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    rot = rz @ ry @ rx
    c = np.asarray(center, dtype=np.float64)
    return AffineTransform(rot, c - rot @ c)


def grid_scaling(out_dims, in_dims) -> AffineTransform:
    """Map output voxel coordinates onto an input grid of different size,
    aligning voxel centers of the two grid extents."""
    out_dims = np.asarray(out_dims, dtype=np.float64)
    in_dims = np.asarray(in_dims, dtype=np.float64)
    f = in_dims / out_dims
    # center voxel i maps to f*(i + 0.5) - 0.5
    return AffineTransform(np.diag(f), 0.5 * f - 0.5)


def _on_lattice(t: AffineTransform, out_dims) -> bool:
    """True when every output voxel samples within 1e-9 of an integer input
    position: per row of the 3x4 matrix, the entries' distances from the
    nearest integer, weighted by the largest coordinate each multiplies,
    sum to at most 1e-9."""
    m = np.column_stack([t.linear, t.translation])
    extent = np.append(np.asarray(out_dims, dtype=np.float64) - 1, 1.0)
    return bool(np.all(np.abs(m - np.rint(m)) @ extent <= 1e-9))


def _resample_array(data, t, out_dims, order):
    if min(out_dims) < 1:
        raise ValueError(f"output dims must be >= 1, got {tuple(out_dims)}")
    lin, tr = t.linear, t.translation
    if _on_lattice(t, out_dims):
        # Every sample lands on a voxel: a gather through the rounded matrix
        # keeps identity, whole-voxel shifts and right-angle rotations exact.
        lin, tr, order = np.rint(lin), np.rint(tr), 0
    shape = tuple(int(d) for d in out_dims)
    return ndimage.affine_transform(
        data, lin, tr, output_shape=shape, order=order, mode="constant", cval=0
    )


def resample_spline(
    v: Volume,
    t: AffineTransform,
    out_dims: Sequence[int],
    out_spacing: Sequence[float],
) -> Volume:
    """Resample intensities onto a new grid by cubic B-spline; ``t`` maps
    output voxel coords to input voxel coords. Out-of-bounds samples fill
    with 0."""
    data = _resample_array(v.data, t, out_dims, order=3)
    return Volume(data, out_spacing, v.affine.compose(t))


def resample_nearest(
    l: LabelMap,
    t: AffineTransform,
    out_dims: Sequence[int],
    out_spacing: Sequence[float],
) -> LabelMap:
    """Nearest-neighbour label resampling; out-of-bounds fills background."""
    labels = _resample_array(l.labels, t, out_dims, order=0)
    return LabelMap(labels, out_spacing, l.affine.compose(t))


def map_back(seg: LabelMap, original: Volume, t: AffineTransform) -> LabelMap:
    """Carry a segmentation back onto the original grid.

    ``t`` is the forward coregistration transform (model-grid voxel ->
    original voxel); its inverse is the pull-back map for resampling onto the
    original grid."""
    return resample_nearest(seg, t.invert(), original.dims, original.spacing)


def _block_mean(data: np.ndarray, f: int) -> np.ndarray:
    if f == 1:
        return data.astype(np.float64)
    x, y, z = (s // f for s in data.shape)
    trimmed = data[: x * f, : y * f, : z * f].astype(np.float64)
    return trimmed.reshape(x, f, y, f, z, f).mean(axis=(1, 3, 5))


def _intensity_centroid(data: np.ndarray) -> np.ndarray:
    mass = data.astype(np.float64) - float(data.min())
    total = mass.sum()
    if total <= 0:
        return (np.asarray(data.shape, dtype=np.float64) - 1) / 2
    idx = [np.arange(n, dtype=np.float64) for n in data.shape]
    cx = (mass.sum(axis=(1, 2)) * idx[0]).sum() / total
    cy = (mass.sum(axis=(0, 2)) * idx[1]).sum() / total
    cz = (mass.sum(axis=(0, 1)) * idx[2]).sum() / total
    return np.array([cx, cy, cz])


def _centered_axes(shape, level, c_ref):
    """Full-resolution coordinate of each level voxel centre, per axis,
    minus the reference centroid."""
    half = (level - 1.0) / 2.0
    return [np.arange(n) * float(level) + half - c for n, c in zip(shape, c_ref)]


def _mse_cost_grad(mov, ref_l, level, lin, tr, centered, need_grad=True):
    """MSE between the warped moving image and the reference at one pyramid
    level, plus its gradient w.r.t. the 12 affine parameters.

    ``centered`` holds the 1-D full-resolution coordinates of the level's
    voxel centres on each axis, minus the reference centroid. Level voxel
    ``r`` samples moving-level voxel ``lin @ r + off``, so one linear
    ``affine_transform`` warps the image. The cost gradient needs the moving
    image's gradient at the sampled points, ``g``; by the chain rule the
    warped image ``W`` has ``grad_r W = lin.T @ g``, so ``g`` comes from
    ``np.gradient(W)`` and one 3x3 solve instead of three more
    interpolations.
    """
    f = float(level)
    half = (f - 1.0) / 2.0
    origin = np.array([c[0] for c in centered])  # level voxel 0, centred
    off = (lin @ origin + tr - half) / f
    warped = ndimage.affine_transform(
        mov, lin, offset=off, output_shape=ref_l.shape, order=1, mode="constant", cval=0.0
    )
    res = warped - ref_l
    n = res.size
    cost = float((res * res).sum() / n)
    if not need_grad or not np.isfinite(cost):
        return cost, None, None
    # h[d] = sum of res * dW/dr_d * (centered_x, centered_y, centered_z, 1),
    # each term a marginal sum since the coordinates are separable
    h = np.empty((3, 4))
    for d, gd in enumerate(np.gradient(warped)):
        p = res * gd
        h[d, 0] = p.sum(axis=(1, 2)) @ centered[0]
        h[d, 1] = p.sum(axis=(0, 2)) @ centered[1]
        h[d, 2] = p.sum(axis=(0, 1)) @ centered[2]
        h[d, 3] = p.sum()
    g = np.linalg.solve(lin.T, h) * (2.0 / n / f)
    return cost, g[:, :3], g[:, 3]


def register_affine(moving: Volume, reference: Volume, grid_dims) -> RegistrationResult:
    """Affine alignment of ``moving`` to ``reference`` by multi-resolution
    gradient descent on the mean-squared intensity difference, for sampling
    onto ``grid_dims``, a grid spanning the reference's extent.

    Initialized from the intensity centroids; parameters are the linear part
    and a translation around the centroid pairing, updated with adaptive
    per-parameter (Adam-style) steps of size ``_STEP`` (0.02). Each iteration
    interpolates once: the cost gradient comes from the warped image by the
    chain rule (see ``_mse_cost_grad``). The pyramid ``_LEVELS`` downsamples
    by 4, 2 and 1 and caps their updates at 80, 80 and 50, skipping a level
    whose block leaves fewer than 2 voxels on an axis of either scan. Once a
    level has run, it stops at the largest factor no larger than one grid
    voxel, counted in reference voxels: the smallest ratio
    ``reference.dims / grid_dims`` over the axes (level 4 from a ratio of
    4, level 2 from 2, else level 1). A level stops
    early on a plateau, once ``_PLATEAU_ITERS`` (10) iterations in a
    row have each failed to lower its best cost by more than
    ``_PLATEAU_RTOL`` (1e-4) of it, at an iterate whose cost is not above
    the level's start cost. The initial and final costs are taken at full
    resolution whichever level ran last. Returns the pull-back transform
    (reference-grid voxel -> moving voxel), a ``LevelTrace`` per pyramid
    level run, and ``converged``: false when no level ran (a scan with an
    axis under 2 voxels), when a level diverged (a non-finite cost, or a last
    iterate above the level's start by more than its best gain) or when the
    result at full resolution is costlier than the centroid initialization,
    which is then returned instead. Each level hands on its best-seen
    parameters either way.
    """
    if float(moving.data.max()) == float(moving.data.min()):
        raise ValueError("moving volume is constant; registration is ill-posed")
    if float(reference.data.max()) == float(reference.data.min()):
        raise ValueError("reference volume is constant; registration is ill-posed")
    # levels finer than one grid voxel resolve nothing the grid keeps, once a
    # coarser level has run; a grid as fine as the reference keeps them all
    ratio = min(r / g for r, g in zip(reference.dims, grid_dims))
    finest = max((f for f, _ in _LEVELS if f <= ratio), default=1)
    c_ref = _intensity_centroid(reference.data)
    c_mov = _intensity_centroid(moving.data)
    lin = np.eye(3)
    tr = c_mov.copy()  # transform: q = lin @ (r - c_ref) + tr

    m = np.zeros(12)
    v = np.zeros(12)
    tstep = 0
    traces = []

    for level, n_iter in _LEVELS:
        too_small = min(reference.dims) // level < 2 or min(moving.dims) // level < 2
        if too_small or (traces and level < finest):
            continue
        t0 = time.perf_counter()
        ref_l = _block_mean(reference.data, level)
        mov_l = _block_mean(moving.data, level)
        centered = _centered_axes(ref_l.shape, level, c_ref)
        # Evaluation i is the cost at the parameters after i updates: the
        # first is the level's start cost and the last its end cost, at the
        # cap or at a stop, where the parameters have not moved since.
        last_gain = 0  # the last evaluation that lowered the best by > rtol
        for i in range(n_iter + 1):
            cost, dlin, dtr = _mse_cost_grad(
                mov_l, ref_l, level, lin, tr, centered, need_grad=i < n_iter
            )
            if i == 0:
                start_cost = best_cost = cost
                best = (lin.copy(), tr.copy())
            if not np.isfinite(cost):
                stop = "nonfinite"
                break
            if cost < best_cost * (1 - _PLATEAU_RTOL):
                last_gain = i
            if cost < best_cost:
                best_cost = cost
                best = (lin.copy(), tr.copy())
            if i == n_iter:
                stop = "budget"
                break
            if i - last_gain >= _PLATEAU_ITERS and cost <= start_cost:
                stop = "plateau"
                break
            g = np.concatenate([dlin.reshape(-1), dtr])
            tstep += 1
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** tstep)
            vh = v / (1 - 0.999 ** tstep)
            upd = _STEP * mh / (np.sqrt(vh) + 1e-12)
            lin = lin - upd[:9].reshape(3, 3)
            tr = tr - upd[9:]
        seconds = time.perf_counter() - t0
        traces.append(LevelTrace(level, i, start_cost, best_cost, cost, stop, seconds))
        lin, tr = best[0].copy(), best[1].copy()

    # express q = lin @ (r - c_ref) + tr as q = L r + t
    transform = AffineTransform(lin, tr - lin @ c_ref)

    # report costs at full resolution; a level-1 run that came last already
    # evaluated the cost at the parameters it hands on: its best cost
    ref_f = reference.data.astype(np.float64)
    mov_f = moving.data.astype(np.float64)
    centered = _centered_axes(ref_f.shape, 1, c_ref)
    init_cost, _, _ = _mse_cost_grad(
        mov_f, ref_f, 1, np.eye(3), c_mov.copy(), centered, need_grad=False
    )
    if traces and traces[-1].level == 1:
        final_cost = traces[-1].best_cost
    else:
        final_cost, _, _ = _mse_cost_grad(mov_f, ref_f, 1, lin, tr, centered, need_grad=False)
    fell_back = final_cost > init_cost
    if fell_back:
        # never report worse than the centroid initialization
        transform = AffineTransform(np.eye(3), c_mov - c_ref)
        final_cost = init_cost
    return RegistrationResult(
        transform=transform,
        final_cost=float(final_cost),
        converged=bool(traces) and not (fell_back or any(t.diverged for t in traces)),
        initial_cost=float(init_cost),
        levels=tuple(traces),
    )


def save_transform(t: AffineTransform, path) -> None:
    """Write the row-major 4x4 homogeneous matrix as 16 numbers."""
    rows = t.as_matrix()
    with open(path, "w") as fh:
        for row in rows:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_transform(path) -> AffineTransform:
    values = np.loadtxt(path, dtype=np.float64)
    if values.shape != (4, 4):
        raise GeometryError(f"{path}: expected a 4x4 matrix, got {values.shape}")
    if not np.allclose(values[3], (0, 0, 0, 1), atol=1e-12):
        raise GeometryError(f"{path}: last row must be 0 0 0 1")
    return AffineTransform.from_matrix(values)
