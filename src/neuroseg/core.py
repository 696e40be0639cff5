"""Core volumetric data types shared by every stage of the pipeline.

Conventions: grids are indexed (x, y, z); bulk voxel data is float32 for
intensities and uint8 for labels, while statistics and geometry are computed
in float64. Volumes and label maps are immutable after construction, so they
can be shared freely across threads; both end their construction in one
shared step that checks the grid and the spacing and, when none is given,
sets the voxel-to-world affine to the spacing's diagonal. Label s in 1..27
is the structure named ``STRUCTURE_NAMES[s - 1]``; label 0 is background.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

NUM_CLASSES = 28  # 27 anatomical structures plus background
INTENSITY_MAX = 100.0


class GeometryError(ValueError):
    """Non-invertible or otherwise ill-posed geometric transform."""


class DegenerateVolumeWarning(UserWarning):
    """Constant-intensity input; usually a corrupt or empty scan."""


@dataclass(frozen=True, eq=False)
class AffineTransform:
    """Invertible affine map ``y = linear @ x + translation`` between 3-D frames.

    Used both as a voxel-to-world mapping on volumes and as a grid-to-grid
    resampling map between two voxel lattices.
    """

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        lin = np.array(self.linear, dtype=np.float64).reshape(3, 3)
        tr = np.array(self.translation, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(lin)) and np.all(np.isfinite(tr))):
            raise GeometryError("affine transform contains non-finite entries")
        if abs(np.linalg.det(lin)) < 1e-12:
            raise GeometryError("affine linear part is singular")
        lin.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, matrix) -> "AffineTransform":
        """Build from a 3x4 or 4x4 homogeneous matrix."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape == (4, 4):
            m = m[:3, :]
        if m.shape != (3, 4):
            raise GeometryError(f"expected 3x4 or 4x4 matrix, got {m.shape}")
        return cls(m[:, :3], m[:, 3])

    def as_matrix(self) -> np.ndarray:
        """Row-major 4x4 homogeneous matrix, last row (0, 0, 0, 1)."""
        m = np.eye(4)
        m[:3, :3] = self.linear
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "AffineTransform") -> "AffineTransform":
        """Return self(other(x))."""
        return AffineTransform(
            self.linear @ other.linear,
            self.linear @ other.translation + self.translation,
        )

    def invert(self) -> "AffineTransform":
        inv = np.linalg.inv(self.linear)
        return AffineTransform(inv, -inv @ self.translation)


def _freeze(grid, name, array: np.ndarray) -> None:
    """The constructor tail of the grid types: check ``array``'s grid and
    ``grid.spacing``, then store ``array``, read-only, as ``name``, the
    spacing as floats and the affine, by default the spacing's diagonal."""
    if array.ndim != 3 or min(array.shape) < 1:
        raise ValueError(f"expected a non-empty 3-D grid, got shape {array.shape}")
    sp = tuple(float(s) for s in grid.spacing)
    if len(sp) != 3 or min(sp) <= 0:
        raise ValueError(f"voxel spacing must be positive, got {grid.spacing}")
    array.setflags(write=False)
    object.__setattr__(grid, name, array)
    object.__setattr__(grid, "spacing", sp)
    if grid.affine is None:
        object.__setattr__(grid, "affine", AffineTransform(np.diag(sp), np.zeros(3)))


@dataclass(frozen=True, eq=False)
class Volume:
    """Scalar intensity grid with voxel spacing (mm) and voxel-to-world affine."""

    data: np.ndarray
    spacing: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: Optional[AffineTransform] = None

    def __post_init__(self):
        _freeze(self, "data", np.array(self.data, dtype=np.float32))
        if not np.all(np.isfinite(self.data)):
            raise ValueError("volume contains non-finite intensities")

    @property
    def dims(self) -> Tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Integer class grid over the 28 segmentation classes (0 = background)."""

    labels: np.ndarray
    spacing: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: Optional[AffineTransform] = None

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "ui":
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        if labels.size and (labels.min() < 0 or labels.max() >= NUM_CLASSES):
            raise ValueError(
                f"labels must lie in [0, {NUM_CLASSES - 1}], "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        _freeze(self, "labels", labels.astype(np.uint8))  # always a copy: owned

    @property
    def dims(self) -> Tuple[int, int, int]:
        return self.labels.shape


STRUCTURE_NAMES = (
    "Cortical White Matter Left",
    "Cortical Grey Matter Left",
    "Cortical White Matter Right",
    "Cortical Grey Matter Right",
    "Lateral Ventricle Left",
    "Cerebellar White Matter Left",
    "Cerebellar Grey Matter Left",
    "Thalamus Left",
    "Caudate Left",
    "Putamen Left",
    "Pallidum Left",
    "Third Ventricle",
    "Fourth Ventricle",
    "Brainstem",
    "Hippocampus Left",
    "Amygdala Left",
    "Ventral DC Left",
    "Lateral Ventricle Right",
    "Cerebellar White Matter Right",
    "Cerebellar Grey Matter Right",
    "Thalamus Right",
    "Caudate Right",
    "Putamen Right",
    "Pallidum Right",
    "Hippocampus Right",
    "Amygdala Right",
    "Ventral DC Right",
)


def normalize_intensity(v: Volume) -> Volume:
    """Map intensities linearly onto [0, 100] by a min-max rescale.

    Constant-intensity input yields an all-zero volume and a
    DegenerateVolumeWarning. Geometry is untouched.

    The rescale runs in float64 so that re-normalizing an already normalized
    volume returns it bit for bit.
    """
    data = v.data.astype(np.float64)
    mn = data.min()
    mx = data.max()
    if mx == mn:
        warnings.warn(
            "constant-intensity volume; normalization produced all zeros",
            DegenerateVolumeWarning,
            stacklevel=2,
        )
        out = np.zeros(v.dims, dtype=np.float32)
    else:
        out = ((data - mn) * (INTENSITY_MAX / (mx - mn))).astype(np.float32)
    return Volume(out, v.spacing, v.affine)


def one_hot(labels, num_classes: int = NUM_CLASSES) -> np.ndarray:
    """Per-class indicator field of shape (num_classes, x, y, z), float32.

    Exactly one class is 1 at every voxel; summing a class plane gives that
    label's voxel count. Labels must be integers, as ``LabelMap``'s are.
    """
    arr = labels.labels if isinstance(labels, LabelMap) else np.asarray(labels)
    if arr.dtype.kind not in "ui":
        raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
    for label in (arr.min(initial=0), arr.max(initial=0)):
        if not 0 <= label < num_classes:
            raise ValueError(f"label {int(label)} out of range for {num_classes} classes")
    flat = arr.reshape(-1).astype(np.intp)
    out = np.zeros((num_classes, flat.size), dtype=np.float32)
    out[flat, np.arange(flat.size)] = 1.0
    return out.reshape((num_classes,) + arr.shape)
