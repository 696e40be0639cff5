"""Desk-scale multi-modal brain segmentation toolkit.

A framework-free pipeline: volumetric core types and bit-exact file I/O,
affine coregistration with spline resampling, a small reverse-mode autodiff
engine, a configurable 3-D U-Net trained with a combined Dice/cross-entropy
loss, Monte Carlo dropout uncertainty quantification, and a synthetic phantom
generator for end-to-end validation.
"""

from .core import (
    AffineTransform,
    DegenerateVolumeWarning,
    GeometryError,
    LabelMap,
    NUM_CLASSES,
    STRUCTURE_NAMES,
    Volume,
    normalize_intensity,
    one_hot,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTransform",
    "DegenerateVolumeWarning",
    "GeometryError",
    "LabelMap",
    "NUM_CLASSES",
    "STRUCTURE_NAMES",
    "Volume",
    "normalize_intensity",
    "one_hot",
    "__version__",
]
