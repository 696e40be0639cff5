"""Training loss and evaluation metrics.

The training loss combines a soft multi-class Dice term with categorical
cross-entropy: L = -sum_s dice_s + sum_s sum_x (-T_s(x) log P_s(x)), both
terms over all 28 classes including background. Evaluation metrics (per
structure Dice, average and volume-weighted summaries) exclude background
and are computed on hard masks. All accumulation is float64.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import NUM_CLASSES

DICE_EPS = 1e-6
_LOG_CLAMP = 1e-12  # guards log/1-over-P once softmax underflows to 0


class CorrelationError(ValueError):
    """Pearson correlation is undefined (too few points or zero variance)."""


@dataclass
class DiceReport:
    """Per-structure Dice and ground-truth voxel counts, each a
    ``NUM_CLASSES``-long float64 array indexed by label, and both summary
    scores. Index 0 (background) is carried but never scored."""

    per_structure: np.ndarray
    volumes: np.ndarray  # 0 for a structure absent from the ground truth

    def _present(self) -> np.ndarray:
        """The structures present in the ground truth, in label order."""
        present = np.flatnonzero(self.volumes[1:]) + 1
        if not present.size:
            raise ValueError("no structures present in ground truth")
        return present

    @property
    def average(self) -> float:
        """Arithmetic mean of per-structure Dice; background and structures
        absent from the ground truth are excluded."""
        return float(self.per_structure[self._present()].mean())

    @property
    def volume_weighted(self) -> float:
        """Ground-truth-volume-weighted mean of per-structure Dice; the
        products are summed one after another in label order."""
        present = self._present()
        v = self.volumes[present]
        return float(np.add.accumulate(v * self.per_structure[present])[-1] / v.sum())


def dice_report(pred_labels: np.ndarray, true_labels: np.ndarray) -> DiceReport:
    """Evaluate a hard segmentation against hard ground truth: the Dice and
    ground-truth voxel count of every label, background included.

    Uses joint label counts, which is exactly the set-overlap Dice
    2|A n B| / (|A| + |B|) under the eps smoothing.
    """
    pred = np.asarray(pred_labels).reshape(-1).astype(np.int64)
    true = np.asarray(true_labels).reshape(-1).astype(np.int64)
    if pred.shape != true.shape:
        raise ad.ShapeError("prediction and truth differ in voxel count")
    joint = np.bincount(true * NUM_CLASSES + pred, minlength=NUM_CLASSES * NUM_CLASSES)
    joint = joint.reshape(NUM_CLASSES, NUM_CLASSES).astype(np.float64)
    true_counts = joint.sum(axis=1)
    pred_counts = joint.sum(axis=0)
    inter = np.diag(joint)
    dice = (2.0 * inter + DICE_EPS) / (true_counts + pred_counts + DICE_EPS)
    return DiceReport(dice, true_counts)


def combined_loss(P: Tensor, T: np.ndarray) -> Tensor:
    """Scalar training loss on a (batch, classes, x, y, z) softmax field P
    with one-hot truth T of the same shape; each class's Dice pools the
    batch and every voxel.

    Returns a graph scalar; backward() propagates through the softmax to the
    logits (and onward to the weights). The Dice fraction and the
    cross-entropy term share one hand-derived gradient, checked against
    finite differences in the test suite.

    T's dtype is P's or narrower (``one_hot`` gives float32). Every step
    writes with ``out=`` into one field per dtype: the forward fills one
    float64 product and one log field in P's dtype and keeps neither for
    the backward, which fills one float64 Dice term and one field in P's
    dtype that ends as the gradient. Every float operation and its order
    are those of the expressions in the comments.
    """
    ad._check_5d(P, "prediction")
    T = np.asarray(T)
    if P.data.shape != T.shape:
        raise ad.ShapeError(f"prediction {P.data.shape} vs truth {T.shape}")
    axes = (0, 2, 3, 4)
    cshape = (1, -1, 1, 1, 1)
    inter = np.multiply(P.data, T, dtype=np.float64).sum(axis=axes)
    psum = P.data.sum(axis=axes, dtype=np.float64)
    tsum = T.sum(axis=axes, dtype=np.float64)
    denom = psum + tsum + DICE_EPS
    dice = (2.0 * inter + DICE_EPS) / denom
    # ce = -(T * log(max(P, clamp))).sum(), the sum in float64
    logp = np.maximum(P.data, _LOG_CLAMP)
    np.log(logp, out=logp)
    ce = -np.multiply(T, logp, out=logp).sum(dtype=np.float64)
    del logp  # the backward recomputes max(P, clamp)
    value = np.asarray(ce - dice.sum())

    def bwd(g):
        # d(-dice_s)/dP = -(2*T*denom - (2*inter+eps)) / denom^2, per class
        ddice = np.multiply(T, 2.0, dtype=np.result_type(T, 2.0), out=np.empty(T.shape))
        np.multiply(ddice, denom.reshape(cshape), out=ddice)
        np.subtract(ddice, (2.0 * inter + DICE_EPS).reshape(cshape), out=ddice)
        np.divide(ddice, (denom ** 2).reshape(cshape), out=ddice)
        # dce = -T / max(P, clamp) where P >= clamp, else 0 (so 0 at a NaN);
        # -(T / p) is (-T) / p bit for bit
        dce = np.maximum(P.data, _LOG_CLAMP)
        np.divide(T, dce, out=dce)
        np.negative(dce, out=dce)
        np.copyto(dce, 0.0, where=~(P.data >= _LOG_CLAMP))
        np.subtract(dce, ddice, out=ddice)
        # g * (dce - ddice) in float64, cast into P's dtype
        P.accumulate_grad(np.multiply(g, ddice, out=dce))

    return ad._make(value, (P,), bwd)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation coefficient."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-D sequences")
    if x.size < 3:
        raise CorrelationError(f"need at least 3 points, got {x.size}")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = np.sqrt((xd * xd).sum())
    sy = np.sqrt((yd * yd).sum())
    if sx == 0.0 or sy == 0.0:
        raise CorrelationError("correlation undefined for zero-variance input")
    return float((xd * yd).sum() / (sx * sy))


def write_dice_rows(rows: Sequence[Tuple[str, DiceReport]], path) -> None:
    """Evaluation report: one row per (volume, structure) with Dice and
    ground-truth volume, then one summary row per volume carrying the average
    and volume-weighted scores."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["volume", "structure", "dice", "voxels", "d_a", "d_v"])
        for name, report in rows:
            for s in report._present():
                dice, voxels = float(report.per_structure[s]), int(report.volumes[s])
                writer.writerow([name, s, repr(dice), voxels, "", ""])
            writer.writerow(
                [name, "summary", "", "", repr(report.average), repr(report.volume_weighted)]
            )
